"""The three workloads: what each runs, times and checks.

A workload has a set-up step that makes its inputs from an instance
seed, a ``rep`` that runs the whole pipeline on them once, and a ``fill``
round that repeats its short steps.  run.py spreads reps and fill rounds
over the measurement window (see ``run.measure_window``), because a
shared host drifts in speed from one ten-second stretch to the next and
samples taken back to back all drift together.

The CLI workloads run each step as its own ``python -m mixprec`` child
process, as a user would; ``enum-many`` calls the public library API in
process, as the acceptance gate's ``test_03`` does.  Every step is an
operation in the ledger; its checks decide whether it failed.  Step times
are normalized to a fixed host speed (see hostspeed.py); wall times are
kept beside them.
"""

from __future__ import annotations

import csv
import json
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, field

import hostspeed
import tracing
from harness import Child, finite_float, median, parse_kv, ratio_problem, run_child

EVAL_RATIO_TOL = 1e-9
MENU = (2, 4, 8)


def evaluations_per_batch(num_layers: int, menu_size: int) -> int:
    """``build_matrix``'s cost: ``1 + |B|L + |B|^2 L(L-1)/2`` evaluations."""
    return 1 + menu_size * num_layers + menu_size ** 2 * num_layers * (num_layers - 1) // 2


@dataclass
class Samples:
    """Step timings of one run, keyed by stage and instance: normalized
    time, and beside it the wall time of the same steps."""

    times: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    wall_times: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    cli_self_s: float = 0.0

    def add(self, stage: str, seconds: float, wall_s: float, instance: str = "") -> None:
        self.times.setdefault((stage, instance), []).append(seconds)
        self.wall_times.setdefault((stage, instance), []).append(wall_s)

    def stages(self) -> list[str]:
        return list(dict.fromkeys(stage for stage, _ in self.times))

    def stage(self, name: str, wall: bool = False) -> tuple[float, int]:
        """Sum over instances of each instance's median, and the sample count."""
        times = self.wall_times if wall else self.times
        runs = [v for (stage, _), v in times.items() if stage == name]
        return sum((median(v) for v in runs), 0.0), sum(len(v) for v in runs)

    def latencies(self) -> list[float]:
        """Each instance's median solve time."""
        return [median(v) for (stage, _), v in self.times.items() if stage == "solve"]

    def pipeline_s(self, wall: bool = False) -> float:
        return sum(self.stage(name, wall)[0] for name in self.stages())


@dataclass
class Context:
    """Where a run works and what it hands to child commands."""

    work: str
    env: dict
    deadline: float
    ledger: object
    run_seed: int
    # Probes of this process, for the steps a workload runs in it.
    probe: hostspeed.Probe = field(default_factory=hostspeed.Probe)
    # The highest peak RSS of the timed steps, and the step that set it;
    # set-up and traced steps do not count.
    peak_rss_mib: float = 0.0
    peak_rss_from: str = ""

    def mixprec(self, *args, spans_path=None, probed=True) -> Child:
        """Run one command: with layer spans when ``spans_path`` is given,
        else with host-speed probes unless ``probed`` is false."""
        here = os.path.dirname(os.path.abspath(__file__))
        probes_path = self.path("probes.json")
        if spans_path is not None:
            argv = [sys.executable, os.path.join(here, "traced_cli.py"), spans_path, *args]
        elif probed:
            argv = [sys.executable, os.path.join(here, "probed_cli.py"), probes_path, *args]
        else:
            argv = [sys.executable, "-m", "mixprec", *args]
        child = run_child(argv, env=self.env, cwd=self.work,
                          timeout=self.deadline - time.perf_counter())
        if spans_path is None and probed and os.path.exists(probes_path):
            with open(probes_path, encoding="utf-8") as fh:
                probes = json.load(fh)
            child.seconds = hostspeed.normalize(child.wall_s, probes["durations"],
                                                probes["speeds"])
            os.remove(probes_path)
        return child

    def note_peak(self, mib: float, source: str) -> None:
        if mib > self.peak_rss_mib:
            self.peak_rss_mib, self.peak_rss_from = mib, source

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)


class CliWorkload:
    """Shared running of CLI steps, traced or not."""

    name = ""
    default_instance_seed = 0
    setup_reps = 3
    # Each step is probed in its own child process.
    in_process = False

    def __init__(self, instance_seed: int):
        self.instance_seed = instance_seed
        self.model = None
        self.cache = None
        self.bits = None

    def step(self, ctx: Context, samples: Samples, stage: str, args, traced: bool,
             label: str) -> Child:
        """Run one command and time it; a traced command also records spans."""
        spans_path = ctx.path(f"spans-{label}.json") if traced else None
        child = ctx.mixprec(*args, spans_path=spans_path)
        samples.add(stage, child.seconds, child.wall_s)
        if not traced:
            ctx.note_peak(child.peak_rss_mib, f"{args[0]} ({label})")
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            offset = len(samples.spans)
            for span in spans:
                if span[3] is not None:
                    span[3] += offset
            samples.spans.extend(spans)
            samples.cli_self_s += child.wall_s - tracing.top_level_seconds(spans)
        return child

    def setup(self, ctx: Context, index: int) -> tuple[float, float]:
        """Make the model file; returns the normalized and wall seconds it took.
        Later set-ups must write the same bytes as the first, whose file
        the steps use."""
        out = ctx.path(f"model-{index}.bin")
        child = ctx.mixprec(*self.setup_args(self.instance_seed, out))
        problems = [child.problem()]
        if self.model and not child.returncode:
            if not _same_bytes(self.model, out):
                problems.append("set-up output differs from the first set-up")
            os.remove(out)
        ctx.ledger.record(f"setup {index}", problems)
        self.model = self.model or out
        return child.seconds, child.wall_s

    def measure_args(self, cache: str):
        return ("measure", "--model", self.model, "--bits", ",".join(map(str, MENU)),
                "--cache-dir", cache)

    def eval_step(self, ctx, samples, cache, traced, label) -> Child | None:
        if self.bits is None:
            ctx.ledger.record(f"{label} eval", ["no assignment to evaluate"])
            return None
        return self.step(ctx, samples, "eval", (
            "eval", "--model", self.model, "--cache-dir", cache,
            "--assignment", self.bits.replace("|", ",")), traced, f"{label}-eval")


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


class Quad16(CliWorkload):
    """One long bounded search: Frank-Wolfe and ``_lmo`` dominate."""

    name = "quad16"
    default_instance_seed = 1
    setup_reps = 5
    sizes = (64,) * 16
    rho = 0.6
    budget_bits = 5120  # midpoint between all-2-bit (2048) and all-8-bit (8192)
    # The answer at the default instance seed.
    pinned_bits = "4|4|8|4|4|4|4|8|4|4|4|8|4|4|4|8"
    pinned_objective = 4.2744486857412411
    pinned_rel_tol = 1e-9

    def setup_args(self, seed: int, out: str):
        return ("gen-quadratic", "--seed", str(seed), "--sizes",
                ",".join(map(str, self.sizes)), "--rho", str(self.rho), "--out", out)

    def expected_evaluations(self) -> int:
        return evaluations_per_batch(len(self.sizes), len(MENU)) + 2

    def rep(self, ctx: Context, samples: Samples, label: str, traced: bool) -> None:
        cache = self.measure(ctx, samples, label, traced)
        child = self.step(ctx, samples, "solve", ("solve", "--cache-dir", cache, "--budget-bits",
                                                  str(self.budget_bits)), traced, f"{label}-solve")
        solved = parse_kv(child.stdout)
        ctx.ledger.record(f"{label} solve", [child.problem()] + self.check_solve(solved))
        self.bits = solved.get("bits", self.bits)
        self.evaluate(ctx, samples, cache, label, traced)

    def fill(self, ctx: Context, samples: Samples, label: str) -> None:
        """The steps short enough to repeat: measure into a fresh cache, then eval."""
        self.evaluate(ctx, samples, self.measure(ctx, samples, label, False), label, False)

    def measure(self, ctx, samples, label, traced) -> str:
        cache = ctx.path(f"cache-{label}")
        child = self.step(ctx, samples, "measure", self.measure_args(cache), traced,
                          f"{label}-measure")
        ctx.ledger.record(f"{label} measure", [child.problem()])
        return cache

    def evaluate(self, ctx, samples, cache, label, traced) -> None:
        child = self.eval_step(ctx, samples, cache, traced, label)
        if child is not None:
            ratio = finite_float(parse_kv(child.stdout).get("ratio"))
            ctx.ledger.record(f"{label} eval",
                              [child.problem(), ratio_problem(ratio, EVAL_RATIO_TOL)])

    def check_solve(self, kv: dict[str, str]) -> list[str]:
        problems = []
        if kv.get("proved") != "true" or kv.get("status") != "optimal":
            problems.append(f"not proved (status={kv.get('status')}, proved={kv.get('proved')})")
        size = finite_float(kv.get("size_bits"))
        if size is None or size > self.budget_bits:
            problems.append(f"size_bits {kv.get('size_bits')} exceeds {self.budget_bits}")
        if self.instance_seed == self.default_instance_seed:
            if kv.get("bits") != self.pinned_bits:
                problems.append(f"bits {kv.get('bits')} != {self.pinned_bits}")
            objective = finite_float(kv.get("objective"))
            if (objective is None or abs(objective - self.pinned_objective)
                    > self.pinned_rel_tol * abs(self.pinned_objective)):
                problems.append(f"objective {kv.get('objective')} != {self.pinned_objective!r}")
        return problems


class ToyWide(CliWorkload):
    """Wide layers: calibration, evaluations and the cache dominate."""

    name = "toy-wide"
    default_instance_seed = 0
    setup_reps = 2
    hidden = 256
    depth = 4
    batches = 8
    batch_size = 256
    methods = ("full", "diag", "block", "exhaustive")
    partition = "0-1;2-3"
    sweep_fractions = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __init__(self, instance_seed: int):
        super().__init__(instance_seed)
        dims = (2,) + (self.hidden,) * (self.depth - 1) + (2,)
        self.sizes = [a * b for a, b in zip(dims[:-1], dims[1:])]
        lo = min(MENU) * sum(self.sizes)
        hi = max(MENU) * sum(self.sizes)
        self.budgets = [int(lo + f * (hi - lo)) for f in self.sweep_fractions]
        self.solve_budget = self.budgets[self.sweep_fractions.index(0.5)]

    def setup_args(self, seed: int, out: str):
        return ("train-toy", "--seed", str(seed), "--hidden", str(self.hidden),
                "--depth", str(self.depth), "--out", out)

    def expected_evaluations(self) -> int:
        return self.batches * evaluations_per_batch(len(self.sizes), len(MENU)) + 2

    def size_of(self, bits: str) -> int:
        return sum(s * int(b) for s, b in zip(self.sizes, bits.split("|")))

    def rep(self, ctx: Context, samples: Samples, label: str, traced: bool) -> None:
        cache = ctx.path(f"cache-{label}")
        child = self.step(ctx, samples, "measure", self.measure_args(cache) + (
            "--batch-size", str(self.batch_size), "--batches", str(self.batches)),
            traced, f"{label}-measure")
        missing = [b for b in range(self.batches)
                   if not os.path.exists(os.path.join(cache, f"batch-{b:06d}.txt"))]
        ctx.ledger.record(f"{label} measure", [
            child.problem(), f"batch files {missing} missing" if missing else ""])
        self.cache = cache
        self.solve_sweep_eval(ctx, samples, label, traced)

    def fill(self, ctx: Context, samples: Samples, label: str) -> None:
        """The steps short enough to repeat, on the last rep's cache."""
        self.solve_sweep_eval(ctx, samples, label, False)

    def solve_sweep_eval(self, ctx, samples, label, traced) -> None:
        child = self.step(ctx, samples, "solve", ("solve", "--cache-dir", self.cache,
                                                  "--budget-bits", str(self.solve_budget)),
                          traced, f"{label}-solve")
        solved = parse_kv(child.stdout)
        self.bits = solved.get("bits", self.bits)

        # The run seed orders the methods; every order is the same work.
        methods = list(self.methods)
        random.Random(ctx.run_seed).shuffle(methods)
        csv_path = ctx.path(f"sweep-{label}.csv")
        sweep = self.step(ctx, samples, "sweep", (
            "sweep", "--cache-dir", self.cache, "--budgets-bits",
            ",".join(map(str, self.budgets)), "--methods", ",".join(methods),
            "--block-partition", self.partition, "--out", csv_path), traced, f"{label}-sweep")
        ctx.ledger.record(f"{label} sweep", [sweep.problem()])
        rows = {} if sweep.returncode else self.read_sweep(csv_path, methods)
        exhaustive = {budget: rows.get(("exhaustive", budget)) for budget in self.budgets}
        for method in methods:
            for budget in self.budgets:
                ctx.ledger.record(f"{label} sweep {method}@{budget}", self.check_row(
                    rows.get((method, budget)), exhaustive[budget], budget))
        ctx.ledger.record(f"{label} solve", [child.problem()] + self.check_solve(
            solved, exhaustive[self.solve_budget]))

        child = self.eval_step(ctx, samples, self.cache, traced, label)
        if child is not None:
            kv = parse_kv(child.stdout)
            ctx.ledger.record(f"{label} eval", [child.problem()] + [
                f"{key} is not a finite number" for key in ("measured_delta", "proxy", "ratio")
                if finite_float(kv.get(key)) is None])

    def check_solve(self, kv: dict[str, str], reference) -> list[str]:
        problems = []
        if kv.get("proved") != "true":
            problems.append("not proved")
        if "bits" not in kv or self.size_of(kv["bits"]) > self.solve_budget:
            problems.append(f"bits {kv.get('bits')} missing or over budget")
        if reference is None or (kv.get("bits"), kv.get("objective")) != (
                reference["bits"], reference["objective"]):
            problems.append("solve answer differs from exhaustive at the solve budget")
        return problems

    def read_sweep(self, path: str, methods) -> dict:
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(m, b) for m in methods for b in self.budgets]
        if len(rows) != len(keys) or [r["method"] for r in rows] != [m for m, _ in keys]:
            return {}
        return dict(zip(keys, rows))

    def check_row(self, row, reference, budget: int) -> list[str]:
        if row is None:
            return ["missing from the sweep CSV"]
        problems = []
        if row["optimal"] != "true" or not row["bits"]:
            problems.append("no proved feasible assignment")
        elif self.size_of(row["bits"]) > budget:
            problems.append(f"bits {row['bits']} exceed the budget")
        if row["method"] == "full" and (reference is None or (row["bits"], row["objective"]) != (
                reference["bits"], reference["objective"])):
            problems.append("full differs from exhaustive")
        return problems


@dataclass
class Instance:
    case: int
    menu: object
    oracle: object
    budget: object


class EnumMany:
    """The acceptance gate's ``test_03`` instances: many short solves."""

    name = "enum-many"
    default_instance_seed = 2024
    # Steps run in this process, which probes itself while they do.
    in_process = True
    # Generating the instances takes about 15 ms; many set-ups, spread over
    # the window, steady its median.
    setup_reps = 41
    instances = 100

    def __init__(self, instance_seed: int):
        self.instance_seed = instance_seed
        self.order = []
        self.cursor = 0
        # Exhaustive answers by case.  The enumeration is deterministic, so
        # later solves of a case reuse its answer; traced solves recompute
        # it so that the reference shows in solver.exhaustive_s.
        self.references = {}

    def setup(self, ctx: Context, index: int) -> tuple[float, float]:
        """Generate the instances; returns the normalized and wall seconds it took.
        Later set-ups must generate the same instances as the first, which
        the steps use."""
        import numpy as np
        from mixprec import oracles, sensitivity, solver

        started = time.perf_counter()
        # The draw order is test_03's, so seed 2024 gives its instances.
        rng = np.random.default_rng(self.instance_seed)
        out = []
        for case in range(self.instances):
            if case % 3 == 0:
                menu = sensitivity.BitMenu((2, 8))
                num_layers = int(rng.integers(4, 17))
            else:
                menu = sensitivity.BitMenu((2, 4, 8))
                num_layers = int(rng.integers(3, 11))
            sizes = [int(s) for s in rng.integers(2, 5, size=num_layers)]
            oracle = oracles.random_quadratic(case, sizes, float(rng.uniform(0.2, 1.0)))
            lo = sum(s * menu.bits[0] for s in sizes)
            hi = sum(s * menu.bits[-1] for s in sizes)
            budget = solver.SizeBudget(int(lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)))
            out.append(Instance(case, menu, oracle, budget))
        ended = time.perf_counter()
        if self.order:
            first = {i.case: _instance_key(i) for i in self.order}
            ctx.ledger.record(f"setup {index}", [
                "" if first == {i.case: _instance_key(i) for i in out}
                else "set-up instances differ from the first set-up"])
        else:
            ctx.ledger.record(f"setup {index}", [])
            # Solved in case order: the process's peak RSS depends on the
            # order of its allocations, so another order would move it.
            self.order = out
        return ctx.probe.normalize(started, ended), ended - started

    def expected_evaluations(self) -> int:
        return sum(evaluations_per_batch(len(i.oracle.layers), len(i.menu)) + 2
                   for i in self.order)

    def rep(self, ctx: Context, samples: Samples, label: str, traced: bool) -> None:
        """Every instance once."""
        tracer = tracing.Tracer() if traced else None
        uninstall = tracing.install(tracer) if traced else None
        try:
            for inst in self.order:
                self.solve(ctx, samples, inst, label, traced)
        finally:
            if uninstall:
                uninstall()
        if traced:
            samples.spans = tracer.spans
        else:
            self.note_rss(ctx)

    def fill(self, ctx: Context, samples: Samples, label: str) -> None:
        """One more instance, cycling through them in case order, so that
        every instance, around the median and in the tail alike, gets about
        as many samples."""
        self.solve(ctx, samples, self.order[self.cursor % len(self.order)], label, False)
        self.cursor += 1
        self.note_rss(ctx)

    @staticmethod
    def note_rss(ctx: Context) -> None:
        """The process's own peak, as the steps run in it."""
        ctx.note_peak(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "process")

    def solve(self, ctx, samples, inst, label, traced) -> None:
        from mixprec import quantizer, sensitivity, solver, spectra

        clock = time.perf_counter
        t0 = clock()
        matrix = sensitivity.build_matrix(inst.oracle, inst.menu)
        t1 = clock()
        projected = matrix.with_entries(spectra.psd_project(matrix.entries))
        report = solver.solve_bnb(projected, budget=inst.budget)
        t2 = clock()
        if traced or inst.case not in self.references:
            self.references[inst.case] = solver.solve_exhaustive(projected, budget=inst.budget)
        reference = self.references[inst.case]
        t3 = clock()
        pairs = zip(inst.oracle.layers, report.assignment.bits)
        perturbations = {i: quantizer.perturbation(layer, b) for i, (layer, b) in enumerate(pairs)}
        baseline = inst.oracle.evaluate({})
        measured = inst.oracle.evaluate(perturbations) - baseline
        proxy = 0.5 * solver.objective(matrix, report.assignment)
        t4 = clock()
        case = str(inst.case)
        for stage, (a, b) in (("measure", (t0, t1)), ("solve", (t1, t2)), ("eval", (t3, t4))):
            samples.add(stage, ctx.probe.normalize(a, b), b - a, case)
        ctx.ledger.record(f"{label} case {case}",
                          check_against_reference(report, reference, measured, proxy))


def _instance_key(inst: Instance):
    """An instance's menu, budget and layer weights, to compare set-ups."""
    return (inst.menu.bits, inst.budget.limit_bits,
            tuple(layer.weights.tobytes() for layer in inst.oracle.layers))


def check_against_reference(report, reference, measured: float, proxy: float) -> list[str]:
    """Problems with one B&B answer, given the exhaustive reference and
    the oracle's true loss change at the answer."""
    problems = []
    if not report.proved:
        problems.append("not proved")
    if (report.objective, report.assignment.bits, report.size_bits) != (
            reference.objective, reference.assignment.bits, reference.size_bits):
        problems.append(f"answer {report.assignment.bits} objective {report.objective!r} differs "
                        f"from exhaustive {reference.assignment.bits} {reference.objective!r}")
    problems.append(ratio_problem(measured / proxy if proxy else None, EVAL_RATIO_TOL))
    return problems


WORKLOADS = {w.name: w for w in (Quad16, ToyWide, EnumMany)}
