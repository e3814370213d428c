"""mixprec benchmark: the measure -> merge -> PSD-project -> solve pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quad16 --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced pass.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

# numpy is imported only after child_environment() has pinned BLAS threads.
import harness
import tracing
from workloads import WORKLOADS, Context, Samples

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Every run must end within 180 s; children still running at this point
# are killed and their operations fail.
HARD_LIMIT_S = 170.0
PROCESS_START_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("measure_s", "s"),
    ("solve_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("eval_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; orders work whose order does not change the answer")
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="measurement window, filled with reps and rounds of short steps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="seed of the workload's instances (default: the workload's own)")
    return parser.parse_args(argv)


def child_environment() -> dict:
    """Pin BLAS threads here and for children, and put ``src`` first."""
    harness.pin_blas_threads(os.environ)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    return env


def measure_window(workload, ctx, samples, seconds: float, setups: int,
                   clock=time.perf_counter) -> dict:
    """Fill ``seconds`` with reps spread over equal slots, each slot's
    remainder filled with rounds of the short steps, and ``setups`` more
    set-ups due at even intervals.

    A shared host's speed drifts from one ten-second stretch to the next, so a
    step's samples are spread over the whole window instead of being taken
    back to back.  The first rep always runs; the slot count is how many
    reps of its length fit.  A set-up runs at the first rep or round that
    begins after it is due; set-ups still owed when the window ends run then.
    """
    start = clock()
    end = min(start + seconds, ctx.deadline)
    due = [start + (i + 1) * seconds / (setups + 1) for i in range(setups)]
    setup_times = []

    def run_due_setups(now):
        while due and due[0] <= now:
            due.pop(0)
            setup_times.append(workload.setup(ctx, 1 + len(setup_times)))

    slot = None
    reps = rounds = 0
    while True:
        run_due_setups(clock())
        began = clock()
        workload.rep(ctx, samples, f"rep{reps}", False)
        reps += 1
        took = clock() - began
        if slot is None:
            slot = seconds / max(1, int(seconds // took))
        # Without room for another rep after this slot, fill to the end.
        more = start + reps * slot + took <= end
        slot_end = min(end, start + reps * slot) if more else end
        last = 0.0
        while clock() + last <= slot_end:
            run_due_setups(clock())
            began = clock()
            workload.fill(ctx, samples, f"fill{rounds}")
            rounds += 1
            last = clock() - began
        if not more:
            run_due_setups(float("inf"))
            return {"reps": reps, "fill_rounds": rounds, "setup_times": setup_times}


def run_workload(cls, args, env, machine) -> list[str]:
    instance_seed = cls.default_instance_seed if args.instance_seed is None else args.instance_seed
    workload = cls(instance_seed)
    started = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{cls.name}-{os.getpid()}")
    os.makedirs(work)
    ledger = harness.Ledger()
    ctx = Context(work=work, env=env, deadline=started + HARD_LIMIT_S, ledger=ledger,
                  run_seed=args.seed)
    samples = Samples()
    traced = per_layer = None
    try:
        if cls.in_process:
            ctx.probe.start()
        setup_times = [workload.setup(ctx, 0)]
        window = measure_window(workload, ctx, samples, args.seconds,
                                0 if args.trace else cls.setup_reps - 1)
        setup_times += window.pop("setup_times")
        ctx.probe.stop()
        if args.trace:
            starts = []
            for index in range(PROCESS_START_REPS):
                child = ctx.mixprec("--help", probed=False)
                ledger.record(f"process start {index}", [child.problem()])
                starts.append(child.wall_s)
            traced = Samples()
            workload.rep(ctx, traced, "traced", True)
            per_layer = tracing.layer_metrics(traced.spans, process_start=starts,
                                              cli_self_s=traced.cli_self_s)
            expected = workload.expected_evaluations()
            got = per_layer["oracles.evaluate_calls"]
            ledger.record("traced evaluation count", [
                "" if got == expected else f"{got} evaluations, formula gives {expected}"])
    finally:
        ctx.probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    return summarize(cls.name, args, instance_seed, machine, ledger, setup_times, samples,
                     window, ctx.peak_rss_mib, ctx.peak_rss_from, traced, per_layer)


def summarize(name, args, instance_seed, machine, ledger, setup_times, samples, window,
              peak_rss_mib, peak_rss_from, traced, per_layer) -> list[str]:
    """The table, the record line and, last, the result JSON line."""
    latencies = samples.latencies() or [0.0]
    p50, beyond50 = harness.nearest_rank(latencies, 50)
    p90, beyond90 = harness.nearest_rank(latencies, 90)
    solves = samples.stage("solve")[1]
    pipeline = samples.pipeline_s()
    end_to_end = {
        "setup_s": (harness.median([seconds for seconds, _ in setup_times]), len(setup_times)),
        "measure_s": samples.stage("measure"),
        "solve_s": samples.stage("solve"),
        "solve_p50_ms": (p50 * 1e3, solves),
        "solve_p90_ms": (p90 * 1e3, solves),
        "eval_s": samples.stage("eval"),
        "pipeline_s": (pipeline, window["reps"]),
        "peak_rss_mib": (peak_rss_mib, window["reps"]),
    }
    extra = {"failed_ratio": (ledger.failed / ledger.attempted, ledger.attempted)}
    if "sweep" in samples.stages():
        extra["sweep_s"] = samples.stage("sweep")
    # The same medians in wall time, before normalizing to the reference speed.
    wall = {f"{stage}_s": samples.stage(stage, wall=True)[0] for stage in samples.stages()}
    wall["setup_s"] = harness.median([wall_s for _, wall_s in setup_times])
    wall["pipeline_s"] = samples.pipeline_s(wall=True)

    lines = [f"workload={name} instance_seed={instance_seed} run_seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} reps={window['reps']} "
             f"fill_rounds={window['fill_rounds']} setup_reps={len(setup_times)}"]
    units = dict(END_TO_END, failed_ratio="1", sweep_s="s")
    for key, (value, n) in {**end_to_end, **extra}.items():
        lines.append(f"  {key:<30} {value:>14.6f} {units[key]:<6} n={n}")
    lines.append(f"  solve latency over {len(latencies)} instances, each the median of its "
                 f"solves: p50 has {beyond50} and p90 has {beyond90} instances beyond it")
    lines.append(f"  peak RSS set by {peak_rss_from}")
    lines.append("  wall time, same medians: " + " ".join(
        f"{key}={value:.6f}" for key, value in wall.items()))
    record = {
        "workload": name, "instance_seed": instance_seed, "run_seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine, **window,
        "end_to_end": {k: {"value": v, "samples": n} for k, (v, n) in end_to_end.items()},
        "extra": {k: {"value": v, "samples": n} for k, (v, n) in extra.items()},
        "wall_s": wall, "peak_rss_from": peak_rss_from,
        "setup_times": setup_times,
        "failures": ledger.failures,
    }
    if traced is not None:
        units = dict(tracing.PER_LAYER)
        lines.append("  per-layer, one traced pass:")
        for key, value in per_layer.items():
            lines.append(f"  {key:<30} {value:>14.6f} {units[key]}")
        # Traced steps run without probes, so both sides are wall times.
        traced_pipeline = traced.pipeline_s(wall=True)
        overhead = traced_pipeline - wall["pipeline_s"]
        lines.append(f"  tracing: wall pipeline_s traced={traced_pipeline:.6f} "
                     f"untraced={wall['pipeline_s']:.6f} overhead={overhead:.6f} s")
        record["per_layer"] = per_layer
        record["tracing"] = {"pipeline_s": traced_pipeline,
                             "untraced_pipeline_s": wall["pipeline_s"], "overhead_s": overhead}
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in tracing.PER_LAYER}
    else:
        metrics = {k: {"value": end_to_end[k][0], "unit": u} for k, u in END_TO_END}
    for failure in ledger.failures[:10]:
        lines.append(f"  FAILED {failure}")
    lines.append("record " + json.dumps(record, sort_keys=True))
    lines.append(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                             "failed": ledger.failed, "metrics": metrics}))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixprec", "__init__.py")):
        print(f"error: no mixprec sources under {SRC}", file=sys.stderr)
        return 2
    env = child_environment()
    import mixprec

    if os.path.dirname(os.path.realpath(mixprec.__file__)) != os.path.realpath(
            os.path.join(SRC, "mixprec")):
        print(f"error: imported mixprec from {mixprec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    machine = harness.machine_record(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print("\n".join(run_workload(WORKLOADS[name], args, env, machine)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
