"""Layer spans recorded from outside the package.

``install`` replaces the public functions of each mixprec module with
wrappers that record a span around every call: in the defining module,
in the package namespace, and in ``mixprec.cli``, which resolved the
names at import time.  The package itself is not modified on disk.
Spans stay in memory and are summarized into the per-layer metrics by
``layer_metrics``.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc

from harness import median, union_length

MIB = float(2 ** 20)

# Spans whose calls are B&B solves; exhaustive enumeration is the reference.
BNB_SPANS = ("solver.solve_bnb", "solver.solve_diagonal_only", "solver.solve_block")

PER_LAYER = (
    ("quantizer.calibrate_calls", "count"),
    ("quantizer.calibrate_weights", "count"),
    ("quantizer.calibrate_s", "s"),
    ("quantizer.calibrate_peak_mib", "MiB"),
    ("oracles.load_calls", "count"),
    ("oracles.load_s", "s"),
    ("oracles.evaluate_calls", "count"),
    ("oracles.evaluate_s", "s"),
    ("oracles.evaluate_us", "us"),
    ("sensitivity.build_matrix_self_s", "s"),
    ("sensitivity.save_matrix_s", "s"),
    ("sensitivity.load_matrix_calls", "count"),
    ("sensitivity.load_matrix_s", "s"),
    ("sensitivity.merge_batches_s", "s"),
    ("sensitivity.cache_bytes", "bytes"),
    ("spectra.psd_project_calls", "count"),
    ("spectra.psd_project_s", "s"),
    ("spectra.psd_project_max_dim", "count"),
    ("solver.solve_calls", "count"),
    ("solver.bnb_s", "s"),
    ("solver.exhaustive_s", "s"),
    ("solver.nodes", "count"),
    ("solver.fw_iterations", "count"),
    ("solver.proved", "count"),
    ("solver.fw_iteration_us", "us"),
    ("cli.process_start_s", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    """Spans as ``[name, start, end, parent_index, attrs]`` lists."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, *, before=None, after=None):
        """Run ``fn`` inside a span; ``after(attrs, args, result, ok)`` fills
        the span's attributes once the interval is closed."""
        attrs = {}
        if before:
            before()
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, attrs])
        self._open.append(index)
        result, ok = None, False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.spans[index][2] = self.clock()
            self._open.pop()
            if after:
                after(attrs, args, result, ok)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children.get(index, [])]
        out.append((end - start) - union_length([c for c in covered if c[1] > c[0]]))
    return out


def top_level_seconds(spans) -> float:
    """Time covered by spans without a parent: layer work in one command."""
    return union_length([(s[1], s[2]) for s in spans if s[3] is None])


# ---------------------------------------------------------------------------
# what each wrapped call records beyond its interval

def _start_tracemalloc():
    tracemalloc.start()


def _calibrate_after(attrs, args, result, ok):
    attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    attrs["weights"] = int(args[0].size) if ok else 0


def _save_after(attrs, args, result, ok):
    attrs["bytes"] = os.path.getsize(args[1]) if ok else 0


def _psd_after(attrs, args, result, ok):
    attrs["dim"] = len(args[0])


def _solve_after(attrs, args, result, ok):
    if ok:
        attrs.update(nodes=result.nodes, fw_iterations=result.fw_iterations,
                     proved=bool(result.proved))


# (module, attribute path, before, after); the workloads pass arguments
# positionally, as the CLI does.
TARGETS = (
    ("quantizer", "calibrate_scale_mse", _start_tracemalloc, _calibrate_after),
    ("oracles", "QuadraticOracle.evaluate", None, None),
    ("oracles", "ToyClassifierOracle.evaluate", None, None),
    ("oracles", "load_oracle", None, None),
    ("sensitivity", "build_matrix", None, None),
    ("sensitivity", "save_matrix", None, _save_after),
    ("sensitivity", "load_matrix", None, None),
    ("sensitivity", "merge_batches", None, None),
    ("spectra", "psd_project", None, _psd_after),
    ("solver", "solve_bnb", None, _solve_after),
    ("solver", "solve_diagonal_only", None, _solve_after),
    ("solver", "solve_block", None, _solve_after),
    ("solver", "solve_exhaustive", None, _solve_after),
)


def _wrapper(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, before=before, after=after)
    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    import importlib

    package = importlib.import_module("mixprec")
    cli = importlib.import_module("mixprec.cli")
    restore = []
    for module_name, path, before, after in TARGETS:
        module = importlib.import_module(f"mixprec.{module_name}")
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        original = getattr(owner, attr)
        wrapper = _wrapper(tracer, f"{module_name}.{path}", original, before, after)
        holders = [owner] if owner_path else [module, package, cli]
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall():
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(spans, *, process_start: list[float], cli_self_s: float) -> dict[str, float]:
    """Summarize one traced pass of a workload into the per-layer metrics."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def seconds(*names):
        return sum((spans[i][2] - spans[i][1] for i in idx(*names)), 0.0)

    def attr_sum(key, *names):
        return sum(spans[i][4].get(key, 0) for i in idx(*names))

    evaluate = ("oracles.QuadraticOracle.evaluate", "oracles.ToyClassifierOracle.evaluate")
    calibrate = idx("quantizer.calibrate_scale_mse")
    evaluate_calls = len(idx(*evaluate))
    bnb_s = seconds(*BNB_SPANS)
    fw = attr_sum("fw_iterations", *BNB_SPANS)
    return {
        "quantizer.calibrate_calls": len(calibrate),
        "quantizer.calibrate_weights": attr_sum("weights", "quantizer.calibrate_scale_mse"),
        "quantizer.calibrate_s": seconds("quantizer.calibrate_scale_mse"),
        "quantizer.calibrate_peak_mib": max(
            (spans[i][4].get("peak_bytes", 0) for i in calibrate), default=0) / MIB,
        "oracles.load_calls": len(idx("oracles.load_oracle")),
        "oracles.load_s": seconds("oracles.load_oracle"),
        "oracles.evaluate_calls": evaluate_calls,
        "oracles.evaluate_s": seconds(*evaluate),
        "oracles.evaluate_us": (seconds(*evaluate) / evaluate_calls * 1e6
                                if evaluate_calls else 0.0),
        "sensitivity.build_matrix_self_s": sum(selfs[i] for i in idx("sensitivity.build_matrix")),
        "sensitivity.save_matrix_s": seconds("sensitivity.save_matrix"),
        "sensitivity.load_matrix_calls": len(idx("sensitivity.load_matrix")),
        "sensitivity.load_matrix_s": seconds("sensitivity.load_matrix"),
        "sensitivity.merge_batches_s": seconds("sensitivity.merge_batches"),
        "sensitivity.cache_bytes": attr_sum("bytes", "sensitivity.save_matrix"),
        "spectra.psd_project_calls": len(idx("spectra.psd_project")),
        "spectra.psd_project_s": seconds("spectra.psd_project"),
        "spectra.psd_project_max_dim": max(
            (spans[i][4].get("dim", 0) for i in idx("spectra.psd_project")), default=0),
        "solver.solve_calls": len(idx(*BNB_SPANS, "solver.solve_exhaustive")),
        "solver.bnb_s": bnb_s,
        "solver.exhaustive_s": seconds("solver.solve_exhaustive"),
        "solver.nodes": attr_sum("nodes", *BNB_SPANS),
        "solver.fw_iterations": fw,
        "solver.proved": sum(1 for i in idx(*BNB_SPANS) if spans[i][4].get("proved")),
        "solver.fw_iteration_us": bnb_s / fw * 1e6 if fw else 0.0,
        "cli.process_start_s": median(process_start),
        "cli.self_s": cli_self_s,
    }
