"""Command-line pipeline: train or generate an oracle, measure
sensitivities into a resumable cache, then project, solve, sweep, and
evaluate assignments back on the oracle.

Exit codes: 0 success, 2 infeasible budget, 3 finished without an
optimality proof, 4 I/O or file-format failure, 5 invalid arguments or
inconsistent inputs.
"""

from __future__ import annotations

import argparse
import collections
import csv
import glob
import math
import os
import sys
import threading

import numpy as np

from .oracles import (
    FileFormatError,
    load_oracle,
    random_quadratic,
    save_oracle,
    toy_training_accuracy,
    train_toy,
)
from .quantizer import perturbation
from .sensitivity import (
    BitMenu,
    SensitivityMatrix,
    build_matrix,
    layer_perturbations,
    load_matrix,
    merge_batches,
    save_matrix,
)
from .solver import (
    BITS_PER_MB,
    METHODS,
    BitAssignment,
    InfeasibleBudgetError,
    SearchSpaceError,
    SizeBudget,
    SolveReport,
    objective,
    solve_with_method,
    sweep,
)
from .spectra import _require_symmetric, psd_project

__all__ = ["main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NO_PROOF = 3
EXIT_IO = 4
EXIT_VALIDATION = 5

CACHE_ENV_VAR = "MIXPREC_CACHE_DIR"

CSV_COLUMNS = ("budget_mb", "method", "objective", "size_mb", "bits",
               "optimal", "nodes", "seconds")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; route everything through
    # the validation exit code instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse_list(text: str, what: str, kind=int) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise _UsageError(f"{what} must be comma-separated {noun}, got {text!r}") from None


def _parse_partition(text: str) -> list[tuple[int, ...]]:
    """Blocks split by ';', members by ',', 'a-b' denotes a closed range."""
    blocks = []
    for chunk in text.split(";"):
        members = []
        for item in filter(None, map(str.strip, chunk.split(","))):
            lo, _, hi = item.partition("-") if "-" in item[1:] else (item, "", item)
            try:
                members.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise _UsageError(f"bad member {item!r} in partition {text!r}") from None
        if not members:
            raise _UsageError(f"empty block in partition {text!r}")
        blocks.append(tuple(members))
    return blocks


def _cache_dir(args) -> str:
    path = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not path:
        raise _UsageError(f"no cache directory: pass --cache-dir or set {CACHE_ENV_VAR}")
    return path


def _batch_path(cache_dir: str, index: int) -> str:
    return os.path.join(cache_dir, f"batch-{index:06d}.txt")


def _load_batch(path: str) -> SensitivityMatrix:
    try:
        return load_matrix(path)
    except ValueError as exc:
        # A cache file that does not parse is a file problem, not an
        # argument problem.
        raise FileFormatError(str(exc)) from None


def _load_cache(cache_dir: str) -> SensitivityMatrix:
    paths = sorted(glob.glob(os.path.join(cache_dir, "batch-*.txt")))
    if not paths:
        raise FileNotFoundError(f"no batch-*.txt cache files under {cache_dir!r}")
    return merge_batches([_load_batch(path) for path in paths])


def _budget(args) -> SizeBudget:
    if (args.budget_mb is None) == (args.budget_bits is None):
        raise _UsageError("exactly one of --budget-mb or --budget-bits is required")
    if args.budget_bits is not None:
        return SizeBudget(args.budget_bits)
    return SizeBudget.from_megabytes(args.budget_mb)


def _solver_options(args, method: str) -> dict:
    options = {"node_limit": args.node_limit, "time_limit": args.time_limit}
    options = {name: value for name, value in options.items() if value is not None}
    if method == "exhaustive" and options:
        raise _UsageError("the exhaustive method cannot honour --node-limit or --time-limit")
    return options


def _csv_row(report: SolveReport, timing: bool) -> list[str]:
    bits = "|".join(str(b) for b in report.assignment.bits) if report.assignment else ""
    return [
        _fmt(report.budget_bits / BITS_PER_MB) if report.budget_bits is not None else "",
        report.method,
        _fmt(report.objective) if report.objective is not None else "",
        _fmt(report.size_bits / BITS_PER_MB) if report.size_bits is not None else "",
        bits,
        "true" if report.proved else "false",
        str(report.nodes),
        format(report.seconds, ".6f") if timing and report.seconds is not None else "",
    ]


def _write_csv(path: str, reports, timing: bool) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(_csv_row(report, timing))


def _print_report(report: SolveReport, timing: bool) -> None:
    print(f"method={report.method}")
    print(f"status={report.status}")
    if report.budget_bits is not None:
        print(f"budget_bits={report.budget_bits}")
    if report.assignment is not None:
        print(f"bits={'|'.join(str(b) for b in report.assignment.bits)}")
        print(f"objective={_fmt(report.objective)}")
        print(f"size_bits={report.size_bits}")
    print(f"nodes={report.nodes}")
    print(f"proved={'true' if report.proved else 'false'}")
    if timing:
        print(f"seconds={report.seconds:.6f}")


def cmd_train_toy(args) -> int:
    oracle = train_toy(args.seed, args.epochs, depth=args.depth, hidden=args.hidden,
                       train_count=args.train_count, noise=args.noise)
    accuracy = toy_training_accuracy(oracle.model)
    save_oracle(oracle, args.out)
    print(f"accuracy={accuracy:.4f}")
    print(f"saved={args.out}")
    return EXIT_OK


def cmd_gen_quadratic(args) -> int:
    sizes = _parse_list(args.sizes, "--sizes")
    oracle = random_quadratic(args.seed, sizes, args.rho, weight_scale=args.scale,
                              sample_ratio=args.sample_ratio)
    save_oracle(oracle, args.out)
    print(f"saved={args.out}")
    return EXIT_OK


def _batch_workers(pending: int) -> int:
    """Threads to measure ``pending`` batches on: the CPUs this process may
    use over the BLAS threads ``OPENBLAS_NUM_THREADS`` (else
    ``OMP_NUM_THREADS``) declares, at most ``pending`` and at least one.

    One when no positive thread count is declared: an unpinned BLAS
    already spreads each product over every CPU, and batch threads over
    it ran slower than one thread.
    """
    declared = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas = int(declared or 0)
    except ValueError:
        blas = 0
    if blas < 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinities
        cpus = os.cpu_count() or 1
    return max(1, min(pending, cpus // blas))


class _BatchPool:
    """Measures batches on the calling thread plus ``workers - 1`` helper
    threads, all taking indices in order from one queue.

    ``result`` hands back one batch's matrix or raises its exception, and
    the calling thread measures queued batches while it waits, so it
    works rather than idles.  After an error no batch starts; a batch in
    flight runs to its end.  Only batches in flight hold their oracle's
    buffers: a finished batch keeps just its matrix.
    """

    def __init__(self, indices, measure, workers: int):
        self._todo = collections.deque(indices)
        self._measure = measure
        self._done = {}
        self._changed = threading.Condition()
        self._helpers = [threading.Thread(target=self._help, daemon=True)
                         for _ in range(workers - 1)]
        for helper in self._helpers:
            helper.start()

    def _run(self, index: int) -> None:
        try:
            outcome = (self._measure(index), None)
        except BaseException as exc:  # handed to the caller of ``result``
            outcome = (None, exc)
        with self._changed:
            if outcome[1] is not None:
                self._todo.clear()
            self._done[index] = outcome
            self._changed.notify_all()

    def _take(self):
        with self._changed:
            return self._todo.popleft() if self._todo else None

    def _help(self) -> None:
        while (index := self._take()) is not None:
            self._run(index)

    def result(self, index: int):
        """Batch ``index``'s matrix.  Every earlier index in the queue must
        have been asked for already, so ``index`` has been taken or is next."""
        while True:
            with self._changed:
                if index in self._done:
                    matrix, exc = self._done.pop(index)
                    break
                if not self._todo:
                    self._changed.wait()
                    continue
                taken = self._todo.popleft()
            self._run(taken)
        if exc is not None:
            raise exc
        return matrix

    def close(self) -> None:
        """Start no more batches, and wait for the helpers to end."""
        with self._changed:
            self._todo.clear()
        for helper in self._helpers:
            helper.join()


def cmd_measure(args) -> int:
    menu = BitMenu(_parse_list(args.bits, "--bits"))
    if args.batch_size < 1:
        raise _UsageError("--batch-size must be >= 1")
    if args.batches < 0 or args.first_batch < 0:
        raise _UsageError("batch indices must be non-negative")
    cache_dir = _cache_dir(args)
    # Every batch measures the one model read here, over its own window.
    oracle = load_oracle(args.model)
    sizes = tuple(layer.count for layer in oracle.layers)
    # Created only once the model loaded.
    os.makedirs(cache_dir, exist_ok=True)
    indices = range(args.first_batch, args.first_batch + args.batches)
    present = {i for i in indices if os.path.exists(_batch_path(cache_dir, i))}
    pending = [i for i in indices if i not in present]

    def measure(index):
        # Each batch measures an oracle of its own, whose buffers go with it.
        return build_matrix(oracle.with_window(index * args.batch_size, args.batch_size),
                            menu, deltas=deltas)

    # Batches run concurrently, but this loop checks, writes and prints
    # them in index order, each as soon as every earlier one is done, so
    # the files and stdout are those of one batch after another.  An error
    # stops new batches; the earlier ones are still written, and the
    # error is raised here, at its batch.
    pool = None
    try:
        for index in indices:
            path = _batch_path(cache_dir, index)
            if index in present:
                existing = _load_batch(path)
                if existing.menu.bits != menu.bits:
                    raise ValueError(f"{path}: existing cache uses menu "
                                     f"{existing.menu.bits}, asked for {menu.bits}")
                if existing.layer_sizes != sizes:
                    raise ValueError(f"{path}: existing cache has layer sizes "
                                     f"{existing.layer_sizes}, model has {sizes}")
                print(f"batch {index}: exists, skipped")
                continue
            if pool is None:
                # The perturbations depend only on the weights and the menu,
                # so they are calibrated once, here, for every batch.
                deltas = layer_perturbations(oracle.layers, menu)
                pool = _BatchPool(pending, measure, _batch_workers(len(pending)))
            save_matrix(pool.result(index), path)
            print(f"batch {index}: wrote {path}")
    finally:
        if pool is not None:
            pool.close()
    return EXIT_OK


def cmd_import_matrix(args) -> int:
    menu = BitMenu(_parse_list(args.bits, "--bits"))
    sizes = _parse_list(args.sizes, "--sizes")
    cache_dir = _cache_dir(args)
    dense = np.loadtxt(args.dense, dtype=np.float64, ndmin=2)
    _require_symmetric(dense, args.dense, len(menu) * len(sizes))
    # Mirror the upper triangle so the stored entries are exactly symmetric.
    exact = np.triu(dense) + np.triu(dense, 1).T
    matrix = SensitivityMatrix(menu, sizes, exact, args.samples)
    if not matrix.has_block_zeros():
        raise ValueError(
            f"{args.dense}: same-layer cross-bit entries must be zero in cached matrices")
    # Created only once the matrix passed every check.
    os.makedirs(cache_dir, exist_ok=True)
    path = _batch_path(cache_dir, 0)
    save_matrix(matrix, path)
    print(f"imported={path}")
    return EXIT_OK


def cmd_solve(args) -> int:
    matrix = _load_cache(_cache_dir(args))
    if not args.no_psd:
        matrix = matrix.with_entries(psd_project(matrix.entries))
    budget = _budget(args)
    partition = _parse_partition(args.block_partition) if args.block_partition else None
    if args.method == "block" and partition is None:
        raise _UsageError("--method block requires --block-partition")
    report = solve_with_method(args.method, matrix, budget, block_partition=partition,
                               **_solver_options(args, args.method))
    _print_report(report, args.record_timing)
    if args.out:
        _write_csv(args.out, [report], args.record_timing)
    return EXIT_OK if report.status == "optimal" else EXIT_NO_PROOF


def cmd_sweep(args) -> int:
    matrix = _load_cache(_cache_dir(args))
    if not args.no_psd:
        matrix = matrix.with_entries(psd_project(matrix.entries))
    if (args.budgets_mb is None) == (args.budgets_bits is None):
        raise _UsageError("exactly one of --budgets-mb or --budgets-bits is required")
    if args.budgets_bits is not None:
        budgets = [SizeBudget(b) for b in _parse_list(args.budgets_bits, "--budgets-bits")]
    else:
        budgets = [SizeBudget.from_megabytes(mb)
                   for mb in _parse_list(args.budgets_mb, "--budgets-mb", float)]
    methods = args.methods.split(",")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise _UsageError(f"unknown methods {unknown}; choose from {METHODS}")
    partition = _parse_partition(args.block_partition) if args.block_partition else None
    if "block" in methods and partition is None:
        raise _UsageError("sweeping the block method requires --block-partition")
    # Every method's options are checked before the first solve prints a line.
    options = {method: _solver_options(args, method) for method in methods}
    reports = []
    for method in methods:
        for report in sweep(matrix, budgets=budgets, method=method, block_partition=partition,
                            **options[method]):
            reports.append(report)
            print(f"{method} budget_bits={report.budget_bits} status={report.status}")
    _write_csv(args.out, reports, args.record_timing)
    print(f"wrote={args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    matrix = _load_cache(_cache_dir(args))
    oracle = load_oracle(args.model, eval_start=args.eval_start, eval_count=args.eval_count)
    bits = _parse_list(args.assignment, "--assignment")
    if len(bits) != len(oracle.layers):
        raise ValueError(
            f"assignment covers {len(bits)} layers, oracle has {len(oracle.layers)}")
    sizes = tuple(layer.count for layer in oracle.layers)
    if matrix.layer_sizes != sizes:
        raise ValueError(f"cache has layer sizes {matrix.layer_sizes}, model has {sizes}")
    for b in bits:
        matrix.menu.index(b)  # an off-menu width fails before any layer is calibrated
    assignment = BitAssignment(bits)
    perturbations = {i: perturbation(layer, b)
                     for i, (layer, b) in enumerate(zip(oracle.layers, bits))}
    baseline = oracle.evaluate({})
    measured = oracle.evaluate(perturbations) - baseline
    proxy = 0.5 * objective(matrix, assignment)
    ratio = measured / proxy if proxy != 0.0 else math.nan
    print(f"measured_delta={_fmt(measured)}")
    print(f"proxy={_fmt(proxy)}")
    print(f"ratio={_fmt(ratio)}")
    return EXIT_OK


def _add_cache_arg(parser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help=f"cache directory (default: ${CACHE_ENV_VAR})")


def _add_solver_args(parser) -> None:
    parser.add_argument("--no-psd", action="store_true",
                        help="skip the PSD projection and solve the raw matrix")
    parser.add_argument("--node-limit", type=int, default=None)
    parser.add_argument("--time-limit", type=float, default=None,
                        help="per-solve wall-clock limit in seconds")
    parser.add_argument("--record-timing", action="store_true",
                        help="fill the seconds column (makes output non-reproducible)")
    parser.add_argument("--block-partition", default=None,
                        help="layer blocks, e.g. '0-2;3-5' or '0,2;1,3'")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixprec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-toy", help="train the toy classifier oracle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--train-count", type=int, default=256)
    p.add_argument("--noise", type=float, default=0.15)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("gen-quadratic", help="generate a seeded quadratic oracle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", required=True, help="layer sizes, e.g. 4,4,4")
    p.add_argument("--rho", type=float, required=True,
                   help="cross-layer coupling strength in [0,1]")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sample-ratio", type=float, default=2.0,
                   help="Wishart rows per dimension; lower is more anisotropic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_quadratic)

    p = sub.add_parser("measure", help="measure sensitivities into the cache")
    p.add_argument("--model", required=True)
    p.add_argument("--bits", required=True, help="bit menu, e.g. 2,4,8")
    _add_cache_arg(p)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--first-batch", type=int, default=0)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("import-matrix", help="cache an externally supplied dense matrix")
    p.add_argument("--dense", required=True, help="whitespace-separated square matrix file")
    p.add_argument("--bits", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--samples", type=int, default=1)
    _add_cache_arg(p)
    p.set_defaults(func=cmd_import_matrix)

    p = sub.add_parser("solve", help="solve the bit assignment for one budget")
    _add_cache_arg(p)
    p.add_argument("--budget-mb", type=float, default=None)
    p.add_argument("--budget-bits", type=int, default=None)
    p.add_argument("--method", choices=METHODS, default="full")
    p.add_argument("--out", default=None, help="write a one-row report CSV")
    _add_solver_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve per budget per method, emit a CSV")
    _add_cache_arg(p)
    p.add_argument("--budgets-mb", default=None, help="ascending, e.g. 0.5,1,2")
    p.add_argument("--budgets-bits", default=None)
    p.add_argument("--methods", default="full", help="comma list from "
                   + ",".join(METHODS))
    p.add_argument("--out", required=True)
    _add_solver_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="measure an assignment's true loss delta")
    p.add_argument("--model", required=True)
    _add_cache_arg(p)
    p.add_argument("--assignment", required=True, help="per-layer bits, e.g. 8,2,4")
    p.add_argument("--eval-start", type=int, default=0)
    p.add_argument("--eval-count", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SearchSpaceError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
