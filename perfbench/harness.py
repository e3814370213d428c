"""Plumbing shared by the workloads: child commands, statistics, the
operation ledger and the machine record."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field

# Held fixed for every run and handed to every child command, so a BLAS
# library that picks its thread count from the machine cannot make two
# runs differ.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(env) -> None:
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)


# ---------------------------------------------------------------------------
# statistics

def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def nearest_rank(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it.

    The p90 of 100 samples is the 90th smallest value, which leaves ten
    samples beyond it: the highest percentile that still has ten.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


# ---------------------------------------------------------------------------
# operations and their checks

@dataclass
class Ledger:
    """Counts operations and records why any of them failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, problems) -> bool:
        """One operation; it fails when ``problems`` lists anything."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def parse_kv(text: str) -> dict[str, str]:
    """The ``key=value`` lines that ``solve`` and ``eval`` print."""
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def finite_float(text) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def ratio_problem(ratio: float | None, tol: float) -> str:
    """Problem text when an ``eval`` ratio is missing or not within ``tol`` of 1."""
    if ratio is None or not math.isfinite(ratio):
        return f"ratio {ratio!r} is not a finite number"
    if abs(ratio - 1.0) > tol:
        return f"ratio {ratio!r} is not within {tol:g} of 1"
    return ""


# ---------------------------------------------------------------------------
# child commands

@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mib: float
    # The wall time scaled to the reference host speed (hostspeed.py);
    # the wall time itself for a command run without probes.
    seconds: float

    def problem(self) -> str:
        if self.returncode == 0:
            return ""
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {self.returncode} {tail[0]}".strip()


def run_child(argv, *, env, cwd, timeout: float) -> Child:
    """Run one command to completion; wall time comes from the parent's
    clock, peak RSS from the child's rusage."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0, wall)


# ---------------------------------------------------------------------------
# machine record

def git_commit(root: str) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(root: str) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(root),
    }
