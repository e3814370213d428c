"""Step times scaled to a fixed host speed.

On a shared host the same work runs up to twice as slow while a neighbour
is busy.  The slow stretches come and go within tens of milliseconds, and
their share of the time drifts over minutes, so one 10 s solve can take
9 s in one minute and 15 s in the next, and neither medians within a run
nor CPU time (which grows with the slowdown) remove it.

A ``Probe`` runs two fixed kernels every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, inside the process doing the work, so each probe
times the CPU that the work is running on at that moment.  A step's
*normalized* time is its wall time, less the probes' own time, times the
mean host speed its probes saw.  A probe's speed is the mean over its
kernels of the kernel's reference time over the time it took.  So the
normalized time reads in seconds on a host where the kernels take their
reference times, about the fast state of the host the baseline was
measured on.  Wall times are recorded beside it.
"""

from __future__ import annotations

import bisect
import signal
import sys
import time

PERIOD_S = 0.005
# Each kernel's time in the fast state of the baseline's host.
REFERENCE_PY_S = 4.7e-5
REFERENCE_NUMPY_S = 1.8e-5
# A step with fewer probes of its own takes its speed from the latest
# this many probes instead.
LEAST_PROBES = 8

# Set once numpy is imported (see ``use_numpy``).  Until then a probe runs
# only the interpreter kernel, so that a command's imports are probed
# without the handler touching a half-imported numpy.
_VECTOR = None


def use_numpy() -> None:
    """Add the numpy kernel to later probes, if numpy has been imported."""
    global _VECTOR
    np = sys.modules.get("numpy")
    if np is not None and _VECTOR is None:
        _VECTOR = np.arange(48, dtype=np.float64)


def probe_once() -> tuple[float, float]:
    """Run the kernels once: interpreter arithmetic, then small numpy
    calls, the mix of the solver's inner loops.  Returns the time taken
    and the host speed, the mean over the kernels of reference time over
    time taken."""
    began = time.perf_counter()
    total = 0
    for i in range(500):
        total += i * i % 7
    middle = time.perf_counter()
    speed = REFERENCE_PY_S / (middle - began)
    if _VECTOR is None:
        return middle - began, speed
    for _ in range(20):
        total += float(_VECTOR @ _VECTOR)
    ended = time.perf_counter()
    return ended - began, 0.5 * (speed + REFERENCE_NUMPY_S / (ended - middle))


def normalize(wall_s: float, inside, speeds) -> float:
    """A step's wall time less the durations of its own probes
    (``inside``), times the mean of ``speeds``.  Without speeds the wall
    time is returned as it is."""
    if not speeds:
        return wall_s
    return (wall_s - sum(inside)) * sum(speeds) / len(speeds)


class Probe:
    """Probes of this process: ``starts[i]``, ``durations[i]`` (in
    ``time.perf_counter`` seconds) and ``speeds[i]``."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.speeds: list[float] = []
        self.running = False

    def _handler(self, signum, frame):
        began = time.perf_counter()
        duration, speed = probe_once()
        self.starts.append(began)
        self.durations.append(duration)
        self.speeds.append(speed)

    def start(self) -> None:
        use_numpy()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def normalize(self, began: float, ended: float) -> float:
        """The normalized time of an in-process step from ``began`` to
        ``ended``: its own probes are subtracted, and its speed comes from
        them or, if it had fewer than ``LEAST_PROBES``, from the latest
        ``LEAST_PROBES`` up to its end."""
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_left(self.starts, ended)
        first = lo if hi - lo >= LEAST_PROBES else max(0, hi - LEAST_PROBES)
        return normalize(ended - began, self.durations[lo:hi], self.speeds[first:hi])
