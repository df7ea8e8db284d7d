"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over tens of seconds, in phases that last longer than a run.  A fixed
pure-Python loop slows down with the CLI, and its CPU time with its wall
time, so neither longer runs nor CPU clocks remove the drift.  Instead a
fixed calibration kernel (interpreter bytecode, scalar ufunc calls, function
calls building small frozen dataclasses, Fraction arithmetic and a numpy
sort: the kinds of work the pelve layers do) is timed between operations,
taking ``SHARE`` of the run, and each measured time is scaled by
``REFERENCE_S / (median kernel time around it)``.

A normalised time therefore reads as the time the operation would take on a
host where the kernel takes ``REFERENCE_S``, about its time on a 2-vCPU
Intel Xeon VM.  The kernel is part of the benchmark, not of the program, so
a change to the program moves the normalised times as it moves the
wall-clock ones.  The correction is not exact: code slows by different
amounts in a slow phase (vectorised numpy work less than interpreter-bound
work), so the numpy-heavy simulate workload keeps more spread than the
others.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtri

# Nominal kernel time (seconds) that normalised times are expressed against.
REFERENCE_S = 0.002
# Share of the run spent timing the kernel, and the half-width of the window
# of kernel timings whose median scales a measured interval.  One timing
# varies by about 20%, so a window needs tens of them.
SHARE = 0.05
WINDOW_S = 0.5

_PS = [(i + 0.5) / 400 for i in range(400)]
_DATA = np.random.Generator(np.random.PCG64(12345)).random(20000)


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _pair(q: float, *, scale: float = 1.0) -> _Pair:
    return _Pair(q * scale, q + scale)


def kernel() -> float:
    """The fixed calibration work; about 2 ms on the reference host.  Work
    with a larger code footprint (calls, dataclasses, Fractions) tracks the
    drift of the quadrature path better than tight loops alone."""
    s = 0
    for i in range(8000):
        s += i * i % 7
    x = 0.0
    for p in _PS:
        x += float(ndtri(p))
    for i in range(1500):
        r = _pair(i * 0.5, scale=2.0)
        x += r.a - r.b
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i)
    return s + x + float(f) + float(np.sort(_DATA)[0])


class Calibrator:
    """Times the kernel through a run and scales intervals by host speed."""

    def __init__(self) -> None:
        self.at: list = []  # kernel midpoints, perf_counter seconds, ascending
        self.took: list = []  # kernel durations, seconds
        self._spent = 0.0
        self._since = time.perf_counter()

    def measure(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self._spent += t1 - t0

    def maybe(self) -> None:
        """Time the kernel until it has taken ``SHARE`` of the time so far."""
        while self._spent < SHARE * (time.perf_counter() - self._since):
            self.measure()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within ``WINDOW_S`` of
        the interval [start, end]; the nearest timings if none is."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def normalise(self, start: float, elapsed: float) -> float:
        return elapsed * self.factor(start, start + elapsed)
