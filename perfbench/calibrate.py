"""Speed samples of the machine, taken while hmap runs.

The sandbox this benchmark was written on changes speed by 10-40 % within
tens of seconds (other tenants share the host), so wall times of the same
work in two runs differ by more than the regressions worth catching.  The
benchmark therefore also times a fixed calibration rep, over and over,
while it measures: from a SIGALRM timer every 0.1 s inside an in-process
run, and in short slices between the CLI processes of ``cli-cold``.  An
operation's cost is its wall time, less the time the timer's reps took
inside it, divided by the median rep time sampled during it (with the three
samples before and after it added when fewer than three fall inside).  The machine's speed
mostly cancels out of that ratio.

One rep is a degree-64 Horner pass over 4096 complex points plus the same
on eight single points, the two shapes of work hmap's evaluation does, but
in this file's own code, so no change to hmap moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

TICK_S = 0.1
NEAREST = 3

_COEFFS = np.random.default_rng(20240).normal(size=(65, 2)) @ np.array([1, 1j])
_Z = 0.9 * np.exp(2j * np.pi * np.arange(4096) / 4096)


def _rep() -> None:
    acc = np.full_like(_Z, _COEFFS[-1])
    for c in _COEFFS[-2::-1]:
        acc = acc * _Z + c
    np.imag(acc / (acc + 1.0))
    for z in _Z[:: len(_Z) // 8]:
        acc = np.asarray(_COEFFS[-1])
        for c in _COEFFS[-2::-1]:
            acc = acc * np.asarray(z) + c


class Calibration:
    """Timed calibration reps, and the cost of operations measured against them."""

    def __init__(self):
        for _ in range(20):  # warm-up
            _rep()
        self._times: list[float] = []  # start of each rep, increasing
        self._reps: list[float] = []  # its duration
        self._tick_s = 0.0  # total time of reps run from the timer
        for _ in range(NEAREST):
            self._sample()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _rep()
        dt = time.perf_counter() - t0
        self._times.append(t0)
        self._reps.append(dt)
        return dt

    def slice(self, seconds: float) -> None:
        """Run reps back to back for about ``seconds``."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    @contextmanager
    def ticking(self):
        """Sample one rep every TICK_S seconds of wall time while the block runs."""

        def tick(_signum, _frame):
            self._tick_s += self._sample()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self._tick_s

    def cost(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall time between two marks, less timer reps, in units of one rep.

        Call it once samples after ``end`` exist, e.g. after a ``slice``.
        """
        (t0, tick0), (t1, tick1) = start, end
        lo, hi = bisect.bisect_left(self._times, t0), bisect.bisect_right(self._times, t1)
        if hi - lo < NEAREST:
            lo, hi = max(0, lo - NEAREST), hi + NEAREST
        reps = self._reps[lo:hi]
        return ((t1 - t0) - (tick1 - tick0)) / statistics.median(reps)
