"""Host-speed calibration: a fixed kernel timed between the workload's calls.

The shared host this benchmark was built on changes speed by up to 40%
within a minute, with the benchmark otherwise idle, and both BLAS and
Python-level code slow down together (see README.md). Raw wall times of two
runs minutes apart therefore differ by more than any bound worth having.

A ``Speed`` samples a small fixed kernel, shaped like the package's own
work (logistic-fit steps, fresh memory, a frame difference, a Python loop),
every ``interval`` seconds of the workload, always between two calls of the
program, never inside one. Each sample runs the kernel twice and times the
second run, so that its time does not depend on what the program left in
the caches. ``slowdown(t)`` is the median kernel time of the samples within
``WINDOW`` seconds of ``t``, over the kernel's nominal time.
A measured duration divided by the slowdown at its time is the duration at
the nominal host speed; the end-to-end times are reported that way.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median kernel time on the reference machine (see README.md), in seconds.
# It only fixes the unit: every time is reported at this host speed.
NOMINAL_S = 1.0e-3
WINDOW = 0.5  # seconds either side of a measurement

_rng = np.random.default_rng(20170817)
_X = _rng.random((192, 501))  # a motion bin: n=192 against D=500, plus bias
_Y = (_rng.random(192) < 0.5).astype(np.float64)
_WIDE = _rng.random((20, 12545))  # an appearance bin: n=20 against D=12544
_YW = (_rng.random(20) < 0.5).astype(np.float64)
_FRAME = _rng.random((120, 160))
_CELLS = list(range(1500))


def _descent(x: np.ndarray, y: np.ndarray, steps: int) -> np.ndarray:
    w = np.zeros(x.shape[1])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w -= 0.5 * (x.T @ (p - y)) / x.shape[0]
    return w


def kernel() -> float:
    """Fixed work, about a millisecond; returns a value so nothing is skipped.

    Logistic-fit steps at both bin shapes, 2 MiB of newly mapped memory
    filled from a frame, a frame difference and a Python loop.
    """
    w = _descent(_X, _Y, 8)
    v = _descent(_WIDE, _YW, 2)
    fresh = np.empty((2048, 128))
    fresh[:] = _FRAME[:, :128].mean()
    motion = np.abs(np.diff(_FRAME, axis=0)).reshape(17, 7, 160).mean(axis=1)
    total = sum(c * 2 for c in _CELLS if c % 3)
    return float(w.sum() + v.sum() + fresh[-1, -1] + motion.sum() + total)


class Speed:
    """Timestamped kernel samples taken between the workload's calls."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.times: list[float] = []  # midpoint of each sample
        self.seconds: list[float] = []  # kernel time of each sample
        self.spent = 0.0  # wall time spent sampling, to leave out of a pass
        self._next = 0.0

    def sample(self, repeats: int = 1) -> None:
        clock = time.perf_counter
        start = clock()
        for _ in range(repeats):
            kernel()  # warm the caches
            t0 = clock()
            kernel()
            t1 = clock()
            self.times.append(0.5 * (t0 + t1))
            self.seconds.append(t1 - t0)
        self._next = clock()
        self.spent += self._next - start
        self._next += self.interval

    def tick(self) -> None:
        """Take a sample if ``interval`` has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def slowdown(self, t: float) -> float:
        """Host slowdown against nominal around time ``t`` (1.0 = nominal)."""
        lo = bisect.bisect_left(self.times, t - WINDOW)
        hi = bisect.bisect_right(self.times, t + WINDOW)
        near = self.seconds[lo:hi]
        if not near:  # no sample within the window: take the nearest
            near_i = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
            i = min(near_i, key=lambda i: abs(self.times[i] - t))
            near = self.seconds[i : i + 1]
        return statistics.median(near) / NOMINAL_S

    def nominal(self, seconds: float, t: float) -> float:
        """``seconds`` measured around time ``t``, at nominal host speed."""
        return seconds / self.slowdown(t)

    def median_slowdown(self) -> float:
        return statistics.median(self.seconds) / NOMINAL_S
