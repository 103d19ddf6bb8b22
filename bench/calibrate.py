"""Machine-speed calibration for the timed metrics.

On a CPU shared with other tenants, the same code runs up to half slower
for tens of seconds at a time, which a run of run_seconds cannot average
out.  So the timed phase interleaves short bursts of a fixed calibration
kernel (plain Python float arithmetic and small numpy array operations,
like noncoh's own scalar code, but none of noncoh) with the workload's
calls, and divides each call's time by the speed factor measured around it:

    factor = median(samples of the bursts just before and after) / CAL_REF_S.

The reported times are those of a machine on which one sample takes
CAL_REF_S seconds; the raw figures are printed alongside.  Speed also
wobbles by ~10% from one tenth of a second to the next, which no burst
outside a call can follow, but that averages out over a run's calls.
Smoothing the factor over more bursts did not steady the throughput any
further and made the slowest calls, and so p99, less steady.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

import numpy as np

# One sample's time at the reference speed, about that of a 2-CPU x86-64
# Linux host (Python 3.11, numpy 2.4) with no competing load.
CAL_REF_S = 1.0e-3
CAL_EVERY_S = 0.25  # a burst runs before a call when the last is this old
CAL_BURST = 3  # samples per burst


def _kernel() -> None:
    s = 0.0
    for k in range(1, 4000):
        s += math.log1p(1.0 / k) * (k % 7)
    a = np.arange(32.0)
    for _ in range(100):
        a = np.cumsum(a * 0.5) / 32.0


def calibration_sample() -> float:
    """Seconds one run of the fixed calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedTrack:
    """Calibration bursts between calls, and the factor of each segment
    (the calls between two bursts)."""

    def __init__(self):
        self.bursts: list[list[float]] = []
        self._last = -math.inf
        self.max_threads = 1

    def maybe_burst(self) -> None:
        """Run a burst if the last one is CAL_EVERY_S old."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.burst()

    def burst(self) -> None:
        self.max_threads = max(self.max_threads, threading.active_count())
        self.bursts.append([calibration_sample() for _ in range(CAL_BURST)])
        self._last = time.perf_counter()

    def segment_factors(self) -> list[float]:
        """Factor of segment k, between bursts k and k+1 (call `burst` once
        more after the last call)."""
        return [statistics.median(a + b) / CAL_REF_S
                for a, b in zip(self.bursts, self.bursts[1:])]

    def summary(self) -> dict:
        factors = self.segment_factors()
        return {"min": min(factors), "median": statistics.median(factors),
                "max": max(factors), "threads_alive": self.max_threads}
