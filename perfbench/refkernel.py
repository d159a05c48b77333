"""Reference kernel: a fixed pure-Python workload that gauges machine speed.

On a shared virtual machine the speed of the same code drifts by tens of
percent within a run and between runs minutes apart, and CPU time drifts
with wall time. The benchmark therefore times this kernel in short bursts
interleaved with its operations and reports in-process times at reference
speed, t * R0 / R. R is the mean kernel time of the bursts just before and
just after the timed interval, and R0 is the constant below. The kernel
belongs to the benchmark, not to fkdv, so no change to the program moves it.

It sums exact rationals with growing denominators: the same mix of
big-integer arithmetic and gcd that dominates the exact series engine.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: typical kernel time, in seconds, on the 2-core machine that the reference
#: figures in README.md come from (median R of 23 runs; see README.md)
R0_S = 0.00186

_TERMS = 300


def reference_kernel() -> Fraction:
    total = Fraction(0)
    for k in range(1, _TERMS):
        total += Fraction(k if k % 2 else -k, k * k + 1)
    return total


def _trimmed_mean(values: list[float]) -> float:
    v = sorted(values)
    k = len(v) // 10
    return statistics.fmean(v[k:len(v) - k])


class SpeedGauge:
    """Kernel timings of one run, in bursts; turns raw seconds into seconds
    at reference speed."""

    def __init__(self, burst: int = 4, interval_s: float = 0.25):
        self.samples: list[float] = []
        self.bursts: list[tuple[float, float, float]] = []  # start, end, R
        self.burst_size = burst
        self.interval_s = interval_s
        self._expected = reference_kernel()

    def burst(self) -> None:
        start = time.perf_counter()
        times = []
        for _ in range(self.burst_size):
            t0 = time.perf_counter()
            value = reference_kernel()
            times.append(time.perf_counter() - t0)
            if value != self._expected:
                raise RuntimeError("reference kernel returned a different value")
        self.samples.extend(times)
        self.bursts.append((start, time.perf_counter(), statistics.fmean(times)))

    def maybe_burst(self) -> None:
        """Burst if the last one is older than the interval."""
        if time.perf_counter() - self.bursts[-1][1] >= self.interval_s:
            self.burst()

    @property
    def r_s(self) -> float:
        """Run-wide R: trimmed mean, since kernel times are often bimodal."""
        return _trimmed_mean(self.samples)

    @property
    def scale(self) -> float:
        return R0_S / self.r_s

    def local_scale(self, t0: float, t1: float) -> float:
        """R0 / R for an interval, R from the bursts just before and after."""
        ends = [b[1] for b in self.bursts]
        i = bisect.bisect_right(ends, t0) - 1
        j = bisect.bisect_left([b[0] for b in self.bursts], t1)
        rs = [self.bursts[k][2] for k in (i, j) if 0 <= k < len(self.bursts)]
        return R0_S / statistics.fmean(rs)
