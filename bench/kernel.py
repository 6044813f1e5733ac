"""Fixed reference kernel that every timed operation is followed by.

The host this benchmark was written on changes speed in phases of about
2x that last from seconds to tens of seconds.  Timing a fixed kernel
right next to each operation measures the speed of the moment, and
dividing by it cancels the phase: a time t measured next to a kernel
run of time k is reported as t * nominal / k, the time it would have
taken at the speed where the kernel runs in its nominal time.

The kernel is a pure-integer loop that mixes interpreter dispatch with
math.comb big-integer arithmetic, like the library's dimension code.
It creates no containers, so the program's caches and garbage-collector
state cannot change its cost.  One unit is a fixed block of 500
repetitions, so a run of u units costs u times one unit.
"""

from __future__ import annotations

import math
import time

# Median time of one unit in milliseconds on the reference machine;
# README.md says how it was measured.
NOMINAL_MS_PER_UNIT = 1.5

_BLOCK = 500
_MOD = (1 << 127) - 1


def kernel(units: int) -> int:
    """Run `units` identical blocks; the result only keeps the work live."""
    acc = 0
    for _ in range(units):
        for i in range(_BLOCK):
            n = 96 + (i & 63)
            acc = (acc * 1_000_003 + math.comb(n, n >> 1)) % _MOD
            j = i | 1024
            while j:
                acc += j & 7
                j >>= 2
    return acc


def timed_kernel(units: int) -> float:
    """Seconds taken by one kernel run of `units` units."""
    t0 = time.perf_counter()
    kernel(units)
    return time.perf_counter() - t0


def nominal_seconds(units: int) -> float:
    """Time of a kernel run of `units` units at reference speed."""
    return units * NOMINAL_MS_PER_UNIT / 1000.0
