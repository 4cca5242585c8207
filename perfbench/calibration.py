"""Calibration kernel: a fixed piece of pure-Python work timed between batches.

On a shared machine the speed of a core drifts by tens of percent over
minutes, with other tenants' load; CPU time drifts with wall time, so the
drift is slower execution, not time spent descheduled.  The kernel runs
before and after every batch, and every reported time is scaled by
KERNEL_NOMINAL_S / (mean kernel time around it): the time the batch would
have taken at the speed where the kernel takes KERNEL_NOMINAL_S.  The raw
times go to the `detail` line.

The kernel mixes what binsum spends its time on (big-by-small updates of
small and of 60,000-bit integers, Fraction arithmetic, dict and list
traffic, float formatting) and never calls binsum, so a change to the
program cannot move it.

A workload whose time follows the machine's speed more steeply than the
kernel's is scaled by a power of that factor (`Workload.speed_exponent`).
Over 30 runs of scan-exact in three sets of ten seeds, its raw batch time
went as the 1.27th power of the kernel time: the machine's slow spells slow
it more than they slow the kernel.  Scaling by the plain factor left its
ten-seed spread at 0.08-0.12, sorted by machine speed; the 1.27th power
brought it to 0.03-0.07.  The other workloads fitted powers of 0.86-1.16
that did not steady them in every set, so they keep the plain factor.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

KERNEL_NOMINAL_S = 0.02
_BIG = math.comb(60000, 30000)


def kernel() -> int:
    big = _BIG
    for j in range(1, 300):
        big = big * (60000 - j) // (30000 + j)
    term = 1
    for j in range(1, 800):
        term = term * (8000 - j) // j
    counts: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        key = i & 511
        counts[key] = counts.get(key, 0) + i
        acc += (i * i) % 7
    harmonic = Fraction(0)
    for i in range(1, 400):
        harmonic += Fraction(1, i)
    text = ",".join(format(x / 7.0, ".17g") for x in range(4000))
    return acc + len(text) + big.bit_length() + term.bit_length() + harmonic.denominator.bit_length() + len(counts)


def measure() -> float:
    """Seconds the kernel takes now: the faster of two runs, so cold caches left
    by the work before it do not count."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def scale(before: float, after: float, exponent: float = 1.0) -> float:
    """Factor that turns a time measured between two kernel runs into nominal-speed time."""
    return (KERNEL_NOMINAL_S / ((before + after) / 2)) ** exponent
