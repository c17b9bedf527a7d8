"""Machine-speed reference for normalizing timings.

On a shared machine the speed of a CPU changes by 10-30% from one second to
the next, invisibly to the guest (steal time stays near zero), and a run's
wall-clock throughput moves with it.  Between passes the benchmark times a
fixed pure-Python computation with the same mix as the program (rational
arithmetic, gcds, small tuples and dicts, calls) and divides each pass's
durations by the mean of the reference times just before and just after
it, so timings are in units of that computation, "ref".  The program never
runs inside the reference, so a faster program still reads faster.
Dividing pass by pass followed the drift more closely than dividing a whole
run by its median reference time.  Wall-clock figures are printed beside
the normalized ones.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

REPEATS = 3


def _reference_work() -> int:
    total = Fraction(0)
    table: dict = {}
    for k in range(1, 120):
        total += Fraction(k % 17 + 1, k % 13 + 7) * Fraction(k, 3) - Fraction(k % 5, 2)
        key = (k % 31, k % 7)
        table[key] = table.get(key, 0) + math.gcd(k * 7919, 104729 * k + 1)
    return len(table) + total.denominator


def reference_s(clock=time.perf_counter) -> float:
    """Seconds the reference computation takes now: the fastest of a few
    back-to-back runs, so that one interruption does not count."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = clock()
        _reference_work()
        best = min(best, clock() - t0)
    return best
