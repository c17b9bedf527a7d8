"""Order statistics used by every benchmark metric.

Timings are reported as a median and a tail.  A tail is a percentile of the
ladder TAIL_LADDER that has at least ten samples beyond it, by the
nearest-rank rule: with n sorted samples, percentile q is the
ceil(q*n/100)-th smallest and has n - ceil(q*n/100) samples beyond it.
tail() takes the highest such rung, or the highest rung not above a cap;
a workload caps its tail at the rung its usual sample count reaches, so
that a faster program, which gathers more samples in the same time, is
compared at the same percentile.  Below twenty samples no rung qualifies
and the tail is the maximum, reported as percentile 100.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return (xs[mid - 1] + xs[mid]) / 2.0


def tail(values, cap: float = 100.0) -> tuple[float, float]:
    """(value, percentile): the highest ladder percentile not above cap with
    >= 10 samples beyond it, or (maximum, 100.0) when none has."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    for q in (q for q in TAIL_LADDER if q <= cap):
        rank = math.ceil(q * n / 100.0)
        if n - rank >= TAIL_BEYOND:
            return float(xs[rank - 1]), q
    return float(xs[-1]), 100.0


def ratio(num, base) -> float:
    """num / base, with 0 when the base is empty; callers report the base."""
    return num / base if base else 0.0


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the run-to-run spread used to set metric bounds."""
    xs = sorted(values)
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = median(xs)
    return (q3 - q1) / med if med else math.inf
