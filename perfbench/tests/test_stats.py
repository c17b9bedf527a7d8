import pytest

import math

from perfbench.stats import TAIL_LADDER, median, quartile_spread, ratio, tail


@pytest.mark.parametrize(
    "n, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    xs = [float(i) for i in range(n)]
    value, got = tail(reversed(xs))
    assert got == pct
    assert sum(1 for x in xs if x > value) >= 10
    for higher in (q for q in TAIL_LADDER if q > pct):
        assert n - math.ceil(higher * n / 100) < 10


def test_tail_of_one_hundred_is_p90_with_ten_beyond():
    value, pct = tail(range(1, 101))
    assert (value, pct) == (90.0, 90.0)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_below_twenty_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(i) for i in range(19)]) == (18.0, 100.0)
    with pytest.raises(ValueError):
        tail([])


def test_median_and_spread():
    assert median([4, 1, 3]) == 3
    assert median([4, 1, 3, 2]) == 2.5
    # statistics.quantiles(1..9, n=4) gives Q1 = 2.5, Q3 = 7.5
    assert quartile_spread(range(1, 10)) == pytest.approx(5 / 5)


def test_ratio_of_empty_base_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0


def test_tail_cap_keeps_the_percentile_when_samples_grow():
    assert tail(range(1000), cap=95.0) == (949.0, 95.0)
    assert tail(range(100000), cap=95.0)[1] == 95.0
    # too few samples for the cap: the next rung down
    assert tail(range(150), cap=95.0)[1] == 90.0
