import json
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest

import subgeneral
from subgeneral import experiments, linalg, quang
from perfbench import spec
from perfbench.tracer import LAYER_SPANS, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(tracer, clock, name, start, end, children=()):
    clock.now = start
    tracer.enter(name)
    for child in children:
        child()
    clock.now = end
    tracer.exit()


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    t = Tracer(clock)
    # a: [0, 10] holds b: [1, 4] (which holds c: [2, 3]) and b: [5, 7]
    c = lambda: _span(t, clock, "c", 2, 3)
    b1 = lambda: _span(t, clock, "b", 1, 4, [c])
    b2 = lambda: _span(t, clock, "b", 5, 7)
    _span(t, clock, "a", 0, 10, [b1, b2])
    assert t.self_s("a") == 10 - 3 - 2
    assert t.self_s("b") == (3 - 1) + 2
    assert t.self_s("c") == 1
    assert t.busy_s("b") == 5 and t.calls("b") == 2
    # self times partition the outermost span
    assert sum(st[2] for st in t.stats.values()) == 10


def test_busy_time_counts_nested_same_name_once():
    clock = FakeClock()
    t = Tracer(clock)
    inner = lambda: _span(t, clock, "f", 2, 5)
    _span(t, clock, "f", 0, 8, [inner])
    assert t.calls("f") == 2
    assert t.busy_s("f") == 8
    assert t.self_s("f") == 8


def test_layer_ratios_carry_their_bases():
    t = Tracer(FakeClock())
    t.counters["experiments.sample.points"] = 99
    t.counters["experiments.sample.attempts"] = 100
    values = spec.layer_values(t, cache_hits=3, cache_misses=1, overhead_s=0.5)
    assert values["experiments.sample.accept_ratio"] == pytest.approx(0.99)
    assert values["experiments.sample.attempts"] == 100
    assert values["quang.cache.hit_ratio"] == 0.75
    assert values["quang.cache.lookups"] == 4
    empty = spec.layer_values(Tracer(FakeClock()), 0, 0, 0.0)
    assert empty["quang.cache.hit_ratio"] == 0.0
    assert empty["experiments.sample.accept_ratio"] == 0.0


def test_install_patches_every_binding_and_uninstall_restores():
    original = linalg.rank_rows
    with Tracer() as t:
        t.install("subgeneral", LAYER_SPANS)
        assert linalg.rank_rows is not original
        assert quang.rank_rows is linalg.rank_rows
        assert experiments.rank_rows is linalg.rank_rows
        linalg.in_rowspace([1, 0], [[1, 0]])  # calls rank_rows through linalg
    assert t.calls("linalg.rank_rows") == 2
    assert linalg.rank_rows is original and quang.rank_rows is original


def test_private_callables_are_never_wrapped():
    t = Tracer()
    with pytest.raises(ValueError):
        t.install("subgeneral", [("experiments", "_defect_batch", "x", None)])
    t.install("subgeneral", LAYER_SPANS)
    try:
        batch = experiments._defect_batch
        assert pickle.loads(pickle.dumps(batch)) is batch
    finally:
        t.uninstall()


def test_traced_pool_run_matches_untraced_report():
    forms = [
        subgeneral.LinearForm(c)
        for c in ((1, 0, 0, 0), (1, 0, 0, 2), (1, 0, 0, 5), (0, 1, 1, 0), (1, -1, 2, 1))
    ]
    variety = subgeneral.LinearSubvariety(3, (subgeneral.LinearForm((0, 0, 0, 1)),))
    config = subgeneral.ExperimentConfig(
        variety=variety,
        arrangements=((subgeneral.INF, tuple(forms)),),
        level=4,
        epsilon=Fraction(1, 10),
        h_min=0.0,
        h_max=5.0,
        sample_count=1200,  # above the pool threshold of 1000 points
        seed=3,
        workers=2,
    )
    plain = subgeneral.run_main_experiment(config).to_json()
    t = Tracer()
    t.install("subgeneral", LAYER_SPANS)
    try:
        traced = subgeneral.run_main_experiment(replace(config)).to_json()
    finally:
        t.uninstall()
    assert traced == plain
    assert json.loads(plain)["n_points"] > 1000
    assert t.calls("experiments.run") == 1
