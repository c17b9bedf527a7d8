"""Sampling, weighted defects, delta budgets, chain checks, and experiment runs."""

import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import subgeneral
from subgeneral import (
    ArgumentError,
    Candidate,
    ConfigRejectedError,
    DomainError,
    ExperimentConfig,
    HomForm,
    INF,
    LinearForm,
    LinearSubvariety,
    Place,
    ProjPoint,
    SubschemeSpec,
    SupportError,
    candidate_targets,
    chain_check,
    check_subgeneral,
    delta_budget,
    exceptional_scan,
    local_weil,
    projective_space,
    quang_combine,
    run_evertse_ferretti_baseline,
    run_main_experiment,
    sample_points,
    seshadri_constant,
    target_to_json,
    valuation,
    weil_batch,
)
from subgeneral.cli import main
from subgeneral.experiments import (
    _RECORD_FIELDS,
    _defect_batch,
    _Evaluator,
    _vanishes_on,
)
from subgeneral.jsonio import rat_str, stable_dumps
from subgeneral.sampling import _coprime_pairs, _draw_stream
from subgeneral.weil import _component_columns

from gen import (
    is_on_support,
    rand_hom_form,
    rand_linear_form,
    rand_point,
    strict_arrangement,
)
from oracles import (
    coprime_pairs_by_loop,
    draw_stream_by_loop,
    exceptional_scan_by_hand,
    int_window_by_steps,
    nullspace_by_rref,
    rank_fraction_gauss,
    sample_of_points,
    sample_points_by_point,
    vanishes_on_by_expansion,
    write_csv_by_row,
)

P1 = projective_space(1)
P2 = projective_space(2)
X_LINE = LinearSubvariety(2, (LinearForm((0, 0, 1)),))
X0 = LinearForm((1, 0))
X1 = LinearForm((0, 1))
LOG5 = math.log(5)


def config_p1(
    targets=(X0, X1),
    places=(INF,),
    level=1,
    epsilon=Fraction(1, 10),
    h_min=0.0,
    h_max=LOG5,
    sample_count=None,
    seed=0,
    **kw,
):
    return ExperimentConfig(
        variety=P1,
        arrangements=tuple((v, tuple(targets)) for v in places),
        level=level,
        epsilon=Fraction(epsilon),
        h_min=h_min,
        h_max=h_max,
        sample_count=sample_count,
        seed=seed,
        **kw,
    )


# ---------------------------------------------------------------------------
# sampling


def test_sample_exhaustive_line():
    got = sample_points(P1, 0.0, LOG5, None, seed=0)
    assert not got.partial
    assert len(got.points) == 40  # 4 + sum of 4*phi(m) for m = 2..5
    assert got.points[:5] == (
        ProjPoint((0, 1)),
        ProjPoint((1, -1)),
        ProjPoint((1, 0)),
        ProjPoint((1, 1)),
        ProjPoint((1, -2)),
    )
    for pt in got.points:
        assert 1 <= max(abs(c) for c in pt.coords) <= 5
        assert math.gcd(*[abs(c) for c in pt.coords]) == 1
    assert len(set(got.points)) == 40


def test_sample_count_prefix_and_partial():
    first = sample_points(P1, 0.0, LOG5, 5, seed=0)
    assert len(first.points) == 5 and not first.partial
    everything = sample_points(P1, 0.0, LOG5, None, seed=0)
    assert first.points == everything.points[:5]
    starved = sample_points(P1, 0.0, LOG5, 100, seed=0)
    assert starved.partial and len(starved.points) == 40
    assert starved.attempts == 40


def test_sample_zero_count_and_empty_window():
    assert sample_points(P1, 0.0, LOG5, 0, seed=0) == sample_points(
        P1, 0.0, LOG5, 0, seed=9
    )
    assert sample_points(P1, 0.0, LOG5, 0, seed=0).points == ()
    assert sample_points(P1, 0.2, 0.3, 10, seed=0).points == ()


def test_sample_refuses_a_non_finite_window():
    nan, inf = float("nan"), float("inf")
    for h_min, h_max in ((nan, 3.0), (0.0, nan), (-inf, 2.0)):
        with pytest.raises(ArgumentError, match="must be finite"):
            sample_points(P1, h_min, h_max, None, 0)


def test_sample_respects_exclusions():
    got = sample_points(P1, 0.0, LOG5, None, seed=0, excluded=(X1,))
    assert len(got.points) == 39
    assert ProjPoint((1, 0)) not in got.points


def test_sample_on_embedded_line():
    got = sample_points(X_LINE, 0.0, LOG5, None, seed=0)
    assert len(got.points) == 40
    for pt in got.points:
        assert pt.coords[2] == 0


def test_sample_surface_is_seeded_and_deduped():
    a = sample_points(P2, 0.0, math.log(20), 60, seed=5)
    b = sample_points(P2, 0.0, math.log(20), 60, seed=5)
    c = sample_points(P2, 0.0, math.log(20), 60, seed=6)
    assert a.points == b.points
    assert a.points != c.points
    assert len(set(a.points)) == 60
    for pt in a.points:
        assert max(abs(x) for x in pt.coords) <= 20


def test_sample_surface_partial_when_window_is_tiny():
    got = sample_points(P2, 0.0, math.log(2), 200, seed=1)
    assert got.partial
    assert 0 < len(got.points) < 200


def test_sample_surface_needs_a_count():
    with pytest.raises(ArgumentError):
        sample_points(P2, 0.0, 1.0, None, seed=0)
    with pytest.raises(ArgumentError):
        sample_points(P1, 0.0, 501.0, None, seed=0)


def test_sampler_refuses_a_support_of_another_space():
    # the sampler tests coordinate tuples; the error names the form and the
    # space of a sampled point, as the one-point routines do
    for variety, count, other in (
        (P2, 20, LinearForm((1, 2))),
        (X_LINE, None, LinearForm((1, 2))),
        (P1, None, LinearForm((1, 0, 2))),
    ):
        supports = (LinearForm((1,) * (variety.ambient_dim + 1)), other)
        message = "form on P^%d evaluated at point of P^%d" % (other.dim, variety.ambient_dim)
        with pytest.raises(ArgumentError) as err:
            sample_points(variety, 0.0, math.log(9), count, 1, excluded=supports)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# weighted defects


def weighted_sum_by_point(pt, cfg) -> float:
    """The fsum of the Seshadri-weighted local_weil values at one point."""
    return math.fsum(
        float(seshadri_constant(t).value) * local_weil(pt, t, v, cfg.mode).value
        for v, ts in cfg.arrangements
        for t in ts
    )


def weighted_defect(pt, cfg) -> float:
    """The ledger's weighted defect at one point, read from the component
    columns that the sampler keeps; it is the fsum of the weighted one-point
    values."""
    ev = _Evaluator(cfg)
    columns = {t: _component_columns(t, [pt], [[x] for x in pt.coords]) for t, *_ in ev.plan}
    got = _defect_batch(ev, [pt.coords], [max(map(abs, pt.coords))], columns)[0]
    assert got == weighted_sum_by_point(pt, cfg)
    return got


def _ledger(cfg, sample) -> list:
    """The ledger over a sample, as a run reads it: the points' coordinate
    tuples and the sampler's columns."""
    coords = [pt.coords for pt in sample.points]
    maxes = [max(map(abs, x)) for x in coords]
    return _defect_batch(_Evaluator(cfg), coords, maxes, sample.columns)


def _records(report) -> list:
    """One dict per record row, keyed by the CSV header."""
    return [dict(zip(_RECORD_FIELDS, row)) for row in report._rows()]


def test_weighted_defect_frozen_line_case():
    cfg = config_p1()
    assert weighted_defect(ProjPoint((1, 37)), cfg) == pytest.approx(
        math.log(37), abs=1e-12
    )
    assert weighted_defect(ProjPoint((1, 1)), cfg) == 0.0


def test_weighted_defect_frozen_plane_case():
    # all four unit-coefficient lines at [1:1:1]: three zeros and -log 3
    targets = (
        LinearForm((1, 0, 0)),
        LinearForm((0, 1, 0)),
        LinearForm((0, 0, 1)),
        LinearForm((1, 1, 1)),
    )
    cfg = ExperimentConfig(
        variety=P2,
        arrangements=((INF, targets),),
        level=3,
        epsilon=Fraction(1),
        h_min=0.0,
        h_max=10.0,
        sample_count=10,
        seed=0,
    )
    got = weighted_defect(ProjPoint((1, 1, 1)), cfg)
    assert got == pytest.approx(-math.log(3), abs=1e-12)


def test_weighted_defect_uses_seshadri_weights():
    quad = HomForm.from_terms(1, 2, {(1, 1): 1})
    cfg = config_p1(targets=(quad,), position_asserted=True)
    got = weighted_defect(ProjPoint((2, 1)), cfg)
    # lambda = log(2^2 * 1 / 2) = log 2, weight 1/2
    assert got == pytest.approx(math.log(2) / 2, abs=1e-12)


def test_weighted_defect_finite_places_exact():
    cfg = config_p1(places=(Place(2),))
    assert weighted_defect(ProjPoint((3, 8)), cfg) == pytest.approx(
        3 * math.log(2), abs=1e-12
    )
    assert weighted_defect(ProjPoint((3, 7)), cfg) == 0.0


def test_weighted_defect_subscheme_modes():
    spec = SubschemeSpec((LinearForm((1, 0, 0)), LinearForm((0, 1, 0))))
    base = dict(
        variety=P2,
        arrangements=((INF, (spec,)),),
        level=2,
        epsilon=Fraction(1),
        h_min=0.0,
        h_max=10.0,
        sample_count=10,
        seed=0,
        position_asserted=True,
    )
    lenient = ExperimentConfig(**base)
    assert weighted_defect(ProjPoint((1, 2, 1)), lenient) == 0.0
    on_one = ProjPoint((0, 1, 1))
    assert weighted_defect(on_one, lenient) == 0.0
    strict = ExperimentConfig(**{**base, "mode": "strict"})
    with pytest.raises(SupportError):
        weighted_defect(on_one, strict)
    with pytest.raises(SupportError):
        weighted_defect(ProjPoint((0, 0, 1)), lenient)


def test_weighted_defect_support_raises():
    with pytest.raises(SupportError):
        weighted_defect(ProjPoint((0, 1)), config_p1())


# ---------------------------------------------------------------------------
# delta budget


def test_delta_budget_frozen_values():
    assert delta_budget(2, 2, 1) == Fraction(1, 8)
    assert delta_budget(1, 1, Fraction(1, 10)) == Fraction(1, 32)
    assert delta_budget(3, 2, 1) == Fraction(1, 16)
    assert delta_budget(1, 1, 100) == Fraction(1, 2)  # capped below 1


def budget_holds(delta, level, dim, eps):
    a = Fraction(level - dim + 1)
    return delta * a + delta * a * (dim + 1 + delta) < Fraction(eps)


def test_delta_budget_resubstitutes_and_is_maximal():
    for level in range(1, 9):
        for dim in range(1, level + 1):
            for eps in (Fraction(1, 10), Fraction(1), Fraction(10)):
                delta = delta_budget(level, dim, eps)
                assert budget_holds(delta, level, dim, eps)
                assert delta == Fraction(1, 2) or not budget_holds(
                    2 * delta, level, dim, eps
                )


def test_delta_budget_rejects_bad_inputs():
    with pytest.raises(ArgumentError):
        delta_budget(0, 1, 1)
    with pytest.raises(ArgumentError):
        delta_budget(2, 0, 1)
    with pytest.raises(ArgumentError):
        delta_budget(2, 1, 0)
    with pytest.raises(DomainError):
        delta_budget(1, 1, Fraction(1, 10**15))


# ---------------------------------------------------------------------------
# chain check


def worked_cert():
    return quang_combine(
        [LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((1, -1, 0))],
        X_LINE,
    )


def test_chain_check_worked_example_archimedean():
    rec = chain_check(ProjPoint((1, 2, 0)), INF, worked_cert())
    assert rec.perm == (1, 3, 2)
    assert rec.lhs == pytest.approx(math.log(4), abs=1e-12)
    assert rec.rhs == pytest.approx(math.log(48), abs=1e-12)
    assert rec.constant_k == pytest.approx(math.log(3), abs=1e-12)
    assert rec.slack == pytest.approx(math.log(12), abs=1e-12)
    assert rec.chain_c == "1"
    assert rec.passed
    d = rec.to_json_dict()
    assert d["place"] == "inf" and d["perm"] == [1, 3, 2] and d["passed"]


def test_chain_check_worked_example_dyadic():
    rec = chain_check(ProjPoint((1, 2, 0)), Place(2), worked_cert())
    assert rec.perm == (2, 1, 3)
    assert rec.lhs == pytest.approx(math.log(2), abs=1e-12)
    assert rec.rhs == pytest.approx(2 * math.log(2), abs=1e-12)
    assert rec.constant_k == 0.0
    assert rec.slack == pytest.approx(math.log(2), abs=1e-12)
    assert rec.passed


def test_chain_check_equality_when_level_is_dim():
    cert = quang_combine([X0, X1], P1)
    rec = chain_check(ProjPoint((5, 3)), INF, cert)
    assert rec.lhs == rec.rhs
    assert rec.slack == 0.0
    assert rec.constant_k == 0.0
    assert rec.passed
    rec2 = chain_check(ProjPoint((5, 3)), Place(5), cert)
    assert rec2.slack == 0.0 and rec2.passed


def test_chain_check_is_independent_of_the_input_order():
    # at a point where no two local norms tie, the re-sorting sees the same
    # order whatever the input order, so a certificate of the shuffled family
    # gives the same sides
    forms = [LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((1, -1, 0))]
    rng = random.Random(43)
    pts = sample_points(X_LINE, 0.0, math.log(40), 80, seed=5).points
    compared = 0
    for pt in pts:
        values = [f.evaluate(pt) for f in forms]
        if 0 in values:
            continue
        for place in (INF, Place(2), Place(3)):
            keys = [abs(x) if place.p is None else valuation(x, place.p) for x in values]
            if len(set(keys)) < len(keys):
                continue
            shuffled = rng.sample(forms, len(forms))
            base = chain_check(pt, place, quang_combine(forms, X_LINE))
            other = chain_check(pt, place, quang_combine(shuffled, X_LINE))
            assert (other.lhs, other.rhs, other.slack) == (base.lhs, base.rhs, base.slack)
            compared += 1
    assert compared > 40


def test_chain_check_support_point_is_inadmissible():
    cert = worked_cert()
    with pytest.raises(SupportError):
        chain_check(ProjPoint((1, 1, 0)), INF, cert)
    with pytest.raises(SupportError):
        chain_check(ProjPoint((0, 1, 0)), Place(3), cert)


def test_chain_check_holds_over_a_sample():
    cert = worked_cert()
    pts = sample_points(X_LINE, 0.0, math.log(30), 120, seed=2).points
    places = (INF, Place(2), Place(3))
    checked = 0
    for pt in pts:
        for v in places:
            try:
                rec = chain_check(pt, v, cert)
            except SupportError:
                continue
            checked += 1
            assert rec.passed
            assert rec.slack >= -1e-12
    assert checked > 200


# ---------------------------------------------------------------------------
# exceptional candidates


def planted_violators():
    cluster_a = [ProjPoint((k, 1, 0)) for k in range(1, 11)]
    cluster_b = [ProjPoint((0, 1, k)) for k in range(1, 11)]
    scatter = [
        ProjPoint(c)
        for c in ((1, 1, 1), (1, 2, 4), (1, 3, 9), (2, 3, 1), (3, 1, 2))
    ]
    return cluster_a, cluster_b, scatter


def test_scan_recovers_planted_lines():
    cluster_a, cluster_b, scatter = planted_violators()
    got = exceptional_scan(
        cluster_a + cluster_b + scatter, P2, fraction=Fraction(1, 5)
    )
    assert len(got) == 2
    by_members = {frozenset(c.members) for c in got}
    assert frozenset(str(p) for p in cluster_a) in by_members
    assert frozenset(str(p) for p in cluster_b) in by_members
    for cand in got:
        assert cand.dim == 1
        assert cand.coverage == "2/5"
        assert len(cand.defining_forms) == 1
    forms = {c.defining_forms[0] for c in got}
    assert forms == {(0, 0, 1), (1, 0, 0)}


def test_scan_members_agree_with_rank():
    cluster_a, cluster_b, scatter = planted_violators()
    pts = cluster_a + cluster_b + scatter
    got = exceptional_scan(pts, P2, fraction=Fraction(1, 10))
    assert got
    for cand in got:
        span = [list(ProjPoint.parse(s).coords) for s in cand.span_points]
        assert rank_fraction_gauss(span) == cand.dim + 1
        for p in pts:
            inside = rank_fraction_gauss(span + [list(p.coords)]) == cand.dim + 1
            assert inside == (str(p) in cand.members)


def test_scan_respects_fraction_threshold():
    cluster_a, cluster_b, scatter = planted_violators()
    none = exceptional_scan(
        cluster_a + cluster_b + scatter, P2, fraction=Fraction(1, 2)
    )
    assert none == []
    assert exceptional_scan([], P2) == []


def test_scan_seed_thinning_still_finds_a_big_line():
    pts = [ProjPoint((k, 1, 0)) for k in range(1, 61)]  # more than 48 seeds
    got = exceptional_scan(pts, P2)
    assert len(got) == 1
    assert got[0].coverage == "1"
    assert set(got[0].members) == {str(p) for p in pts}
    assert got[0].defining_forms == ((0, 0, 1),)


def test_surface_scan_ranks_no_seed_subset(monkeypatch):
    calls = []
    rank_rows = subgeneral.linalg.rank_rows

    def counting(rows):
        calls.append(len(rows))
        return rank_rows(rows)

    for module in (subgeneral.linalg, subgeneral.experiments):
        monkeypatch.setattr(module, "rank_rows", counting)
    rng = random.Random(40)
    line = [ProjPoint((k, 1, 0)) for k in range(1, 31)]
    scatter = [ProjPoint((rng.randint(1, 50), rng.randint(1, 50), rng.randint(1, 50)))
               for _ in range(30)]
    pts = line + scatter
    assert len({str(p) for p in pts}) >= 40
    got = exceptional_scan(pts, P2, fraction=Fraction(1, 5))
    assert calls == []
    assert got[0].members == tuple(sorted(str(p) for p in line))


def _span_cluster(rng, basis, count, hi=6):
    """count points s . basis, s seeded in [-hi, hi]^k, not all zero."""
    out = []
    while len(out) < count:
        s = [rng.randint(-hi, hi) for _ in basis]
        vec = [sum(a * b for a, b in zip(s, col)) for col in zip(*basis)]
        if any(vec):
            out.append(ProjPoint(tuple(vec)))
    return out


def seeded_scan_cases():
    """(violators, X) on X of dimension 1, 2 and 3: collinear and coplanar
    clusters, scatter, rescaled duplicates, a single violator, more than 48
    violators (lines whose members are mostly not seeds), three and more
    collinear seeds, a line holding exactly one fifth of twenty, and spans
    of dimension 2 on X of dimension 3 in P^3 and in P^4."""
    rng = random.Random(47)
    P3 = projective_space(3)

    def scatter(ambient, count, hi=40):
        return [rand_point(rng, ambient, hi) for _ in range(count)]

    def line(ambient):
        return [rand_point(rng, ambient, 3).coords for _ in range(2)]

    def dup(pts):
        return [ProjPoint(tuple(3 * x for x in p.coords)) for p in rng.sample(pts, 3)]

    on_axis = [ProjPoint((p.coords[0], p.coords[1], 0)) for p in scatter(1, 12)]
    yield scatter(1, 10) + scatter(1, 2, 2), P1
    yield on_axis + dup(on_axis), X_LINE
    for _ in range(4):
        pts = _span_cluster(rng, line(2), 8) + _span_cluster(rng, line(2), 6) + scatter(2, 6)
        yield pts + dup(pts), P2
    yield [rand_point(rng, 2, 9)], P2
    yield _span_cluster(rng, line(2), 30) + scatter(2, 40), P2
    a, b = line(2)
    four = [ProjPoint(tuple(s * x + t * y for x, y in zip(a, b)))
            for s, t in ((1, 0), (0, 1), (1, 1), (1, -1))]
    yield four + scatter(2, 16, hi=1000), P2
    plane = [rand_point(rng, 3, 3).coords for _ in range(3)]
    for _ in range(2):
        pts = _span_cluster(rng, plane, 8) + _span_cluster(rng, line(3), 5) + scatter(3, 6)
        yield pts + dup(pts), P3
    # 110 violators, 48 of them seeds: two lines of 25 and scatter
    yield _span_cluster(rng, line(2), 25) + _span_cluster(rng, line(2), 25) + scatter(2, 60), P2
    # on X = {x3 = 0}: 70 violators, a line of 40 through few seeds
    flat = [ProjPoint(x.coords[:3] + (0,)) for x in scatter(2, 30)]
    axis_line = [(1, 2, 0, 0), (0, 1, -3, 0)]
    yield _span_cluster(rng, axis_line, 40, hi=9) + flat, X_SURFACE
    # all seeds: seven on one line, three on another, and scatter
    yield _span_cluster(rng, line(2), 7) + _span_cluster(rng, line(2), 3) + scatter(2, 5), P2
    # a 3-fold in P^4: a plane of 9, a line of 6, scatter
    fold = LinearSubvariety(4, (LinearForm((1, 1, 0, 0, -1)),))
    basis = fold.kernel_basis()

    def on_fold(count, k, hi=4):
        span = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(5))
                for cs in ([rng.randint(-2, 2) for _ in basis] for _ in range(k))]
        return _span_cluster(rng, span, count, hi)

    pts = on_fold(9, 3) + on_fold(6, 2) + on_fold(8, 4, hi=30)
    yield pts + dup(pts), fold


def test_scan_matches_the_hand_written_membership_test():
    fractions = (Fraction(1, 20), Fraction(1, 5), Fraction(1, 2))
    found = exact = 0
    for violators, variety in seeded_scan_cases():
        for fraction in fractions:
            for cap in (1, 10):
                got = exceptional_scan(violators, variety, fraction, cap)
                assert got == exceptional_scan_by_hand(violators, variety, fraction, cap)
                assert len(got) <= cap
                found += bool(got)
                exact += any(c.coverage == rat_str(fraction) for c in got)
    assert found >= 30 and exact >= 2


def test_scan_fits_a_kernel_only_for_the_chosen_spans(monkeypatch):
    # on X of dimension 2 the spans are points and lines, found with no
    # kernel; the chosen ones get theirs
    kernels = _counting(monkeypatch, "nullspace", subgeneral.experiments)
    cases = [(v, x) for v, x in seeded_scan_cases() if x.dim == 2]
    assert len(cases) >= 8
    chosen = 0
    for violators, variety in cases:
        for fraction in (Fraction(1, 20), Fraction(1, 5)):
            kernels.clear()
            got = exceptional_scan(violators, variety, fraction)
            assert len(kernels) <= len(got)
            assert [list(rows) for rows, _ in kernels] == [
                [ProjPoint.parse(p).coords for p in c.span_points] for c in got
            ]
            chosen += len(got)
    assert chosen >= 20


def test_scan_dedupes_projectively_equal_points():
    pts = [ProjPoint((1, 1, 0)), ProjPoint((2, 2, 0)), ProjPoint((3, 1, 0))]
    # first two are the same projective point; the greedy cover then grabs
    # the one line through both distinct points in a single candidate
    got = exceptional_scan(pts, P2, fraction=Fraction(1, 2))
    assert len(got) == 1
    assert got[0].dim == 1
    assert set(got[0].members) == {"[1:1:0]", "[3:1:0]"}


def test_candidate_targets_types():
    line = Candidate(
        dim=1,
        span_points=("[1:1:0]", "[2:1:0]"),
        defining_forms=((0, 0, 1),),
        members=("[1:1:0]", "[2:1:0]"),
        coverage="1",
    )
    point = Candidate(
        dim=0,
        span_points=("[1:2:1]",),
        defining_forms=((2, -1, 0), (1, 0, -1)),
        members=("[1:2:1]",),
        coverage="1/2",
    )
    lin, spec = candidate_targets([line, point])
    assert lin == LinearForm((0, 0, 1))
    assert isinstance(spec, SubschemeSpec)
    assert spec.label == "candidate(dim=0)"
    assert spec.components == (LinearForm((2, -1, 0)), LinearForm((1, 0, -1)))


# ---------------------------------------------------------------------------
# experiment configuration


def test_config_json_round_trip():
    cfg = config_p1(places=(INF, Place(2)), sample_count=12, seed=3)
    data = cfg.to_json_dict()
    assert data["l"] == 1
    assert data["epsilon"] == "1/10"
    assert set(data["arrangements"]) == {"inf", "p=2"}
    again = ExperimentConfig.from_json_dict(json.loads(json.dumps(data)))
    assert again == cfg


def test_config_rejects_bad_fields():
    with pytest.raises(ArgumentError):
        config_p1(places=())
    with pytest.raises(ArgumentError):
        config_p1(epsilon=0)
    with pytest.raises(ArgumentError):
        config_p1(h_min=2.0, h_max=1.0)
    with pytest.raises(ArgumentError):
        config_p1(h_max=501.0)
    with pytest.raises(ArgumentError):
        config_p1(level=0)
    with pytest.raises(ArgumentError):
        config_p1(sample_count=-1)
    with pytest.raises(ArgumentError):
        config_p1(mode="eager")
    with pytest.raises(ArgumentError):
        config_p1(candidate_fraction=Fraction(0))
    with pytest.raises(ArgumentError):
        config_p1(max_candidates=0)
    with pytest.raises(ArgumentError):
        config_p1(workers=0)
    with pytest.raises(ArgumentError):
        ExperimentConfig(
            variety=P1,
            arrangements=((INF, (X0,)), (INF, (X1,))),
            level=1,
            epsilon=Fraction(1),
            h_min=0.0,
            h_max=1.0,
            sample_count=1,
            seed=0,
        )
    with pytest.raises(ArgumentError):
        config_p1(targets=(LinearForm((1, 0, 0)),))
    # excluded supports live in the ambient space too
    for support in (LinearForm((1, -2, 5)), HomForm.from_terms(2, 2, {(2, 0, 0): 1})):
        with pytest.raises(ArgumentError, match="wrong ambient space"):
            config_p1(excluded_supports=(support,))


def test_config_refuses_unknown_keys():
    data = config_p1().to_json_dict()
    data["sampel_count"] = 5
    data["modes"] = "strict"
    with pytest.raises(ArgumentError, match="modes, sampel_count"):
        ExperimentConfig.from_json_dict(data)


def test_config_optional_keys_take_the_field_defaults():
    data = config_p1().to_json_dict()
    for key in (
        "ambient_dim",
        "position_asserted",
        "mode",
        "candidate_fraction",
        "max_candidates",
        "workers",
        "excluded_supports",
    ):
        del data[key]
    assert ExperimentConfig.from_json_dict(data) == config_p1()


def test_report_config_round_trips():
    cfg = violator_config(
        places=(INF, Place(3)),
        mode="strict",
        candidate_fraction=Fraction(1, 3),
        max_candidates=2,
        position_asserted=True,
        excluded_supports=(LinearForm((1, -2)),),
    )
    echoed = json.loads(run_main_experiment(cfg).to_json())["config"]
    assert ExperimentConfig.from_json_dict(echoed) == cfg


def test_integral_epsilon_texts_give_byte_identical_reports(capsys):
    data = violator_config(epsilon=Fraction(1)).to_json_dict()
    reports = set()
    for text in ("1", "1/1", "+1", "1.0", "2/2"):
        data["epsilon"] = text
        cfg = ExperimentConfig.from_json_dict(data)
        assert type(cfg.epsilon) is int and cfg.epsilon == 1
        assert main(["experiment", "run", "--config", json.dumps(data)]) == 0
        reports.add(capsys.readouterr().out)
    assert len(reports) == 1
    assert json.loads(reports.pop())["config"]["epsilon"] == "1"


def test_config_ambient_dim_cross_check():
    data = config_p1().to_json_dict()
    data["ambient_dim"] = 4
    with pytest.raises(ArgumentError):
        ExperimentConfig.from_json_dict(data)


# ---------------------------------------------------------------------------
# experiment runs


def violator_config(epsilon=Fraction(1, 10), **kw):
    return config_p1(
        targets=(X0, LinearForm((5, 7))),
        h_min=0.5,
        h_max=2.5,
        epsilon=epsilon,
        **kw,
    )


def test_main_run_finds_the_planted_violators():
    report = run_main_experiment(violator_config())
    assert report.kind == "main"
    assert report.bound == Fraction(21, 10)
    assert report.violators == ["[2:-1]", "[3:-2]", "[4:-3]"]
    assert report.unassigned == []
    assert len(report.candidates) == 3
    assert all(c.dim == 0 for c in report.candidates)
    # [7:-5] lies on the target 5x0 + 7x1 inside the window: the sampler
    # skips it, so no ledger entry meets a support
    assert math.log(7) < 2.5 and LinearForm((5, 7)).evaluate(ProjPoint((7, -5))) == 0
    assert "[7:-5]" not in report.points
    assert "[7:-5]" not in report.excluded_height
    assert not report.partial
    # every reported ratio is sum/height and flags match the bound
    for row in _records(report):
        assert row["ratio"] == pytest.approx(
            row["weighted_sum"] / row["height"], abs=1e-12
        )
        assert row["violator"] == (row["point"] in report.violators)


def test_a_run_builds_one_evaluator(monkeypatch):
    built = []

    class Counting(subgeneral.experiments._Evaluator):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

    monkeypatch.setattr(subgeneral.experiments, "_Evaluator", Counting)
    cfg = violator_config(places=(INF, Place(2)))
    report = run_main_experiment(cfg)
    assert built == [cfg]
    assert report.violators
    baseline = run_evertse_ferretti_baseline(cfg)
    assert built == [cfg, cfg]
    assert baseline.points == report.points


def test_report_rows_agree_across_formats():
    report = run_main_experiment(violator_config())
    records = _records(report)
    assert len(records) == len(report.points) > 0
    fields = ["point", "height", "weighted_sum", "ratio"]
    assert report.to_json_dict()["records"] == [[r[k] for k in fields] for r in records]
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "point,height,weighted_sum,ratio,violator"
    assert lines[1:] == [
        "%s,%r,%r,%r,%d" % tuple(r[k] for k in fields + ["violator"]) for r in records
    ]
    assert sum(r["violator"] for r in records) == len(report.violators)


def _writer_reports():
    """Seeded main and baseline reports on a curve and on a surface, each
    with violators and with points of height 0 (max|x_i| = 1)."""
    curve = replace(violator_config(places=(INF, Place(2), Place(3))), h_min=0.0)
    rng = random.Random(0)
    forms = tuple(rand_linear_form(rng, 2, hi=9) for _ in range(3))
    surface = ExperimentConfig(
        variety=P2,
        arrangements=tuple((v, forms) for v in (INF, Place(2), Place(3))),
        level=2,
        epsilon=Fraction(1, 100),
        h_min=0.0,
        h_max=math.log(12),
        sample_count=400,
        seed=0,
    )
    return [
        run(cfg)
        for cfg in (curve, surface)
        for run in (run_main_experiment, run_evertse_ferretti_baseline)
    ]


def test_writers_match_the_generic_dump_and_the_row_writer():
    for report in _writer_reports():
        assert report.violators and report.excluded_height
        assert len(set(report.heights)) < len(report.heights)
        for records in (True, False):
            assert report.to_json(records) == stable_dumps(report.to_json_dict(records))
        buf, ref = io.StringIO(), io.StringIO()
        report.write_csv(buf)
        write_csv_by_row(report, ref)
        assert buf.getvalue() == ref.getvalue()


def test_rerun_with_candidate_exclusions_clears_violators():
    report = run_main_experiment(violator_config())
    cleaned_cfg = replace(
        report.config, excluded_supports=candidate_targets(report.candidates)
    )
    cleaned = run_main_experiment(cleaned_cfg)
    assert cleaned.violators == []
    assert cleaned.candidates == []
    assert len(cleaned.points) == len(report.points) - len(report.violators)


def test_violators_shrink_as_epsilon_grows():
    few = run_main_experiment(violator_config(epsilon=Fraction(1, 2)))
    many = run_main_experiment(violator_config(epsilon=Fraction(1, 10)))
    assert set(few.violators) <= set(many.violators)
    assert few.violators == ["[3:-2]"]  # ratio 2.77 beats 2.5, the others don't
    calm = run_main_experiment(violator_config(epsilon=Fraction(5)))
    assert calm.violators == []


def test_main_run_report_shape_and_determinism():
    report = run_main_experiment(violator_config())
    report2 = run_main_experiment(violator_config())
    assert report.to_json() == report2.to_json()
    data = json.loads(report.to_json())
    assert data["bound"] == "21/10"
    assert data["delta"] == "1/32"
    assert data["n_points"] == len(report.points)
    assert len(data["records"]) == data["n_points"]
    slim = json.loads(report.to_json(include_records=False))
    assert "records" not in slim
    assert data["position_checks"]["inf"] == {
        "verdict": True,
        "witnesses": 0,
        "asserted": False,
    }
    assert "excluded_support" not in data
    chain = data["chain_summary"]["inf"]
    assert set(chain) == {"applicable", "checked", "passed", "min_slack"}
    assert chain["applicable"]
    assert chain["checked"] > 0 and chain["passed"] == chain["checked"]
    assert chain["min_slack"] >= 0.0


def test_main_run_excludes_height_zero_points():
    report = run_main_experiment(config_p1())
    assert report.excluded_height == ["[1:-1]", "[1:1]"]
    assert "[0:1]" not in report.points  # support points never sampled
    assert report.violators == []


def test_csv_output():
    report = run_main_experiment(violator_config())
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "point,height,weighted_sum,ratio,violator"
    assert len(lines) == 1 + len(report.points)
    flags = {}
    for line in lines[1:]:
        point, h, s, r, flag = line.split(",")
        assert float(r) == pytest.approx(float(s) / float(h), abs=1e-12)
        flags[point] = flag
    assert [p for p, f in flags.items() if f == "1"] == report.violators


def test_partial_sample_is_reported():
    report = run_main_experiment(
        config_p1(h_min=0.0, h_max=math.log(2), sample_count=50)
    )
    assert report.partial
    assert 0 < len(report.points) < 50


def test_baseline_run_and_bound():
    cfg = config_p1(
        places=(INF, Place(2), Place(3)), h_min=0.5, h_max=3.5, epsilon=Fraction(1, 10)
    )
    report = run_evertse_ferretti_baseline(cfg)
    assert report.kind == "baseline"
    assert report.bound == Fraction(21, 10)
    assert report.violators == []
    assert all(
        check["verdict"] for check in report.position_checks.values()
    )
    for place_summary in report.chain_summary.values():
        assert place_summary["applicable"]
        assert place_summary["passed"] == place_summary["checked"]


def test_baseline_ratio_two_is_not_a_violation():
    # [16:1] maxes the baseline ratio at exactly 2 < 2 + epsilon
    cfg = config_p1(
        places=(INF, Place(2)), h_min=0.5, h_max=3.0, epsilon=Fraction(1, 10)
    )
    report = run_evertse_ferretti_baseline(cfg)
    idx = report.points.index("[16:1]")
    assert report.ratios[idx] == pytest.approx(2.0, abs=1e-12)
    assert report.violators == []


def _csv_rows(report) -> dict:
    buf = io.StringIO()
    report.write_csv(buf)
    return {line.split(",")[0]: line for line in buf.getvalue().splitlines()}


def test_violator_tie_is_decided_exactly():
    # at [2:-5] the weighted sum is log 125 and h = log 5, so the ratio is
    # exactly the bound 3; the float ratio reads 3.0000000000000004
    cfg = ExperimentConfig(
        variety=P1,
        arrangements=(
            (INF, (X1, LinearForm((5, 4)), LinearForm((2, 1)))),
            (Place(5), (LinearForm((3, 1)), LinearForm((5, -2)), LinearForm((2, 5)))),
        ),
        level=1,
        epsilon=Fraction(1),
        h_min=0.0,
        h_max=2.0,
        sample_count=None,
        seed=1,
    )
    report = run_main_experiment(cfg)
    assert report.bound == Fraction(3)
    idx = report.points.index("[2:-5]")
    assert report.ratios[idx] > float(report.bound)
    assert "[2:-5]" not in report.violators and "[3:-4]" in report.violators
    flags = {r["point"]: r["violator"] for r in _records(report)}
    assert flags["[2:-5]"] is False and flags["[3:-4]"] is True
    rows = _csv_rows(report)
    assert rows["[2:-5]"].endswith(",0") and rows["[3:-4]"].endswith(",1")


def test_violator_tie_at_an_exact_float_is_not_a_violator():
    # at [3:-4] the weighted sum is log 32 and h = log 4, so the ratio is
    # exactly the bound 5/2, and the kernel's floats read it exactly
    cfg = ExperimentConfig(
        variety=P1,
        arrangements=(
            (INF, (LinearForm((2, -3)), LinearForm((3, 2)))),
            (Place(2), (X1, LinearForm((1, -3)))),
        ),
        level=1,
        epsilon=Fraction(1, 2),
        h_min=0.0,
        h_max=2.0,
        sample_count=None,
        seed=1,
    )
    report = run_main_experiment(cfg)
    assert report.bound == Fraction(5, 2)
    idx = report.points.index("[3:-4]")
    assert report.ratios[idx] == float(report.bound)
    assert report.violators == ["[1:-2]"]
    flags = {r["point"]: r["violator"] for r in _records(report)}
    assert flags["[3:-4]"] is False and flags["[1:-2]"] is True
    rows = _csv_rows(report)
    assert rows["[3:-4]"].endswith(",0") and rows["[1:-2]"].endswith(",1")


def test_baseline_needs_exactly_dim_plus_one_targets():
    cfg = config_p1(targets=(X0, X1, LinearForm((1, 1))), level=2)
    with pytest.raises(ConfigRejectedError):
        run_evertse_ferretti_baseline(cfg)


def test_main_rejects_bad_position():
    cfg = ExperimentConfig(
        variety=P2,
        arrangements=(
            (INF, (LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((1, 1, 0)))),
        ),
        level=2,
        epsilon=Fraction(1),
        h_min=0.0,
        h_max=3.0,
        sample_count=10,
        seed=0,
    )
    with pytest.raises(ConfigRejectedError) as exc:
        run_main_experiment(cfg)
    assert exc.value.report is not None


def test_main_refuses_a_linear_target_that_vanishes_on_x():
    # l-subgeneral position allows x2 on X = {x2 = 0} at l = 2 > n, but no
    # point of X lies off its support; the gate refuses it after the verdict
    x2, x0, x1 = LinearForm((0, 0, 1)), LinearForm((1, 0, 0)), LinearForm((0, 1, 0))
    for place, targets in ((INF, (x2, x0, x1)), (Place(2), (x0, x1, x2))):
        cfg = ExperimentConfig(
            variety=X_LINE,
            arrangements=((place, targets),),
            level=2,
            epsilon=Fraction(1),
            h_min=0.0,
            h_max=3.0,
            sample_count=10,
            seed=0,
        )
        assert check_subgeneral(list(targets), X_LINE, 2).verdict
        with pytest.raises(ConfigRejectedError) as exc:
            run_main_experiment(cfg)
        assert str(exc.value) == "target x2 at %s vanishes on X" % place


def _product_form(f: LinearForm, g: HomForm) -> HomForm:
    terms = {}
    for k, a in enumerate(f.coeffs):
        for exps, c in g.terms():
            key = tuple(e + (i == k) for i, e in enumerate(exps))
            terms[key] = terms.get(key, 0) + a * c
    return HomForm.from_terms(g.dim, g.degree + 1, terms)


def test_vanishing_on_x_matches_the_expanded_restriction():
    # forms that vanish on X (multiples of one of X's forms, combinations of
    # them), forms that do not, and subschemes of either kind, on X of
    # codimension 0, 1 and 2 in P^3
    rng = random.Random(81)
    answers = []
    for i in range(90):
        codim = i % 3
        while True:
            forms = tuple(rand_linear_form(rng, 3, 3) for _ in range(codim))
            try:
                x = LinearSubvariety(3, forms)
                break
            except ArgumentError:
                continue
        degree = rng.randint(1, 3)
        targets = [rand_hom_form(rng, 3, degree, 2), rand_linear_form(rng, 3, 2)]
        if codim:
            targets.append(_product_form(forms[0], rand_hom_form(rng, 3, degree, 2)))
            mults = [rng.randint(1, 3) for _ in forms]
            targets.append(LinearForm(tuple(
                sum(a * f.coeffs[k] for a, f in zip(mults, forms)) for k in range(4)
            )))
            targets.append(SubschemeSpec((targets[2], targets[3])))
            targets.append(SubschemeSpec((targets[2], targets[0])))
        for t in targets:
            for mode in ("lenient", "strict"):
                got = _vanishes_on(t, x.kernel_basis(), mode)
                assert got == vanishes_on_by_expansion(t, x, mode), (t, x, mode)
                answers.append(got)
    # the subscheme cap(F*L; L0) vanishes on X in strict mode only
    assert answers.count(True) == 420 and answers.count(False) == 420


def test_main_refuses_any_target_that_vanishes_on_x():
    # on X = {x2 = 0} the quadric x0*x2 and the subscheme cap(x2; x0*x2)
    # vanish everywhere; the quadric x0^2 - x1^2 + x2^2 meets X in the two
    # points [1:1:0] and [1:-1:0], and cap(x2; x0) in [0:1:0], so those run
    # (cap(x2; x0) only in lenient mode: in strict mode x2 puts every point
    # of X on its support)
    x2, x0, x1 = LinearForm((0, 0, 1)), LinearForm((1, 0, 0)), LinearForm((0, 1, 0))
    quad = HomForm.from_terms(2, 2, {(1, 0, 1): 1})
    vanishing = (quad, SubschemeSpec((x2, quad), label="cap(x2; x0*x2)"))
    meeting = (
        HomForm.from_terms(2, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): 1}),
        SubschemeSpec((x2, x0)),
    )

    def cfg(place, targets):
        return ExperimentConfig(
            variety=X_LINE,
            arrangements=((place, targets),),
            level=2,
            epsilon=Fraction(1),
            h_min=0.0,
            h_max=3.0,
            sample_count=10,
            seed=0,
            position_asserted=True,
        )

    for place in (INF, Place(2)):
        for bad in vanishing:
            with pytest.raises(ConfigRejectedError) as exc:
                run_main_experiment(cfg(place, (x0, bad, x1)))
            assert str(exc.value) == "target %s at %s vanishes on X" % (bad, place)
        for ok in meeting:
            report = run_main_experiment(cfg(place, (x0, x1, ok)))
            assert len(report.points) + len(report.excluded_height) == 10
            assert not any(is_on_support(ProjPoint.parse(p), ok) for p in report.points)
    strict = replace(cfg(INF, (x0, x1, meeting[1])), mode="strict")
    with pytest.raises(ConfigRejectedError) as exc:
        run_main_experiment(strict)
    assert str(exc.value) == "target %s at inf vanishes on X" % (meeting[1],)


def test_nonlinear_targets_need_the_assertion():
    quad = HomForm.from_terms(1, 2, {(2, 0): 1, (0, 2): 1})
    cfg = config_p1(targets=(X0, quad), sample_count=8)
    with pytest.raises(ConfigRejectedError):
        run_main_experiment(cfg)
    ok = run_main_experiment(replace(cfg, position_asserted=True))
    assert ok.position_checks["inf"]["asserted"] is True
    assert ok.position_checks["inf"]["verdict"] is None


def test_workers_value_changes_no_report_byte():
    cfg = config_p1(h_min=0.5, h_max=3.9)
    one = run_main_experiment(cfg)
    two = run_main_experiment(replace(cfg, workers=2))
    assert len(one.points) > 1000
    csv_one, csv_two = io.StringIO(), io.StringIO()
    one.write_csv(csv_one)
    two.write_csv(csv_two)
    assert csv_two.getvalue() == csv_one.getvalue()
    # the JSON report differs only in the echoed value
    echoed = json.loads(two.to_json())
    assert echoed["config"]["workers"] == 2
    echoed["config"]["workers"] = 1
    assert stable_dumps(echoed) == one.to_json()


def test_experiment_runs_in_one_process(tmp_path):
    cfg = config_p1(h_min=0.5, h_max=3.9, workers=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "report.json"
    code = (
        "import sys, subgeneral, subgeneral.cli\n"
        "rc = subgeneral.cli.main(['experiment', 'run', '--config', '@' + sys.argv[1],"
        " '--out', sys.argv[2], '--no-records'])\n"
        "print(rc, [m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules])"
    )
    src = str(Path(subgeneral.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, str(path), str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "0 []"
    report = json.loads(out.read_text())
    assert report["n_points"] > 1000
    assert report["config"]["workers"] == 2


# ---------------------------------------------------------------------------
# one local-value kernel: bulk and one-point values agree bit for bit


def _kernel_configs():
    """A seeded curve config and a seeded surface config with a subscheme."""
    rng = random.Random(2024)
    curve = ExperimentConfig(
        variety=P1,
        arrangements=tuple(
            (v, (X0, X1, rand_linear_form(rng, 1, hi=9)))
            for v in (INF, Place(2), Place(3))
        ),
        level=2,
        epsilon=Fraction(1, 10),
        h_min=0.0,
        h_max=math.log(40),
        sample_count=None,
        seed=1,
    )
    point = SubschemeSpec((LinearForm((1, 0, -1)), LinearForm((0, 1, 2))))
    surface = ExperimentConfig(
        variety=P2,
        arrangements=tuple(
            (v, tuple(rand_linear_form(rng, 2) for _ in range(3))
             + (rand_hom_form(rng, 2, 3), point))
            for v in (INF, Place(2), Place(5))
        ),
        level=4,
        epsilon=Fraction(1, 3),
        h_min=0.0,
        h_max=math.log(60),
        sample_count=400,
        seed=7,
        position_asserted=True,
    )
    return curve, surface


def _kernel_sample(cfg):
    targets = tuple(t for _, ts in cfg.arrangements for t in ts)
    sample = sample_points(
        cfg.variety, cfg.h_min, cfg.h_max, cfg.sample_count, cfg.seed, excluded=targets
    )
    return sample, list(dict.fromkeys(targets))


def test_ledgers_never_evaluate_a_form_point_by_point(monkeypatch):
    calls = []
    evaluate = HomForm.evaluate

    def counting(form, point):
        calls.append(form)
        return evaluate(form, point)

    monkeypatch.setattr(HomForm, "evaluate", counting)
    _, surface = _kernel_configs()
    sample, targets = _kernel_sample(surface)
    pts = sample.points
    quadric = next(t for t in targets if isinstance(t, HomForm))
    mixed = SubschemeSpec((quadric, LinearForm((1, 2, -1))))
    manifest = {
        "points": [p.to_json() for p in pts],
        "targets": [target_to_json(t) for t in targets + [mixed]],
        "places": list(surface.places),
    }
    calls.clear()
    assert len(weil_batch(manifest)) == len(pts) * (len(targets) + 1) * 3
    assert _ledger(surface, sample)
    assert calls == []


def test_bulk_ledger_is_bit_equal_to_one_point_values():
    # both kinds of ledger term: the kernel's own column at weight 1.0 (every
    # hyperplane) and a weighted copy (the cubic's 1/3, the subscheme's)
    weights = {w for cfg in _kernel_configs() for *_, ws in _Evaluator(cfg).plan for w in ws}
    assert 1.0 in weights and 1 / 3 in weights
    for cfg in _kernel_configs():
        sample, targets = _kernel_sample(cfg)
        pts = sample.points
        assert len(pts) > 300
        assert _ledger(cfg, sample) == [weighted_sum_by_point(pt, cfg) for pt in pts]
        rows = weil_batch(
            {
                "points": [p.to_json() for p in pts],
                "targets": [target_to_json(t) for t in targets],
                "places": [str(v) for v in cfg.places],
                "mode": cfg.mode,
            }
        )
        assert len(rows) == len(pts) * len(targets) * len(cfg.places)
        it = iter(rows)
        for pt in pts:
            for t in targets:
                for v in cfg.places:
                    assert next(it)["value"] == local_weil(pt, t, v, cfg.mode).value


def test_bulk_ledger_calls_the_kernel_once_per_plan_entry(monkeypatch):
    # every ledger float column comes from a kernel call: at inf the
    # target's own, at a prime the first call of its restriction class (the
    # targets whose sampler columns are one object); no plan entry calls the
    # kernel twice, and one left with no place to compute makes no call
    calls = []
    column = subgeneral.experiments._column

    def counting(target, points, xs, maxes, mode, places, cols=None, **kwargs):
        out = column(target, points, xs, maxes, mode, places, cols, **kwargs)
        calls.append((target, len(points), tuple(places), cols, out[1]))
        return out

    monkeypatch.setattr(subgeneral.experiments, "_column", counting)
    samples = _recording_samples(monkeypatch)
    for cfg in _kernel_configs() + (_agreeing_config(),):
        calls.clear()
        run_main_experiment(cfg)
        sample = samples[-1]
        pts, columns = sample.points, sample.columns
        assert len(pts) > 300
        plan = _Evaluator(cfg).plan
        made = {}
        for target, size, places, cols, values in calls:
            assert size == len(pts) and cols is columns[target]
            made[target] = dict(zip(places, values))
        assert [c[0] for c in calls] == [t for t, *_ in plan if t in made]
        shared = 0
        for target, places, *_ in plan:
            for v in places:
                got = made.get(target, {}).get(v)
                if got is None:
                    assert v.p is not None
                    (got,) = [
                        vals[v] for t, vals in made.items()
                        if columns[t] is columns[target] and v in vals
                    ]
                    shared += 1
                assert got == [local_weil(pt, target, v, cfg.mode).value for pt in pts]
        # only the agreeing family has a class of several forms
        assert shared == (2 if cfg.variety.dim == 2 and cfg.variety.forms else 0)


def _recording_samples(monkeypatch) -> list:
    """Record every SampleResult that a run's sampler returns."""
    samples = []
    sample_points = subgeneral.experiments.sample_points

    def recording(*args, **kwargs):
        samples.append(sample_points(*args, **kwargs))
        return samples[-1]

    monkeypatch.setattr(subgeneral.experiments, "sample_points", recording)
    return samples


X_SURFACE = LinearSubvariety(3, (LinearForm((0, 0, 0, 1)),))


def _agreeing_config(mode="lenient"):
    """X = {x3 = 0} in P^3 with one seeded strictly 4-subgeneral family at
    inf and at p=3, whose three forms x0 + c*x3 agree on X (a restriction
    class of three), and an excluded quadric and subscheme that samples hit
    in both modes: on X the quadric is (x0 - x1)(x0 + x1), and the
    subscheme {x1*x2 = x2 + x3 = 0} is the line x2 = 0, with x1 = 0 on its
    first component alone."""
    forms, variety = strict_arrangement(random.Random(28), 2, 4)
    assert variety == X_SURFACE
    quadric = HomForm.from_terms(3, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 1, 1): 1})
    cross = HomForm.from_terms(3, 2, {(0, 1, 1, 0): 1})
    point = SubschemeSpec((cross, LinearForm((0, 0, 1, 1))))
    return ExperimentConfig(
        variety=variety,
        arrangements=((INF, tuple(forms)), (Place(3), tuple(forms))),
        level=4,
        epsilon=Fraction(1, 5),
        h_min=0.0,
        h_max=math.log(40),
        sample_count=400,
        seed=11,
        mode=mode,
        excluded_supports=(quadric, point),
    )


def _classes_by_basis(variety, supports) -> list:
    """The distinct supports grouped by their values on X: linear forms with
    equal values at every vector of an RREF kernel basis of X share a class,
    any other target is alone."""
    basis = nullspace_by_rref([f.coeffs for f in variety.forms], variety.ambient_dim + 1)
    classes = {}
    for t in dict.fromkeys(supports):
        key = t
        if isinstance(t, LinearForm):
            key = tuple(sum(a * x for a, x in zip(t.coeffs, b)) for b in basis)
        classes.setdefault(key, []).append(t)
    return list(classes.values())


def _sample_by_point(variety, h_min, h_max, count, seed, excluded, mode):
    """The point-by-point sampler, with each support's component columns
    evaluated point by point over its sample."""
    sample = sample_points_by_point(variety, h_min, h_max, count, seed, excluded, mode)
    columns = {
        t: [[c.evaluate(pt) for pt in sample.points] for c in _components(t)]
        for t in excluded
    }
    return sample_of_points(sample.points, sample.partial, sample.attempts, columns)


def _components(target) -> tuple:
    return target.components if isinstance(target, SubschemeSpec) else (target,)


def test_a_class_of_agreeing_forms_costs_one_column_and_one_prime_column(monkeypatch):
    # three forms x0 + c*x3 agree on X = {x3 = 0}: the sampler builds and
    # tests one column for them per batch, and the ledger computes their
    # column at p=3 once; their inf columns stay their own (max|coeff|
    # differs); the report is the per-target oracle's, byte for byte
    built, kernel = [], []
    component_columns = subgeneral.sampling._component_columns

    def building(target, points, xs):
        built.append(target)
        return component_columns(target, points, xs)

    monkeypatch.setattr(subgeneral.sampling, "_component_columns", building)
    for module in (subgeneral.sampling, subgeneral.experiments):
        def counting(target, points, xs, maxes, mode, places, *args, column=module._column, **kw):
            kernel.append((target, tuple(places)))
            return column(target, points, xs, maxes, mode, places, *args, **kw)

        monkeypatch.setattr(module, "_column", counting)
    batches = _counting(monkeypatch, "_test_segment")
    for mode in ("lenient", "strict"):
        cfg = _agreeing_config(mode)
        forms = cfg.arrangements[0][1]
        agreeing = [f for f in forms if f.coeffs[1:3] == (0, 0)]
        assert len(agreeing) == 3
        built.clear()
        kernel.clear()
        batches.clear()
        report = run_main_experiment(cfg)
        assert len(report.points) > 300 and len(batches) > 1
        # one column and one support test per batch for the class
        assert [t for t in built if t in agreeing] == [agreeing[0]] * len(batches)
        sampler = [t for t, places in kernel if not places]
        assert len(sampler) == len(built) == 5 * len(batches)
        # one kernel column at p=3 for the class, three at inf
        ledger = [(t, places) for t, places in kernel if places and t in agreeing]
        assert sum(Place(3) in places for _, places in ledger) == 1
        assert sum(INF in places for _, places in ledger) == 3
        # the weighted sums are the fsums of weighted one-point values
        pts = [ProjPoint.parse(p) for p in report.points]
        assert list(report.sums) == [weighted_sum_by_point(pt, cfg) for pt in pts]
        # and the report is the per-target oracle's: the point-by-point
        # sampler, then the per-point sums
        with monkeypatch.context() as patch:
            patch.setattr(subgeneral.experiments, "sample_points", _sample_by_point)
            patch.setattr(
                subgeneral.experiments,
                "_defect_batch",
                lambda ev, coords, maxes, columns: [
                    weighted_sum_by_point(ProjPoint(x), cfg) for x in coords
                ],
            )
            oracle = run_main_experiment(cfg)
        assert report.to_json() == oracle.to_json()
        csv, oracle_csv = io.StringIO(), io.StringIO()
        report.write_csv(csv)
        oracle.write_csv(oracle_csv)
        assert csv.getvalue() == oracle_csv.getvalue()
        assert report.chain_summary == oracle.chain_summary
        assert all(s["applicable"] for s in report.chain_summary.values())
        # the excluded quadric and subscheme each hold points that the
        # sampler draws, and the report holds none of them
        bare = sample_points(cfg.variety, 0.0, cfg.h_max, 400, cfg.seed, forms, mode)
        for support in cfg.excluded_supports:
            assert any(is_on_support(pt, support, mode) for pt in bare.points)
            assert not any(is_on_support(pt, support, mode) for pt in pts)


def _chain_surface_config():
    """A seeded P^2 config whose chain summary applies at both places (three
    lines in general position, l = 2), with a quadric and a point subscheme
    as excluded supports."""
    quadric = HomForm.from_terms(2, 2, {(2, 0, 0): 1, (0, 1, 1): -3, (0, 0, 2): 2})
    point = SubschemeSpec((LinearForm((1, 0, -1)), LinearForm((0, 1, 2))))
    return ExperimentConfig(
        variety=P2,
        arrangements=(
            (INF, (LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((0, 0, 1)))),
            (Place(3), (LinearForm((1, 1, 0)), LinearForm((0, 1, 1)), LinearForm((1, 0, 1)))),
        ),
        level=2,
        epsilon=Fraction(1, 5),
        h_min=0.0,
        h_max=math.log(50),
        sample_count=500,
        seed=3,
        excluded_supports=(quadric, point),
    )


def test_a_report_evaluates_each_form_once_per_sampler_batch(monkeypatch):
    # the sampler evaluates each restriction class's components once per
    # batch and keeps the columns for every member; the ledger and the chain
    # summary read them and evaluate no form again
    sampler_calls = []
    column = subgeneral.sampling._column

    def counting_kernel(target, points, xs, maxes, mode, places, *cols, **kwargs):
        if not places:
            sampler_calls.append(target)
        return column(target, points, xs, maxes, mode, places, *cols, **kwargs)

    monkeypatch.setattr(subgeneral.sampling, "_column", counting_kernel)
    evaluated = []
    for cls in (LinearForm, HomForm):
        def counting_column(form, xs, original=cls.column):
            evaluated.append(form)
            return original(form, xs)

        monkeypatch.setattr(cls, "column", counting_column)
    summarized = []
    chain_check_column = subgeneral.experiments.chain_check_column

    def recording_summary(points, place, cert, *values):
        summarized.append((points, cert, values))
        return chain_check_column(points, place, cert, *values)

    monkeypatch.setattr(subgeneral.experiments, "chain_check_column", recording_summary)
    # the position gate evaluates targets at lattice points of X's parameter
    # space, before any point is sampled; those calls are kept apart
    gated = []
    validate = subgeneral.experiments._validate_positions

    def gate(config, level):
        out = validate(config, level)
        gated.extend(evaluated)
        evaluated.clear()
        return out

    monkeypatch.setattr(subgeneral.experiments, "_validate_positions", gate)
    several_batches = False
    curve, surface = _kernel_configs()
    configs = (
        (curve, True),
        (surface, False),
        (_chain_surface_config(), True),
        (_agreeing_config(), True),
    )
    for cfg, chained in configs:
        sampler_calls.clear()
        evaluated.clear()
        gated.clear()
        summarized.clear()
        report = run_main_experiment(cfg)
        assert len(report.points) > 300
        supports = [t for _, ts in cfg.arrangements for t in ts] + list(cfg.excluded_supports)
        firsts = [members[0] for members in _classes_by_basis(cfg.variety, supports)]
        batches, rest = divmod(len(sampler_calls), len(firsts))
        assert rest == 0 and sampler_calls == firsts * batches
        assert evaluated == [c for t in firsts for c in _components(t)] * batches
        assert gated and set(gated) <= {c for t in supports for c in _components(t)}
        several_batches |= batches > 1
        assert all(s["applicable"] == chained for s in report.chain_summary.values())
        # the chain summary got each input's values at its own points
        assert len(summarized) == (len(cfg.arrangements) if chained else 0)
        for points, cert, values in summarized:
            assert len(points) == 200
            assert values == ([[f.evaluate(pt) for pt in points] for f in cert.inputs],)
    assert several_batches


def test_a_report_builds_points_only_where_it_hands_them_on(monkeypatch):
    # the sampler, ledger, labels and records run on coordinate tuples; a
    # ProjPoint is built for each of the chain summary's first 200 points,
    # each violator (for the scan) and each ratio in the tie band (for its
    # exact decision), and for nothing else
    built = []

    def canonical(coords, wrap=subgeneral.projective.point_from_canonical):
        built.append(coords)
        return wrap(coords)

    for module in (subgeneral.projective, subgeneral.sampling, subgeneral.experiments):
        monkeypatch.setattr(module, "point_from_canonical", canonical)
    init = ProjPoint.__init__

    def constructing(self, coords):
        built.append(coords)
        init(self, coords)

    monkeypatch.setattr(ProjPoint, "__init__", constructing)
    curve, _ = _kernel_configs()
    violators = 0
    for cfg in (curve, _chain_surface_config(), _agreeing_config()):
        built.clear()
        report = run_main_experiment(cfg)
        assert len(report.points) > 300
        bound = float(report.bound)
        band = _Evaluator(cfg).ratio_error_bound(bound)
        ties = sum(abs(r - bound) <= band for r in report.ratios)
        head = 200 if any(s["applicable"] for s in report.chain_summary.values()) else 0
        assert head
        assert len(built) == head + len(report.violators) + ties
        violators += len(report.violators)
    assert violators


def test_ledgers_do_no_primality_work(count_calls):
    curve, _ = _kernel_configs()
    sample, targets = _kernel_sample(curve)
    pts = sample.points
    # the places are built, and proved prime, before the guard goes up
    manifest = {
        "points": [p.to_json() for p in pts],
        "targets": [target_to_json(t) for t in targets],
        "places": list(curve.places),
    }
    finite = replace(curve, arrangements=curve.arrangements[1:], h_max=math.log(12))
    val_calls = count_calls(subgeneral.places.valuation)
    prime_calls = count_calls(subgeneral.places._is_prime)
    rows = weil_batch(manifest)
    report = run_main_experiment(finite)
    assert val_calls == [] and prime_calls == []
    assert any(r["exact"] not in ("", "support") for r in rows)
    assert report.points
    # the wrappers do see the public entry point
    subgeneral.valuation(12, 2)
    assert len(val_calls) == 1 and prime_calls


# ---------------------------------------------------------------------------
# bounded exhaustive work


def test_coprime_pairs_are_the_loops_pairs():
    block = subgeneral.sampling._DRAW_BLOCK
    for m in [*range(1, 200), block - 1, block, block + 1, 2 * block + 1, 1500]:
        runs = list(_coprime_pairs(m))
        assert [st for run in runs for st in run] == list(coprime_pairs_by_loop(m))
        assert max(map(len, runs)) <= 2 * block
    # a huge parameter yields its first pairs at once
    m = 10**13 + 37
    first = next(_coprime_pairs(m))
    assert 0 < len(first) <= 2 * block
    assert first == list(islice(coprime_pairs_by_loop(m), len(first)))


def test_exhaustive_sweep_attempts_follow_the_closed_form():
    lo, hi = 50, 400
    got = sample_points(P1, math.log(lo), math.log(hi), None, seed=0)
    predicted = 12 / math.pi**2 * (hi**2 - (lo - 1) ** 2)
    assert got.attempts == pytest.approx(predicted, rel=0.01)


def test_line_sweep_starts_at_the_least_parameter_that_reaches_the_window():
    # on {x2 = 0} the parameters are the first two coordinates, so the only
    # point of height log 600 in the first draw is [1:-600:0]
    axis = LinearSubvariety(2, (LinearForm((0, 0, 1)),))
    got = sample_points(axis, math.log(600), math.log(601), 1, seed=0)
    assert [str(p) for p in got.points] == ["[1:-600:0]"]
    assert got.attempts == 1
    # kernel basis (3, 2, 0), (7, 0, -2): a coordinate of s*b1 + t*b2 is at
    # most 10*max(|s|, |t|), so parameters up to 3 cannot reach height log 40
    # and parameters up to 4 cannot reach log 41
    line = LinearSubvariety(2, (LinearForm((2, -3, 7)),))
    full = sample_points(line, 0.0, math.log(90), None, seed=0)
    assert full.attempts == 39520
    for lo, count, skipped in ((40, 1149, 1 + 1 + 2), (41, 1140, 1 + 1 + 2 + 2)):
        window = sample_points(line, math.log(lo), math.log(90), None, seed=0)
        assert window.points == tuple(
            p for p in full.points if max(map(abs, p.coords)) >= lo
        )
        assert len(window.points) == count
        # the full sweep minus 4 * phi(m) attempts per skipped parameter m
        assert window.attempts == full.attempts - 4 * skipped


def test_exhaustive_window_over_the_attempt_budget_is_refused(tmp_path):
    # (12/pi^2) * 1300^2 is about 2.05M attempts, over the 2M budget
    with pytest.raises(ArgumentError, match="sampler attempts"):
        sample_points(P1, 0.0, math.log(1300), None, seed=0)
    # a narrow window at the same height is cheap and runs
    got = sample_points(P1, math.log(1299), math.log(1300), None, seed=0)
    assert got.attempts == 4 * (864 + 480)  # 4 * (phi(1299) + phi(1300))
    # on this line the sweep runs to parameter 2*700, about 2.4M attempts,
    # while P^1 to 700 needs about 0.6M; a sample_count sweep is not refused
    line = LinearSubvariety(2, (LinearForm((2, -3, 7)),))
    with pytest.raises(ArgumentError, match="parameter 1400"):
        sample_points(line, 0.0, math.log(700), None, seed=0)
    assert len(sample_points(line, 0.0, math.log(700), 50, seed=0).points) == 50
    assert sample_points(P1, 0.0, math.log(700), 50, seed=0).points
    cfg = config_p1(places=(INF, Place(2)), h_max=math.log(1300))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["experiment", "run", "--config", "@%s" % path]) == 65


def test_count_limited_sweep_stops_at_the_attempt_budget(monkeypatch, tmp_path):
    axis = LinearSubvariety(2, (LinearForm((0, 0, 1)),))
    cases = ((P1, 0.0, math.log(200)), (axis, math.log(20), math.log(150)))
    full = [sample_points(x, lo, hi, None, seed=0) for x, lo, hi in cases]
    # uncapped, a count beyond the window sweeps all of it
    assert [f.attempts for f in full] == [48928, 26952]
    monkeypatch.setattr(subgeneral.sampling, "_SWEEP_BUDGET", 5000)
    for (x, lo, hi), whole in zip(cases, full):
        got = sample_points(x, lo, hi, 10**6, seed=0)
        assert got.attempts == 5000 and got.partial
        assert got.points == whole.points[: len(got.points)]
        # a count reached within the budget is not partial
        few = sample_points(x, lo, hi, 10, seed=0)
        assert few.points == whole.points[:10] and not few.partial
    monkeypatch.setattr(subgeneral.sampling, "_SWEEP_BUDGET", 40)
    cfg = config_p1(h_max=math.log(200), sample_count=10**6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "report.json"
    assert main(["experiment", "run", "--config", "@%s" % path, "--out", str(out)]) == 3
    assert json.loads(out.read_text())["partial"] is True


def test_random_draws_stop_at_the_attempt_budget(monkeypatch, tmp_path):
    # {x0 + x1 + x2 + x3 = 0} in P^3 holds 97 points of height at most log 3
    plane = LinearSubvariety(3, (LinearForm((1, 1, 1, 1)),))
    few = sample_points(plane, 0.0, math.log(3), 10, seed=0)
    monkeypatch.setattr(subgeneral.sampling, "_SWEEP_BUDGET", 5000)
    # 200 * count + 1000 would allow 21,000 attempts; the budget cuts it
    got = sample_points(plane, 0.0, math.log(3), 100, seed=0)
    assert got.attempts == 5000 and got.partial
    assert len(got.points) == 97
    # a count reached within 200 * count + 1000 attempts is unchanged
    assert sample_points(plane, 0.0, math.log(3), 10, seed=0) == few
    assert not few.partial
    axes = (LinearForm((1, 0, 0, 0)), LinearForm((0, 1, 0, 0)), LinearForm((0, 0, 1, 0)))
    cfg = ExperimentConfig(
        variety=plane,
        arrangements=((INF, axes),),
        level=2,
        epsilon=Fraction(1, 10),
        h_min=0.0,
        h_max=math.log(3),
        sample_count=100,
        seed=0,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "report.json"
    assert main(["experiment", "run", "--config", "@%s" % path, "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["partial"] is True and report["attempts"] == 5000


# ---------------------------------------------------------------------------
# one sampler: the candidate streams and the acceptance loop reproduce the
# point-by-point sampler


# P^1; lines in P^2 and P^3, one of them {2x0 + x1 + x2 = 0}, whose kernel
# basis spans a sublattice of index 2, so s*b1 + t*b2 is not always
# primitive; planes; 3-folds
SAMPLER_GEOMETRIES = (
    P1,
    LinearSubvariety(2, (LinearForm((2, 1, 1)),)),
    LinearSubvariety(2, (LinearForm((1, -3, 2)),)),
    LinearSubvariety(3, (LinearForm((1, 2, 0, -1)), LinearForm((0, 1, 3, 1)))),
    P2,
    LinearSubvariety(3, (LinearForm((1, 1, -2, 1)),)),
    projective_space(3),
    LinearSubvariety(4, (LinearForm((0, 1, 0, 0, 2)),)),
)


def _sampler_supports(rng, dim):
    """Linear, quadric and two-form subscheme supports on P^dim, with
    coordinate hyperplanes and their products planted so that samples hit
    them."""
    axis = [LinearForm(tuple(int(i == k) for i in range(dim + 1))) for k in range(dim + 1)]
    cross = HomForm.from_terms(dim, 2, {tuple(int(i < 2) for i in range(dim + 1)): 1})
    pool = (
        axis
        + [rand_linear_form(rng, dim, hi=3) for _ in range(2)]
        + [cross, rand_hom_form(rng, dim, 2, hi=2)]
        + [
            SubschemeSpec((axis[0], axis[1])),
            SubschemeSpec((rand_linear_form(rng, dim, hi=2), cross)),
        ]
    )
    return tuple(rng.sample(pool, rng.randint(0, 4)))


def _sampler_cases():
    """(variety, h_min, h_max, count, seed, excluded, mode, budget): seven
    seeded cases per geometry plus edge cases."""
    rng = random.Random(41)
    cases = []
    for variety in SAMPLER_GEOMETRIES:
        for k in range(7):
            count = (None, 1, rng.randint(2, 12), rng.randint(20, 60), 10**5)[k % 5]
            if variety.dim > 1 and count is None and k:
                count = rng.randint(2, 12)
            h_min = rng.choice((0.0, 0.0, math.log(3)))
            h_max = math.log(rng.randint(4, 9 if variety.dim > 1 else 24))
            excluded = _sampler_supports(rng, variety.ambient_dim)
            excluded += excluded[:1]  # a repeated support is tested once
            mode = rng.choice(("lenient", "strict"))
            # a count beyond the window on a plane would take 2M draws
            budgets = (7, 40, 1000) + (() if count == 10**5 else (2_000_000,))
            budget = rng.choice(budgets)
            cases.append((variety, h_min, h_max, count, rng.randrange(100), excluded, mode, budget))
    # the count's last point at the budget's last attempt, and a window
    # past the budget
    cases.append((P1, 0.0, math.log(5), 7, 0, (), "lenient", 7))
    cases.append((P1, 0.0, math.log(5), None, 0, (X1,), "lenient", 3))
    cases.append((P2, 0.0, math.log(3), 0, 0, (), "lenient", 40))
    cases.append((P2, 0.3, 0.4, 5, 0, (), "lenient", 40))
    # all 49 points of height <= log 2 on P^2, then 200*50 + 1000 draws
    cases.append((P2, 0.0, math.log(2), 50, 0, (), "strict", 2_000_000))
    return cases


def _per_attempt(stream):
    """A block stream as one candidate (or None) per attempt, the protocol of
    the nested-loop oracle; each candidate's max|x_i| is checked on the
    way."""
    for size, at, coords, tops in stream:
        assert list(at) == sorted(set(at)) and all(0 <= i < size for i in at)
        slots = [None] * size
        for i, c, top in zip(at, coords, tops, strict=True):
            assert top == max(map(abs, c))
            slots[i] = c
        yield from slots


def test_draw_stream_yields_the_nested_loop_candidates():
    rng = random.Random(43)
    varieties = [v for v in SAMPLER_GEOMETRIES if v.dim > 1]
    plane = (LinearForm((2, 1, 1, 0, 0)), LinearForm((0, 3, 0, 1, -1)))
    varieties.append(LinearSubvariety(4, plane))
    drawn = 0
    for variety in varieties:
        for seed in range(15):
            lo = rng.choice((1, 1, 3, 50))
            hi = lo + rng.choice((0, 2, 10, 300, 10**6, 10**15))
            got = list(islice(_per_attempt(_draw_stream(variety, lo, hi, seed)), 300))
            assert got == list(islice(draw_stream_by_loop(variety, lo, hi, seed), 300))
            drawn += sum(c is not None for c in got)
    assert drawn > 10_000


def test_draw_stream_matches_the_nested_loop_across_blocks():
    # 1,700 attempts cross three block boundaries (the stream draws 512
    # attempts at a time), on X = {x3 = 0} in P^3, on P^2 and on a plane of
    # codimension 2 in P^4, at window tops where randint's rejection draws
    # are frequent (2*hi+1 just above a power of 2) and at hi >= 2^32
    assert subgeneral.sampling._DRAW_BLOCK * 3 < 1700
    plane = (LinearForm((2, 1, 1, 0, 0)), LinearForm((0, 3, 0, 1, -1)))
    varieties = (
        LinearSubvariety(3, (LinearForm((0, 0, 0, 1)),)),
        P2,
        LinearSubvariety(4, plane),
    )
    tops = (1, 2, 4, 50, 2**32, 2**32 + 1, 3 * 2**40, 10**15)
    drawn = 0
    for variety in varieties:
        for seed, hi in enumerate(tops):
            lo = 1 if hi < 50 else hi // 3
            got = list(islice(_per_attempt(_draw_stream(variety, lo, hi, seed)), 1700))
            assert got == list(islice(draw_stream_by_loop(variety, lo, hi, seed), 1700))
            drawn += sum(c is not None for c in got[1536:])
    assert drawn > 1000


def _sample_or_error(sampler, case):
    variety, h_min, h_max, count, seed, excluded, mode, _ = case
    try:
        return sampler(variety, h_min, h_max, count, seed, excluded, mode)
    except ArgumentError as err:
        return str(err)


def test_one_sampler_matches_the_point_by_point_sampler(monkeypatch):
    # the block streams are wrapped to see each block's size, and the
    # segment test to see segments that lose points to a support
    blocks, lossy = [], []
    for name in ("_draw_stream", "_line_stream"):
        def recording(*args, stream=getattr(subgeneral.sampling, name)):
            for block in stream(*args):
                blocks.append(block[0])
                yield block

        monkeypatch.setattr(subgeneral.sampling, name, recording)
    test_segment = subgeneral.sampling._test_segment

    def segment(pts, tops, classes, mode, out, *rest):
        before = len(out)
        test_segment(pts, tops, classes, mode, out, *rest)
        lossy.append(len(out) - before < len(pts))

    monkeypatch.setattr(subgeneral.sampling, "_test_segment", segment)
    cases = _sampler_cases()
    assert len(cases) == 61
    outcomes = set()
    for case in cases:
        monkeypatch.setattr(subgeneral.sampling, "_SWEEP_BUDGET", case[-1])
        blocks.clear()
        lossy.clear()
        got = _sample_or_error(sample_points, case)
        assert got == _sample_or_error(sample_points_by_point, case), case
        if isinstance(got, str):
            outcomes.add("refused")
            continue
        outcomes.add(("partial" if got.partial else "complete", bool(got.points)))
        if got.points and case[5]:
            outcomes.add("excluded")
        assert got.coords == [pt.coords for pt in got.points]
        assert got.maxes == [max(map(abs, x)) for x in got.coords]
        # the sampler stopped inside the last block it took: at the cap, or
        # at the candidate that completed the count
        if got.attempts < sum(blocks):
            outcomes.add("cap inside a block" if got.partial else "count inside a block")
        if any(lossy):
            outcomes.add("hits inside a block")
    assert outcomes >= {
        "refused", "excluded", ("partial", True), ("complete", True), ("complete", False),
        "cap inside a block", "count inside a block", "hits inside a block",
    }


def test_the_window_ends_hold_their_definition_up_to_h_500(counted_log):
    # above h ~ 36 about e^h * ulp(h) integers share the float log h, so the
    # ends are searched, not walked: a few thousand logs at h = 500
    rng = random.Random(18)
    highs = [36.0, 45.0, 50.0, 60.0, 100.0, 500.0] + [rng.uniform(0, 500) for _ in range(40)]
    for h_max in highs:
        for h_min in (h_max, h_max - rng.uniform(0, 3), rng.uniform(-2, h_max)):
            counted_log.calls = 0
            lo, hi = subgeneral.sampling._int_window(h_min, h_max)
            assert math.log(hi) <= h_max < math.log(hi + 1)
            assert lo == 1 or math.log(lo - 1) < h_min
            assert h_min <= math.log(lo)
    assert counted_log.calls > 0


def test_the_window_ends_are_the_stepping_loops_ends():
    rng = random.Random(31)
    windows = [(0.0, 0.0), (-2.0, -1.0), (-1.0, 0.5), (math.log(7), math.log(7))]
    for _ in range(5000):
        a, b = rng.uniform(-2, 30), rng.uniform(-2, 30)
        if rng.random() < 0.2:  # bounds at the log of an integer
            a, b = (math.log(rng.randint(1, 10**6)) for _ in range(2))
        windows.append((min(a, b), max(a, b)) if rng.random() < 0.9 else (a, b))
    for h_min, h_max in windows:
        got = subgeneral.sampling._int_window(h_min, h_max)
        assert got == int_window_by_steps(h_min, h_max), (h_min, h_max)


def test_a_count_limited_sweep_at_a_huge_parameter_stops_early(monkeypatch):
    # at height log 30 the sweep starts near m = 10^13, one parameter with
    # about 10^13 pairs: the sweep takes them a run at a time, so a count or
    # a cap ends it within a few blocks, each cut inside that parameter, on
    # P^1 and on lines in P^2, with a support that the first pairs hit
    lo, hi = subgeneral.sampling._int_window(30.0, 31.0)
    flat = LinearSubvariety(2, (LinearForm((0, 0, 1)),))
    twin = LinearSubvariety(2, (LinearForm((1, -1, 0)),))
    # x0 = 2*x1: the first pairs of m_lo = lo/2 lie below the window
    steep = LinearSubvariety(2, (LinearForm((1, -2, 0)),))
    cases = [
        (P1, 50, (), 2_000_000),
        (P1, 1500, (LinearForm((lo, 1)), X0), 2_000_000),
        (P1, 1500, (LinearForm((lo, 1)),), 1200),
        (flat, 700, (LinearForm((lo, 1, 0)), LinearForm((lo + 1, 1, 0))), 2_000_000),
        (twin, 40, (), 2_000_000),
        (steep, 10, (), 3000),
    ]
    outcomes = []
    for variety, count, excluded, budget in cases:
        monkeypatch.setattr(subgeneral.sampling, "_SWEEP_BUDGET", budget)
        case = (variety, 30.0, 31.0, count, 0, excluded, "lenient")
        got = sample_points(*case)
        assert got == sample_points_by_point(*case), case
        assert got.maxes == [max(map(abs, x)) for x in got.coords]
        assert all(lo <= top <= hi for top in got.maxes)
        outcomes.append((len(got.points), got.attempts, got.partial))
    assert outcomes == [
        (50, 50, False),
        (1500, 1501, False),
        (1199, 1200, True),
        (700, 701, False),
        (40, 40, False),
        (0, 3000, True),
    ]


def _counting(monkeypatch, name, module=None):
    """Wrap module.<name>, by default in sampling; returns its call list."""
    module = module or subgeneral.sampling
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_sampler_tests_each_distinct_support_once_per_batch(monkeypatch):
    # once per restriction class per block segment: on P^2 every distinct
    # support is a class of its own, and on X = {x3 = 0} the forms x0 + c*x3
    # are one
    segments = _counting(monkeypatch, "_test_segment")
    kernel = _counting(monkeypatch, "_column")
    # no point of height log 2 to log 20 sits on these, so a count-limited
    # sample takes exactly one segment of the first block
    definite = HomForm.from_terms(2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    far = (LinearForm((1, 100, 0)), LinearForm((0, 1, 100)), definite)
    got = sample_points(P2, math.log(2), math.log(20), 200, 3, excluded=far + far)
    assert len(got.points) == 200 and not got.partial
    assert len(segments) == 1
    assert [(c[0], len(c[1])) for c in kernel] == [(t, 200) for t in far]
    # the coordinate lines are hit, so the count takes more segments, each
    # testing each distinct support once
    segments.clear()
    kernel.clear()
    axes = (LinearForm((1, 0, 0)), LinearForm((0, 1, 0)))
    got = sample_points(P2, 0.0, math.log(20), 200, 3, excluded=axes + axes[:1])
    assert len(got.points) == 200
    assert len(segments) > 1
    assert [c[0] for c in kernel] == list(axes) * len(segments)
    # x0, x0 + x3 and x0 - 2*x3 take equal values on X: one class, tested
    # once per segment on its first member's columns, which every member keeps
    segments.clear()
    kernel.clear()
    x_surface = LinearSubvariety(3, (LinearForm((0, 0, 0, 1)),))
    agreeing = (LinearForm((1, 0, 0, 0)), LinearForm((1, 0, 0, 1)), LinearForm((1, 0, 0, -2)))
    other = LinearForm((0, 1, 0, 5))
    got = sample_points(x_surface, 0.0, math.log(20), 300, 5, excluded=agreeing + (other,))
    assert len(got.points) == 300
    assert len(segments) > 1
    assert [c[0] for c in kernel] == [agreeing[0], other] * len(segments)
    assert got.columns[agreeing[1]] is got.columns[agreeing[0]] is got.columns[agreeing[2]]
    for t in agreeing + (other,):
        assert got.columns[t] == [[t.evaluate(pt) for pt in got.points]]
    assert got == sample_points_by_point(
        x_surface, 0.0, math.log(20), 300, 5, agreeing + (other,)
    )


def test_ledger_builds_the_coordinate_columns_once(monkeypatch):
    _, surface = _kernel_configs()
    sample, targets = _kernel_sample(surface)
    pts = sample.points
    # the ledger reads the sampler's columns: it builds no coordinate or
    # component column
    built = _counting(monkeypatch, "_component_columns", subgeneral.weil)
    coordinates = _counting(monkeypatch, "_coordinate_columns", subgeneral.weil)
    assert _ledger(surface, sample)
    assert built == [] and coordinates == []
    # an empty sample is an empty column, not an error
    assert _defect_batch(_Evaluator(surface), [], [], {}) == []
    manifest_columns = _counting(monkeypatch, "_coordinate_columns", subgeneral.weil)
    weil_batch(
        {
            "points": [p.to_json() for p in pts[:20]],
            "targets": [target_to_json(t) for t in targets],
            "places": [str(v) for v in surface.places],
        }
    )
    assert len(manifest_columns) == 1
    places = [str(v) for v in surface.places]
    assert weil_batch({"points": [], "targets": [target_to_json(targets[0])], "places": places}) == []
