"""Combination construction: avoidance, certificates, constants, orderings."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import subgeneral
from subgeneral import linalg, quang

from subgeneral import (
    ArgumentError,
    CombinationCertificate,
    INF,
    InfeasibleAvoidanceError,
    LinearForm,
    LinearSubvariety,
    Place,
    PositionError,
    ProjPoint,
    SupportError,
    avoid_subspaces,
    chain_constant,
    check_general,
    check_subgeneral,
    projective_space,
    quang_combine,
    reorder_by_local_norm,
    sample_points,
    valuation,
)
from subgeneral.experiments import chain_check
from subgeneral.jsonio import parse_rat, rat_str

from gen import rand_linear_form, strict_arrangement
from oracles import (
    avoiding_by_rank,
    chain_check_by_fractions,
    nullspace_by_rref,
    quang_combine_by_enumeration,
    rank_int_crossmul,
    witnesses_by_rank,
)

X0 = LinearForm((1, 0, 0))
X1 = LinearForm((0, 1, 0))
X2 = LinearForm((0, 0, 1))
X_LINE = LinearSubvariety(2, (X2,))


# ---------------------------------------------------------------------------
# avoidance


def test_avoid_subspaces_frozen_choices():
    assert avoid_subspaces([X1, X2], [[X1]]) == X2
    assert avoid_subspaces([X1, X2], []) == X1
    assert avoid_subspaces([X1, X2], [[X1], [X2]]) == LinearForm((0, 1, 1))


def test_avoid_subspaces_infeasible_and_empty():
    with pytest.raises(InfeasibleAvoidanceError):
        avoid_subspaces([X1, X2], [[X1, X2]])
    with pytest.raises(InfeasibleAvoidanceError):
        avoid_subspaces([X1], [[X0, X1, X2]])
    with pytest.raises(ArgumentError):
        avoid_subspaces([], [[X1]])


def test_avoid_subspaces_result_in_span():
    got = avoid_subspaces([X1, X2], [[LinearForm((0, 1, 1))]])
    assert got.coeffs[0] == 0  # stays inside span(x1, x2)
    assert got != LinearForm((0, 1, 1))


def seeded_avoidance_cases(rng):
    """(span rows, excluded rowsets) in P^3, including dependent span rows,
    no excluded sets, and excluded sets that meet the span or hold part of it."""
    for _ in range(40):
        k = rng.randint(1, 3)
        span = [list(rand_linear_form(rng, 3, hi=3).coeffs) for _ in range(k)]
        if rng.random() < 0.3:
            a, b = rng.choice((1, -1, 2)), rng.choice((1, -2, 3))
            span.append([a * x + b * y for x, y in zip(span[0], span[-1])])
        excluded = []
        for _ in range(rng.randint(0, 2)):
            rows = [
                list(rand_linear_form(rng, 3, hi=3).coeffs)
                for _ in range(rng.randint(1, 2))
            ]
            if rng.random() < 0.5:
                rows.append(list(span[rng.randrange(len(span))]))
            excluded.append(rows)
        yield span, excluded


def test_enumerate_avoiding_matches_rank_reference():
    rng = random.Random(31)
    for span, excluded in seeded_avoidance_cases(rng):
        forms = [LinearForm(tuple(r)) for r in span if any(r)]
        ex_forms = [[LinearForm(tuple(r)) for r in ex] for ex in excluded]
        if any(all(linalg.in_rowspace(row, ex) for row in span) for ex in excluded):
            with pytest.raises(InfeasibleAvoidanceError):
                avoid_subspaces(forms, ex_forms)
            continue
        expected = avoiding_by_rank(span, excluded)
        assert quang._enumerate_avoiding(span, excluded) == expected
        assert avoid_subspaces(forms, ex_forms) == LinearForm(tuple(expected[1]))


def test_enumerate_avoiding_edge_cases_match_reference():
    dependent = [[0, 1, 0], [0, 0, 1], [0, 1, 1]]
    for excluded in ([], [[[0, 1, 0]]], [[[0, 1, 1], [1, 0, 0]]]):
        assert quang._enumerate_avoiding(dependent, excluded) == avoiding_by_rank(
            dependent, excluded
        )
    # an excluded set that swallows the span: the enumeration runs dry
    with pytest.raises(RuntimeError):
        quang._enumerate_avoiding([[0, 1, 0]], [[[0, 1, 0], [1, 0, 0]]])
    with pytest.raises(RuntimeError):
        avoiding_by_rank([[0, 1, 0]], [[[0, 1, 0], [1, 0, 0]]])
    with pytest.raises(InfeasibleAvoidanceError):
        avoid_subspaces([X1, X2], [[X0], [X1, X2, X0]])


def subgeneral_families(rng):
    """(forms, variety) per (n, l) class, n in {1,2,3}, l in [n,6]: a strict
    family (X = P^n at l = n, codim 1 above), the same family shuffled, and
    l+1 seeded forms on an X of codimension 0, 1 or 2 that are l-subgeneral
    there."""
    for n in (1, 2, 3):
        for l in range(n, 7):
            forms, variety = strict_arrangement(rng, n, l)
            yield forms, variety
            yield rng.sample(forms, len(forms)), variety
            codim = rng.choice((0, 1, 2))
            ambient = n + codim
            variety = LinearSubvariety(
                ambient,
                tuple(LinearForm(tuple(int(i == k) for i in range(ambient + 1)))
                      for k in range(n + 1, ambient + 1)),
            )
            while True:
                forms = [rand_linear_form(rng, ambient, hi=3) for _ in range(l + 1)]
                if check_subgeneral(forms, variety, l, verdict_only=True).verdict:
                    break
            yield forms, variety


def test_quang_combine_matches_intersection_reference():
    rng = random.Random(41)
    places = (INF, Place(2), Place(3))
    for forms, variety in subgeneral_families(rng):
        got = quang_combine(forms, variety, places).to_json()
        assert got == quang_combine_by_enumeration(forms, variety, places).to_json()


def test_walk_report_equals_the_output_sweep():
    rng = random.Random(41)
    count = 0
    for forms, variety in subgeneral_families(rng):
        cert = quang_combine(forms, variety)
        got = cert.position.to_json()
        assert got == check_general(list(cert.outputs), variety).to_json()
        assert witnesses_by_rank(cert.outputs, variety, variety.dim) == ([], True)
        count += 1
    assert count == 45


def test_first_form_vanishing_on_x_is_refused():
    # x2, x0, x1 are 2-subgeneral on X = {x2 = 0}: {x2} alone meets X in
    # the whole line, dimension 1 <= l - 1.  L'_1 = x2 vanishes on X, so the
    # outputs (x2, x0) are not in general position, and the walk ends one
    # row short of codim X + n + 1
    forms = [X2, X0, X1]
    assert check_subgeneral(forms, X_LINE, 2).verdict
    with pytest.raises(PositionError) as exc:
        quang_combine(forms, X_LINE)
    assert "L_1 vanishes on X" in str(exc.value)
    report = exc.value.report
    assert report.to_json() == check_general([X2, X0], X_LINE).to_json()
    assert not report.verdict
    # with the same forms reordered the construction applies
    cert = quang_combine([X0, X1, X2], X_LINE)
    assert cert.position.verdict
    assert cert.position.to_json() == check_general(list(cert.outputs), X_LINE).to_json()


def test_each_step_is_the_first_spanning_input_outside_the_rowspace():
    rng = random.Random(43)
    for forms, variety in subgeneral_families(rng):
        cert = quang_combine(forms, variety)
        l, n = cert.level, variety.dim
        w = [list(f.coeffs) for f in variety.forms] + [list(forms[0].coeffs)]
        for r in range(1, n + 1):
            hi = l - n + r + 1
            outside = [
                j for j in range(1, hi)
                if rank_int_crossmul(w + [list(forms[j].coeffs)]) > rank_int_crossmul(w)
            ]
            j = outside[0]
            assert cert.matrix[r] == tuple(int(i == j) for i in range(l + 1))
            assert cert.outputs[r] == forms[j]
            w.append(list(forms[j].coeffs))


# ---------------------------------------------------------------------------
# the worked construction


def worked_cert(places=(INF,)):
    return quang_combine([X0, X1, LinearForm((1, -1, 0))], X_LINE, places)


def test_worked_example_outputs():
    cert = worked_cert()
    assert cert.outputs == (X0, X1)
    assert cert.level == 2
    assert cert.rounds == 2
    assert cert.matrix == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    assert cert.verify_soundness()
    assert cert.position.verdict


def test_worked_example_constants():
    cert = worked_cert((INF, Place(2), Place(3)))
    assert cert.constants == (("inf", "1"), ("p=2", "1"), ("p=3", "1"))
    assert chain_constant(cert, INF) == Fraction(1)
    assert chain_constant(cert, Place(7)) == Fraction(1)


def test_identity_pattern_when_level_equals_dim():
    space = projective_space(1)
    cert = quang_combine([LinearForm((1, 0)), LinearForm((0, 1))], space)
    assert cert.outputs == cert.inputs
    assert chain_constant(cert, Place(5)) == Fraction(1)

    space2 = projective_space(2)
    forms = [LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((0, 0, 1))]
    cert = quang_combine(forms, space2)
    assert cert.outputs == tuple(forms)
    assert cert.verify_soundness()


def test_not_subgeneral_raises_with_report():
    concurrent = [X0, X1, LinearForm((1, 1, 0))]
    with pytest.raises(PositionError) as exc:
        quang_combine(concurrent, projective_space(2))
    assert exc.value.report is not None
    assert not exc.value.report.verdict


def test_too_few_forms_rejected():
    with pytest.raises(ArgumentError):
        quang_combine([X0, X1], projective_space(2))


def test_span_discipline_and_soundness_on_seeded_arrangements():
    rng = random.Random(7)
    for case in range(12):
        n = rng.randint(1, 3)
        l = rng.randint(n, n + 2)
        forms, variety = strict_arrangement(rng, n, l)
        cert = quang_combine(forms, variety)
        assert cert.verify_soundness()
        assert cert.position.verdict
        assert len(cert.outputs) == n + 1
        # row t touches only inputs 2..l-n+t
        for r in range(1, n + 1):
            hi = l - n + (r + 1)
            row = cert.matrix[r]
            assert row[0] == 0
            assert all(row[j] == 0 for j in range(hi, l + 1))
            assert any(row[j] != 0 for j in range(1, hi))


def test_soundness_catches_tampering():
    cert = worked_cert()
    bad = CombinationCertificate(
        variety=cert.variety,
        inputs=cert.inputs,
        outputs=(cert.outputs[0], LinearForm((1, 1, 0))),
        matrix=cert.matrix,
        position=cert.position,
        constants=cert.constants,
    )
    assert not bad.verify_soundness()
    bad_row = CombinationCertificate(
        variety=cert.variety,
        inputs=cert.inputs,
        outputs=cert.outputs,
        matrix=(cert.matrix[0], (Fraction(0), Fraction(0), Fraction(1))),
        position=cert.position,
        constants=cert.constants,
    )
    assert not bad_row.verify_soundness()


def test_certificate_json_round_trip():
    cert = worked_cert((INF, Place(2)))
    text = cert.to_json()
    again = CombinationCertificate.from_json_dict(__import__("json").loads(text))
    assert again.inputs == cert.inputs
    assert again.outputs == cert.outputs
    assert again.matrix == cert.matrix
    assert again.constants == cert.constants
    assert again.to_json() == text


def test_certificate_round_trip_keeps_int_entries_sound():
    rng = random.Random(19)
    certs = [worked_cert((INF, Place(2)))]
    for n, l in ((1, 2), (2, 3), (2, 4), (3, 4)):
        forms, variety = strict_arrangement(rng, n, l)
        certs.append(quang_combine(forms, variety, (INF, Place(3))))
    for cert in certs:
        again = CombinationCertificate.from_json_dict(cert.to_json_dict())
        assert again == cert
        assert again.verify_soundness()
        entries = [c for row in again.matrix for c in row]
        assert all(type(c) is int for c in entries if c.denominator == 1)
    # the built matrices hold ints, as the parsed ones do
    assert all(type(c) is int for cert in certs for row in cert.matrix for c in row)


def test_soundness_replays_the_listed_constants():
    cert = worked_cert((INF, Place(2)))
    data = cert.to_json_dict()
    assert CombinationCertificate.from_json_dict(data).verify_soundness()
    for constants in (
        {"inf": "1/1000", "p=2": "7"},
        {"inf": "1", "p=2": "2"},
        {"inf": "2", "p=2": "1"},
        {"inf": "1", "p=2": "1", "p=3": "1/3"},
    ):
        tampered = CombinationCertificate.from_json_dict({**data, "constants": constants})
        assert not tampered.verify_soundness()
    # a place listed that the certificate was not built for is replayed too
    extra = {**data, "constants": {"inf": "1", "p=2": "1", "p=7": "1"}}
    assert CombinationCertificate.from_json_dict(extra).verify_soundness()


def test_soundness_replays_constants_on_seeded_certificates():
    rng = random.Random(23)
    for n, l in ((1, 2), (2, 3), (2, 4), (3, 5)):
        forms, variety = strict_arrangement(rng, n, l)
        cert = quang_combine(forms, variety, (INF, Place(2), Place(3)))
        assert cert.verify_soundness()
        for k, (place, c) in enumerate(cert.constants):
            edited = list(cert.constants)
            edited[k] = (place, rat_str(2 * parse_rat(c)))
            assert not replace(cert, constants=tuple(edited)).verify_soundness()


@pytest.mark.parametrize("key", ["x", "p=4", "q=5", "1"])
def test_certificate_constants_keys_must_name_places(key):
    data = worked_cert().to_json_dict()
    with pytest.raises(ArgumentError):
        CombinationCertificate.from_json_dict({**data, "constants": {key: "1"}})


def test_combination_takes_linear_forms_only():
    with pytest.raises(ArgumentError, match="linear forms only"):
        quang_combine([X0, X1, (1, -1, 0)], X_LINE)
    with pytest.raises(ArgumentError, match="linear forms only"):
        quang_combine(["[1,0,0]", "[0,1,0]", "[1,-1,0]"], X_LINE)


def test_construction_is_deterministic():
    a = quang_combine([X0, X1, LinearForm((1, -1, 0))], X_LINE)
    b = quang_combine([X0, X1, LinearForm((1, -1, 0))], X_LINE)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# chain constants


def hand_cert(rows):
    # chain_constant only reads the matrix; identity first row keeps it honest
    l = len(rows[0]) - 1
    first = tuple([Fraction(1)] + [Fraction(0)] * l)
    matrix = (first,) + tuple(tuple(Fraction(c) for c in r) for r in rows)
    return CombinationCertificate(
        variety=projective_space(2),
        inputs=(),
        outputs=(),
        matrix=matrix,
        position=None,
        constants=(),
    )


def test_chain_constant_frozen_values():
    assert chain_constant(hand_cert([(0, 1, 1)]), INF) == Fraction(2)
    cert = hand_cert([(0, 1, -3)])
    assert chain_constant(cert, INF) == Fraction(6)
    assert chain_constant(cert, Place(3)) == Fraction(1)
    assert chain_constant(cert, Place(2)) == Fraction(1)
    halves = hand_cert([(0, Fraction(1, 2), 1)])
    assert chain_constant(halves, Place(2)) == Fraction(2)
    assert chain_constant(halves, INF) == Fraction(2)  # 2 * max(1/2, 1)


def test_chain_constant_empty_rows():
    cert = CombinationCertificate(
        variety=projective_space(2),
        inputs=(),
        outputs=(),
        matrix=((Fraction(1), Fraction(0)),),
        position=None,
        constants=(),
    )
    assert chain_constant(cert, INF) == Fraction(1)
    assert chain_constant(cert, Place(2)) == Fraction(1)


def test_chain_constant_dominates_pointwise():
    rng = random.Random(11)
    for case in range(8):
        n = rng.randint(1, 2)
        l = rng.randint(n, n + 2)
        forms, variety = strict_arrangement(rng, n, l)
        cert = quang_combine(forms, variety)
        pts = sample_points(variety, 0.0, 3.5, 25, seed=case, mode="strict").points
        for pt in pts:
            in_vals = [f.evaluate(pt) for f in cert.inputs]
            if any(v == 0 for v in in_vals):
                continue
            out_vals = [f.evaluate(pt) for f in cert.outputs]
            if any(v == 0 for v in out_vals):
                continue
            big = max(abs(v) for v in in_vals)
            c_inf = chain_constant(cert, INF)
            assert all(abs(v) <= c_inf * big for v in out_vals)
            for p in (2, 3):
                c_p = chain_constant(cert, Place(p))
                big_p = max(Fraction(p) ** -valuation(v, p) for v in in_vals)
                for v in out_vals:
                    assert Fraction(p) ** -valuation(v, p) <= c_p * big_p


# ---------------------------------------------------------------------------
# local orderings


def test_reorder_frozen_cases():
    forms = [LinearForm((1, 0)), LinearForm((0, 1))]
    assert reorder_by_local_norm(ProjPoint((1, 10)), INF, forms).perm == (1, 2)
    assert reorder_by_local_norm(ProjPoint((10, 1)), INF, forms).perm == (2, 1)
    assert reorder_by_local_norm(ProjPoint((4, 1)), Place(2), forms).perm == (1, 2)
    assert reorder_by_local_norm(ProjPoint((1, 4)), Place(2), forms).perm == (2, 1)
    only = reorder_by_local_norm(ProjPoint((3, 2)), INF, [LinearForm((1, -1))])
    assert only.perm == (1,)


def test_reorder_tie_breaks_by_original_index():
    forms = [LinearForm((0, 1)), LinearForm((1, 0))]
    got = reorder_by_local_norm(ProjPoint((1, 1)), INF, forms)
    assert got.perm == (1, 2)
    assert got.apply(forms) == forms


def test_reorder_apply_and_json():
    forms = [LinearForm((1, 0)), LinearForm((0, 1))]
    got = reorder_by_local_norm(ProjPoint((10, 1)), INF, forms)
    assert got.apply(forms) == [forms[1], forms[0]]
    assert got.to_json_dict() == {"place": "inf", "perm": [2, 1]}


def test_reorder_rejects_support_and_empty():
    forms = [LinearForm((1, 0)), LinearForm((0, 1))]
    with pytest.raises(SupportError) as exc:
        reorder_by_local_norm(ProjPoint((1, 0)), INF, forms)
    assert exc.value.component == 2
    with pytest.raises(ArgumentError):
        reorder_by_local_norm(ProjPoint((1, 1)), INF, [])


def test_reorder_sorts_by_exact_norm():
    rng = random.Random(13)
    forms = [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, -1))]
    for _ in range(40):
        a = rng.randint(1, 400)
        b = rng.randint(1, 400)
        if a == b or b == 0:
            continue
        pt = ProjPoint((a, b))
        got = reorder_by_local_norm(pt, INF, forms)
        vals = [abs(f.evaluate(pt)) for f in got.apply(forms)]
        assert vals == sorted(vals)
        got2 = reorder_by_local_norm(pt, Place(2), forms)
        ords = [valuation(f.evaluate(pt), 2) for f in got2.apply(forms)]
        assert ords == sorted(ords, reverse=True)


# ---------------------------------------------------------------------------
# work on the warm chain-check path


def test_warm_chain_check_does_no_elimination_or_primality_work(count_calls):
    rng = random.Random(5)
    forms, variety = strict_arrangement(rng, 2, 4)
    cert = quang_combine(forms, variety)
    pts = sample_points(variety, 0.0, 3.0, 40, seed=5, mode="strict").points
    places = (INF, Place(2), Place(3))

    def run_checks():
        out = []
        for pt in pts:
            for v in places:
                try:
                    out.append(chain_check(pt, v, cert))
                except SupportError:
                    pass
        return out

    warm = run_checks()
    assert warm
    rank_calls = count_calls(linalg.rank_rows)
    prime_calls = count_calls(subgeneral.places._is_prime)
    assert run_checks() == warm
    assert rank_calls == [] and prime_calls == []
    # the wrappers do see the public entry points
    valuation(12, 2)
    linalg.in_rowspace([1, 0, 0, 0], [[1, 0, 0, 0]])
    assert prime_calls and rank_calls


def _cold_certificate_families():
    rng = random.Random(7)
    return [strict_arrangement(rng, n, l) for n in (1, 2, 3) for l in range(n, 7)]


def test_cold_certificates_do_no_rank_work(count_calls):
    families = _cold_certificate_families()
    calls = count_calls(linalg.rank_rows)
    for forms, variety in families:
        cert = quang_combine(forms, variety, (INF, Place(2)))
        assert cert.verify_soundness() and cert.position.verdict
    assert calls == []
    # the wrapper does see the public entry point
    linalg.in_rowspace([1, 0], [[1, 0]])
    assert len(calls) == 2


def test_cold_certificates_enumerate_no_candidates(count_calls):
    # nor do they sweep subsets: the input test is one echelon and the
    # output report is the walk's, each reducing at most X's rows and the
    # l+1 inputs
    families = _cold_certificate_families()
    null_calls = count_calls(linalg.nullspace)
    enum_calls = count_calls(quang._enumerate_avoiding)
    echelon_calls = count_calls(linalg.extend_echelon)
    made = {}
    for forms, variety in families:
        start = len(echelon_calls)
        cert = quang_combine(forms, variety, (INF, Place(2), Place(3)))
        assert cert.verify_soundness() and cert.position.verdict
        bound = 2 * (len(variety.forms) + len(forms))
        made[variety.dim, len(forms) - 1] = (len(echelon_calls) - start, bound)
    assert null_calls == [] and enum_calls == []
    assert len(made) == 15
    assert all(got <= bound for got, bound in made.values()), made
    # the wrappers do see the public entry points
    avoid_subspaces([X1, X2], [[X1]])
    assert null_calls and len(enum_calls) == 1
    start = len(echelon_calls)
    linalg.rank_rows([[1, 0], [0, 1]])
    assert len(echelon_calls) == start + 2


# ---------------------------------------------------------------------------
# the chain check against the Fraction reference


def _support_point(rng, form, variety):
    """A point of X on the hyperplane {form = 0}, seeded."""
    rows = [f.coeffs for f in variety.forms] + [form.coeffs]
    basis = nullspace_by_rref(rows, variety.ambient_dim + 1)
    while True:
        coords = linalg.combine([rng.randint(-3, 3) for _ in basis], basis)
        if any(coords):
            return ProjPoint(tuple(coords))


def _outcome(check, point, place, cert):
    try:
        return check(point, place, cert)
    except SupportError as exc:
        return ("SupportError", str(exc), exc.component, exc.point, exc.subject)
    except ArgumentError as exc:
        return ("ArgumentError", str(exc))


def test_chain_check_matches_fraction_reference():
    rng = random.Random(47)
    places = (INF, Place(2), Place(3))
    kinds = set()
    for n in (1, 2, 3):
        for l in range(n, 7):
            forms, variety = strict_arrangement(rng, n, l)
            cert = quang_combine(forms, variety)
            pts = list(
                sample_points(
                    variety, 0.0, math.log(30), 40, seed=rng.randrange(2**31),
                    excluded=tuple(forms), mode="strict",
                ).points
            )
            pts += [_support_point(rng, rng.choice(forms), variety) for _ in range(3)]
            pts.append(ProjPoint(tuple(range(1, variety.ambient_dim + 3))))
            for pt in pts:
                for place in places:
                    got = _outcome(chain_check, pt, place, cert)
                    assert got == _outcome(chain_check_by_fractions, pt, place, cert)
                    kinds.add(got[0] if isinstance(got, tuple) else type(got).__name__)
    assert kinds == {"ChainCheckRecord", "SupportError", "ArgumentError"}
