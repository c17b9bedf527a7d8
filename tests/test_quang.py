"""Combination construction: certificates, constants, orderings."""

import itertools
import math
import random
import struct
from fractions import Fraction

import pytest

import subgeneral
from subgeneral import linalg, quang

from subgeneral import (
    ArgumentError,
    CombinationCertificate,
    INF,
    LinearForm,
    LinearSubvariety,
    Place,
    PositionError,
    ProjPoint,
    SupportError,
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


def _holding(forms, variety):
    """A certificate holding these inputs and X, whatever they are: the
    chain check's table reads nothing else."""
    cert = worked_cert()
    return CombinationCertificate(
        variety, tuple(forms), cert.outputs, cert.matrix, cert.position, cert.constants
    )


def _table_refusal(cert, order):
    with pytest.raises(PositionError) as exc:
        quang._table_terms(cert, order)
    assert order not in cert._chain_table
    return str(exc.value), exc.value.report


def test_every_ordering_matches_the_enumeration_or_is_refused():
    # every ordering of a strict family per (n, l) class with l <= 4, of a
    # planted failing family per class (no form reads x0 modulo X, so the
    # rows have rank at most n there) and of x2, x0, x1 on X = {x2 = 0},
    # which is 2-subgeneral and whose first form may vanish on X.  The chain
    # check's table on the family agrees with the construction on every
    # ordering: the same outputs, or the same refusal, which it does not keep
    rng = random.Random(53)
    places = (INF, Place(2), Place(3))
    families = [([X2, X0, X1], X_LINE)]
    for n in (1, 2, 3):
        for l in range(n, 5):
            forms, variety = strict_arrangement(rng, n, l)
            failing = []
            while len(failing) <= l:
                f = rand_linear_form(rng, variety.ambient_dim, hi=3)
                if f.coeffs[0] == 0:
                    failing.append(f)
            families += [(forms, variety), (failing, variety)]
    seen = {"combined": 0, "L_1 on X": 0, "not subgeneral": 0}
    for family, variety in families:
        l = len(family) - 1
        x_rows = [list(f.coeffs) for f in variety.forms]
        table = _holding(family, variety)
        for order in itertools.permutations(range(l + 1)):
            forms = [family[i] for i in order]
            if witnesses_by_rank(forms, variety, l)[0]:
                with pytest.raises(PositionError) as exc:
                    quang_combine(forms, variety, places)
                report = check_subgeneral(forms, variety, l)
                assert exc.value.report == report
                assert str(exc.value) == "inputs are not %d-subgeneral on X (%d witnesses)" % (
                    l, len(report.witnesses)
                )
                assert _table_refusal(table, order) == (str(exc.value), report)
                seen["not subgeneral"] += 1
            elif rank_int_crossmul(x_rows + [list(forms[0].coeffs)]) == len(x_rows):
                with pytest.raises(PositionError, match="L_1 vanishes on X") as exc:
                    quang_combine(forms, variety, places)
                assert _table_refusal(table, order) == (str(exc.value), exc.value.report)
                seen["L_1 on X"] += 1
            else:
                cert = quang_combine(forms, variety, places)
                got = cert.to_json()
                assert got == quang_combine_by_enumeration(forms, variety, places).to_json()
                picked = tuple(order[row.index(1)] for row in cert.matrix)
                perm = tuple(i + 1 for i in order)
                assert quang._table_terms(table, order)[:2] == (perm, picked)
                seen["combined"] += 1
    assert seen == {"combined": 446 + 4, "L_1 on X": 2, "not subgeneral": 446}


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
    assert cert.matrix == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    assert cert.verify_soundness()
    assert cert.position.verdict


def test_worked_example_constants():
    cert = worked_cert((INF, Place(2), Place(3)))
    assert cert.constants == (("inf", "1"), ("p=2", "1"), ("p=3", "1"))


def test_identity_pattern_when_level_equals_dim():
    space = projective_space(1)
    cert = quang_combine([LinearForm((1, 0)), LinearForm((0, 1))], space)
    assert cert.outputs == cert.inputs
    assert cert.verify_soundness()

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


# X = P^1, and the third input lives in P^2: row 2 picks it, and the
# output [1, 1] is that input cut to X's length
_WRONG_SPACE_INPUT = {
    "x": {"ambient_dim": 1, "forms": []},
    "inputs": [["1", "0"], ["0", "1"], ["1", "1", "5"]],
    "outputs": [["1", "0"], ["1", "1"]],
    "matrix": [["1", "0", "0"], ["0", "0", "1"]],
    "constants": {"inf": "1"},
}


def test_soundness_refuses_forms_outside_the_ambient_space():
    cert = CombinationCertificate.from_json_dict(_WRONG_SPACE_INPUT)
    assert not cert.verify_soundness()
    # the same document with the input in P^1 replays sound
    data = {**_WRONG_SPACE_INPUT, "inputs": [["1", "0"], ["0", "1"], ["1", "1"]]}
    sound = CombinationCertificate.from_json_dict(data)
    assert sound.verify_soundness()
    # an input outside the space is no replay even when no row picks it
    unpicked = {**_WRONG_SPACE_INPUT, "outputs": [["1", "0"], ["0", "1"]],
                "matrix": [["1", "0", "0"], ["0", "1", "0"]]}
    assert not CombinationCertificate.from_json_dict(unpicked).verify_soundness()
    longer = CombinationCertificate(
        sound.variety,
        sound.inputs,
        (sound.outputs[0], LinearForm((1, 1, 0))),
        sound.matrix,
        sound.position,
        sound.constants,
    )
    assert not longer.verify_soundness()


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


def test_soundness_refuses_a_row_that_is_not_a_unit_row():
    # a certificate replays as its picks: the row 2*L_2 + L_3 = x0 + x1
    # respects the span discipline, and its output and its constants (C_inf
    # = 2*2, C_2 = 1) match it, but quang_combine writes unit rows only
    data = {
        **worked_cert().to_json_dict(),
        "outputs": [["1", "0", "0"], ["1", "1", "0"]],
        "matrix": [["1", "0", "0"], ["0", "2", "1"]],
        "constants": {"inf": "4", "p=2": "1"},
    }
    for edit in (
        {},
        {"constants": {"inf": "1", "p=2": "1"}},
        {"matrix": [["1", "0", "0"], ["0", "1", "1"]], "constants": {"inf": "2"}},
        # a row whose first 1 picks its output, and more entries besides
        {"matrix": [["1", "0", "0"], ["0", "1", "5"]], "outputs": [["1", "0", "0"], ["0", "1", "0"]],
         "constants": {"inf": "1"}},
        # unit rows that pick L_1 twice, or L_2 first, or one row too many
        {"matrix": [["1", "0", "0"], ["1", "0", "0"]], "outputs": [["1", "0", "0"]] * 2,
         "constants": {"inf": "1"}},
        {"matrix": [["0", "1", "0"], ["0", "0", "1"]], "outputs": [["0", "1", "0"], ["1", "-1", "0"]],
         "constants": {"inf": "1"}},
        {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    ):
        edited = CombinationCertificate.from_json_dict({**data, **edit})
        assert not edited.verify_soundness()
    # a unit row past the span: on P^2 at l = 3, L'_2 picks L_2 or L_3 only
    forms = (X0, X1, X2, LinearForm((1, 1, 1)))
    cert = quang_combine(forms, projective_space(2))
    assert cert.verify_soundness()
    rows = [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)]
    past = CombinationCertificate(
        cert.variety, forms, (X0, forms[3], X1), tuple(rows), cert.position, cert.constants
    )
    assert not past.verify_soundness()


def test_soundness_replays_constants_on_seeded_certificates():
    rng = random.Random(23)
    for n, l in ((1, 2), (2, 3), (2, 4), (3, 5)):
        forms, variety = strict_arrangement(rng, n, l)
        cert = quang_combine(forms, variety, (INF, Place(2), Place(3)))
        assert cert.verify_soundness()
        for k, (place, c) in enumerate(cert.constants):
            edited = list(cert.constants)
            edited[k] = (place, rat_str(2 * parse_rat(c)))
            changed = CombinationCertificate(
                cert.variety, cert.inputs, cert.outputs, cert.matrix, cert.position,
                tuple(edited),
            )
            assert not changed.verify_soundness()


@pytest.mark.parametrize("key", ["x", "p=4", "q=5", "1"])
def test_certificate_constants_keys_must_name_places(key):
    data = worked_cert().to_json_dict()
    with pytest.raises(ArgumentError):
        CombinationCertificate.from_json_dict({**data, "constants": {key: "1"}})


@pytest.mark.parametrize(
    "constants",
    [
        {"inf": "1", "oo": "1", "p=2": "1", "2": "1"},
        {"inf": "1", "INF": "1"},
        {"p=2": "1", "p=02": "1"},
        {"inf": "1", "p=3": "1", "3": "1"},
    ],
)
def test_certificate_constants_refuse_one_place_named_twice(constants):
    # quang_combine refuses a place listed twice, so a document that names
    # one place under two keys is refused too, not replayed
    data = worked_cert((INF, Place(2))).to_json_dict()
    with pytest.raises(ArgumentError, match="twice"):
        CombinationCertificate.from_json_dict({**data, "constants": constants})
    with pytest.raises(ArgumentError, match="duplicate places"):
        quang_combine([X0, X1, X2], X_LINE, (INF, Place(2), INF))


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
    # nor do they sweep subsets or build a second echelon: the inputs' greedy
    # basis modulo X is the rank rule's echelon and the walk, which reduces
    # X's rows and then at most the l+1 inputs, and check_subgeneral runs
    # only for a failing family
    families = _cold_certificate_families()
    null_calls = count_calls(linalg.nullspace)
    check_calls = count_calls(subgeneral.position.check_subgeneral)
    echelon_calls = count_calls(linalg.extend_echelon)
    made = {}
    for forms, variety in families:
        start = len(echelon_calls)
        cert = quang_combine(forms, variety, (INF, Place(2), Place(3)))
        assert cert.verify_soundness() and cert.position.verdict
        bound = len(variety.forms) + len(forms)
        made[variety.dim, len(forms) - 1] = (len(echelon_calls) - start, bound)
    assert null_calls == [] and check_calls == []
    assert len(made) == 15
    assert all(got <= bound for got, bound in made.values()), made
    # the wrappers do see the public entry points
    linalg.nullspace([[1, 0]], 2)
    subgeneral.check_subgeneral([X0, X1, X2], projective_space(2), 2)
    assert len(null_calls) == 1 and len(check_calls) == 1
    start = len(echelon_calls)
    linalg.rank_rows([[1, 0], [0, 1]])
    assert len(echelon_calls) == start + 2


def test_a_unit_row_replay_parses_no_place(count_calls):
    # C_v = 1 on unit rows whatever the place, so neither the build nor the
    # replay makes a Place, and no prime is tested
    places = (INF, Place(2), Place(3))
    families = _cold_certificate_families()
    prime_calls = count_calls(subgeneral.places._is_prime)
    place_calls = count_calls(subgeneral.places.parse_place)
    for forms, variety in families:
        assert quang_combine(forms, variety, places).verify_soundness()
    assert prime_calls == [] and place_calls == []
    # the wrappers do see the public entry points
    Place(5)
    subgeneral.parse_place("inf")
    assert prime_calls == [(5,)] and place_calls == [("inf",)]


def test_constant_places_listed_twice_are_refused():
    forms, variety = [X0, X1, X2], projective_space(2)
    for places in ((INF, Place(2), INF), (Place(3), Place(3))):
        with pytest.raises(ArgumentError, match="duplicate"):
            quang_combine(forms, variety, places)
    cert = quang_combine(forms, variety, (Place(3), INF, Place(2)))
    assert CombinationCertificate.from_json_dict(cert.to_json_dict()) == cert


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


def test_chain_check_matches_fraction_reference(count_calls):
    # and chain_check_column matches the records: (passed, slack) at each
    # point, and chain_check's SupportError at a point on an input and its
    # ArgumentError.  Both read one table on the certificate: over every
    # place, one greedy basis per distinct permutation and no certificate
    rng = random.Random(47)
    places = (INF, Place(2), Place(3))
    kinds = set()
    counted = [
        count_calls(fn)
        for fn in (subgeneral.position.greedy_basis, quang.quang_combine, quang.quang_combine_cached)
    ]
    repeated = 0
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
            on_inputs = [_support_point(rng, rng.choice(forms), variety) for _ in range(3)]
            wrong = ProjPoint(tuple(range(1, variety.ambient_dim + 3)))
            every = pts + on_inputs + [wrong]
            start = [len(calls) for calls in counted]
            checked = []
            for place in places:
                cells = quang.chain_check_column(pts, place, cert)
                got = [_outcome(chain_check, pt, place, cert) for pt in every]
                # a point on an input raises after the points before it pass
                raised = [
                    _outcome(lambda pt, v, c: quang.chain_check_column(pts + [pt], v, c),
                             pt, place, cert)
                    for pt in on_inputs
                ]
                with pytest.raises(ArgumentError) as exc:
                    quang.chain_check_column(every, place, cert)
                checked.append((place, cells, got, raised, exc.value))
            made = [len(calls) - s for calls, s in zip(counted, start)]
            perms = [r.perm for _, _, got, _, _ in checked for r in got if not isinstance(r, tuple)]
            assert made == [len(set(perms)), 0, 0]
            repeated += len(perms) > len(set(perms))
            for place, cells, got, raised, err in checked:
                ref = [_outcome(chain_check_by_fractions, pt, place, cert) for pt in every]
                assert got == ref
                kinds.update(r[0] if isinstance(r, tuple) else type(r).__name__ for r in got)
                assert cells == [(r.passed, r.slack) for r in got[:len(pts)]]
                assert raised == got[len(pts):-1]
                assert {r[0] for r in raised} == {"SupportError"}
                assert ("ArgumentError", str(err)) == got[-1]
    assert kinds == {"ChainCheckRecord", "SupportError", "ArgumentError"}
    assert repeated > 0
    assert quang.chain_check_column([], INF, cert) == []


def _point_of_size(rng, variety, size):
    """A point of X with max|x_i| == size: X is P^n, or {last coordinate = 0}
    in P^(n+1) (gen.strict_arrangement)."""
    free = variety.dim + 1
    while True:
        coords = [size] + [rng.randint(-size, size) for _ in range(free - 1)]
        rng.shuffle(coords)
        pt = ProjPoint(tuple(coords + [0] * (variety.ambient_dim + 1 - free)))
        if max(map(abs, pt.coords)) == size:
            return pt


def test_packed_and_per_form_evaluation_meet_at_the_bound(count_calls):
    # the inputs' values are read packed while max|x_i| < bound, and form by
    # form from the bound on: at bound - 1, at bound, above 2^64 and on an
    # input above and below the bound, every place gives what the Fraction
    # reference gives, and the column's (passed, slack) agree
    rng = random.Random(67)
    places = (INF, Place(2), Place(3))
    packed = count_calls(struct.unpack)
    supports = 0
    for n in (1, 2, 3):
        for l in range(n, 7):
            forms, variety = strict_arrangement(rng, n, l)
            cert = quang_combine(forms, variety)
            bound = cert._chain_constants[-1]
            below = [_point_of_size(rng, variety, bound - 1) for _ in range(3)]
            beyond = [_point_of_size(rng, variety, size) for size in (bound, 2**64 + 7)]
            # an input meets X in one point when n = 1, so only n > 1 has big
            # points on an input: one below the bound, one above
            rows = [f.coeffs for f in variety.forms] + [rng.choice(forms).coeffs]
            basis = nullspace_by_rref(rows, variety.ambient_dim + 1)
            on_input = []
            for scale in (2**20, 2**70) if n > 1 else ():
                coords = linalg.combine([rng.randint(scale, 2 * scale) for _ in basis], basis)
                on_input.append(ProjPoint(tuple(coords)))
            if on_input:
                sizes = [max(map(abs, pt.coords)) for pt in on_input]
                assert sizes[0] < bound <= sizes[1]
            for place in places:
                got = []
                for pt in below + beyond + on_input:
                    start = len(packed)
                    got.append(_outcome(chain_check, pt, place, cert))
                    assert len(packed) - start == (max(map(abs, pt.coords)) < bound)
                    assert got[-1] == _outcome(chain_check_by_fractions, pt, place, cert)
                records = got[:len(below + beyond)]
                assert {type(r) for r in records} == {quang.ChainCheckRecord}
                assert [r[0] for r in got[len(records):]] == ["SupportError"] * len(on_input)
                cells = quang.chain_check_column(below + beyond, place, cert)
                assert cells == [(r.passed, r.slack) for r in records]
                supports += len(on_input)
    assert supports == 9 * 2 * 3  # the classes with n > 1, two points, three places


def test_packed_values_equal_the_per_form_sums(monkeypatch):
    # random rows and coordinates below the bound, negative values and zeros
    # included: the values the cell unpacks are the forms' integer sums
    rng = random.Random(71)
    seen = []

    def recording(fmt, data):
        seen.append(struct.unpack(fmt, data))
        return seen[-1]

    monkeypatch.setattr(quang, "unpack", recording)
    zeros = negatives = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        hi = rng.choice((1, 3, 2**10, 2**30))
        forms = [rand_linear_form(rng, dim, hi) for _ in range(rng.randint(1, 7))]
        cert = CombinationCertificate(projective_space(dim), tuple(forms), (), (), None, ())
        bound = cert._chain_constants[-1]
        top = rng.choice((3, bound - 1))
        coords = [rng.choice((0, rng.randint(-top, top), top, -top)) for _ in range(dim + 1)]
        if not any(coords):
            coords[0] = 1
        pt = ProjPoint(tuple(coords))
        assert max(map(abs, pt.coords)) < bound
        want = tuple(sum(a * x for a, x in zip(f.coeffs, pt.coords)) for f in cert.inputs)
        seen.clear()
        try:
            quang._cell(cert, rng.choice((INF, Place(2))), pt)
        except (SupportError, PositionError, ArgumentError):
            pass
        assert seen == [want]
        zeros += 0 in want
        negatives += min(want) < 0
    assert zeros > 0 and negatives > 0


def _refusals(point, cert):
    """(message, report) of the PositionError that chain_check and
    chain_check_column raise at one point, twice each: nothing is kept."""
    seen = []
    for check in (chain_check, lambda pt, v, c: quang.chain_check_column([pt], v, c)):
        for _ in range(2):
            with pytest.raises(PositionError) as exc:
                check(point, INF, cert)
            seen.append((str(exc.value), exc.value.report))
    assert cert._chain_table == {}
    assert len(set(seen)) == 1
    return seen[0]


def test_chain_check_refuses_a_nearest_input_that_vanishes_on_x():
    # at a point off X = {x2 = 0}, |x2| is the smallest of the three values,
    # so the re-sorted family starts with x2 and the construction refuses it
    cert = quang_combine([X0, X1, X2], X_LINE)
    message, report = _refusals(ProjPoint((3, 2, 1)), cert)
    assert message == "L_1 vanishes on X, so the outputs are not in general position (2 witnesses)"
    assert report == check_general([X2, X1], X_LINE)
    with pytest.raises(PositionError) as exc:
        quang_combine([X2, X1, X0], X_LINE)
    assert (str(exc.value), exc.value.report) == (message, report)


def test_chain_check_refuses_parsed_inputs_that_are_not_subgeneral():
    # x0, x0 + x2, x0 - x2 all read x0 on X = {x2 = 0}: rank 1 there, so
    # they are not 2-subgeneral, whatever outputs the document lists
    bad = [X0, LinearForm((1, 0, 1)), LinearForm((1, 0, -1))]
    data = worked_cert().to_json_dict()
    data["inputs"] = [f.to_json() for f in bad]
    cert = CombinationCertificate.from_json_dict(data)
    message, report = _refusals(ProjPoint((1, 2, 3)), cert)
    resorted = [bad[0], bad[2], bad[1]]  # |1|, |-2|, |4|
    assert message == "inputs are not 2-subgeneral on X (1 witnesses)"
    assert report == check_subgeneral(resorted, X_LINE, 2)


def test_chain_table_holds_one_entry_per_ordering_and_nothing_else():
    # the place constants live on the certificate, not in the table: after
    # checks at inf, p=2 and p=3 its keys are exactly the sort orders seen
    rng = random.Random(59)
    forms, variety = strict_arrangement(rng, 2, 4)
    cert = quang_combine(forms, variety)
    pts = sample_points(
        variety, 0.0, math.log(30), 40, seed=59, excluded=tuple(forms), mode="strict"
    ).points
    orders = {
        tuple(i - 1 for i in chain_check(pt, place, cert).perm)
        for pt in pts
        for place in (INF, Place(2), Place(3))
    }
    assert len(orders) > 1
    assert set(cert._chain_table) == orders


def test_column_checks_every_space_before_a_refused_ordering():
    # the first point's ordering is refused (x2 nearest, and x2 vanishes on
    # X), the second lies on the input x0, the third in P^3: the column
    # raises chain_check's ArgumentError for the third, and keeps nothing
    cert = quang_combine([X0, X1, X2], X_LINE)
    refused, on_x0 = ProjPoint((3, 2, 1)), ProjPoint((0, 1, 1))
    wrong = ProjPoint((1, 2, 3, 4))
    with pytest.raises(ArgumentError) as exc:
        quang.chain_check_column([refused, on_x0, wrong], INF, cert)
    assert str(exc.value) == "form on P^2 evaluated at point of P^3"
    assert _outcome(chain_check, wrong, INF, cert) == ("ArgumentError", str(exc.value))
    assert cert._chain_table == {}
    # then the first point that chain_check refuses raises its error
    with pytest.raises(PositionError):
        quang.chain_check_column([refused, on_x0], INF, cert)
    with pytest.raises(SupportError) as exc:
        quang.chain_check_column([on_x0, refused], INF, cert)
    assert _outcome(chain_check, on_x0, INF, cert)[1] == str(exc.value)
