"""Projective points, forms, the Veronese embedding, and linear subvarieties."""

import random
from fractions import Fraction
from math import comb

import pytest

import subgeneral.projective
from subgeneral import (
    INF,
    ArgumentError,
    HomForm,
    LinearForm,
    LinearSubvariety,
    Place,
    ProjPoint,
    local_weil,
    monomials,
    projective_space,
    veronese_form,
    veronese_point,
)
from subgeneral.projective import (
    linear_column,
    normalize_coords,
    point_from_canonical,
)

from gen import rand_fraction, rand_hom_form, rand_point
from oracles import form_value_by_point, linear_column_by_maps


def test_integer_coordinates_normalize_as_fractions_do():
    rng = random.Random(23)
    for _ in range(500):
        hi = rng.choice((1, 6, 10**9))
        vals = [rng.randint(-hi, hi) * rng.choice((1, 1, 12)) for _ in range(rng.randint(2, 6))]
        if not any(vals):
            continue
        got = normalize_coords(vals)
        assert got == normalize_coords([Fraction(v) for v in vals])
        assert all(type(c) is int for c in got)
    for bad in ([5], [0, 0, 0]):
        with pytest.raises(ArgumentError):
            normalize_coords(bad)


def test_point_normalization_frozen_cases():
    assert ProjPoint((4, 6, 10)).coords == (2, 3, 5)
    assert ProjPoint((0, Fraction(-1, 2))).coords == (0, 1)
    assert ProjPoint((1, 0, 0)).coords == (1, 0, 0)


def test_point_normalization_idempotent_and_scale_invariant():
    rng = random.Random(21)
    for _ in range(200):
        pt = rand_point(rng, rng.randint(1, 4))
        assert ProjPoint(pt.coords) == pt
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((-1, 1))
        scaled = ProjPoint(tuple(c * x for x in pt.coords))
        assert scaled == pt


def test_point_rejects_degenerate_input():
    with pytest.raises(ArgumentError):
        ProjPoint((0, 0, 0))
    with pytest.raises(ArgumentError):
        ProjPoint((3,))


def test_point_parse_and_str_round_trip():
    pt = ProjPoint.parse("[4,6,10]")
    assert str(pt) == "[2:3:5]"
    assert ProjPoint.parse(str(pt)) == pt
    assert ProjPoint.parse("0, -1/2").coords == (0, 1)
    assert ProjPoint.from_json(pt.to_json()) == pt


def test_point_from_canonical_skips_normalization():
    assert point_from_canonical((3, 7)).coords == (3, 7)


def test_linear_form_evaluate_frozen_cases():
    assert LinearForm((1, -1)).evaluate(ProjPoint((2, 1))) == 1
    assert LinearForm((1, 0, 0)).evaluate(ProjPoint((0, 1, 0))) == 0
    with pytest.raises(ArgumentError):
        LinearForm((1, 0)).evaluate(ProjPoint((1, 1, 1)))


def test_hom_form_evaluate_frozen_cases():
    f = HomForm.from_terms(1, 2, {(1, 1): 1})  # x0*x1 on P^1
    assert f.evaluate(ProjPoint((2, 1))) == 2
    assert f.degree == 2
    assert f.monomial_count == 1


def _seeded_column(rng, dim, size):
    """size canonical points of P^dim with zeros, signs and entries up to
    10**12, and their coordinate columns."""
    pts = []
    while len(pts) < size:
        hi = rng.choice((1, 9, 10**6, 10**12))
        coords = [rng.choice((0, rng.randint(-hi, hi))) for _ in range(dim + 1)]
        if any(coords):
            pts.append(ProjPoint(tuple(coords)))
    return pts, [[pt.coords[k] for pt in pts] for k in range(dim + 1)]


def test_form_columns_match_the_per_point_loop():
    rng = random.Random(404)
    for _ in range(120):
        dim, degree = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice((0.15, 0.5, 1.0))  # sparse to dense
        mono = monomials(dim + 1, degree)
        coeffs = [rng.randint(-10**12, 10**12) if rng.random() < density else 0 for _ in mono]
        coeffs[rng.randrange(len(coeffs))] = rng.choice((1, -7, 10**12))
        form = HomForm(dim, degree, tuple(coeffs))
        linear = LinearForm(tuple(rng.choice((0, rng.randint(-10**12, 10**12))) for _ in range(dim))
                            + (rng.randint(1, 10**12),))
        pts, xs = _seeded_column(rng, dim, rng.randint(1, 12))
        expected = [form_value_by_point(zip(mono, form.coeffs), pt.coords) for pt in pts]
        assert form.column(xs) == expected
        assert [form.evaluate(pt) for pt in pts] == expected
        linear_terms = [(tuple(int(j == k) for j in range(dim + 1)), a)
                        for k, a in enumerate(linear.coeffs)]
        assert linear.column(xs) == [form_value_by_point(linear_terms, pt.coords) for pt in pts]


def test_monomials_graded_lex_order():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    for nvars in (2, 3, 4):
        for degree in (1, 2, 3):
            mono = monomials(nvars, degree)
            assert len(mono) == comb(nvars - 1 + degree, degree)
            # distinct, of one degree, in descending lex order
            assert list(mono) == sorted(set(mono), reverse=True)
            assert all(sum(exps) == degree for exps in mono)


def test_hom_form_canonicalizes_and_round_trips():
    f = HomForm(1, 2, (2, 4, 6))
    assert f.coeffs == (1, 2, 3)
    g = HomForm(1, 2, (Fraction(-1, 2), 0, Fraction(3, 2)))
    assert g.coeffs == (1, 0, -3)
    assert HomForm.from_json(f.to_json()) == f


def test_hom_form_from_terms_is_order_independent():
    a = HomForm.from_terms(2, 2, {(1, 1, 0): 2, (0, 0, 2): -1})
    b = HomForm.from_terms(2, 2, {(0, 0, 2): -1, (1, 1, 0): 2})
    assert a == b


def test_dense_and_sparse_constructors_agree():
    rng = random.Random(30)
    for _ in range(150):
        dim, degree = rng.randint(1, 4), rng.randint(1, 4)
        mono = monomials(dim + 1, degree)
        coeffs = [c * rand_fraction(rng, 40) if rng.random() < 0.4 else c
                  for c in rand_hom_form(rng, dim, degree).coeffs]
        lead = next(i for i, c in enumerate(coeffs) if c)
        coeffs[lead] = -abs(coeffs[lead])
        dense = HomForm(dim, degree, tuple(coeffs))
        pairs = [(e, c) for e, c in zip(mono, coeffs) if c]
        rng.shuffle(pairs)
        for sparse in (HomForm.from_terms(dim, degree, dict(pairs)),
                       HomForm.from_terms(dim, degree, pairs)):
            assert sparse == dense and hash(sparse) == hash(dense)
            assert str(sparse) == str(dense)
            assert sparse.to_json() == dense.to_json()
            assert sparse.coeffs == dense.coeffs == normalize_coords(coeffs)
            assert sparse.monomial_count == len(pairs)
            _, xs = _seeded_column(rng, dim, 4)
            assert sparse.column(xs) == dense.column(xs)


def test_a_one_term_form_never_lists_the_monomials_of_its_degree(monkeypatch):
    # x0^8 on P^10 has 43,758 monomials of its degree: building, evaluating,
    # printing and writing it read its one term
    calls = []

    def counting(*args):
        calls.append(args)
        return monomials(*args)

    monkeypatch.setattr(subgeneral.projective, "monomials", counting)
    data = {"dim": 10, "degree": 8, "terms": [[[8] + [0] * 10, "-3"]]}
    form = HomForm.from_json(data)
    pt = ProjPoint((2,) + (1,) * 10)
    assert local_weil(pt, form, INF).value == 0.0
    assert local_weil(pt, form, Place(2)).exact == (2, 8)
    assert str(form) == "+1*x0^8" and form.monomial_count == 1
    assert HomForm.from_json(form.to_json()) == form
    assert form.to_json()["terms"] == [[[8] + [0] * 10, "1"]]
    assert calls == []


def test_hom_form_validation():
    with pytest.raises(ArgumentError):
        HomForm(1, 2, (0, 0, 0))
    with pytest.raises(ArgumentError):
        HomForm(1, 2, (1, 1))  # wrong coefficient count
    with pytest.raises(ArgumentError):
        HomForm.from_terms(1, 2, {(1, 0): 1})  # degree mismatch


def test_veronese_point_frozen_cases():
    assert veronese_point(ProjPoint((2, 1)), 2).coords == (4, 2, 1)
    assert veronese_point(ProjPoint((1, 0)), 3).coords == (1, 0, 0, 0)
    assert veronese_point(ProjPoint((1, 1, 1)), 2).coords == (1,) * 6
    with pytest.raises(ArgumentError):
        veronese_point(ProjPoint((1, 1)), 0)


def test_veronese_form_frozen_cases():
    lin = veronese_form(HomForm.from_terms(1, 2, {(1, 1): 1}))
    assert lin.form.coeffs == (0, 1, 0)
    assert lin.scale == 1

    lin = veronese_form(HomForm.from_terms(1, 2, {(2, 0): 1, (0, 2): 1}))
    assert lin.form.coeffs == (1, 0, 1)

    f = HomForm(1, 1, (3, -5))
    assert veronese_form(f).form.coeffs == f.coeffs


def test_veronese_compatibility_scaled_evaluation():
    rng = random.Random(22)
    for _ in range(200):
        dim = rng.randint(1, 3)
        degree = rng.randint(1, 3)
        f = rand_hom_form(rng, dim, degree)
        pt = rand_point(rng, dim, hi=9)
        lin = veronese_form(f)
        left = lin.form.evaluate(veronese_point(pt, degree))
        assert left == lin.scale * f.evaluate(pt)


def test_subvariety_basics():
    x = LinearSubvariety(2, (LinearForm((0, 0, 1)),))
    assert x.dim == 1
    basis = x.kernel_basis()
    assert len(basis) == 2
    assert all(f.evaluate(ProjPoint(b)) == 0 for f in x.forms for b in basis)
    assert projective_space(3).dim == 3
    assert projective_space(3).forms == ()


def test_subvariety_validation():
    with pytest.raises(ArgumentError):
        LinearSubvariety(2, (LinearForm((1, 0, 0)), LinearForm((2, 0, 0))))
    with pytest.raises(ArgumentError):
        LinearSubvariety(2, (LinearForm((1, 0)),))
    with pytest.raises(ArgumentError):
        # cutting P^2 down to a point leaves no curve to sample
        LinearSubvariety(2, (LinearForm((1, 0, 0)), LinearForm((0, 1, 0))))


def test_subvariety_json_round_trip():
    x = LinearSubvariety(3, (LinearForm((1, 1, 0, 0)), LinearForm((0, 0, 1, -2))))
    assert LinearSubvariety.from_json(x.to_json()) == x


def test_linear_column_matches_the_map_chain():
    # 0 to 6 coefficients of which 1 to 5 terms live (a nonzero coefficient
    # on a column that is not all 0), coefficients of +-1 and large ones,
    # columns that are all 0 (a coordinate that vanishes on X) or start with
    # 0, as lists and as the tuples that zip gives
    rng = random.Random(31)
    live_counts = set()
    for _ in range(1500):
        width = rng.randint(2, 7)
        size = rng.choice((1, 2, 7, 60))
        xs = []
        for _ in range(width):
            kind = rng.random()
            if kind < 0.2:
                col = [0] * size
            else:
                hi = rng.choice((1, 3, 70, 10**12))
                col = [rng.randint(-hi, hi) for _ in range(size)]
                if kind < 0.4:
                    col[0] = 0
            xs.append(col)
        coeffs = [
            rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-10**15, 10**15)))
            for _ in range(width)
        ]
        if rng.random() < 0.5:
            xs = list(zip(*zip(*xs)))  # columns as tuples
        got = linear_column(coeffs, xs)
        assert got == linear_column_by_maps(coeffs, xs)
        assert type(got) is list and all(type(v) is int for v in got)
        live_counts.add(sum(1 for a, x in zip(coeffs, xs) if a and any(x)))
    assert live_counts >= {0, 1, 2, 3, 4, 5}
