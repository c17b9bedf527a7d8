"""Local Weil values, heights, sums over places, and their exact constants."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from subgeneral import (
    ArgumentError,
    HomForm,
    INF,
    LinearForm,
    Place,
    ProjPoint,
    SubschemeSpec,
    SupportError,
    height,
    height_exact,
    height_scaled,
    local_weil,
    target_from_json,
    target_to_json,
    ulp_distance,
    valuation,
    veronese_form,
    veronese_point,
    weil_batch,
    weil_divisor,
    weil_hyperplane,
    weil_subscheme,
)

import subgeneral.weil
from subgeneral.weil import _column, _coordinate_columns, _hits, _least_ratio, _raise_hit

from gen import is_on_support, point_off_targets, rand_hom_form, rand_linear_form, rand_point
from oracles import ledger_by_row, support_hits_by_decode, weil_ratio_reference


def hom(dim, degree, terms):
    return HomForm.from_terms(dim, degree, terms)


def mul_forms(f: HomForm, g: HomForm) -> HomForm:
    terms = {}
    for ef, cf in f.terms():
        for eg, cg in g.terms():
            key = tuple(a + b for a, b in zip(ef, eg))
            terms[key] = terms.get(key, 0) + cf * cg
    return HomForm.from_terms(f.dim, f.degree + g.degree, terms)


def test_weil_hyperplane_frozen_cases():
    pt = ProjPoint((2, 1))
    diff = LinearForm((1, -1))
    assert weil_hyperplane(pt, diff, INF).value == pytest.approx(math.log(2), abs=0)
    w = weil_hyperplane(pt, diff, Place(2))
    assert w.value == 0.0
    assert w.exact == (2, 0)

    pt = ProjPoint((1, 4))
    assert weil_hyperplane(pt, LinearForm((1, 0)), Place(2)).value == 0.0
    assert weil_hyperplane(pt, LinearForm((1, 0)), INF).value == pytest.approx(
        math.log(4), abs=0
    )


def test_weil_hyperplane_support_rejected():
    with pytest.raises(SupportError):
        weil_hyperplane(ProjPoint((1, 0, 2)), LinearForm((0, 1, 0)), INF)


def test_weil_divisor_frozen_cases():
    w = weil_divisor(ProjPoint((2, 1)), hom(1, 2, {(1, 1): 1}), INF)
    assert w.value == pytest.approx(math.log(2), abs=0)

    w = weil_divisor(ProjPoint((3, 1)), hom(1, 2, {(2, 0): 1}), Place(3))
    assert w.exact == (3, 2)
    assert w.value == pytest.approx(math.log(9))


def test_weil_divisor_linear_case_agrees_with_hyperplane():
    rng = random.Random(41)
    for _ in range(50):
        dim = rng.randint(1, 3)
        f = rand_linear_form(rng, dim)
        d1 = HomForm(dim, 1, f.coeffs)
        pt = point_off_targets(rng, [f], dim)
        for v in (INF, Place(2), Place(5)):
            assert weil_divisor(pt, d1, v).value == weil_hyperplane(pt, f, v).value


def test_weil_subscheme_min_of_components():
    y = SubschemeSpec((HomForm(2, 1, (1, 0, 0)), HomForm(2, 1, (0, 1, 0))))
    w = weil_subscheme(ProjPoint((1, 2, 1)), y, INF)
    assert w.value == 0.0  # min(log 2, log(2/2))

    single = SubschemeSpec((hom(2, 2, {(1, 1, 0): 1}),))
    pt = ProjPoint((1, 3, 2))
    assert (
        weil_subscheme(pt, single, INF).value
        == weil_divisor(pt, single.components[0], INF).value
    )


def test_weil_subscheme_modes_at_partial_support():
    y = SubschemeSpec((HomForm(2, 1, (1, 0, 0)), HomForm(2, 1, (0, 1, 0))))
    on_one = ProjPoint((0, 1, 1))  # kills the first component only
    lenient = weil_subscheme(on_one, y, INF, mode="lenient")
    assert lenient.dropped == (1,)
    assert lenient.value == 0.0
    with pytest.raises(SupportError):
        weil_subscheme(on_one, y, INF, mode="strict")
    with pytest.raises(SupportError):
        weil_subscheme(ProjPoint((0, 0, 1)), y, INF, mode="lenient")
    with pytest.raises(ArgumentError):
        weil_subscheme(on_one, y, INF, mode="other")


def test_local_weil_ratio_is_the_exact_value():
    # the reference takes the max-norm definition over Fractions; local_weil
    # must give exactly its p-power at p and log(num) - log(den) at inf
    rng = random.Random(17)
    y = SubschemeSpec((HomForm(2, 1, (1, 0, 0)), HomForm(2, 1, (0, 1, 0))))
    on_one = ProjPoint((0, 4, 1))  # kills the first component only
    assert weil_ratio_reference(on_one, y, INF) == Fraction(4, 4)
    assert local_weil(on_one, y, INF).value == 0.0
    assert weil_ratio_reference(on_one, y, Place(2)) == 4
    assert local_weil(on_one, y, Place(2)).exact == (2, 2)
    with pytest.raises(SupportError):
        local_weil(on_one, y, INF, mode="strict")
    for _ in range(30):
        targets = [
            rand_linear_form(rng, 2),
            rand_hom_form(rng, 2, 2),
            SubschemeSpec((rand_linear_form(rng, 2), rand_hom_form(rng, 2, 3))),
        ]
        pt = point_off_targets(rng, targets, 2)
        for t in targets:
            for v in (INF, Place(2), Place(3)):
                q = weil_ratio_reference(pt, t, v)
                w = local_weil(pt, t, v)
                assert math.isclose(math.log(q), w.value, rel_tol=1e-12, abs_tol=1e-12)
                if v.p is None:
                    assert w.value == math.log(q.numerator) - math.log(q.denominator)
                else:
                    assert Fraction(v.p) ** w.exact[1] == q


def test_is_on_support_modes():
    y = SubschemeSpec((HomForm(2, 1, (1, 0, 0)), HomForm(2, 1, (0, 1, 0))))
    on_one = ProjPoint((0, 1, 1))
    assert not is_on_support(on_one, y, "lenient")
    assert is_on_support(on_one, y, "strict")
    assert is_on_support(ProjPoint((0, 0, 1)), y, "lenient")


def test_height_frozen_cases():
    assert height(ProjPoint((2, 3, 5))) == pytest.approx(math.log(5), abs=0)
    assert height(ProjPoint((1, 0, 0))) == 0.0
    assert height(ProjPoint((4, 6, 10))) == pytest.approx(math.log(5), abs=0)
    assert height_exact(ProjPoint((4, 6, 10))) == 5


def test_height_scaled():
    assert height_scaled(ProjPoint((1, 1)), 3) == 0.0
    assert height_scaled(ProjPoint((2, 1)), 2) == pytest.approx(2 * math.log(2))
    pt = ProjPoint((7, 3))
    assert height_scaled(pt, 1) == height(pt)
    with pytest.raises(ArgumentError):
        height_scaled(pt, 0)
    with pytest.raises(ArgumentError):
        height_scaled(pt, -2)


def _place_sum(point, target, places) -> float:
    """m_S(P, target): the fsum of the local Weil values over the places in S."""
    return math.fsum(local_weil(point, target, v).value for v in places)


def test_finite_place_values_nonnegative():
    rng = random.Random(42)
    for _ in range(200):
        dim = rng.randint(1, 3)
        f = rand_hom_form(rng, dim, rng.randint(1, 3))
        pt = point_off_targets(rng, [f], dim)
        for p in (2, 3, 5):
            assert weil_divisor(pt, f, Place(p)).exact[1] >= 0


def test_archimedean_lower_bound_by_monomial_count():
    rng = random.Random(43)
    for _ in range(200):
        dim = rng.randint(1, 3)
        f = rand_hom_form(rng, dim, rng.randint(1, 3))
        pt = point_off_targets(rng, [f], dim)
        assert weil_divisor(pt, f, INF).value >= -math.log(f.monomial_count) - 1e-12


def test_product_additivity_exact_at_finite_places():
    rng = random.Random(44)
    for _ in range(100):
        dim = rng.randint(1, 2)
        f = rand_hom_form(rng, dim, rng.randint(1, 2))
        g = rand_hom_form(rng, dim, rng.randint(1, 2))
        fg = mul_forms(f, g)
        pt = point_off_targets(rng, [f, g], dim)
        for p in (2, 3, 7):
            v = Place(p)
            assert (
                weil_divisor(pt, fg, v).exact[1]
                == weil_divisor(pt, f, v).exact[1] + weil_divisor(pt, g, v).exact[1]
            )


def max_abs_coeff(f: HomForm) -> int:
    return max(abs(c) for c in f.coeffs)


def test_product_additivity_defect_identity_at_infinity():
    # the defect is exactly the coefficient-norm ratio, independent of P
    rng = random.Random(45)
    for _ in range(100):
        dim = rng.randint(1, 2)
        f = rand_hom_form(rng, dim, rng.randint(1, 2))
        g = rand_hom_form(rng, dim, rng.randint(1, 2))
        fg = mul_forms(f, g)
        pt = point_off_targets(rng, [f, g], dim)
        got = (
            weil_divisor(pt, fg, INF).value
            - weil_divisor(pt, f, INF).value
            - weil_divisor(pt, g, INF).value
        )
        ratio = Fraction(max_abs_coeff(fg), max_abs_coeff(f) * max_abs_coeff(g))
        want = math.log(ratio.numerator) - math.log(ratio.denominator)
        assert got == pytest.approx(want, abs=1e-9)
        # provable one-sided bound: every product coefficient is a sum of
        # at most min(#monomials) products of coefficient pairs
        assert got <= math.log(min(f.monomial_count, g.monomial_count)) + 1e-9


def test_product_defect_can_exceed_product_monomial_count():
    # |defect| is NOT bounded by log(#monomials of FG): for (x0+x1)^4 times
    # (x0-x1)^4 the norms give |log(6/36)| = log 6 > log 5, with 5 monomials.
    f = hom(1, 4, {(4 - i, i): math.comb(4, i) for i in range(5)})
    g = hom(1, 4, {(4 - i, i): math.comb(4, i) * (-1) ** i for i in range(5)})
    fg = mul_forms(f, g)
    assert fg.monomial_count == 5
    assert max_abs_coeff(fg) == 6
    defect = math.log(Fraction(max_abs_coeff(fg), max_abs_coeff(f) * max_abs_coeff(g)))
    assert abs(defect) > math.log(fg.monomial_count)
    pt = ProjPoint((3, 2))
    got = (
        weil_divisor(pt, fg, INF).value
        - weil_divisor(pt, f, INF).value
        - weil_divisor(pt, g, INF).value
    )
    assert got == pytest.approx(defect, abs=1e-12)


def test_divisibility_monotone_exact_at_finite_places():
    rng = random.Random(46)
    for _ in range(100):
        dim = rng.randint(1, 2)
        f = rand_hom_form(rng, dim, 1)
        h = rand_hom_form(rng, dim, rng.randint(1, 2))
        g = mul_forms(f, h)
        pt = point_off_targets(rng, [f, h], dim)
        for p in (2, 5):
            v = Place(p)
            assert weil_divisor(pt, g, v).exact[1] >= weil_divisor(pt, f, v).exact[1]


def test_divisibility_monotone_explicit_bound_at_infinity():
    # provable form: lambda_G >= lambda_F - log(#monomials of H) + norm ratio
    rng = random.Random(47)
    for _ in range(100):
        dim = rng.randint(1, 2)
        f = rand_hom_form(rng, dim, 1)
        h = rand_hom_form(rng, dim, rng.randint(1, 2))
        g = mul_forms(f, h)
        pt = point_off_targets(rng, [f, h], dim)
        lam_g = weil_divisor(pt, g, INF).value
        lam_f = weil_divisor(pt, f, INF).value
        ratio = Fraction(max_abs_coeff(g), max_abs_coeff(f) * max_abs_coeff(h))
        floor = lam_f - math.log(h.monomial_count) + math.log(ratio)
        assert lam_g >= floor - 1e-9


def test_divisibility_monotonicity_needs_the_norm_ratio_term():
    # with the naive floor lambda_F - log(#monomials of G) the claim fails:
    # F = x0 - x1, G = x0^4 - x1^4, P = [5:4]
    f = hom(1, 1, {(1, 0): 1, (0, 1): -1})
    g = hom(1, 4, {(4, 0): 1, (0, 4): -1})
    pt = ProjPoint((5, 4))
    lam_f = weil_hyperplane(pt, LinearForm((1, -1)), INF).value
    lam_g = weil_divisor(pt, g, INF).value
    assert f.evaluate(pt) == 1 and g.evaluate(pt) == 369
    assert lam_g < lam_f - math.log(g.monomial_count)


def test_min_law_exact_and_permutation_invariant():
    rng = random.Random(48)
    for _ in range(60):
        dim = rng.randint(1, 2)
        comps = [rand_hom_form(rng, dim, rng.randint(1, 2)) for _ in range(3)]
        pt = point_off_targets(rng, comps, dim)
        for v in (INF, Place(2), Place(3)):
            whole = weil_subscheme(pt, SubschemeSpec(tuple(comps)), v).value
            parts = min(weil_divisor(pt, c, v).value for c in comps)
            assert whole == parts
            for perm in permutations(comps):
                assert weil_subscheme(pt, SubschemeSpec(perm), v).value == whole
            doubled = SubschemeSpec(tuple(comps) + (comps[0],))
            assert weil_subscheme(pt, doubled, v).value == whole


def test_min_law_of_concatenated_specs():
    rng = random.Random(49)
    for _ in range(40):
        dim = rng.randint(1, 2)
        a = [rand_hom_form(rng, dim, 1) for _ in range(2)]
        b = [rand_hom_form(rng, dim, rng.randint(1, 2)) for _ in range(2)]
        pt = point_off_targets(rng, a + b, dim)
        for v in (INF, Place(5)):
            cap = weil_subscheme(pt, SubschemeSpec(tuple(a + b)), v).value
            va = weil_subscheme(pt, SubschemeSpec(tuple(a)), v).value
            vb = weil_subscheme(pt, SubschemeSpec(tuple(b)), v).value
            assert cap == min(va, vb)


def test_veronese_functoriality_exact():
    rng = random.Random(50)
    for _ in range(100):
        dim = rng.randint(1, 3)
        degree = rng.randint(1, 3)
        f = rand_hom_form(rng, dim, degree)
        pt = point_off_targets(rng, [f], dim)
        lin = veronese_form(f)
        img = veronese_point(pt, degree)
        log_scale = math.log(abs(lin.scale))
        for p in (2, 3):
            v = Place(p)
            dv = weil_divisor(pt, f, v)
            hv = weil_hyperplane(img, lin.form, v)
            assert dv.exact[1] == hv.exact[1] - valuation(lin.scale, p)
        assert (
            ulp_distance(
                weil_divisor(pt, f, INF).value,
                weil_hyperplane(img, lin.form, INF).value + log_scale,
            )
            <= 2
        )


def test_full_place_sum_recovers_height():
    # sum of lambda_{x0,v} over inf and the primes dividing a equals h([a:b])
    rng = random.Random(51)
    form = LinearForm((1, 0))
    for _ in range(100):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        pt = ProjPoint((a, b))
        places = [INF] + [Place(p) for p in sorted(set(_prime_factors(a)))]
        total = _place_sum(pt, form, places)
        assert total == pytest.approx(height(pt), abs=1e-9)
        # exact integer identity behind it: prod p^ord = |a|
        prod = 1
        for v in places[1:]:
            prod *= v.p ** valuation(a, v.p)
        assert prod == a


def _prime_factors(n):
    from subgeneral import factor_int

    return factor_int(n).keys() if n > 1 else []


def test_height_proximity_upper_bound():
    rng = random.Random(52)
    for _ in range(100):
        dim = rng.randint(1, 3)
        f = rand_linear_form(rng, dim)
        pt = point_off_targets(rng, [f], dim)
        places = (INF, Place(2), Place(3), Place(5))
        bound = (
            height(pt)
            + math.log(max(abs(c) for c in f.coeffs))
            + math.log(dim + 1)
        )
        assert _place_sum(pt, f, places) <= bound + 1e-9


def test_weil_batch_rows_and_support_notes():
    manifest = {
        "points": [["1", "4"], ["0", "1"]],
        "targets": [{"type": "linear", "coeffs": ["1", "0"]}],
        "places": ["inf", "2"],
    }
    rows = weil_batch(manifest)
    assert len(rows) == 4
    assert rows[0]["value"] == pytest.approx(math.log(4), abs=0)
    assert rows[1]["exact"] == "2^0"
    assert rows[2]["value"] is None and rows[2]["exact"] == "support"
    assert rows[3]["value"] is None
    with pytest.raises(ArgumentError):
        weil_batch({**manifest, "places": ["2", "2"]})


def test_weil_batch_validates_mode_without_subschemes():
    manifest = {"points": [["1", "4"]], "targets": [["1", "0"]], "places": ["inf"]}
    assert len(weil_batch({**manifest, "mode": "strict"})) == 1
    with pytest.raises(ArgumentError, match="mode"):
        weil_batch({**manifest, "mode": "bogus"})


def test_target_json_accepts_bare_coefficient_lists():
    typed = target_from_json({"type": "linear", "coeffs": ["5", "7"]})
    bare = target_from_json(["5", "7"])
    assert bare == typed == LinearForm((5, 7))
    assert target_to_json(bare) == {"type": "linear", "coeffs": ["5", "7"]}
    with pytest.raises(ArgumentError):
        target_from_json("5x0+7x1")
    with pytest.raises(ArgumentError):
        target_from_json({"type": "parabola"})


# ---------------------------------------------------------------------------
# the column kernel against the row kernel it replaced


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _kernel_cases():
    """(target, points) pairs on P^1 and P^2, with planted support hits."""
    rng = random.Random(8)
    cases = []
    for _ in range(6):
        form = rand_linear_form(rng, 1, hi=9)
        a, b = form.coeffs
        pts = [rand_point(rng, 1, 40) for _ in range(60)] + [ProjPoint((b, -a))]
        cases.append((form, pts))
    for _ in range(6):
        form = rand_linear_form(rng, 2)
        hyper = rand_hom_form(rng, 2, rng.choice((2, 3)))
        first, second = rand_linear_form(rng, 2), rand_linear_form(rng, 2)
        spec = SubschemeSpec((first, second, hyper))
        pts = [rand_point(rng, 2, 60) for _ in range(60)]
        for lin in (form, first):
            on = _cross(lin.coeffs, rand_point(rng, 2, 9).coords)
            if any(on):
                pts.append(ProjPoint(on))
        both = _cross(first.coeffs, second.coeffs)
        if any(both):
            pts.append(ProjPoint(both))
        cases += [(form, pts), (hyper, pts), (spec, pts)]
    return cases


def test_column_kernel_matches_the_row_kernel():
    places = (INF, Place(2), Place(3), Place(5))
    hits = dropped = 0
    for target, pts in _kernel_cases():
        maxes = [height_exact(pt) for pt in pts]
        for mode in ("lenient", "strict"):
            xs = _coordinate_columns(pts)
            exacts, values, marks = _column(target, pts, xs, maxes, mode, places)
            assert len(exacts) == len(values) == len(places)
            for i, pt in enumerate(pts):
                try:
                    ref_exacts, ref_values, ref_dropped = ledger_by_row(
                        pt, target, mode, places
                    )
                except SupportError as err:
                    hits += 1
                    assert isinstance(marks[i], SupportError)
                    assert str(marks[i]) == str(err)
                    assert marks[i].component == err.component
                    assert all(col[i] is None for col in exacts + values)
                    continue
                assert marks[i] == ref_dropped
                dropped += bool(ref_dropped)
                assert [col[i] for col in exacts] == ref_exacts
                assert [col[i] for col in values] == ref_values
    assert hits >= 20 and dropped >= 5


def test_lean_kernel_reads_the_full_kernels_floats_and_hits():
    # the lean kernel (the sampler's and the ledger's) marks a hit by its
    # index, keeps no exact column for a form off its support, and reads
    # the logs of small nums and dens from a table: its floats are the full
    # kernel's, bit for bit, on both sides of the table's bound
    places = (INF, Place(2), Place(3), Place(5))
    rng = random.Random(28)
    cases = list(_kernel_cases())
    for _ in range(6):
        # values and heights beyond the table: |F(P)| and max|x_i| * max|coeff|
        # above it, and small ones, in one column
        form = rand_linear_form(rng, 2, hi=9)
        cubic = rand_hom_form(rng, 2, 3)
        pts = [rand_point(rng, 2, rng.choice((5, 60, 10**4, 10**9))) for _ in range(80)]
        cases += [(form, pts), (cubic, pts)]
    assert subgeneral.weil._SMALL == 4096
    direct = hits = big = 0
    for target, pts in cases:
        xs, maxes = _coordinate_columns(pts), [height_exact(pt) for pt in pts]
        for mode in ("lenient", "strict"):
            exacts, values, marks = _column(target, pts, xs, maxes, mode, places)
            lean = _column(target, pts, xs, maxes, mode, places, lean=True)
            assert lean[1] == values
            assert lean[2] == _hits(marks)
            form_off_support = not isinstance(target, SubschemeSpec) and not lean[2]
            assert lean[0] == ([None] * len(places) if form_off_support else exacts)
            direct += form_off_support
            hits += bool(lean[2])
            big += form_off_support and any(
                max(q) >= 4096 for q in exacts[0]
            ) and any(max(q) < 4096 for q in exacts[0])
    assert direct >= 10 and hits >= 10 and big >= 4


def test_one_point_values_raise_the_kernel_support_errors():
    spec = SubschemeSpec((LinearForm((1, 0, -1)), LinearForm((0, 1, 2))))
    on_first = ProjPoint((1, 1, 1))
    with pytest.raises(SupportError, match=r"component 1 of .* \(strict mode\)") as err:
        local_weil(on_first, spec, INF, "strict")
    assert err.value.component == 1
    with pytest.raises(SupportError, match="lies on the subscheme"):
        local_weil(ProjPoint((1, -2, 1)), spec, Place(2))
    with pytest.raises(SupportError, match="lies on the support of"):
        local_weil(ProjPoint((0, 1)), LinearForm((1, 0)), Place(3))
    assert local_weil(on_first, spec, INF).dropped == (1,)
    with pytest.raises(ArgumentError, match=r"form on P\^2 evaluated at point of P\^3"):
        local_weil(ProjPoint((1, 2, 3, 4)), spec, INF)


def test_weil_batch_support_rows_match_one_point_values():
    line = LinearForm((1, -1, 0))
    spec = SubschemeSpec((LinearForm((1, 0, -1)), LinearForm((0, 1, 2))))
    # on the line, on the first component only, on both, and off everything
    pts = [ProjPoint(c) for c in ((3, 3, 7), (1, 2, 1), (1, -2, 1), (2, 5, 11))]
    places = [INF, Place(2), Place(3)]
    for mode in ("lenient", "strict"):
        rows = weil_batch(
            {
                "points": [p.to_json() for p in pts],
                "targets": [target_to_json(t) for t in (line, spec)],
                "places": [str(v) for v in places],
                "mode": mode,
            }
        )
        assert len(rows) == len(pts) * 2 * len(places)
        it = iter(rows)
        support = 0
        for pt in pts:
            for target in (line, spec):
                for v in places:
                    row = next(it)
                    assert (row["point"], row["target"], row["place"]) == (
                        str(pt), str(target), str(v),
                    )
                    if is_on_support(pt, target, mode):
                        support += 1
                        assert row["value"] is None and row["exact"] == "support"
                        with pytest.raises(SupportError):
                            local_weil(pt, target, v, mode)
                        continue
                    w = local_weil(pt, target, v, mode)
                    assert row["value"] == w.value
                    exact = "" if w.exact is None else "%d^%d" % w.exact
                    assert row["exact"] == exact
        # the line at [3:3:7]; the subscheme at [1:-2:1], and in strict
        # mode also at [1:2:1]
        assert support == len(places) * (2 if mode == "lenient" else 3)


# ---------------------------------------------------------------------------
# integer input stays on ints; the subscheme minimum at inf cross-multiplies


def _count_fractions(monkeypatch):
    """Count Fraction constructions from here on; returns the one-cell tally."""
    tally = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        tally[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return tally


def test_weil_batch_on_integer_input_constructs_no_fraction(monkeypatch):
    rng = random.Random(17)
    lin = [rand_linear_form(rng, 3) for _ in range(3)]
    hyp = [rand_hom_form(rng, 3, d) for d in (2, 3)]
    targets = lin + hyp + [SubschemeSpec((lin[0], lin[1])), SubschemeSpec((lin[2], hyp[0]))]
    points = [rand_point(rng, 3, 10**4).to_json() for _ in range(20)]
    points += [[1, 0, 0, 0], ["-0012", "+4", "1000", " 7 "]]  # JSON ints, integer text
    manifest = {
        "points": points,
        "targets": [target_to_json(t) for t in targets],
        "places": ["inf", "p=2", "p=3", "p=5", "p=7"],
    }
    tally = _count_fractions(monkeypatch)
    rows = weil_batch(manifest)
    assert len(rows) == len(points) * len(targets) * 5
    assert tally[0] == 0
    # the counter sees a rational coordinate
    manifest["points"] = [["1/2", "1", "1", "1"]]
    weil_batch(manifest)
    assert tally[0] > 0


def test_least_ratio_keeps_the_first_least_pair():
    rng = random.Random(29)
    ties = 0
    for _ in range(2000):
        qs = [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            # the least ratio again, written unreduced, anywhere in the list
            num, den = min(qs, key=lambda q: Fraction(*q))
            k = rng.randint(2, 4)
            qs.insert(rng.randint(0, len(qs)), (num * k, den * k))
        want = min(qs, key=lambda q: Fraction(*q))
        ties += sum(Fraction(*q) == Fraction(*want) for q in qs) > 1
        assert _least_ratio(qs) is want
    assert ties > 500


def _subscheme_columns():
    """(spec, points) on P^2: components with equal values at planted points
    (a repeated component, and x0 + x1 + a*x2 against x0 - x1 + a*x2 where
    x1 = 0), and points on one component or on all of them."""
    rng = random.Random(31)
    cases = []
    for _ in range(8):
        a = rng.randint(1, 3)
        plus, minus = LinearForm((1, 1, a)), LinearForm((1, -1, a))
        other, quad = rand_linear_form(rng, 2), rand_hom_form(rng, 2, 2, hi=2)
        spec = SubschemeSpec(rng.sample([plus, minus, other, quad], rng.randint(2, 4)) + [plus])
        pts = [rand_point(rng, 2, 30) for _ in range(40)]
        pts += [ProjPoint((rng.randint(1, 30), 0, rng.randint(-30, 30))) for _ in range(10)]
        on = [_cross(c.coeffs, rand_point(rng, 2, 5).coords) for c in (plus, minus)]
        on.append(_cross(plus.coeffs, minus.coeffs))
        pts += [ProjPoint(v) for v in on if any(v)]
        cases.append((spec, pts))
    return cases


def _inf_ratio(pt, comp):
    return Fraction(height_exact(pt) ** comp.degree * comp._max_coeff, abs(comp.evaluate(pt)))


def test_cross_multiplied_minimum_matches_the_fraction_minimum(monkeypatch):
    places = (INF, Place(2), Place(3))
    runs = []
    for spec, pts in _subscheme_columns():
        xs, maxes = _coordinate_columns(pts), [height_exact(pt) for pt in pts]
        for mode in ("lenient", "strict"):
            runs.append((spec, pts, mode, _column(spec, pts, xs, maxes, mode, places)))
    monkeypatch.setattr(
        subgeneral.weil, "_least_ratio", lambda qs: min(qs, key=lambda q: Fraction(*q))
    )
    dropped = support = ties = 0
    for spec, pts, mode, (exacts, values, marks) in runs:
        xs, maxes = _coordinate_columns(pts), [height_exact(pt) for pt in pts]
        ref_exacts, ref_values, ref_marks = _column(spec, pts, xs, maxes, mode, places)
        assert exacts == ref_exacts and values == ref_values
        assert [m if isinstance(m, tuple) else str(m) for m in marks] == [
            m if isinstance(m, tuple) else str(m) for m in ref_marks
        ]
        dropped += sum(bool(m) and isinstance(m, tuple) for m in marks)
        support += sum(not isinstance(m, tuple) for m in marks)
        for pt, q in zip(pts, exacts[0]):
            if q is not None:
                live = {c: _inf_ratio(pt, c) for c in spec.components if c.evaluate(pt)}
                assert Fraction(*q) == min(live.values())
                # two different forms share the least value
                ties += list(live.values()).count(Fraction(*q)) > 1
    assert dropped >= 10 and support >= 10 and ties >= 20


def _seeded_mark_columns():
    """Mark columns of the kernel over _subscheme_columns in both modes (all
    three kinds of mark), one per form target (all () or hits), and seeded
    columns drawn from (), dropped-component tuples and SupportErrors."""
    for spec, pts in _subscheme_columns():
        xs = _coordinate_columns(pts)
        for target in (spec,) + spec.components:
            for mode in ("lenient", "strict"):
                yield pts, target, mode, _column(target, pts, xs, (), mode, ())[2]
    rng = random.Random(37)
    kinds = [(), (1,), (2, 3), None]  # None: a support hit
    for _ in range(300):
        weights = [rng.randint(1, 20), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)]
        col = rng.choices(kinds, weights, k=rng.randint(0, 30))
        yield None, None, None, [
            SupportError("hit %d" % i) if m is None else m for i, m in enumerate(col)
        ]


def test_support_hits_match_the_sampler_decode():
    seen = {"none": 0, "dropped": 0, "hits": 0}
    for pts, target, mode, marks in _seeded_mark_columns():
        hits = _hits(marks)
        assert hits == support_hits_by_decode(marks)
        assert hits == [i for i, m in enumerate(marks) if isinstance(m, SupportError)]
        seen["none"] += marks.count(()) == len(marks)
        seen["dropped"] += any(m and isinstance(m, tuple) for m in marks)
        seen["hits"] += bool(hits)
        if hits:
            with pytest.raises(SupportError) as err:
                _raise_hit(marks)
            assert err.value is marks[hits[0]]
        else:
            _raise_hit(marks)
        if pts is not None:
            assert [is_on_support(pt, target, mode) for pt in pts] == [
                i in hits for i in range(len(pts))
            ]
    assert min(seen.values()) >= 20
