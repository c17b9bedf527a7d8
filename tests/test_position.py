"""Exact subgeneral/general position verdicts against the brute-force oracle."""

import random

import pytest

from subgeneral import linalg
from subgeneral import (
    ArgumentError,
    HomForm,
    LinearForm,
    LinearSubvariety,
    check_general,
    check_subgeneral,
    projective_space,
    violations_at,
)

from subgeneral.position import greedy_basis

from gen import rand_linear_form, strict_arrangement
from oracles import rank_int_crossmul, subgeneral_bruteforce, witnesses_by_rank

P2 = projective_space(2)
X_LINE = LinearSubvariety(2, (LinearForm((0, 0, 1)),))


def forms(*rows):
    return [LinearForm(r) for r in rows]


def test_check_subgeneral_concurrent_lines():
    report = check_subgeneral(forms((1, 0, 0), (0, 1, 0), (1, 1, 0)), P2, 2)
    assert not report.verdict
    assert report.witnesses[0].subset == (1, 2, 3)
    assert report.witnesses[0].dim == 0
    assert report.witnesses[0].allowed == -1


def test_check_subgeneral_simplex_plus_sum():
    fam = forms((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    assert check_subgeneral(fam, P2, 2).verdict


def test_check_subgeneral_on_embedded_line():
    fam = forms((1, 0, 0), (0, 1, 0), (1, -1, 0))
    assert check_subgeneral(fam, X_LINE, 2).verdict


def test_check_general_frozen_cases():
    assert check_general(forms((1, 0, 0), (0, 1, 0), (0, 0, 1)), P2).verdict
    assert check_general(forms((1, 0), (0, 1)), projective_space(1)).verdict
    report = check_general(forms((1, 0), (2, 0)), projective_space(1))
    assert not report.verdict


def test_level_below_dim_rejected():
    with pytest.raises(ArgumentError):
        check_subgeneral(forms((1, 0, 0)), P2, 1)


def test_witness_order_smallest_first_then_lex():
    fam = forms((1, 0, 0), (2, 0, 0), (3, 0, 0))
    report = check_subgeneral(fam, P2, 2)
    sizes = [len(w.subset) for w in report.witnesses]
    assert sizes == sorted(sizes)
    for a, b in zip(report.witnesses, report.witnesses[1:]):
        if len(a.subset) == len(b.subset):
            assert a.subset < b.subset
    assert report.verdict == (not report.witnesses)


def test_verdict_only_mode_stops_early():
    fam = forms((1, 0, 0), (2, 0, 0), (3, 0, 0))
    full = check_subgeneral(fam, P2, 2)
    quick = check_subgeneral(fam, P2, 2, verdict_only=True)
    assert quick.verdict == full.verdict is False
    assert not quick.complete
    assert len(quick.witnesses) == 1
    assert full.complete


def test_verdict_only_returns_the_smallest_witness_found_after_a_larger_one():
    # {1, 2, 3} are concurrent (size 3) and comes first lexicographically;
    # {4, 5} is a repeated line (size 2), the first witness in size order
    fam = forms((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 1))
    full = check_subgeneral(fam, P2, 2)
    quick = check_subgeneral(fam, P2, 2, verdict_only=True)
    assert full.witnesses[0].subset == (4, 5)
    assert (1, 2, 3) in [w.subset for w in full.witnesses]
    assert quick.witnesses == full.witnesses[:1]
    assert not quick.complete


def test_monotone_in_level():
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randint(1, 3)
        fam = [rand_linear_form(rng, m, hi=2) for _ in range(rng.randint(m + 1, 6))]
        space = projective_space(m)
        verdicts = [
            check_subgeneral(fam, space, level).verdict
            for level in range(m, len(fam) + 2)
        ]
        # once true, true at every higher level
        assert verdicts == sorted(verdicts)


def test_permutation_and_scaling_invariance():
    rng = random.Random(32)
    for _ in range(60):
        m = rng.randint(1, 3)
        fam = [rand_linear_form(rng, m, hi=2) for _ in range(rng.randint(m + 1, 5))]
        space = projective_space(m)
        level = rng.randint(m, len(fam))
        base = check_subgeneral(fam, space, level).verdict
        shuffled = fam[:]
        rng.shuffle(shuffled)
        assert check_subgeneral(shuffled, space, level).verdict == base
        scaled = [LinearForm(tuple(3 * c for c in f.coeffs)) for f in fam]
        assert check_subgeneral(scaled, space, level).verdict == base


def test_agrees_with_bruteforce_oracle_spot_checks():
    rng = random.Random(33)
    for _ in range(150):
        m = rng.randint(1, 3)
        q = rng.randint(m + 1, 6)
        fam = [rand_linear_form(rng, m, hi=2) for _ in range(q)]
        space = projective_space(m)
        for level in range(m, q):
            assert (
                check_subgeneral(fam, space, level).verdict
                == subgeneral_bruteforce(fam, space, level)
            )


def test_oracle_agreement_on_embedded_varieties():
    rng = random.Random(34)
    for _ in range(60):
        variety = X_LINE
        fam = [rand_linear_form(rng, 2, hi=2) for _ in range(rng.randint(2, 5))]
        for level in range(1, len(fam)):
            assert (
                check_subgeneral(fam, variety, level).verdict
                == subgeneral_bruteforce(fam, variety, level)
            )


def test_violations_at_allows_probing_below_dim():
    fam = forms((1, 0, 0), (0, 1, 0), (1, -1, 0))
    assert violations_at(fam, X_LINE, 2) == ()
    assert violations_at(fam, X_LINE, 0) != ()
    with pytest.raises(ArgumentError):
        violations_at(fam, X_LINE, -1)


def test_report_json_round_trip_shape():
    report = check_subgeneral(forms((1, 0, 0), (0, 1, 0), (1, 1, 0)), P2, 2)
    data = report.to_json_dict()
    assert data["verdict"] is False
    assert data["level"] == 2
    assert data["q"] == 3
    assert data["witnesses"][0]["subset"] == [1, 2, 3]


def test_violations_at_validates_its_input():
    ok = forms((1, 0, 0), (0, 1, 0))
    # a form on P^3 and a form on P^1 against X = P^2, a quadric, no forms
    for bad in (
        ok + forms((1, 0, 0, 1)),
        ok + forms((1, 1)),
        ok + [HomForm(2, 2, (1, 0, 0, 0, 0, 1))],
        [],
    ):
        with pytest.raises(ArgumentError):
            violations_at(bad, P2, 1)
        with pytest.raises(ArgumentError):
            check_subgeneral(bad, P2, 2)


def _sweep_cases(rng, count):
    """Seeded (family, X) pairs: X of codimension 0..3 in P^1..P^4, up to 7
    forms with coefficients in [-2, 2], about a third with a repeated form,
    and some with forms through a common point so intersections stay
    nonempty."""
    for _ in range(count):
        ambient = rng.randint(1, 4)
        codim = rng.randint(0, ambient - 1)
        while True:
            cut = [rand_linear_form(rng, ambient, hi=2) for _ in range(codim)]
            try:
                variety = LinearSubvariety(ambient, tuple(cut))
                break
            except ArgumentError:
                continue
        q = rng.randint(1, 7)
        fam = [rand_linear_form(rng, ambient, hi=2) for _ in range(q)]
        if q > 1 and rng.random() < 0.35:
            fam[rng.randrange(q)] = fam[rng.randrange(q)]
        if rng.random() < 0.2:
            # every form vanishes at [1:0:...:0]
            fam = [
                f if f.coeffs[0] == 0 else LinearForm((0,) + f.coeffs[1:])
                for f in fam
                if any(f.coeffs[1:])
            ] or fam
        yield fam, variety


def test_sweep_matches_the_rank_oracle():
    rng = random.Random(41)
    seen = {
        "q > l+1": 0,
        "repeated": 0,
        "codim >= 2": 0,
        "below dim X": 0,
        "pruned": 0,
        "q <= l+1, full rank": 0,
        "q <= l+1, rank-deficient": 0,
        "q <= l+1, rank-deficient, passes": 0,
    }
    for fam, variety in _sweep_cases(rng, 150):
        q = len(fam)
        full = rank_int_crossmul(
            [f.coeffs for f in variety.forms + tuple(fam)]
        ) == variety.ambient_dim + 1
        for level in range(0, q + 2):
            want, _ = witnesses_by_rank(fam, variety, level)
            got = violations_at(fam, variety, level)
            assert [(w.subset, w.dim, w.allowed) for w in got] == want
            top = min(level + 1, q)
            seen["q > l+1"] += q > level + 1
            seen["repeated"] += len(set(fam)) < q
            seen["codim >= 2"] += len(variety.forms) >= 2
            seen["below dim X"] += level < variety.dim
            # some n+1 forms already meet X in the empty set below the top
            # size, so the sweep stops extending those subsets
            seen["pruned"] += variety.dim + 1 < top and full
            # the rank rule decides these families before any sweep
            seen["q <= l+1, full rank"] += q <= level + 1 and full
            seen["q <= l+1, rank-deficient"] += q <= level + 1 and not full
            seen["q <= l+1, rank-deficient, passes"] += (
                q <= level + 1 and not full and not want
            )
            if level < variety.dim:
                continue
            for verdict_only in (False, True):
                want, complete = witnesses_by_rank(fam, variety, level, verdict_only)
                report = check_subgeneral(fam, variety, level, verdict_only)
                assert [(w.subset, w.dim, w.allowed) for w in report.witnesses] == want
                assert report.complete == (complete or not want)
                assert report.verdict == (not want)
    assert min(seen.values()) >= 10, seen


def test_generic_forms_at_the_top_level_take_one_echelon(count_calls):
    # 12 forms at level 11 pass by the rank rule; a subset sweep would grow
    # sum_{k <= 4} C(12, k) = 793 echelons on P^3
    rng = random.Random(13)
    fam = [rand_linear_form(rng, 3) for _ in range(12)]
    calls = count_calls(linalg.extend_echelon)
    report = check_subgeneral(fam, projective_space(3), 11)
    assert report.verdict and report.complete and report.witnesses == ()
    assert len(calls) <= 12


def test_greedy_basis_reduces_no_input_after_the_pick_that_reaches_the_rank(count_calls):
    # strict families whose greedy basis modulo X ends before their last
    # input: those inputs are never reduced, while the sweep's two cases (a
    # rank not reached, and rank 0) still reduce every input
    rng = random.Random(59)
    calls = count_calls(linalg.reduce_row)
    cut = 0
    for n in (1, 2, 3):
        for l in range(n + 1, 7):
            fam, variety = strict_arrangement(rng, n, l)
            last = greedy_basis(fam, variety, n + 1)[1][-1]
            cut += last < l
            for rank, stop in ((n + 1, last + 1), (n + 2, l + 1), (0, l + 1)):
                del calls[:]
                reduced, picks = greedy_basis(fam, variety, rank)
                # the input reductions, not the echelon's
                inputs = [a for a in calls if any(a[1] is f.coeffs for f in fam)]
                assert len(reduced) == len(inputs) == stop
                assert len(picks) == min(rank, n + 1)
    assert cut >= 5
