import itertools

import subgeneral
from perfbench.workloads import ChainCertify, CurveExhaustive, FreshFamilies, _rng


def test_fresh_families_outlast_the_smallest_class():
    # (n, l) = (1, 1) has 120 families with coefficients in [-3, 3]; a chain
    # pass draws 8/15 of one, so 2,000 draws are over 3,700 passes
    families = FreshFamilies(subgeneral)
    rng = _rng(1, 0, "test")
    keys = set()
    for _ in range(2000):
        forms, variety = families.draw(rng, 1, 1)
        keys.add(tuple(sorted(f.coeffs for f in forms)))
    assert len(keys) == 2000
    assert families.width[(1, 1)] > 3


def test_chain_inputs_start_with_the_narrow_coefficients():
    wl = ChainCertify(subgeneral, 1, None)
    families, points = wl.next_inputs()
    assert len(families) == wl.certs_per_pass and len(points) == wl.points_per_pass
    assert set(wl.families.width.values()) == {3}


def test_curve_pairs_never_repeat_or_run_out():
    wl = CurveExhaustive(subgeneral, 1, None)
    pairs = list(itertools.islice(wl.pairs, 3 * 900))
    assert len(set(pairs)) == len(pairs)
    assert max(a for a, _ in pairs) == 90
