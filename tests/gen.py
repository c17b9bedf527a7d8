"""Seeded input generators shared by the unit and acceptance tests."""

import random
from fractions import Fraction

from subgeneral import (
    HomForm,
    INF,
    LinearForm,
    LinearSubvariety,
    ProjPoint,
    SupportError,
    check_general,
    local_weil,
    monomials,
    projective_space,
    violations_at,
)


def rand_fraction(rng: random.Random, bound: int = 10**12) -> Fraction:
    num = rng.randint(1, bound) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, bound))


def rand_point(rng: random.Random, dim: int, hi: int = 60) -> ProjPoint:
    while True:
        coords = tuple(rng.randint(-hi, hi) for _ in range(dim + 1))
        if any(coords):
            return ProjPoint(coords)


def rand_linear_form(rng: random.Random, dim: int, hi: int = 5) -> LinearForm:
    while True:
        coeffs = tuple(rng.randint(-hi, hi) for _ in range(dim + 1))
        if any(coeffs):
            return LinearForm(coeffs)


def rand_hom_form(rng: random.Random, dim: int, degree: int, hi: int = 4) -> HomForm:
    while True:
        coeffs = tuple(rng.randint(-hi, hi) for _ in monomials(dim + 1, degree))
        if any(coeffs):
            return HomForm(dim, degree, coeffs)


def is_on_support(point: ProjPoint, target, mode: str = "lenient") -> bool:
    """True when local_weil raises SupportError: the support convention does
    not depend on the place, so one place decides."""
    try:
        local_weil(point, target, INF, mode)
    except SupportError:
        return True
    return False


def point_off_targets(rng: random.Random, targets, dim: int, hi: int = 60) -> ProjPoint:
    while True:
        pt = rand_point(rng, dim, hi)
        if not any(is_on_support(pt, t, "strict") for t in targets):
            return pt


def strict_arrangement(rng: random.Random, n: int, l: int, max_tries: int = 400):
    """(forms, variety) with l+1 forms strictly l-subgeneral on dim-n X.

    l == n: a seeded general-position family; no lower level is possible
    because a single hyperplane already meets X in dimension n-1.
    l > n: X = {last coordinate = 0} in P^{n+1}; the first l-n+1 forms are
    x0 + c*x_last with distinct c, so they agree on X and their common zero
    there has dimension n-1, pinning the level at l; n seeded forms fill the
    family out.  Verified by a subset sweep at both l and l-1, with retries.
    """
    if l == n:
        variety = projective_space(n)
        for _ in range(max_tries):
            forms = [rand_linear_form(rng, n, hi=3) for _ in range(n + 1)]
            if check_general(forms, variety, verdict_only=True).verdict:
                rng.shuffle(forms)
                return forms, variety
        raise AssertionError("no general-position family after %d tries" % max_tries)
    ambient = n + 1
    axis = LinearForm(tuple([0] * ambient + [1]))
    variety = LinearSubvariety(ambient, (axis,))
    for _ in range(max_tries):
        block = []
        for c in rng.sample(range(0, 3 * l + 4), l - n + 1):
            coeffs = [0] * (ambient + 1)
            coeffs[0], coeffs[ambient] = 1, c
            block.append(LinearForm(tuple(coeffs)))
        forms = block + [rand_linear_form(rng, ambient, hi=3) for _ in range(n)]
        if violations_at(forms, variety, l):
            continue
        assert violations_at(forms, variety, l - 1), "block must pin the level"
        rng.shuffle(forms)
        return forms, variety
    raise AssertionError("no strict arrangement after %d tries" % max_tries)
