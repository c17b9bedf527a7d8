"""Exact linear algebra: rank, nullspace, rowspace intersection."""

import random
from fractions import Fraction

from subgeneral.linalg import (
    annihilator_products,
    combine,
    in_rowspace,
    intersect_rowspaces,
    nullspace,
    primitive,
    rank_rows,
)

from oracles import nullspace_by_rref, rank_fraction_gauss


def rand_matrix(rng, nrows, ncols, hi=6):
    return [[rng.randint(-hi, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_matches_oracle_on_seeded_matrices():
    rng = random.Random(11)
    for _ in range(300):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 5))
        assert rank_rows(m) == rank_fraction_gauss(m)


def test_rank_accepts_rational_rows():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rank_rows(rows) == rank_fraction_gauss(rows)


def test_rank_edge_cases():
    assert rank_rows([]) == 0
    assert rank_rows([[0, 0, 0]]) == 0
    assert rank_rows([[1, 0], [0, 1]]) == 2
    assert rank_rows([[1, 2], [2, 4], [3, 6]]) == 1


def test_primitive_canonicalizes():
    assert primitive([4, 6, 10]) == (2, 3, 5)
    assert primitive([-4, -6, -10]) == (2, 3, 5)
    assert primitive([0, Fraction(-1, 2)]) == (0, 1)
    assert primitive([Fraction(1, 3), Fraction(1, 6)]) == (2, 1)


def test_nullspace_is_a_kernel_basis():
    rng = random.Random(13)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
        m = rand_matrix(rng, nrows, ncols)
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - rank_rows(m)
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        if basis:
            assert rank_rows(basis) == len(basis)


def test_integer_nullspace_matches_the_rref_basis():
    rng = random.Random(17)
    shapes = {"zero row": 0, "duplicate row": 0, "wide": 0, "tall": 0}
    for _ in range(600):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, nrows, ncols, hi=rng.choice((1, 3, 50, 10**6)))
        if rng.random() < 0.3:
            m.insert(rng.randrange(nrows + 1), [0] * ncols)
            shapes["zero row"] += 1
        if rng.random() < 0.3:
            m.insert(rng.randrange(len(m) + 1), list(rng.choice(m)))
            shapes["duplicate row"] += 1
        shapes["wide"] += ncols > len(m)
        shapes["tall"] += len(m) > ncols
        assert nullspace(m, ncols) == nullspace_by_rref(m, ncols)
        # rational rows span the same lines as their primitive integer rows
        scaled = [[Fraction(x, 3) for x in row] for row in m]
        assert nullspace(scaled, ncols) == nullspace_by_rref(m, ncols)
    assert min(shapes.values()) >= 50, shapes


def test_nullspace_of_identity_is_empty():
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_in_rowspace():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert in_rowspace([1, 1, 2], rows)
    assert in_rowspace([2, -3, -1], rows)
    assert not in_rowspace([0, 0, 1], rows)


def test_intersect_rowspaces_frozen_cases():
    a = [(1, 0, 0), (0, 1, 0)]
    b = [(1, 1, 0), (0, 0, 1)]
    meet = intersect_rowspaces(a, b, 3)
    assert len(meet) == 1
    assert primitive(meet[0]) in ((1, 1, 0),)

    disjoint = intersect_rowspaces([(1, 0, 0)], [(0, 1, 0)], 3)
    assert disjoint == []

    contained = intersect_rowspaces(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert len(contained) == 2


def test_intersect_rowspaces_properties():
    rng = random.Random(14)
    for _ in range(150):
        ncols = rng.randint(2, 5)
        a = rand_matrix(rng, rng.randint(1, 3), ncols)
        b = rand_matrix(rng, rng.randint(1, 3), ncols)
        meet = intersect_rowspaces(a, b, ncols)
        for vec in meet:
            assert in_rowspace(vec, a)
            assert in_rowspace(vec, b)
        expected = rank_rows(a) + rank_rows(b) - rank_rows(a + b)
        assert len(meet) == expected
        if meet:
            assert rank_rows(meet) == len(meet)


def test_combine_matches_fraction_sums():
    rng = random.Random(15)
    for _ in range(300):
        ncols, nrows = rng.randint(1, 6), rng.randint(1, 5)
        rows = rand_matrix(rng, nrows, ncols, hi=10**6)
        if rng.random() < 0.5:
            rows = [[Fraction(a, rng.randint(1, 9)) for a in row] for row in rows]
        coeffs = [rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))
                  for _ in range(nrows)]
        expected = [sum((Fraction(c) * row[i] for c, row in zip(coeffs, rows)), Fraction(0))
                    for i in range(ncols)]
        got = combine(coeffs, rows)
        assert got == expected and len(got) == ncols
    assert combine([0, 0], [[1, 2], [3, 4]]) == [0, 0]
    assert combine([2, 0], [[1, 2], [Fraction(1, 3), 4]]) == [2, 4]


def test_annihilator_products_match_in_rowspace():
    rng = random.Random(16)
    for _ in range(200):
        ncols = rng.randint(2, 6)
        rows = rand_matrix(rng, rng.randint(1, 4), ncols, hi=4)
        # half the vectors are combinations of the rows, so members occur
        vectors = [
            combine(rand_matrix(rng, 1, len(rows))[0], rows)
            if rng.random() < 0.5
            else rand_matrix(rng, 1, ncols)[0]
            for _ in range(rng.randint(1, 6))
        ]
        products = annihilator_products(vectors, rows, ncols)
        assert len(products) == len(nullspace(rows, ncols))
        for i, v in enumerate(vectors):
            assert (not any(p[i] for p in products)) == in_rowspace(v, rows)
