"""Exact linear algebra over Q for small dense matrices.

Everything here is used on matrices with at most a handful of rows and
columns, so clarity and exactness win over asymptotics.  rank_rows and
nullspace run one fraction-free elimination with gcd trimming: each row
enters as its primitive() integer row (same span, so rational input needs no
second path) and extends an integer row echelon (extend_echelon, which the
position sweep also grows one row per subset, and position.greedy_basis
one input at a time: an input that does not grow it lies in its
rowspace); _gauss_jordan finishes it to the RREF up to row
scale, which nullspace reads as a primitive basis, one vector per free
column, and intersect_rowspaces as primitive rows.

Rowspace membership: in_rowspace compares two ranks, two eliminations per
vector.  Over Q the rowspace of E is the annihilator of its nullspace, so
with an integer basis N = nullspace(E) a vector v lies in rowspace(E)
exactly when its products v . N_k (dot_products) are all zero, and a
combination c . vectors does exactly when c . P_k = 0 for every product
tuple P_k.  intersect_rowspaces and the exceptional scan test membership
this way; combine forms the integer (or rational) combinations themselves.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import mul


def rank_rows(rows) -> int:
    """Rank over Q of a sequence of equal-length integer/rational rows."""
    return len(_echelon(rows))


def _echelon(rows) -> list:
    """Integer echelon of the rowspace; rational rows enter as primitive()
    integer rows, which span the same line."""
    echelon: list = []
    for row in rows:
        if any(row):
            echelon = extend_echelon(echelon, primitive(row))
    return echelon


def reduce_row(echelon: list, row):
    """row reduced against an integer echelon: zero at every pivot column.

    An echelon is a list of (pivot column, integer row) pairs by ascending
    pivot, each row zero left of its pivot; [] is the echelon of no rows.
    The steps are fraction-free with gcd trimming, so the remainder is an
    integer row (row itself when no step applies).  Rows have one length.
    """
    for col, prow in echelon:
        v = row[col]
        if v:
            pv = prow[col]
            row = [pv * a - v * b for a, b in zip(row, prow)]
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
    return row


def extend_echelon(echelon: list, row) -> list:
    """Integer echelon of rowspace(echelon) + row.

    A row that reduces to zero gives back the same list; otherwise a new
    list holds the remainder at its leading column.
    """
    row = reduce_row(echelon, row)
    for lead, a in enumerate(row):
        if a:
            out = echelon.copy()
            insort(out, (lead, row))  # leads are distinct, rows never compared
            return out
    return echelon


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    vals = list(vec)
    if set(map(type, vals)) != {int}:
        fr = [Fraction(x) for x in vals]
        mult = lcm(*(f.denominator for f in fr))
        vals = [f.numerator * (mult // f.denominator) for f in fr]
    g = gcd(*vals)
    if not g:
        raise ValueError("zero vector has no primitive form")
    for x in vals:
        if x:
            if x < 0:
                g = -g
            break
    if g == 1:
        return tuple(vals)
    return tuple([x // g for x in vals])


def _gauss_jordan(rows) -> tuple[list[int], list[list[int]]]:
    """(pivot columns, integer rows) of the RREF of rows, each row up to a
    nonzero scale: the echelon with every pivot column cleared above its row,
    last pivot first."""
    echelon = _echelon(rows)
    pivots = [col for col, _ in echelon]
    rows = [row for _, row in echelon]
    for k in range(len(rows) - 1, 0, -1):
        for i in range(k):
            rows[i] = reduce_row([(pivots[k], rows[k])], rows[i])
    return pivots, rows


def nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : row . x = 0 for all rows}, one vector
    per free column of the reduced echelon form, in column order."""
    pivots, rows = _gauss_jordan(rows)
    # row i reads x[pivot_i] = -sum(row_i[f] * x[f]) / row_i[pivot_i] over
    # the free columns f
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[fc]))
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitive(vec))
    return basis


def in_rowspace(vec, rows) -> bool:
    base = [row for row in rows if any(row)]
    if not any(vec):
        return True
    if not base:
        return False
    return rank_rows(base + [list(vec)]) == rank_rows(base)


def combine(coeffs, rows) -> list:
    """sum c_i * row_i over the nonzero coefficients, as a list as long as
    the rows (int or Fraction entries; at least one row)."""
    total = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            total = [t + c * a for t, a in zip(total, row)]
    return total


def dot_products(vectors, basis) -> list[tuple[int, ...]]:
    """For each vector b of basis, the tuple of v . b over the given
    vectors: the matrix (vectors . basis^T), column by column."""
    return [tuple(sum(map(mul, v, b)) for v in vectors) for b in basis]


def intersect_rowspaces(rows_a, rows_b, ncols: int) -> list[tuple[int, ...]]:
    """Primitive basis of rowspace(A) intersect rowspace(B).

    u.A lies in rowspace(B) exactly when u . P_k = 0 for every tuple P_k of
    products of A's rows with the basis nullspace(B), so the u form the
    nullspace of those tuples.
    """
    a = [list(r) for r in rows_a if any(r)]
    coeffs = nullspace(dot_products(a, nullspace(rows_b, ncols)), len(a))
    span = [combine(u, a) for u in coeffs]
    return [primitive(r) for r in _gauss_jordan(span)[1]]
