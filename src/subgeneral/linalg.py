"""Exact linear algebra over Q for small dense matrices.

Everything here is used on matrices with at most a handful of rows and
columns, so clarity and exactness win over asymptotics.  Integer inputs take
a fraction-free elimination path (rank_rows); rational reductions go through
a plain Gaussian RREF on Fractions.

Rowspace membership: in_rowspace compares two ranks, two eliminations per
vector.  Over Q the rowspace of E is the annihilator of its nullspace, so a
caller that tests many vectors against one E computes an integer basis N =
nullspace(E) once; v lies in rowspace(E) exactly when every dot product
v . N_j is zero.  The combination construction and the exceptional scan test
membership this way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rank_rows(rows) -> int:
    """Rank over Q of a sequence of equal-length integer/rational rows."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    if all(isinstance(x, int) for row in mat for x in row):
        return _rank_int(mat)
    red, pivots = rref([[Fraction(x) for x in row] for row in mat])
    return len(pivots)


def _rank_int(mat: list[list[int]]) -> int:
    # fraction-free Gaussian elimination with gcd trimming
    ncols = len(mat[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(mat):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        pval = prow[col]
        for r in range(rank + 1, len(mat)):
            v = mat[r][col]
            if v:
                row = mat[r]
                for c in range(col, ncols):
                    row[c] = row[c] * pval - v * prow[c]
                g = 0
                for c in range(col, ncols):
                    g = gcd(g, row[c])
                if g > 1:
                    for c in range(col, ncols):
                        row[c] //= g
        rank += 1
        col += 1
    return rank


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    vals = list(vec)
    if all(isinstance(x, int) for x in vals):
        if not any(vals):
            raise ValueError("zero vector has no primitive form")
        ints = vals
    else:
        fr = [Fraction(x) for x in vals]
        if not any(fr):
            raise ValueError("zero vector has no primitive form")
        mult = 1
        for f in fr:
            mult = mult * f.denominator // gcd(mult, f.denominator)
        ints = [int(f * mult) for f in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : row . x = 0 for all rows}."""
    live = [row for row in rows if any(row)]
    if not live:
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(live)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(primitive(vec))
    return basis


def in_rowspace(vec, rows) -> bool:
    base = [row for row in rows if any(row)]
    if not any(vec):
        return True
    if not base:
        return False
    return rank_rows(base + [list(vec)]) == rank_rows(base)


def intersect_rowspaces(rows_a, rows_b, ncols: int) -> list[tuple[int, ...]]:
    """Primitive basis of rowspace(A) intersect rowspace(B).

    Over Q the rowspace of B is the annihilator of its nullspace, so u.A lies
    in rowspace(B) iff u.(A N^T) = 0 for a nullspace basis N of B.
    """
    a = [list(r) for r in rows_a if any(r)]
    if not a:
        return []
    nb = nullspace(rows_b, ncols)
    if not nb:
        reduced, _ = rref(a)
        return [primitive(r) for r in reduced]
    # m[i][k] = a_i . nb_k; u.A in rowspace(B) iff u is in the left
    # nullspace of m, i.e. the nullspace of its transpose
    m = [[sum(Fraction(ai) * bk for ai, bk in zip(row, nvec)) for nvec in nb] for row in a]
    mt = [[m[i][k] for i in range(len(a))] for k in range(len(nb))]
    coeffs = nullspace(mt, len(a))
    span = []
    for u in coeffs:
        vec = [Fraction(0)] * ncols
        for ui, row in zip(u, a):
            if ui:
                for c in range(ncols):
                    vec[c] += ui * row[c]
        if any(vec):
            span.append(vec)
    if not span:
        return []
    reduced, _ = rref(span)
    return [primitive(r) for r in reduced]
