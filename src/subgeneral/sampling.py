"""Deterministic seeded samplers of rational points on a linear subvariety X
within a height window.

There is one acceptance loop over a candidate stream per geometry: the
parameter sweep on a curve, seeded draws otherwise, built a block of
attempts at a time.  It groups the excluded supports into restriction
classes (linear forms that take equal values at every point of X share one)
and tests each batch of candidates against each class with the kernel of the
local-value module, called lean and with no places, so no returned point
lies on a support.  It keeps each class's component columns over the points
it accepts, one set of lists shared by every member, and the experiments'
ledger and chain summary read them, so a report evaluates each class once.
Exhaustive windows predicted to need more than _SWEEP_BUDGET
sampler attempts are refused; a count-limited sweep or random draw stops
there with a partial sample.
"""

from __future__ import annotations

import math
import random
from itertools import compress, repeat
from math import gcd
from operator import mul

from ._frozen import Frozen
from .errors import ArgumentError
from .linalg import primitive
from .projective import (
    LinearForm,
    LinearSubvariety,
    ProjPoint,
    linear_column,
    point_from_canonical,
)
from .weil import Target, _column, _component_columns, _coordinate_columns


class SampleResult(Frozen):
    """The sample, and per excluded support its component columns over the
    points (weil._component_columns), which the ledger and the chain summary
    read instead of evaluating again.  The members of a restriction class map
    to one and the same list of columns, which the ledger reads as the sign
    that their values agree.  columns is no field, so it takes no part in ==,
    hash or repr."""

    points: tuple[ProjPoint, ...]
    partial: bool
    attempts: int

    def __init__(self, points, partial: bool, attempts: int, columns: dict | None = None):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "partial", partial)
        object.__setattr__(self, "attempts", attempts)
        object.__setattr__(self, "columns", {} if columns is None else columns)


# Exhaustive sweeps predicted to need more attempts than this are refused.
_SWEEP_BUDGET = 2_000_000


def _int_window(h_min: float, h_max: float) -> tuple[int, int]:
    """Largest integer window [lo, hi] with h_min <= log(m) <= h_max; a
    bound that is not finite, or h_max > 500, is refused."""
    if h_max > 500:
        raise ArgumentError("height window beyond supported range")
    if not (math.isfinite(h_min) and math.isfinite(h_max)):
        raise ArgumentError("height window bounds must be finite")
    hi = max(int(math.exp(h_max)), 0)
    while hi >= 1 and math.log(hi) > h_max:
        hi -= 1
    while math.log(hi + 1) <= h_max:
        hi += 1
    lo = max(int(math.ceil(math.exp(h_min))), 1)
    while lo > 1 and math.log(lo - 1) >= h_min:
        lo -= 1
    while math.log(lo) < h_min:
        lo += 1
    return lo, hi


def _coprime_pairs(m: int):
    """Canonical coprime pairs (s, t) with max(|s|, |t|) == m, s-major order."""
    if m == 1:
        yield (0, 1)
    for s in range(1, m + 1):
        if s < m:
            if gcd(s, m) == 1:
                yield (s, -m)
                yield (s, m)
        else:
            for t in range(-m, m + 1):
                if gcd(m, abs(t)) == 1:
                    yield (s, t)


def _line_param_bound(basis, hi: int) -> int:
    """Parameter bound: height <= log(hi) forces max(|s|, |t|) <= bound.

    For any coordinate pair (i, j) with invertible minor, det*(s, t) is the
    adjugate times (x_i, x_j), and the coordinate content divides det, so
    max(|s|, |t|) <= rowsum(adjugate) * hi for that pair.
    """
    b1, b2 = basis
    best = None
    for i in range(len(b1)):
        for j in range(i + 1, len(b1)):
            if b1[i] * b2[j] - b1[j] * b2[i]:
                c = max(abs(b2[i]) + abs(b2[j]), abs(b1[i]) + abs(b1[j]))
                if best is None or c * hi < best:
                    best = c * hi
    if best is None:
        raise ArgumentError("degenerate kernel basis")
    return best


def sample_points(
    variety: LinearSubvariety,
    h_min: float,
    h_max: float,
    count: int | None,
    seed: int,
    excluded: tuple[Target, ...] = (),
    mode: str = "lenient",
) -> SampleResult:
    """Deterministic point sample on X within a height window.

    Curves get an exhaustive parameter sweep (count=None means every point
    in the window); higher-dimensional X gets seeded uniform draws from the
    coordinate box, deduplicated, with at most min(200*count + 1000,
    _SWEEP_BUDGET) attempts.  Either candidate stream feeds one acceptance
    loop, which skips the points on any excluded support by the support
    test of the local-value kernel.
    """
    if count == 0:
        return SampleResult((), False, 0)
    lo, hi = _int_window(h_min, h_max)
    if hi < 1 or lo > hi:
        return SampleResult((), False, 0)
    basis = variety.kernel_basis()
    if variety.dim > 1:
        if count is None:
            raise ArgumentError("exhaustive sampling is only available when dim X == 1")
        cap = min(200 * count + 1000, _SWEEP_BUDGET)
        stream = _draw_stream(variety, lo, hi, seed)
        return _accept(stream, count, cap, excluded, mode, basis)

    # |s*b1_i + t*b2_i| <= m*C with C = max_i(|b1_i| + |b2_i|), so a parameter
    # m with m*C < lo cannot reach the window; on P^1, whose basis is the unit
    # vectors, this is the window itself
    c = max(abs(x) + abs(y) for x, y in zip(*basis))
    m_lo, m_hi = max(1, -(-lo // c)), _line_param_bound(basis, hi)
    # the sweep makes 4*sum(phi(m)) attempts for m_lo <= m <= m_hi, about
    # (12/pi^2) * (m_hi^2 - (m_lo-1)^2); compared in pi^2 units, which a
    # huge int does not overflow
    sweep = 12 * (m_hi**2 - (m_lo - 1) ** 2)
    if count is None and sweep > _SWEEP_BUDGET * math.pi**2:
        raise ArgumentError(
            "exhaustive window up to parameter %d needs more than %d sampler "
            "attempts; narrow the height window or set sample_count"
            % (m_hi, _SWEEP_BUDGET)
        )
    # a count-limited sweep is never refused, so it stops at the budget
    cap = None if count is None else _SWEEP_BUDGET
    stream = _line_stream(basis, lo, hi, m_lo, m_hi)
    return _accept(stream, count, cap, excluded, mode, basis)


def _line_stream(basis, lo: int, hi: int, m_lo: int, m_hi: int):
    """The sweep's candidates, one per parameter pair (s, t) in
    _coprime_pairs order: primitive(s*b1 + t*b2) when its height lies in the
    window, else None.  On P^1 the pairs are the coordinates, all inside."""
    pairs = (st for m in range(m_lo, m_hi + 1) for st in _coprime_pairs(m))
    if len(basis[0]) == 2:
        return pairs
    # b1, b2 are independent and (s, t) != 0, so no vector is 0
    vecs = (primitive([s * x + t * y for x, y in zip(*basis)]) for s, t in pairs)
    return (v if lo <= max(map(abs, v)) <= hi else None for v in vecs)


# Attempts that _draw_stream draws and builds at a time.
_DRAW_BLOCK = 512


def _draw_stream(variety: LinearSubvariety, lo: int, hi: int, seed: int):
    """Seeded draws u . basis, u in [-hi, hi]^(n+1), one per attempt: the
    primitive coordinates the first time they are drawn inside the window,
    else None.

    Each u_i is random.Random(seed).randint(-hi, hi) as CPython 3.10-3.12
    draws it: r = getrandbits(k) with k = (2*hi+1).bit_length(), drawn again
    while r >= 2*hi+1, and u_i = r - hi; u_0..u_n per attempt, attempt after
    attempt.  The draws of _DRAW_BLOCK attempts are taken at once, and their
    vectors built one coordinate column at a time (linear_column over the
    columns of u); the primitive vector is the column's gcd per attempt and
    a sign flip.  Dedup, the window test and the yields stay one per attempt.
    """
    getrandbits = random.Random(seed).getrandbits
    basis = variety.kernel_basis()
    rows = list(zip(*basis))  # coordinate i of every basis vector
    nb = len(basis)
    width = 2 * hi + 1
    k = width.bit_length()
    need = _DRAW_BLOCK * nb
    pending: list[int] = []
    seen = set()
    while True:
        # the rng serves this stream only, so draws past the block wait in
        # pending, in order, for the next block
        while len(pending) < need:
            pending += [r - hi for r in map(getrandbits, repeat(k, need)) if r < width]
        drawn, pending = pending[:need], pending[need:]
        us = [drawn[j::nb] for j in range(nb)]
        cols = [linear_column(row, us) for row in rows]
        tops = map(max, *[map(abs, col) for col in cols])
        for vec, g, top in zip(zip(*cols), map(gcd, *cols), tops):
            # max|coords| = top / g, so the window test needs no division
            if not g or not lo * g <= top <= hi * g:
                yield None
                continue
            for x in vec:
                if x:
                    break
            if x < 0:
                g = -g
            coords = vec if g == 1 else tuple([x // g for x in vec])
            if coords in seen:
                yield None
            else:
                seen.add(coords)
                yield coords


def _restriction_classes(excluded, basis) -> list[list]:
    """The distinct excluded targets, in order of first appearance, grouped
    into restriction classes: linear forms with equal values L.b at every
    vector b of X's kernel basis take equal values at every point of X, and
    share a class; any other target is a class of its own."""
    classes: dict = {}
    for target in dict.fromkeys(excluded):
        key = target
        if isinstance(target, LinearForm) and len(target.coeffs) == len(basis[0]):
            key = tuple(sum(map(mul, target.coeffs, b)) for b in basis)
        classes.setdefault(key, []).append(target)
    return list(classes.values())


def _accept(stream, count, cap, excluded, mode: str, basis) -> SampleResult:
    """The first count candidates of the stream on no excluded support (all
    of them when count is None), in at most cap attempts (None: no cap).

    A batch never holds more candidates than would complete the count if
    none sat on a support, so the result is the point-by-point loop's.  Its
    support test is one lean kernel call per restriction class, on the
    class's component columns, which are kept for the accepted points and
    shared by every member of the class."""
    classes = _restriction_classes(excluded, basis)
    kept: dict = {}  # target -> its component columns over out
    out: list[ProjPoint] = []
    attempts, more = 0, True
    while more and attempts != cap and (count is None or len(out) < count):
        need = None if count is None else count - len(out)
        batch, more = [], False
        for coords in stream:
            attempts += 1
            if coords is not None:
                batch.append(point_from_canonical(coords))
            if len(batch) == need or attempts == cap:
                more = True
                break
        if not batch:
            continue
        xs = _coordinate_columns(batch)
        hits = set()
        batch_cols = []
        for first, *_ in classes:
            cols = _component_columns(first, batch, xs)
            hits.update(_column(first, batch, xs, (), mode, (), cols, lean=True)[2])
            batch_cols.append(cols)
        keep = [i not in hits for i in range(len(batch))] if hits else None
        out += batch if keep is None else compress(batch, keep)
        for members, cols in zip(classes, batch_cols):
            acc = kept.get(members[0])
            if acc is None:
                acc = [[] for _ in cols]
                kept.update(dict.fromkeys(members, acc))
            for a, col in zip(acc, cols):
                a += col if keep is None else compress(col, keep)
    partial = count is not None and len(out) < count
    return SampleResult(tuple(out), partial, attempts, kept)
