"""Deterministic seeded samplers of rational points on a linear subvariety X
within a height window.

There is one acceptance loop over a candidate stream per geometry: the
parameter sweep on a curve, seeded draws otherwise.  Either stream hands
over a block of attempts at a time, each candidate as its canonical
coordinate tuple with its max|x_i|, which the stream has at hand (the
parameter m on P^1, the vector's max over its gcd in a draw).  The loop
groups the excluded supports into restriction classes (linear forms that
take equal values at every point of X share one) and tests each block
segment against each class with the kernel of the local-value module,
called lean and with no places, on the tuples, so no returned point lies on
a support.  It keeps each class's component columns over the points it
accepts, one set of lists shared by every member, and the experiments'
ledger and chain summary read them, so a report evaluates each class once.
The result keeps the tuples and builds ProjPoints only when its points are
read.  Exhaustive windows predicted to need more than _SWEEP_BUDGET sampler
attempts are refused; a count-limited sweep or random draw stops there
with a partial sample.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import cached_property
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
    wrong_space_error,
)
from .weil import Target, _column, _component_columns


class SampleResult(Frozen):
    """The sample, and per excluded support its component columns over the
    points (weil._component_columns), which the ledger and the chain summary
    read instead of evaluating again.  The members of a restriction class map
    to one and the same list of columns, which the ledger reads as the sign
    that their values agree.

    coords holds each point's canonical coordinate tuple and maxes its
    max|x_i|, which the report reads, and the ProjPoints of points are
    built only when points is first read.  columns, coords and maxes are no
    fields, so they take no part in ==, hash or repr."""

    points: tuple[ProjPoint, ...]
    partial: bool
    attempts: int

    def __init__(self, coords: list, maxes: list, partial: bool, attempts: int, columns=None):
        self.__dict__.update(
            coords=coords,
            maxes=maxes,
            partial=partial,
            attempts=attempts,
            columns={} if columns is None else columns,
        )

    @cached_property
    def points(self) -> tuple[ProjPoint, ...]:
        return tuple(map(point_from_canonical, self.coords))


# Exhaustive sweeps predicted to need more attempts than this are refused.
_SWEEP_BUDGET = 2_000_000


def _int_window(h_min: float, h_max: float) -> tuple[int, int]:
    """Largest integer window [lo, hi] with h_min <= log(m) <= h_max, read
    with the float math.log; a bound that is not finite, or h_max > 500, is
    refused."""
    if h_max > 500:
        raise ArgumentError("height window beyond supported range")
    if not (math.isfinite(h_min) and math.isfinite(h_max)):
        raise ArgumentError("height window bounds must be finite")
    hi = _least(lambda m: math.log(m) > h_max, int(math.exp(h_max)) + 1) - 1
    lo = _least(lambda m: math.log(m) >= h_min, math.ceil(math.exp(h_min)))
    return lo, hi


def _least(pred, guess: int) -> int:
    """Least m >= 1 with pred(m), for a pred that is false and then true
    along m >= 1: galloping out from guess to a bracket, then bisection.
    About e^h * ulp(h) integers near exp(h) share the float log h, so a walk
    one integer at a time would not end above h ~ 36; this makes O(h) calls."""
    lo, hi, step = max(guess, 1) - 1, max(guess, 1), 1
    while lo >= 1 and pred(lo) or not pred(hi):
        lo, hi, step = max(lo - step, 0), hi + step, 2 * step
    while hi - lo > 1:  # lo == 0 or not pred(lo), and pred(hi)
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _coprime_pairs(m: int):
    """Canonical coprime pairs (s, t) with max(|s|, |t|) == m, s-major order,
    in lists: the pairs of at most _DRAW_BLOCK values of s, then of t, at a
    time, so the first pairs of a huge m come at once.  The s-values are the
    units of m below it, each tested once: the t-values are +-(those units),
    or -1, 0, 1 when m == 1."""
    if m == 1:
        yield [(0, 1)]
    units: list = []
    for s0 in range(1, m, _DRAW_BLOCK):
        run = [s for s in range(s0, min(s0 + _DRAW_BLOCK, m)) if gcd(s, m) == 1]
        units += run
        yield [st for s in run for st in ((s, -m), (s, m))]
    ts = [-s for s in reversed(units)] + units if m > 1 else [-1, 0, 1]
    for t0 in range(-m, m + 1, _DRAW_BLOCK):
        yield [(m, t) for t in ts[bisect_left(ts, t0) : bisect_left(ts, t0 + _DRAW_BLOCK)]]


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
        return SampleResult([], [], False, 0)
    lo, hi = _int_window(h_min, h_max)
    if hi < 1 or lo > hi:
        return SampleResult([], [], False, 0)
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
    """The sweep's blocks (_sweep_blocks), one attempt per parameter pair
    (s, t).  Its candidate is primitive(s*b1 + t*b2) when its height lies in
    the window.  On P^1 the pairs are the coordinates, all inside, and
    max|x_i| is m."""
    direct = len(basis[0]) == 2
    rows = list(zip(*basis))
    for pairs, ms in _sweep_blocks(m_lo, m_hi):
        if direct:
            yield len(pairs), range(len(pairs)), pairs, ms
            continue
        at, coords, tops = [], [], []
        for i, (s, t) in enumerate(pairs):
            # b1, b2 are independent and (s, t) != 0, so no vector is 0
            vec = primitive([s * x + t * y for x, y in rows])
            top = max(map(abs, vec))
            if lo <= top <= hi:
                at.append(i)
                coords.append(vec)
                tops.append(top)
        yield len(pairs), at, coords, tops


def _sweep_blocks(m_lo: int, m_hi: int):
    """The parameter pairs of m_lo <= m <= m_hi, m after m in _coprime_pairs
    order, with the m of each pair: lists of whole runs of _coprime_pairs,
    at least _DRAW_BLOCK pairs a block but the last, and at most three
    times that, however large m is."""
    pairs: list = []
    ms: list = []
    for m in range(m_lo, m_hi + 1):
        for run in _coprime_pairs(m):
            pairs += run
            ms += [m] * len(run)
            if len(pairs) >= _DRAW_BLOCK:
                yield pairs, ms
                pairs, ms = [], []
    if pairs:
        yield pairs, ms


# Attempts that _draw_stream draws and builds at a time, the least number
# of attempts in a block of _line_stream but its last, and the values of s
# or t that a run of _coprime_pairs walks.
_DRAW_BLOCK = 512


def _draw_stream(variety: LinearSubvariety, lo: int, hi: int, seed: int):
    """Seeded draws u . basis, u in [-hi, hi]^(n+1), one per attempt, in
    blocks of _DRAW_BLOCK attempts.  An attempt's candidate is the primitive
    vector the first time it is drawn inside the window.

    Each u_i is random.Random(seed).randint(-hi, hi) as CPython 3.10-3.12
    draws it: r = getrandbits(k) with k = (2*hi+1).bit_length(), drawn again
    while r >= 2*hi+1, and u_i = r - hi; u_0..u_n per attempt, attempt after
    attempt.  A block's draws are taken at once, and its vectors built one
    coordinate column at a time (linear_column over the columns of u); the
    primitive vector is the column's gcd per attempt and a sign flip, and
    its max|x_i| is the vector's max|.| over that gcd.
    """
    getrandbits = random.Random(seed).getrandbits
    basis = variety.kernel_basis()
    rows = list(zip(*basis))  # coordinate i of every basis vector
    nb = len(basis)
    width = 2 * hi + 1
    k = width.bit_length()
    need = _DRAW_BLOCK * nb
    pending: list[int] = []
    seen: set = set()
    while True:
        # the rng serves this stream only, so draws past the block wait in
        # pending, in order, for the next block
        while len(pending) < need:
            pending += [r - hi for r in map(getrandbits, repeat(k, need)) if r < width]
        drawn, pending = pending[:need], pending[need:]
        us = [drawn[j::nb] for j in range(nb)]
        cols = [linear_column(row, us) for row in rows]
        tops = map(max, *[map(abs, col) for col in cols])
        at, coords, maxes = [], [], []
        for i, (vec, g, top) in enumerate(zip(zip(*cols), map(gcd, *cols), tops)):
            # max|coords| = top / g, so the window test needs no division
            if not g or not lo * g <= top <= hi * g:
                continue
            for x in vec:
                if x:
                    break
            m = top // g
            if x < 0:
                g = -g
            point = vec if g == 1 else tuple([x // g for x in vec])
            if point not in seen:
                seen.add(point)
                at.append(i)
                coords.append(point)
                maxes.append(m)
        yield _DRAW_BLOCK, at, coords, maxes


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

    The stream yields blocks (size, at, coords, tops): size attempts, and
    the candidates' coordinate tuples with their max|x_i|, the j-th made at
    attempt at[j] of the block.  A block is taken a segment at a time.  A
    segment ends at the block's end, at the cap, or at the candidate that
    would complete the count if none sat on a support, so the points,
    partial and attempts are those of the point-by-point loop.  Its support
    test is one lean kernel call per restriction class, on the class's
    component columns over the segment's tuples; the columns are kept for
    the accepted points and shared by every member of the class."""
    classes = _restriction_classes(excluded, basis)
    kept: dict = {}  # target -> its component columns over out
    out: list = []
    out_maxes: list = []
    attempts = 0
    for size, at, coords, tops in stream:
        j = k = 0  # the segment's first candidate and first attempt
        while k < size and attempts != cap and len(out) != count:
            stop, end = len(coords), size
            if cap is not None and cap - attempts < size - k:
                end = k + cap - attempts
                stop = bisect_left(at, end, j)
            if count is not None and stop - j >= count - len(out):
                stop = j + count - len(out)
                end = at[stop - 1] + 1
            attempts += end - k
            if stop > j:
                _test_segment(coords[j:stop], tops[j:stop], classes, mode, out, out_maxes, kept)
            j, k = stop, end
        if attempts == cap or len(out) == count:
            break
    partial = count is not None and len(out) < count
    return SampleResult(out, out_maxes, partial, attempts, kept)


def _test_segment(pts, tops, classes, mode, out, out_maxes, kept) -> None:
    """Append the points of a segment (coordinate tuples, with their
    max|x_i|) that lie on no class's support to out and out_maxes, and their
    class columns to kept."""
    xs = list(zip(*pts))
    hits: set = set()
    seg_cols = []
    for first, *_ in classes:
        if first.dim + 1 != len(xs):
            raise wrong_space_error(first, point_from_canonical(pts[0]))
        cols = _component_columns(first, pts, xs)
        hits.update(_column(first, pts, xs, (), mode, (), cols, lean=True)[2])
        seg_cols.append(cols)
    keep = [i not in hits for i in range(len(pts))] if hits else None
    out += pts if keep is None else compress(pts, keep)
    out_maxes += tops if keep is None else compress(tops, keep)
    for members, cols in zip(classes, seg_cols):
        acc = kept.get(members[0])
        if acc is None:
            acc = [[] for _ in cols]
            kept.update(dict.fromkeys(members, acc))
        for a, col in zip(acc, cols):
            a += col if keep is None else compress(col, keep)
