"""Desk-scale experiments against the weighted height bounds.

The main experiment samples rational points on a linear subvariety X (dim n)
and, for per-place families of targets in l-subgeneral position, compares

    sum_{v in S} sum_j eps_j * lambda_{j,v}(P)   against   [(l-n+1)(n+1) + eps] h(P),

where eps_j is the exact Seshadri weight of target j.  The baseline runs the
same ledger with n+1 targets per place in general position against the bound
(n+1+eps) h(P).  Points whose ratio exceeds the bound are violators (a
float ratio within its rounding bound of the threshold is decided exactly);
the scanner fits minimal linear spans through violator clusters with exact
integer kernels, reporting candidates only (never a certified exceptional
set).  Each report ends with a summary of Quang's chain estimate over the
first _CHAIN_CHECK_CAP sample points at each place holding l+1 hyperplanes:
one quang.chain_check_column per place, which checks the points one cell
at a time, on the inputs' values that the sampler kept, and reads each
ordering from the certificate's table.  A point on an input counts as
skipped.  The position gate refuses a target of any kind that vanishes on
X (l-subgeneral position allows a hyperplane that does once l > n, and an
asserted position any hypersurface, but no point of X lies off its
support), so every such place has a combination.

Bulk ledgers (weighted_defect over a sample) evaluate each distinct target
once per sample and read every local value from the exact kernel of the
local-value module, the one the one-point routines read, so a weighted sum is
bit-equal to the fsum of the weighted one-point values: one float column
per weighted (target, place) term, the kernel's own column at weight 1.0
(every hyperplane's), and one fsum per point.  A run builds one
evaluation plan, read by its float defects, tie band and exact tie
decisions.  The sampler has already dropped every point on a support: it is
one acceptance loop over a candidate stream per geometry (the parameter
sweep on a curve, seeded draws otherwise, built a block of attempts at a
time), and tests each batch of candidates against each distinct support
with the same kernel, called with no places.  It keeps each support's
component columns over the points it accepts, and the ledger and the chain
summary read them, so a report evaluates each target once.  The whole
ledger runs in the calling process: no pool, no threads.  Exhaustive
windows predicted to need more than _SWEEP_BUDGET sampler attempts are
refused; a count-limited sweep or random draw stops there with a partial
sample.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import gcd, lcm
from typing import Optional

from json.encoder import encode_basestring_ascii

from .errors import ArgumentError, ConfigRejectedError, DomainError
from .jsonio import json_int, parse_rat, rat_str, stable_dumps
# rank_rows stays bound, unused: the benchmark's perfbench/tests/test_tracer.py asserts it
from .linalg import dot_products, nullspace, primitive, rank_rows
from .places import Place, parse_place
from .position import check_subgeneral
from .projective import (
    LinearForm,
    LinearSubvariety,
    ProjPoint,
    linear_column,
    monomials,
    point_from_canonical,
)
# chain_check stays bound, unused: the benchmark's tracer wraps it here
from .quang import chain_check, chain_check_column, quang_combine_cached
from .seshadri import seshadri_constant
from .weil import (
    SubschemeSpec,
    Target,
    _column,
    _component_columns,
    _coordinate_columns,
    _hits,
    _one_point,
    _raise_hit,
    target_from_json,
    target_to_json,
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Field-for-field mirror of the JSON experiment configuration.

    workers is accepted, validated (>= 1) and echoed in reports, but changes
    nothing: the ledger runs in the calling process."""

    variety: LinearSubvariety
    arrangements: tuple[tuple[Place, tuple[Target, ...]], ...]
    level: int
    epsilon: int | Fraction
    h_min: float
    h_max: float
    sample_count: Optional[int]
    seed: int
    position_asserted: bool = False
    mode: str = "lenient"
    candidate_fraction: int | Fraction = Fraction(1, 20)
    max_candidates: int = 10
    workers: int = 1
    excluded_supports: tuple[Target, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "arrangements",
            # the archimedean place (p None) first, then primes ascending
            tuple(sorted(self.arrangements, key=lambda kv: kv[0].p or 0)),
        )
        places = [v for v, _ in self.arrangements]
        if not places:
            raise ArgumentError("config needs at least one place")
        if len(set(places)) != len(places):
            raise ArgumentError("duplicate places in config")
        if not all(targets for _, targets in self.arrangements):
            raise ArgumentError("empty target list for a place")
        every = [t for _, ts in self.arrangements for t in ts] + list(self.excluded_supports)
        if any(t.dim != self.variety.ambient_dim for t in every):
            raise ArgumentError("target lives in the wrong ambient space")
        if self.epsilon <= 0:
            raise ArgumentError("epsilon must be positive")
        if self.h_min > self.h_max:
            raise ArgumentError("empty height window")
        _int_window(self.h_min, self.h_max)  # refuses an unsupported window
        if self.level < self.variety.dim:
            raise ArgumentError("level below dim X")
        if self.sample_count is not None and self.sample_count < 0:
            raise ArgumentError("sample_count must be >= 0 or null (exhaustive)")
        if self.mode not in ("lenient", "strict"):
            raise ArgumentError("mode must be 'lenient' or 'strict'")
        if not (0 < self.candidate_fraction <= 1):
            raise ArgumentError("candidate_fraction must lie in (0, 1]")
        if self.max_candidates < 1 or self.workers < 1:
            raise ArgumentError("max_candidates and workers must be >= 1")

    @property
    def places(self) -> tuple[Place, ...]:
        return tuple(v for v, _ in self.arrangements)

    def to_json_dict(self) -> dict:
        return {
            "ambient_dim": self.variety.ambient_dim,
            "x": self.variety.to_json(),
            "arrangements": {
                str(v): [target_to_json(t) for t in targets]
                for v, targets in self.arrangements
            },
            "l": self.level,
            "epsilon": rat_str(self.epsilon),
            "height_window": [self.h_min, self.h_max],
            "sample_count": self.sample_count,
            "seed": self.seed,
            "position_asserted": self.position_asserted,
            "mode": self.mode,
            "candidate_fraction": rat_str(self.candidate_fraction),
            "max_candidates": self.max_candidates,
            "workers": self.workers,
            "excluded_supports": [target_to_json(t) for t in self.excluded_supports],
        }

    @classmethod
    def from_json_dict(cls, data) -> "ExperimentConfig":
        """The config of a JSON document.  A value of the wrong JSON type (a
        string or float where an integer belongs, anything but true/false
        for position_asserted) raises TypeError instead of being coerced."""
        opt = {f.name: f.default for f in fields(cls)} | data
        variety = LinearSubvariety.from_json(data["x"])
        if "ambient_dim" in data:
            if json_int(data["ambient_dim"], "ambient_dim") != variety.ambient_dim:
                raise ArgumentError("ambient_dim disagrees with x")
        arrangements = tuple(
            (parse_place(k), tuple(target_from_json(t) for t in targets))
            for k, targets in data["arrangements"].items()
        )
        h_min, h_max = data["height_window"]
        if not all(type(h) in (int, float) for h in (h_min, h_max)):
            raise TypeError("height_window must hold two JSON numbers")
        asserted = opt["position_asserted"]
        if not isinstance(asserted, bool):
            raise TypeError(
                "position_asserted must be true or false, got %r" % (asserted,)
            )
        count = data.get("sample_count")
        config = cls(
            variety=variety,
            arrangements=arrangements,
            level=json_int(data["l"], "l"),
            epsilon=parse_rat(data["epsilon"]),
            h_min=float(h_min),
            h_max=float(h_max),
            sample_count=None if count is None else json_int(count, "sample_count"),
            seed=json_int(data["seed"], "seed"),
            position_asserted=asserted,
            mode=str(opt["mode"]),
            candidate_fraction=parse_rat(opt["candidate_fraction"]),
            max_candidates=json_int(opt["max_candidates"], "max_candidates"),
            workers=json_int(opt["workers"], "workers"),
            excluded_supports=tuple(
                target_from_json(t) for t in opt["excluded_supports"]
            ),
        )
        # a misspelled key must not silently change the run
        unknown = sorted(set(data) - set(config.to_json_dict()))
        if unknown:
            raise ArgumentError("unknown config keys: %s" % ", ".join(unknown))
        return config


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampleResult:
    """The sample, and per excluded support its component columns over the
    points (weil._component_columns), which the ledger and the chain summary
    read instead of evaluating again; columns take no part in == or hash."""

    points: tuple[ProjPoint, ...]
    partial: bool
    attempts: int
    columns: dict = field(default_factory=dict, compare=False, repr=False)


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
    count: Optional[int],
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
    if variety.dim > 1:
        if count is None:
            raise ArgumentError("exhaustive sampling is only available when dim X == 1")
        cap = min(200 * count + 1000, _SWEEP_BUDGET)
        return _accept(_draw_stream(variety, lo, hi, seed), count, cap, excluded, mode)

    basis = variety.kernel_basis()
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
    return _accept(_line_stream(basis, lo, hi, m_lo, m_hi), count, cap, excluded, mode)


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


def _accept(stream, count, cap, excluded, mode: str) -> SampleResult:
    """The first count candidates of the stream on no excluded support (all
    of them when count is None), in at most cap attempts (None: no cap).

    A batch never holds more candidates than would complete the count if
    none sat on a support, so the result is the point-by-point loop's.  Its
    support test is one kernel call per distinct support, on the support's
    component columns, which are kept for the accepted points."""
    supports = tuple(dict.fromkeys(excluded))
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
        for target in supports:
            cols = _component_columns(target, batch, xs)
            hits.update(_hits(_column(target, batch, xs, (), mode, (), cols)[2]))
            batch_cols.append(cols)
        keep = [i not in hits for i in range(len(batch))] if hits else None
        out += batch if keep is None else compress(batch, keep)
        for target, cols in zip(supports, batch_cols):
            acc = kept.setdefault(target, [[] for _ in cols])
            for a, col in zip(acc, cols):
                a += col if keep is None else compress(col, keep)
    partial = count is not None and len(out) < count
    return SampleResult(tuple(out), partial, attempts, kept)


# ---------------------------------------------------------------------------
# weighted local sums (fast paths shared by both experiments)


class _Evaluator:
    """Prebaked per-config evaluation plan: one (target, places, exact
    weights, float weights) entry per distinct target, and the sums behind
    ratio_error_bound.

    Each distinct target is evaluated once per sample; every local value is
    read from the exact kernel in the local-value module, so a weighted sum
    is bit-equal to the fsum of weighted one-point local_weil values.
    """

    def __init__(self, config: ExperimentConfig):
        self.mode = config.mode
        plan: dict[Target, tuple] = {}
        # ratio_error_bound's slope and offset: sums over the terms of
        # w*deg and w*log(#coeffs * max|coeff|), the worst component of a
        # subscheme taken
        self.err_slope = self.err_offset = 0.0
        for place, tlist in config.arrangements:
            for t in tlist:
                eps = seshadri_constant(t).value
                w = float(eps)
                places, exact_weights, weights = plan.setdefault(t, ([], [], []))
                places.append(place)
                exact_weights.append(eps)
                weights.append(w)
                comps = t.components if isinstance(t, SubschemeSpec) else (t,)
                self.err_slope += w * max(c.degree for c in comps)
                self.err_offset += w * max(
                    math.log(len(c.coeffs) * c._max_coeff) for c in comps
                )
        self.plan = [(t,) + lists for t, lists in plan.items()]

    def exceeds(self, pt: ProjPoint, bound: Fraction) -> bool:
        """defect(P) > bound * h(P), decided in integers.

        Each term is eps_j * log q with q the kernel's exact local value, so
        with D a common denominator of the weights and the bound the test reads
        prod q^(D*eps_j) > H^(D*bound), H = max|x_i|, one evaluation per
        distinct target.
        """
        hmax = max(map(abs, pt.coords))
        weights = (w for _, _, ws, _ in self.plan for w in ws)
        den = lcm(bound.denominator, *(w.denominator for w in weights))
        lhs_num = lhs_den = 1
        for target, places, exact_weights, _ in self.plan:
            exacts, _, _ = _one_point(pt, target, self.mode, places)
            for v, e, w in zip(places, exacts, exact_weights):
                m = int(w * den)
                if v.p is None:
                    lhs_num *= e[0] ** m
                    lhs_den *= e[1] ** m
                else:
                    lhs_num *= v.p ** (e * m)
        return lhs_num > hmax ** int(bound * den) * lhs_den

    def ratio_error_bound(self, bound: float) -> float:
        """Bound on |r - exact ratio| for a float ratio r = defect / h that
        lies within 1 of bound, at any height h >= log 2.

        With u = 2^-53, a log is within one ulp, at most 2u times its size.
        At inf a term is log(num) - log(den) for the reduced num/den, both at
        most #coeffs * max|coeff| * H^deg, so the two logs and the
        subtraction err by at most 5u * (deg*h + log(#coeffs * max|coeff|));
        at p, e*log p with p^e | F(P) errs by at most 3u * e*log p, which is
        below the same bound.  The subscheme minimum is taken exactly.  The
        rounded weight and the product add 2u relative, so a term w*lambda
        errs by less than 8u * w * (deg*h + log(#coeffs * max|coeff|)); fsum,
        log h and the division add below 6u * |r|.  The bound returned is
        2^10 times that worst case.
        """
        return 2.0**-40 * (
            self.err_slope + self.err_offset / math.log(2) + abs(bound) + 1
        )


def weighted_defect(point: ProjPoint, config: ExperimentConfig) -> float:
    """sum over places and targets of eps_j * lambda_{j,v}(P), Seshadri-weighted."""
    return _defect_batch(_Evaluator(config), (point,))[0]


def _defect_batch(ev: _Evaluator, pts, maxes=None, columns=None) -> list:
    """The weighted defect of each point: one kernel call per plan entry over
    the whole column, and one fsum per point over one float column per
    weighted (target, place) term.  A term of weight 1.0 (every hyperplane's)
    is the kernel's column as it is, since 1.0 * v is v; any other is that
    column times the weight.  maxes[i] is max|x_i| of pts[i], computed here
    when not given.  columns, when given (SampleResult.columns), hold every
    plan target's component columns over pts, which are then not evaluated
    again.  Raises the first support hit it meets."""
    xs = _coordinate_columns(pts) if columns is None else None
    columns = columns or {}  # an empty sample keeps no columns
    if maxes is None:
        maxes = [max(map(abs, pt.coords)) for pt in pts]
    terms = []
    for target, places, _, weights in ev.plan:
        cols = columns.get(target)
        _, values, marks = _column(target, pts, xs, maxes, ev.mode, places, cols)
        _raise_hit(marks)
        terms += (
            col if w == 1.0 else [w * v for v in col] for w, col in zip(weights, values)
        )
    return [math.fsum(t) for t in zip(*terms)]


# ---------------------------------------------------------------------------
# delta budget


def delta_budget(level: int, dim: int, epsilon) -> Fraction:
    """Largest dyadic delta = 1/2^k (1 <= k <= 40) with

        delta*(l-n+1) + delta*(l-n+1)*(n+1+delta) < epsilon

    checked in exact rational arithmetic.  delta is a slack parameter, so it
    is capped at 1/2 even when a huge epsilon would admit delta = 1."""
    eps = Fraction(epsilon)
    if dim < 1 or level < dim:
        raise ArgumentError("need l >= n >= 1")
    if eps <= 0:
        raise ArgumentError("epsilon must be positive")
    a = level - dim + 1
    for k in range(1, 41):
        delta = Fraction(1, 2**k)
        if delta * a + delta * a * (dim + 1 + delta) < eps:
            return delta
    raise DomainError(
        "no dyadic delta with exponent <= 40 satisfies the budget for "
        "epsilon=%s" % eps
    )


# ---------------------------------------------------------------------------
# exceptional candidates


@dataclass(frozen=True)
class Candidate:
    """A linear span through a violator cluster; membership is exact."""

    dim: int
    span_points: tuple[str, ...]
    defining_forms: tuple[tuple[int, ...], ...]
    members: tuple[str, ...]
    coverage: str  # fraction of all violators, canonical rational string

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "span_points": list(self.span_points),
            "defining_forms": [list(f) for f in self.defining_forms],
            "members": list(self.members),
            "coverage": self.coverage,
        }


def candidate_targets(candidates) -> tuple[Target, ...]:
    """Exclusion targets (for a re-run) matching the candidates' supports."""
    out = []
    for c in candidates:
        forms = tuple(LinearForm(f) for f in c.defining_forms)
        if len(forms) == 1:
            out.append(forms[0])
        else:
            out.append(SubschemeSpec(forms, label="candidate(dim=%d)" % c.dim))
    return tuple(out)


def exceptional_scan(
    violators,
    variety: LinearSubvariety,
    fraction: Fraction = Fraction(1, 20),
    max_candidates: int = 10,
) -> list[Candidate]:
    """Greedy cover of the violators by small linear spans.

    Spans are fitted through evenly spaced seed subsets with an exact
    integer kernel (a reported span of dimension k really is k-dimensional,
    and a violator is a member when every kernel form vanishes on it),
    qualify when they hold at least `fraction` of all violators, and are then
    picked greedily by uncovered gain, ties to smaller dimension, then
    canonical label order.
    """
    pts = sorted({str(p): p for p in violators}.items())
    total = len(pts)
    if total == 0:
        return []
    labels = [s for s, _ in pts]
    coords = [list(p.coords) for _, p in pts]
    max_dim = variety.dim - 1
    nseeds = min(total, 48)
    if nseeds == total:
        seeds = list(range(total))
    else:
        seeds = sorted({round(i * (total - 1) / (nseeds - 1)) for i in range(nseeds)})
    ncols = variety.ambient_dim + 1
    pool = {}
    for k in range(0, max_dim + 1):
        for subset in combinations(seeds, k + 1):
            forms = nullspace([coords[i] for i in subset], ncols)
            if len(forms) != ncols - (k + 1):
                continue  # dependent seeds
            # the span of the seeds is the annihilator of this kernel basis,
            # so a violator is a member when its products with the basis are 0
            products = zip(*dot_products(coords, forms))
            members = tuple(i for i, row in enumerate(products) if not any(row))
            if Fraction(len(members), total) < fraction:
                continue
            # k ascends, so the first span found for a key is a least one
            key = tuple(labels[i] for i in members)
            pool.setdefault(key, (k, subset, members, forms))
    chosen: list[Candidate] = []
    covered: set[int] = set()
    entries = sorted(pool.items())
    while entries and len(chosen) < max_candidates and len(covered) < total:
        best = None
        for key, (k, subset, members, forms) in entries:
            gain = sum(1 for i in members if i not in covered)
            rank_key = (-gain, k, key)
            if gain > 0 and (best is None or rank_key < best[0]):
                best = (rank_key, key, k, subset, members, forms)
        if best is None:
            break
        _, key, k, subset, members, forms = best
        entries = [e for e in entries if e[0] != key]
        covered.update(members)
        chosen.append(
            Candidate(
                dim=k,
                span_points=tuple(labels[i] for i in subset),
                defining_forms=tuple(forms),
                members=key,
                coverage=rat_str(Fraction(len(members), total)),
            )
        )
    return chosen


# ---------------------------------------------------------------------------
# experiment runners


_RECORD_FIELDS = ("point", "height", "weighted_sum", "ratio", "violator")


@dataclass
class DefectReport:
    kind: str  # "main" or "baseline"
    config: ExperimentConfig
    bound: Fraction
    delta: Fraction
    points: list[str]
    heights: array
    sums: array
    ratios: array
    violators: list[str]
    candidates: list[Candidate]
    unassigned: list[str]
    excluded_support: list[str]  # empty: the sampler skips support points
    excluded_height: list[str]
    partial: bool
    attempts: int
    position_checks: dict
    chain_summary: dict

    def _rows(self):
        """One (point, height, weighted_sum, ratio, violator) tuple per record."""
        flagged = set(self.violators)
        for row in zip(self.points, self.heights, self.sums, self.ratios):
            yield row + (row[0] in flagged,)

    def iter_records(self):
        for row in self._rows():
            yield dict(zip(_RECORD_FIELDS, row))

    def to_json_dict(self, include_records: bool = True) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config.to_json_dict(),
            "bound": rat_str(self.bound),
            "bound_float": float(self.bound),
            "delta": rat_str(self.delta),
            "n_points": len(self.points),
            "violators": list(self.violators),
            "candidates": [c.to_json_dict() for c in self.candidates],
            "unassigned": list(self.unassigned),
            "excluded_support": list(self.excluded_support),
            "excluded_height": list(self.excluded_height),
            "partial": self.partial,
            "attempts": self.attempts,
            "position_checks": self.position_checks,
            "chain_summary": self.chain_summary,
        }
        if include_records:
            out["records"] = [list(row[:4]) for row in self._rows()]
        return out

    def _height_texts(self) -> dict:
        """repr of each distinct height, formatted once: a height is log
        max|x_i|, so a report holds few distinct ones."""
        return {h: repr(h) for h in set(self.heights)}

    def to_json(self, include_records: bool = True) -> str:
        """stable_dumps(self.to_json_dict(include_records)), byte for byte;
        the records are written here, at the sorted position of their key."""
        out = self.to_json_dict(include_records=False)
        if not include_records:
            return stable_dumps(out)
        texts = self._height_texts()
        records = ",".join(
            "[%s,%s,%r,%r]" % (encode_basestring_ascii(p), texts[h], s, r)
            for p, h, s, r in zip(self.points, self.heights, self.sums, self.ratios)
        )
        # every other key sorts on one side of "records" or the other, and
        # stable_dumps sorts the keys
        before = stable_dumps({k: v for k, v in out.items() if k < "records"})
        after = stable_dumps({k: v for k, v in out.items() if k > "records"})
        return '%s,"records":[%s],%s' % (before[:-1], records, after[1:])

    def write_csv(self, fh) -> None:
        texts = self._height_texts()
        flagged = set(self.violators)
        fh.write(",".join(_RECORD_FIELDS) + "\n")
        fh.write("".join(
            "%s,%s,%r,%r,%d\n" % (p, texts[h], s, r, p in flagged)
            for p, h, s, r in zip(self.points, self.heights, self.sums, self.ratios)
        ))


def _vanishes_on(target: Target, basis, mode: str) -> bool:
    """Whether every point of X, with kernel basis b, lies on the target's
    support under mode: the form vanishes on X, or every component of a
    subscheme does (one does in strict mode, where any vanishing component
    puts a point on the support).  A degree-d form F vanishes on X exactly
    when F(t_0*b_0 + ... + t_n*b_n), a degree-d form in the parameters t, is
    zero; that holds exactly when it is zero at the C(n+d, d) points t >= 0
    with t_0 + ... + t_n = d, the principal lattice of the simplex, which is
    unisolvent for degree d (Nicolaides 1972)."""
    cols = list(zip(*basis))  # cols[k][j]: coordinate k of basis vector j

    def vanishes(form) -> bool:
        params = list(zip(*monomials(len(basis), form.degree)))
        return not any(form.column([linear_column(c, params) for c in cols]))

    forms = target.components if isinstance(target, SubschemeSpec) else (target,)
    return (any if mode == "strict" else all)(map(vanishes, forms))


def _validate_positions(config: ExperimentConfig, level: int) -> dict:
    """Position report per place at level (dim X for general position);
    then a target that vanishes on X is refused: no point of X lies off its
    support, though l-subgeneral position allows a hyperplane that does once
    l > n."""
    x = config.variety
    basis = x.kernel_basis()
    checks = {}
    for place, targets in config.arrangements:
        linear = [t for t in targets if isinstance(t, LinearForm)]
        if len(linear) == len(targets):
            report = check_subgeneral(linear, x, level)
            checks[str(place)] = {
                "verdict": report.verdict,
                "witnesses": len(report.witnesses),
                "asserted": False,
            }
            if not report.verdict:
                raise ConfigRejectedError(
                    "targets at %s fail the position check" % place, report=report
                )
        else:
            if not config.position_asserted:
                raise ConfigRejectedError(
                    "non-linear targets at %s need position_asserted=true" % place
                )
            checks[str(place)] = {"verdict": None, "witnesses": 0, "asserted": True}
        for t in targets:
            if _vanishes_on(t, basis, config.mode):
                raise ConfigRejectedError("target %s at %s vanishes on X" % (t, place))
    return checks


_CHAIN_CHECK_CAP = 200


def _chain_summary(config: ExperimentConfig, eff_level: int, pts, columns) -> dict:
    """The chain check over the first _CHAIN_CHECK_CAP sample points, one
    column per applicable place: a place holding eff_level+1 hyperplanes.
    The position gate has passed them, so their combination exists.  The
    inputs' values are read from the sampler's columns (a hyperplane's one
    component column), not evaluated again."""
    head = pts[:_CHAIN_CHECK_CAP]
    summary = {}
    for place, targets in config.arrangements:
        key = str(place)
        summary[key] = {"applicable": False}
        if len(targets) != eff_level + 1 or not all(
            isinstance(t, LinearForm) for t in targets
        ):
            continue
        cert = quang_combine_cached(tuple(targets), config.variety)
        values = [columns[t][0][:_CHAIN_CHECK_CAP] for t in targets] if head else None
        cells = [c for c in chain_check_column(head, place, cert, values) if c is not None]
        summary[key] = {
            "applicable": True,
            "checked": len(cells),
            "passed": sum(passed for passed, _ in cells),
            "support_skipped": len(head) - len(cells),
            "min_slack": min((slack for _, slack in cells), default=None),
        }
    return summary


def _run(
    config: ExperimentConfig, kind: str, bound: Fraction, eff_level: int, checks: dict
) -> DefectReport:
    supports = tuple(
        t for _, targets in config.arrangements for t in targets
    ) + config.excluded_supports
    sample = sample_points(
        config.variety,
        config.h_min,
        config.h_max,
        config.sample_count,
        config.seed,
        excluded=supports,
        mode=config.mode,
    )
    pts = list(sample.points)
    maxes = [max(map(abs, pt.coords)) for pt in pts]
    ev = _Evaluator(config)
    defects = _defect_batch(ev, pts, maxes, sample.columns)
    log_of = {m: math.log(m) for m in set(maxes)}  # h(P) = log max|x_i|
    labels = [str(p) for p in pts]
    order = sorted(range(len(pts)), key=labels.__getitem__)
    points: list[str] = []
    heights = array("d")
    sums = array("d")
    ratios = array("d")
    violators: list[str] = []
    violator_pts: list[ProjPoint] = []
    excluded_height: list[str] = []
    bound_f = float(bound)
    # float ratios this close to the bound are decided exactly
    tie_band = ev.ratio_error_bound(bound_f)
    for i in order:
        d = defects[i]
        label = labels[i]
        hmax = maxes[i]
        if hmax == 1:
            excluded_height.append(label)
            continue
        h = log_of[hmax]
        r = d / h
        points.append(label)
        heights.append(h)
        sums.append(d)
        ratios.append(r)
        violator = r > bound_f
        if abs(r - bound_f) <= tie_band:
            violator = ev.exceeds(pts[i], bound)
        if violator:
            violators.append(label)
            violator_pts.append(pts[i])
    candidates = exceptional_scan(
        violator_pts, config.variety, config.candidate_fraction, config.max_candidates
    )
    assigned = {m for c in candidates for m in c.members}
    unassigned = [v for v in violators if v not in assigned]
    return DefectReport(
        kind=kind,
        config=config,
        bound=bound,
        delta=delta_budget(eff_level, config.variety.dim, config.epsilon),
        points=points,
        heights=heights,
        sums=sums,
        ratios=ratios,
        violators=violators,
        candidates=candidates,
        unassigned=unassigned,
        excluded_support=[],
        excluded_height=excluded_height,
        partial=sample.partial,
        attempts=sample.attempts,
        position_checks=checks,
        chain_summary=_chain_summary(config, eff_level, pts, sample.columns),
    )


def run_main_experiment(config: ExperimentConfig) -> DefectReport:
    """Weighted ledger against the bound [(l-n+1)(n+1) + eps] h(P)."""
    n = config.variety.dim
    l = config.level
    checks = _validate_positions(config, l)
    bound = Fraction(l - n + 1) * (n + 1) + config.epsilon
    return _run(config, "main", bound, l, checks)


def run_evertse_ferretti_baseline(config: ExperimentConfig) -> DefectReport:
    """General-position ledger against the bound (n+1+eps) h(P).

    Every place needs exactly n+1 targets in general position on X.
    """
    n = config.variety.dim
    for place, targets in config.arrangements:
        if len(targets) != n + 1:
            raise ConfigRejectedError(
                "baseline needs exactly n+1 targets at %s (got %d)"
                % (place, len(targets))
            )
    checks = _validate_positions(config, n)
    bound = Fraction(n + 1) + config.epsilon
    return _run(config, "baseline", bound, n, checks)
