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
ordering from the certificate's table.  The sampler excludes every target's
support, so no checked point lies on an input.  The position gate refuses a
target of any kind that vanishes on X (l-subgeneral position allows a
hyperplane that does once l > n, and an asserted position any hypersurface,
but no point of X lies off its support), so every such place has a
combination.

The bulk ledger (_defect_batch over a sample) reads every local value from
the exact kernel of the local-value module, the one the one-point routines
read, so a weighted sum is bit-equal to the fsum of the weighted one-point
values: one float column per weighted (target, place) term, the kernel's
own column at weight 1.0 (every hyperplane's), and one fsum per point.  A
run builds one evaluation plan, read by its float defects, tie band and
exact tie decisions.  The sampler (the sampling module) has already dropped
every point on a support and kept each restriction class's component
columns over the points it accepts (hyperplanes that agree on X share one
class and one set of columns); the ledger and the chain summary read them,
so a report evaluates each class once.  A report runs on the sampler's
coordinate tuples and their max|x_i|, column by column, and builds a
ProjPoint only where one is handed on (the chain summary's points, the
violators, the tie decisions).  The ledger computes a class's column
at a prime once and gives it to every member there; the column at inf stays
per target, since it reads max|coeff|.  The whole ledger runs in the
calling process: no pool, no threads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import truediv

from json.encoder import encode_basestring_ascii

from .errors import ArgumentError, ConfigRejectedError, DomainError
from .jsonio import json_int, parse_rat, rat_str, stable_dumps
# rank_rows stays bound, unused: the benchmark's perfbench/tests/test_tracer.py asserts it
from .linalg import dot_products, nullspace, rank_rows
from .places import Place, parse_place
from .position import check_subgeneral
from .projective import (
    LinearForm,
    LinearSubvariety,
    ProjPoint,
    _label_format,
    linear_column,
    monomials,
    point_from_canonical,
)
# chain_check stays bound, unused: the benchmark's tracer wraps it here
from .quang import chain_check, chain_check_column, quang_combine_cached
from .sampling import _int_window, sample_points
from .seshadri import seshadri_constant
from .weil import (
    SubschemeSpec,
    Target,
    _column,
    _one_point,
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
    sample_count: int | None
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


def _defect_batch(ev: _Evaluator, coords, maxes, columns) -> list:
    """The weighted defect of each point, sum over places and targets of
    eps_j * lambda_{j,v}(P): at most one lean kernel call per plan entry
    over the whole column, and one fsum per point over one float column per
    weighted (target, place) term.  A term of weight 1.0 (every hyperplane's)
    is the kernel's column as it is, since 1.0 * v is v; any other is that
    column times the weight.  coords are the points' canonical coordinate
    tuples, maxes[i] is max|x_i| of coords[i], and columns
    (SampleResult.columns) hold every plan target's component columns over
    the points, which are not evaluated again.  Targets of one restriction class
    share their columns, and so their values at every prime: a finite-place
    column is computed once per (shared columns, p), by the first plan entry
    that reads it; an entry left with no place makes no call.  The column at
    inf stays per target, since it reads max|coeff|.  Raises the first
    support hit it meets, as the one-point routine raises it."""
    if not coords:  # an empty sample keeps no columns
        return []
    terms = []
    done = {}  # (id of the columns, p, or the target at inf) -> float column
    for target, places, _, weights in ev.plan:
        cols = columns[target]
        keys = {v: (id(cols), v.p or target) for v in places}
        todo = [v for v in places if keys[v] not in done]
        if todo:
            _, values, hits = _column(target, coords, None, maxes, ev.mode, todo, cols, lean=True)
            if hits:  # raises the hit
                _one_point(point_from_canonical(coords[hits[0]]), target, ev.mode, places)
            done.update(zip(map(keys.get, todo), values))
        terms += (
            done[keys[v]] if w == 1.0 else [w * x for x in done[keys[v]]]
            for v, w in zip(places, weights)
        )
    return list(map(math.fsum, zip(*terms)))


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

    The labels are distinct, so a span of k = 0 holds its seed alone.  The
    lines (k = 1) are found by grouping, with no kernel: each violator is
    keyed by the line it spans with each seed, so one pass over the seeds
    gives every line through two seeds with all its members.  Spans of
    k >= 2 are fitted through every (k+1)-subset of the seeds.  The kernel
    of a span of k <= 1 is computed only when it is chosen.
    """
    pts = sorted({str(p): p for p in violators}.items())
    total = len(pts)
    if total == 0:
        return []
    labels = [s for s, _ in pts]
    coords = [p.coords for _, p in pts]
    max_dim = variety.dim - 1
    nseeds = min(total, 48)
    if nseeds == total:
        seeds = list(range(total))
    else:
        seeds = sorted({round(i * (total - 1) / (nseeds - 1)) for i in range(nseeds)})
    ncols = variety.ambient_dim + 1
    # a span qualifies when its members reach fraction * total
    least = math.ceil(Fraction(fraction) * total)
    # key (member labels) -> (k, seed subset, members, kernel or None); k
    # ascends, so the first span found for a key is a least one
    pool = {}
    if least <= 1:
        pool.update(((labels[i],), (0, (i,), (i,), None)) for i in seeds)
    if max_dim >= 1:
        for subset, members in _seed_lines(coords, seeds, least):
            pool.setdefault(tuple(labels[i] for i in members), (1, subset, members, None))
    for k in range(2, max_dim + 1):
        for subset in combinations(seeds, k + 1):
            forms = nullspace([coords[i] for i in subset], ncols)
            if len(forms) != ncols - (k + 1):
                continue  # dependent seeds
            # the span of the seeds is the annihilator of this kernel basis,
            # so a violator is a member when its products with the basis are 0
            products = zip(*dot_products(coords, forms))
            members = tuple(i for i, row in enumerate(products) if not any(row))
            if len(members) < least:
                continue
            pool.setdefault(tuple(labels[i] for i in members), (k, subset, members, forms))
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
        if forms is None:
            forms = nullspace([coords[i] for i in subset], ncols)
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


def _seed_lines(coords, seeds, least: int):
    """(seed pair, members) of every line through two seeds that holds at
    least `least` of the points (canonical coordinate tuples, distinct): the
    pair is the line's first two seeds in order, and the members, ascending,
    are every point on it.

    With a fixed seed a and a coordinate c where a_c != 0, a point x != a
    spans one line with a, and w = a_c*x - x_c*a, scaled to a primitive
    vector with its first nonzero entry positive, keys that line: the points
    of one line through a, a aside, are those of one key.  So each seed
    keys every point once, and the seeds in order find each line first at
    its least seed."""
    is_seed = set(seeds)
    for a in seeds:
        pa = coords[a]
        c = next(i for i, x in enumerate(pa) if x)
        ac = pa[c]
        lines: dict = {}
        for i, x in enumerate(coords):
            if i == a:
                continue
            xc = x[c]
            w = [ac * y - xc * z for y, z in zip(x, pa)]
            g = gcd(*w)
            for lead in w:
                if lead:
                    break
            if lead < 0:
                g = -g
            lines.setdefault(tuple([y // g for y in w]), []).append(i)
        for group in lines.values():
            if len(group) + 1 < least:
                continue
            # the first seed of the line after a; a line with a seed before
            # a was found at that seed
            b = next((i for i in group if i in is_seed), None)
            if b is None or b < a:
                continue
            yield (a, b), tuple(sorted(group + [a]))


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


def _chain_summary(config: ExperimentConfig, eff_level: int, coords, columns) -> dict:
    """The chain check over the first _CHAIN_CHECK_CAP sample points, one
    column per applicable place: a place holding eff_level+1 hyperplanes.
    The position gate has passed them, so their combination exists.  The
    points are built from their coordinate tuples once, for the first place
    that applies; the inputs' values are read from the sampler's columns (a
    hyperplane's one component column), not evaluated again.  The sampler
    excluded every target's support, so every point is checked."""
    head = None
    summary = {}
    for place, targets in config.arrangements:
        key = str(place)
        summary[key] = {"applicable": False}
        if len(targets) != eff_level + 1 or not all(
            isinstance(t, LinearForm) for t in targets
        ):
            continue
        if head is None:
            head = list(map(point_from_canonical, coords[:_CHAIN_CHECK_CAP]))
        cert = quang_combine_cached(tuple(targets), config.variety)
        values = [columns[t][0][:_CHAIN_CHECK_CAP] for t in targets] if head else None
        cells = chain_check_column(head, place, cert, values)
        summary[key] = {
            "applicable": True,
            "checked": len(cells),
            "passed": sum(passed for passed, _ in cells),
            "min_slack": min((slack for _, slack in cells), default=None),
        }
    return summary


def _run(
    config: ExperimentConfig, kind: str, bound: Fraction, eff_level: int, checks: dict
) -> DefectReport:
    """One report, built column by column from the sampler's coordinate
    tuples: labels, heights (from the sampler's max|x_i|), weighted sums and
    ratios are lists over the sample, sorted by label once.  A ProjPoint is
    built only where a point is handed on as one: the chain summary's first
    _CHAIN_CHECK_CAP points, the violators (for the scan) and the ratios
    within the tie band of the bound (for their exact decision)."""
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
    coords, maxes = sample.coords, sample.maxes
    ev = _Evaluator(config)
    defects = _defect_batch(ev, coords, maxes, sample.columns)
    fmt = _label_format(config.variety.ambient_dim + 1)  # str(p), formatted inline
    labels = list(map(fmt.__mod__, coords))
    order = sorted(range(len(coords)), key=labels.__getitem__)
    # height-0 points (max|x_i| = 1) are listed apart and get no record
    excluded_height = [labels[i] for i in order if maxes[i] == 1]
    if excluded_height:
        order = [i for i in order if maxes[i] != 1]
    log_of = {m: math.log(m) for m in set(maxes)}  # h(P) = log max|x_i|
    points = list(map(labels.__getitem__, order))
    hs = [log_of[maxes[i]] for i in order]
    ds = list(map(defects.__getitem__, order))
    rs = list(map(truediv, ds, hs))
    bound_f = float(bound)
    # float ratios this close to the bound are decided exactly
    tie_band = ev.ratio_error_bound(bound_f)
    violators: list[str] = []
    violator_pts: list[ProjPoint] = []
    for j in [j for j, r in enumerate(rs) if r - bound_f >= -tie_band]:
        r = rs[j]
        violator = r > bound_f
        if abs(r - bound_f) <= tie_band:
            violator = ev.exceeds(point_from_canonical(coords[order[j]]), bound)
        if violator:
            violators.append(points[j])
            violator_pts.append(point_from_canonical(coords[order[j]]))
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
        heights=array("d", hs),
        sums=array("d", ds),
        ratios=array("d", rs),
        violators=violators,
        candidates=candidates,
        unassigned=unassigned,
        excluded_height=excluded_height,
        partial=sample.partial,
        attempts=sample.attempts,
        position_checks=checks,
        chain_summary=_chain_summary(config, eff_level, coords, sample.columns),
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
