"""Generic linear combinations turning subgeneral position into general position.

Given hyperplanes L_1..L_{l+1} in l-subgeneral position on a linear
subvariety X of dimension n, the construction picks

    L'_1 = L_1,
    L'_t = a combination of L_2..L_{l-n+t}   (t = 2..n+1)

so that the L'_t are in general position on X.  Step t must avoid every
combination that vanishes identically on the current intersection
X meet {L'_1 = ... = L'_{t-1} = 0}; because X and the forms are linear that
locus is a single linear subspace and the forbidden combinations form a
proper subspace, so a small-height integer candidate always exists.

Candidates are enumerated deterministically: increasing max-absolute
coefficient, ties broken by reading coefficients against the later spanning
forms first, with each coordinate running through 0, 1, -1, 2, -2, ...
That order makes already-general families reproduce themselves (the
identity pattern) and keeps certificates reproducible bit for bit.

Membership is tested without elimination per candidate.  Each round reduces
the excluded rowspace once, to an integer nullspace basis N, and forms the
integer matrix M = (spanning rows) . N^T (linalg.annihilator_products).  A
candidate coefficient vector c gives a combination inside the excluded
rowspace exactly when c . M = 0, so a candidate costs a few integer dot
products, and linalg.combine forms the combination of the one that passes.
The construction excludes rowspace(X's forms, L'_1..L'_{t-1}) itself: every
candidate lies in the span, so that is the same as excluding its
intersection with the span.

The certificate records the exact rational coefficient matrix (combination
scaled by the output's normalization), so replaying it reproduces the
output forms exactly, and the per-place constants

    C_v = max_t max_j ||c_tj||_v          (finite v)
    C_inf = max_t (#nonzero c_tj) * max_j |c_tj|

make ||L'_t(P)||_v <= C_v * max_j ||L_j(P)||_v pointwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import attrgetter, mul
from typing import Optional

from .errors import (
    ArgumentError,
    InfeasibleAvoidanceError,
    PositionError,
    SupportError,
)
from .jsonio import parse_rat, rat_str, stable_dumps
from .linalg import annihilator_products, combine, primitive, rank_rows
from .places import INF, Place, _ord_p
from .position import PositionReport, check_general, check_subgeneral
from .projective import LinearForm, LinearSubvariety, ProjPoint

_MAX_COEFF = 32  # enumeration guard; the avoidance argument needs far less


def _alphabet(m: int) -> list[int]:
    out = [0]
    for k in range(1, m + 1):
        out.extend((k, -k))
    return out


def _enumerate_avoiding(span_rows, excluded_rowsets):
    """First integer coefficient vector whose combination misses every
    excluded rowspace; returns (coeffs, combination vector)."""
    k = len(span_rows)
    ncols = len(span_rows[0])
    column_sets = [
        annihilator_products(span_rows, ex, ncols) for ex in excluded_rowsets
    ]
    for m in range(1, _MAX_COEFF + 1):
        alpha = _alphabet(m)
        for rev in product(alpha, repeat=k):
            if max(abs(c) for c in rev) != m:
                continue  # handled at a smaller bound
            coeffs = rev[::-1]
            if any(
                all(not sum(map(mul, coeffs, col)) for col in cols)
                for cols in column_sets
            ):
                continue
            vec = combine(coeffs, span_rows)
            if not any(vec):
                continue
            return coeffs, vec
    raise RuntimeError("avoidance enumeration exhausted; this is a bug")


def avoid_subspaces(span_forms, excluded) -> LinearForm:
    """A form in the span of span_forms avoiding every excluded subspace.

    excluded is a list of spanning sets (lists of forms).  An excluded
    subspace that swallows the whole span is infeasible and raises.
    """
    span_forms = list(span_forms)
    if not span_forms:
        raise ArgumentError("empty spanning set")
    span_rows = [list(f.coeffs) for f in span_forms]
    rowsets = []
    for ex in excluded:
        rows = [list(f.coeffs) for f in ex]
        if rows and rank_rows(rows + span_rows) == rank_rows(rows):
            raise InfeasibleAvoidanceError(
                "an excluded subspace contains the whole span"
            )
        rowsets.append(rows)
    _, vec = _enumerate_avoiding(span_rows, [r for r in rowsets if r])
    return LinearForm(tuple(vec))


@dataclass(frozen=True)
class CombinationCertificate:
    """Replayable witness for one run of the combination construction."""

    variety: LinearSubvariety
    inputs: tuple[LinearForm, ...]
    outputs: tuple[LinearForm, ...]
    matrix: tuple[tuple[Fraction, ...], ...]  # (n+1) rows, (l+1) columns
    position: PositionReport  # general-position report for the outputs
    constants: tuple[tuple[str, str], ...]  # (place string, C_v) pairs

    @property
    def level(self) -> int:
        return len(self.inputs) - 1

    @property
    def rounds(self) -> int:
        return len(self.outputs)

    def verify_soundness(self) -> bool:
        """Replay the matrix: row 1 is the first input, later rows respect
        the span discipline and reproduce the outputs exactly."""
        l = self.level
        n = self.variety.dim
        if len(self.outputs) != n + 1 or len(self.matrix) != n + 1:
            return False
        if self.outputs[0] != self.inputs[0]:
            return False
        if list(self.matrix[0]) != [Fraction(1)] + [Fraction(0)] * l:
            return False
        input_rows = [f.coeffs for f in self.inputs]
        for r in range(1, n + 1):
            t = r + 1
            row = self.matrix[r]
            if len(row) != l + 1:
                return False
            hi = l - n + t  # 1-based top usable input index
            if row[0] != 0 or any(row[j] != 0 for j in range(hi, l + 1)):
                return False
            if combine(row, input_rows) != list(self.outputs[r].coeffs):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "x": self.variety.to_json(),
            "inputs": [f.to_json() for f in self.inputs],
            "outputs": [f.to_json() for f in self.outputs],
            "matrix": [[rat_str(c) for c in row] for row in self.matrix],
            "position": self.position.to_json_dict(),
            "constants": {place: c for place, c in self.constants},
        }

    def to_json(self) -> str:
        return stable_dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data) -> "CombinationCertificate":
        variety = LinearSubvariety.from_json(data["x"])
        inputs = tuple(LinearForm.from_json(f) for f in data["inputs"])
        outputs = tuple(LinearForm.from_json(f) for f in data["outputs"])
        matrix = tuple(
            tuple(parse_rat(c) for c in row) for row in data["matrix"]
        )
        return cls(
            variety=variety,
            inputs=inputs,
            outputs=outputs,
            matrix=matrix,
            position=check_general(list(outputs), variety),
            constants=tuple(sorted(data.get("constants", {}).items())),
        )


@functools.lru_cache(maxsize=100000)
def _subgeneral_ok(sorted_forms, variety: LinearSubvariety, level: int) -> bool:
    # position is permutation-invariant, so cache on the sorted multiset;
    # the forms are the caller's, swept without being rebuilt
    return check_subgeneral(sorted_forms, variety, level, verdict_only=True).verdict


def quang_combine(
    forms, variety: LinearSubvariety, constant_places: tuple[Place, ...] = (INF,)
) -> CombinationCertificate:
    """Run the construction on an l-subgeneral family of l+1 hyperplanes.

    Raises PositionError (with the failing report) when the input family is
    not l-subgeneral on X for l = len(forms) - 1.
    """
    forms = [f if isinstance(f, LinearForm) else LinearForm.parse(f) for f in forms]
    l = len(forms) - 1
    n = variety.dim
    if l < n:
        raise ArgumentError("need at least dim X + 1 forms, got %d" % (l + 1))
    if not _subgeneral_ok(tuple(sorted(forms, key=attrgetter("coeffs"))), variety, l):
        report = check_subgeneral(forms, variety, l)
        raise PositionError(
            "inputs are not %d-subgeneral on X (%d witnesses)"
            % (l, len(report.witnesses)),
            report=report,
        )
    outputs = [forms[0]]
    rows: list[tuple[Fraction, ...]] = [
        tuple([Fraction(1)] + [Fraction(0)] * l)
    ]
    gamma_stack = [list(f.coeffs) for f in variety.forms] + [list(forms[0].coeffs)]
    for t in range(2, n + 2):
        hi = l - n + t  # spanning forms are inputs 2..hi (1-based)
        span_rows = [list(f.coeffs) for f in forms[1:hi]]
        # the combination lies in the span, so it meets rowspace(gamma) only
        # inside span cap rowspace(gamma): excluding rowspace(gamma) suffices
        coeffs, vec = _enumerate_avoiding(span_rows, [gamma_stack])
        prim = primitive(vec)
        lead = next(i for i, v in enumerate(prim) if v)
        scale = Fraction(prim[lead], vec[lead])
        row = [Fraction(0)] * (l + 1)
        for j, c in enumerate(coeffs):
            row[1 + j] = c * scale
        out = LinearForm(prim)
        outputs.append(out)
        rows.append(tuple(row))
        gamma_stack.append(list(out.coeffs))
    out_report = check_general(outputs, variety)
    if not out_report.verdict:
        raise RuntimeError(
            "construction produced a non-general family; this is a bug"
        )
    constants = sorted(
        (str(v), rat_str(_rows_constant(rows[1:], v))) for v in constant_places
    )
    return CombinationCertificate(
        variety=variety,
        inputs=tuple(forms),
        outputs=tuple(outputs),
        matrix=tuple(rows),
        position=out_report,
        constants=tuple(constants),
    )


@functools.lru_cache(maxsize=100000)
def quang_combine_cached(
    forms: tuple[LinearForm, ...], variety: LinearSubvariety
) -> CombinationCertificate:
    return quang_combine(list(forms), variety)


def chain_constant(cert: CombinationCertificate, place: Place) -> Fraction:
    """Smallest constant of the certified shape valid for every round.

    finite v: max over combination rows of max_j ||c_tj||_v;
    archimedean: max over rows of (#nonzero entries) * max_j |c_tj|.
    """
    return _rows_constant(cert.matrix[1:], place)


def _rows_constant(rows, place: Place) -> Fraction:
    """chain_constant of the combination rows (the matrix without row 1)."""
    if not rows:
        return Fraction(1)
    if place.is_archimedean:
        best = Fraction(0)
        for row in rows:
            nz = [abs(c) for c in row if c]
            cand = Fraction(len(nz)) * max(nz)
            best = max(best, cand)
        return best
    min_ord: Optional[int] = None
    for row in rows:
        for c in row:
            if c:
                e = _ord_p(c.numerator, place.p) - _ord_p(c.denominator, place.p)
                if min_ord is None or e < min_ord:
                    min_ord = e
    if min_ord is None:
        return Fraction(1)
    return Fraction(place.p) ** (-min_ord)


@dataclass(frozen=True)
class Ordering:
    """Permutation sigma (1-based) sorting forms by ||L(P)||_v ascending,
    ties broken by original index."""

    place: Place
    perm: tuple[int, ...]

    def apply(self, forms) -> list:
        return [forms[i - 1] for i in self.perm]

    def to_json_dict(self) -> dict:
        return {"place": str(self.place), "perm": list(self.perm)}


def _norm_keys(point: ProjPoint, place: Place, forms) -> tuple[list[int], list[int]]:
    """(values L_j(P), sort keys): |L_j(P)| at the archimedean place and
    -ord_p(L_j(P)) at p, since ||val||_p = p^(-ord).  Ascending keys mean
    ascending local norm.  Raises SupportError if P lies on any form."""
    values = []
    keys = []
    for i, f in enumerate(forms):
        val = f.evaluate(point)
        if val == 0:
            raise SupportError(
                "point %s lies on form %d (%s)" % (point, i + 1, f),
                point=str(point),
                subject=str(f),
                component=i + 1,
            )
        values.append(val)
        keys.append(abs(val) if place.is_archimedean else -_ord_p(val, place.p))
    return values, keys


def _perm_from_keys(keys) -> tuple[int, ...]:
    # ties broken by original index
    return tuple(i + 1 for _, i in sorted(zip(keys, range(len(keys)))))


def reorder_by_local_norm(point: ProjPoint, place: Place, forms) -> Ordering:
    """Sort hyperplanes by how v-adically close P sits to each.

    Comparisons are exact: integer absolute values at the archimedean place,
    valuations at finite ones.  Raises SupportError if P lies on any form.
    """
    forms = list(forms)
    if not forms:
        raise ArgumentError("nothing to order")
    _, keys = _norm_keys(point, place, forms)
    return Ordering(place, _perm_from_keys(keys))
