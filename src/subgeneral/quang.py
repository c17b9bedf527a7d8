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

Candidates are taken in a fixed order: increasing max-absolute coefficient,
ties broken by reading coefficients against the later spanning forms first,
with each coordinate running through 0, 1, -1, 2, -2, ...  The excluded
set is one rowspace, W = rowspace(X's forms, L'_1..L'_{t-1}), so the
candidates that land in W form a subspace, and the first candidate outside
W is the unit vector of the first spanning input L_j outside W: every
earlier candidate is supported on inputs that lie in W.  So a step is an
echelon walk, with no candidate enumeration: one integer echelon
(linalg.extend_echelon), seeded with X's forms and L_1, is extended by the
spanning inputs in order; the first input that grows it is L'_t, and the
inputs it skipped stay in W for every later step.  Each L'_t is a single
input, the coefficient matrix is 0/1, and certificates reproduce bit for
bit.  Neither position report needs a subset sweep.  The input test is one
echelon (position's rank rule: l+1 forms are l-subgeneral on X exactly when
their rows have rank n+1 modulo X); only a failing family is swept, for the
witnesses its PositionError carries.  The output report is read off the
walk.  Each step grows its echelon by one row, because l-subgeneral
position gives L_1..L_{l-n+t} rank at least t modulo X; so the walk ends
with codim X + n + 1 rows, and the n+1 outputs have rank n+1 modulo X and
are in general position, exactly when L_1 does not vanish on X.  When
l > n, l-subgeneral position allows L_1 to vanish on X (it needs only
dim(H_1 meet X) = n <= l-1); then no output family holding L'_1 = L_1 is
general, the walk ends one row short, and the family is refused with a
PositionError carrying the outputs' report.  avoid_subspaces, which
excludes several rowspaces at once (their union is no subspace), still
enumerates the candidates.

The certificate records the coefficient matrix (integer rows here; a
parsed certificate may carry any rational rows that respect the span
discipline), so replaying it reproduces the output forms exactly, and the
per-place constants

    C_v = max_t max_j ||c_tj||_v          (finite v)
    C_inf = max_t (#nonzero c_tj) * max_j |c_tj|

make ||L'_t(P)||_v <= C_v * max_j ||L_j(P)||_v pointwise.  With 0/1 unit
rows, C_v = 1 at every place.

chain_check verifies, point by point and place by place, the telescoping
estimate behind the main bound with a fully explicit constant:

    sum_{j=1}^{l+1} lambda_{H_j,v}(P)
        <= (l-n+1) sum_{t=1}^{n+1} lambda_{H'_t,v}(P) + K_v,

    K_v = n*log C_v + l*log B_v + n(l-n)*gamma_v,

where C_v is the chain constant of the certificate rebuilt on the family
re-sorted so that ||H_j(P)||_v ascends (the estimate is false without that
re-sorting), B_v = max_j ||H_j||_v (exactly 1 at finite places), and gamma_v
is log(M+1) at the archimedean place and 0 elsewhere.  Both sides are
compared exactly: integer valuation ledgers at finite places, and at the
archimedean place the two norm products as integer (numerator, denominator)
pairs, cross-multiplied; only the reported floats are rounded, each from
its reduced fraction.  The check reads only the given certificate's inputs
and X: it rebuilds its own certificate on the re-sorted family, so the
given certificate's matrix, outputs and constants never reach a record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Optional

from .errors import (
    ArgumentError,
    InfeasibleAvoidanceError,
    PositionError,
    SupportError,
)
from .jsonio import parse_rat, rat_str, stable_dumps
from .linalg import annihilator_products, combine, extend_echelon, rank_rows
from .places import INF, Place, _ord_p, parse_place
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
    matrix: tuple[tuple[int | Fraction, ...], ...]  # (n+1) rows, (l+1) columns
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
        the span discipline and reproduce the outputs exactly, and each
        listed (place, C_v) is the constant of those rows."""
        l = self.level
        n = self.variety.dim
        if len(self.outputs) != n + 1 or len(self.matrix) != n + 1:
            return False
        if self.outputs[0] != self.inputs[0]:
            return False
        if tuple(self.matrix[0]) != _unit_row(0, l):
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
        return all(
            parse_rat(c) == chain_constant(self, parse_place(v)) for v, c in self.constants
        )

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
        constants = tuple(sorted(data.get("constants", {}).items()))
        for v, c in constants:
            parse_place(v), parse_rat(c)  # refuses a key that names no place
        return cls(
            variety=variety,
            inputs=inputs,
            outputs=outputs,
            matrix=matrix,
            position=check_general(list(outputs), variety),
            constants=constants,
        )


def _unit_row(j: int, l: int) -> tuple[int, ...]:
    """Row of the coefficient matrix that picks input j (0-based) of l+1."""
    row = [0] * (l + 1)
    row[j] = 1
    return tuple(row)


def quang_combine(
    forms, variety: LinearSubvariety, constant_places: tuple[Place, ...] = (INF,)
) -> CombinationCertificate:
    """Run the construction on an l-subgeneral family of l+1 hyperplanes.

    Raises PositionError (with the failing report) when the input family is
    not l-subgeneral on X for l = len(forms) - 1, or when L_1 vanishes on X
    (allowed in l-subgeneral position once l > n), so that L'_1 = L_1 keeps
    the outputs out of general position (the report is then the outputs');
    ArgumentError when a form is not a LinearForm.
    """
    forms = list(forms)
    if not all(isinstance(f, LinearForm) for f in forms):
        raise ArgumentError("the combination takes linear forms only")
    l = len(forms) - 1
    n = variety.dim
    if l < n:
        raise ArgumentError("need at least dim X + 1 forms, got %d" % (l + 1))
    report = check_subgeneral(forms, variety, l)  # one echelon when it passes
    if not report.verdict:
        raise PositionError(
            "inputs are not %d-subgeneral on X (%d witnesses)"
            % (l, len(report.witnesses)),
            report=report,
        )
    outputs = [forms[0]]
    rows = [_unit_row(0, l)]
    echelon: list = []  # of W = rowspace(X's forms, L'_1..L'_{t-1})
    for f in variety.forms + (forms[0],):
        echelon = extend_echelon(echelon, f.coeffs)
    j = 1  # 0-based index of the next spanning input; earlier ones lie in W
    for t in range(2, n + 2):
        hi = l - n + t  # spanning forms are inputs 2..hi (1-based)
        # L'_t is the first spanning input outside W (module docstring)
        grown = echelon
        while grown is echelon:  # extend_echelon returns W's own list for a row in W
            if j == hi:
                raise RuntimeError("every spanning input lies in W; this is a bug")
            grown = extend_echelon(echelon, forms[j].coeffs)
            j += 1
        echelon = grown
        outputs.append(forms[j - 1])
        rows.append(_unit_row(j - 1, l))
    if len(echelon) <= variety.ambient_dim:
        # one row short of codim X + n + 1: L_1 lies in rowspace(X)
        out_report = check_general(outputs, variety)
        raise PositionError(
            "L_1 vanishes on X, so the outputs are not in general position"
            " (%d witnesses)" % len(out_report.witnesses),
            report=out_report,
        )
    constants = sorted(
        (str(v), rat_str(_rows_constant(rows[1:], v))) for v in constant_places
    )
    return CombinationCertificate(
        variety=variety,
        inputs=tuple(forms),
        outputs=tuple(outputs),
        matrix=tuple(rows),
        # the walk's echelon has rank codim X + n + 1, so the n+1 outputs
        # have full rank on X: general position by the rank rule
        position=PositionReport(True, n, n + 1, variety),
        constants=tuple(constants),
    )


@functools.lru_cache(maxsize=100000)
def quang_combine_cached(
    forms: tuple[LinearForm, ...], variety: LinearSubvariety
) -> CombinationCertificate:
    return quang_combine(list(forms), variety)


def chain_constant(cert: CombinationCertificate, place: Place) -> int | Fraction:
    """Smallest constant of the certified shape valid for every round.

    finite v: max over combination rows of max_j ||c_tj||_v;
    archimedean: max over rows of (#nonzero entries) * max_j |c_tj|.
    """
    return _rows_constant(cert.matrix[1:], place)


def _rows_constant(rows, place: Place) -> int | Fraction:
    """chain_constant of the combination rows (the matrix without row 1);
    an int when it is integral, as it is whenever every entry is an int."""
    if not rows:
        return 1
    if place.is_archimedean:
        best = 0
        for row in rows:
            nz = [abs(c) for c in row if c]
            best = max(best, len(nz) * max(nz))
        return best
    p = place.p
    min_ord: Optional[int] = None
    for row in rows:
        for c in row:
            if c:
                e = _ord_p(c.numerator, p) - _ord_p(c.denominator, p)
                if min_ord is None or e < min_ord:
                    min_ord = e
    if not min_ord:  # no nonzero entry, or max_j ||c_tj||_p = 1
        return 1
    return p**-min_ord if min_ord < 0 else Fraction(1, p**min_ord)


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


def _on_form(point: ProjPoint, i: int, form: LinearForm) -> SupportError:
    return SupportError(
        "point %s lies on form %d (%s)" % (point, i + 1, form),
        point=str(point),
        subject=str(form),
        component=i + 1,
    )


def _keys(values, place: Place) -> list[int]:
    """Sort keys of nonzero values L_j(P): |L_j(P)| at the archimedean place
    and -ord_p(L_j(P)) at p, since ||val||_p = p^(-ord).  Ascending keys
    mean ascending local norm."""
    if place.is_archimedean:
        return list(map(abs, values))
    p = place.p
    return [-_ord_p(v, p) for v in values]


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
    values = []
    for i, f in enumerate(forms):
        val = f.evaluate(point)
        if val == 0:
            raise _on_form(point, i, f)
        values.append(val)
    return Ordering(place, _perm_from_keys(_keys(values, place)))


# ---------------------------------------------------------------------------
# chain check


@dataclass(frozen=True)
class ChainCheckRecord:
    point: str
    place: Place
    perm: tuple[int, ...]
    lhs: float
    rhs: float  # includes the constant
    constant_k: float
    chain_c: str  # C_v for the re-sorted certificate, as a rational string
    slack: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "point": self.point,
            "place": str(self.place),
            "perm": list(self.perm),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "k": self.constant_k,
            "chain_c": self.chain_c,
            "slack": self.slack,
            "passed": self.passed,
        }


@functools.lru_cache(maxsize=100000)
def _chain_terms(forms: tuple[LinearForm, ...], variety: LinearSubvariety, place: Place):
    """The part of a chain check fixed by the re-sorted family and the place:
    (C_v as a rational string, each output's index in the family, the
    products of the inputs' and of the outputs' max|coeff|, K_v exactly, K_v
    as a float).  Every output is an input (module docstring), so a check
    reads the output values from the input values by these indices; should
    an output ever not be an input, forms.index raises here instead.

    Exactly, K_v is the rational e^(K_v) as a reduced (num, den) pair of
    integers at the archimedean place and the integer K_v / log p =
    n*ord_p(C_v) at a finite one."""
    cert = quang_combine_cached(forms, variety)
    c_v = chain_constant(cert, place)
    l = len(forms) - 1
    n = variety.dim
    out_idx = tuple(map(forms.index, cert.outputs))
    b_in = math.prod(f._max_coeff for f in forms)
    b_out = math.prod(f._max_coeff for f in cert.outputs)
    if place.is_archimedean:
        big_b = max(f._max_coeff for f in forms)
        k_q = (
            Fraction(c_v) ** n
            * big_b**l
            * (variety.ambient_dim + 1) ** (n * (l - n))
        )
        k_exact = (k_q.numerator, k_q.denominator)
        return rat_str(c_v), out_idx, b_in, b_out, k_exact, _log_ratio(*k_exact)
    # K_v = n*log C_v and C_v is a power of p, so log_p C_v = ord_p(C_v)
    p = place.p
    k_e = n * (_ord_p(c_v.numerator, p) - _ord_p(c_v.denominator, p))
    return rat_str(c_v), out_idx, b_in, b_out, k_e, k_e * math.log(p)


def _log_ratio(num: int, den: int) -> float:
    """log(num/den) of positive integers, as log(a) - log(b) of the reduced
    fraction a/b: every reported archimedean float is read this way."""
    g = math.gcd(num, den)
    return math.log(num // g) - math.log(den // g)


def chain_check(
    point: ProjPoint, place: Place, certificate: CombinationCertificate
) -> ChainCheckRecord:
    """Exact verification of the telescoping estimate at one (point, place).

    The family is re-sorted by ||H(P)||_v ascending, the combination is
    rebuilt on the sorted family, and both sides are compared exactly.
    Only the certificate's inputs and X are read.  Raises SupportError when
    P sits on an input, which makes the sample point inadmissible, not the
    estimate false; every rebuilt combination is an input, so P on one of
    them is P on an input.
    """
    forms = certificate.inputs
    variety = certificate.variety
    l = len(forms) - 1
    n = variety.dim
    coords = point.coords
    if len(coords) != len(forms[0].coeffs):
        # the forms share X's ambient space, so one check covers them all
        raise ArgumentError(
            "form on P^%d evaluated at point of P^%d" % (forms[0].dim, point.dim)
        )
    in_vals = [sum(map(mul, f.coeffs, coords)) for f in forms]
    if 0 in in_vals:
        i = in_vals.index(0)
        raise _on_form(point, i, forms[i])
    keys = _keys(in_vals, place)
    perm = _perm_from_keys(keys)
    chain_c, out_idx, b_in, b_out, k_exact, k_f = _chain_terms(
        tuple(forms[i - 1] for i in perm), variety, place
    )
    # output t is sorted input out_idx[t], that is input perm[out_idx[t]]
    out_keys = [keys[perm[j] - 1] for j in out_idx]
    e = l - n + 1
    if place.is_archimedean:
        # lhs = maxx^(l+1) B_in / |prod L_j(P)|,
        # rhs = (maxx^(n+1) B_out / |prod L'_t(P)|)^(l-n+1) e^(K_v)
        maxx = max(map(abs, coords))
        lhs_num = maxx ** (l + 1) * b_in
        lhs_den = math.prod(keys)  # the keys are |L_j(P)|
        rhs_num = (maxx ** (n + 1) * b_out) ** e * k_exact[0]
        rhs_den = math.prod(out_keys) ** e * k_exact[1]
        lhs_cross = lhs_num * rhs_den
        rhs_cross = rhs_num * lhs_den
        passed = lhs_cross <= rhs_cross
        lhs = _log_ratio(lhs_num, lhs_den)
        rhs = _log_ratio(rhs_num, rhs_den)
        slack = _log_ratio(rhs_cross, lhs_cross)
    else:
        p = place.p
        logp = math.log(p)
        lhs_e = -sum(keys)  # the keys are -ord_p(L_j(P))
        rhs_e = -e * sum(out_keys) + k_exact
        lhs, rhs = lhs_e * logp, rhs_e * logp
        passed = lhs_e <= rhs_e
        slack = (rhs_e - lhs_e) * logp
    return ChainCheckRecord(
        point=str(point),
        place=place,
        perm=perm,
        lhs=lhs,
        rhs=rhs,
        constant_k=k_f,
        chain_c=chain_c,
        slack=slack,
        passed=passed,
    )
