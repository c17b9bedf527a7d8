"""Generic linear combinations turning subgeneral position into general position.

Given hyperplanes L_1..L_{l+1} in l-subgeneral position on a linear
subvariety X of dimension n, the construction picks

    L'_1 = L_1,
    L'_t = a combination of L_2..L_{l-n+t}   (t = 2..n+1)

so that the L'_t are in general position on X.  Step t must avoid every
combination that vanishes identically on the current intersection
X meet {L'_1 = ... = L'_{t-1} = 0}: because X and the forms are linear,
those are the combinations in one rowspace,
W = rowspace(X's forms, L'_1..L'_{t-1}).

In the construction's candidate order (increasing max-absolute
coefficient, ties broken by reading coefficients against the later
spanning forms first, each coordinate running through 0, 1, -1, 2, -2,
...) the first candidate outside W is the unit vector of the first
spanning input outside W: every earlier candidate is supported on inputs
that lie in W.  So each L'_t is a single input, and the outputs are the
greedy basis of the family modulo X, read in input order.  That is the
echelon that position's rank rule grows to decide the inputs
(position.greedy_basis; l+1 forms are l-subgeneral on X exactly when their
rows reach rank n+1 modulo X), so the walk is that one echelon: X is
reduced once, and no candidate is enumerated and no subset swept.  Its
picks give three cases:

- fewer than n+1 picks: the inputs are not l-subgeneral, and only then are
  they swept, for the witnesses that their PositionError carries;
- a first pick other than L_1: L_1 vanishes on X, which l-subgeneral
  position allows once l > n (it needs only dim(H_1 meet X) = n <= l-1).
  No output family holding L'_1 = L_1 is general, so the family is refused
  with a PositionError carrying the report of L_1 and the first n picks;
- otherwise the outputs are the n+1 picks.  They have full rank on X, so
  they are in general position and their report is read off the walk.  The
  t-th pick lies among L_1..L_{l-n+t}, because l-subgeneral position gives
  those rank at least t modulo X, so the span discipline holds.

The certificate records the coefficient matrix (integer rows here; a
parsed certificate may carry any rational rows that respect the span
discipline), so replaying it reproduces the output forms exactly, and the
per-place constants

    C_v = max_t max_j ||c_tj||_v          (finite v)
    C_inf = max_t (#nonzero c_tj) * max_j |c_tj|

make ||L'_t(P)||_v <= C_v * max_j ||L_j(P)||_v pointwise.  Every row that
quang_combine builds is a 0/1 unit row, so C_v = 1 at every place:
quang_combine writes "1" for each place, and a replay that finds unit rows
compares every listed constant with 1, with no valuation read.  Rational
rows are read entry by entry.

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
chain_check_column makes the same comparison (one helper,
_chain_inequality, holds it for both) over a column of points, for the
experiments' chain summary: each input is evaluated once over the
coordinate columns, the re-sorted family's terms are looked up once per
distinct permutation, a point on an input is marked instead of raised, and
only (passed, slack) is kept, with no record and no point label.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import ArgumentError, PositionError, SupportError
from .jsonio import parse_rat, rat_str, stable_dumps
# rank_rows stays bound, unused: the benchmark's perfbench/tests/test_tracer.py asserts it
from .linalg import combine, rank_rows
from .places import INF, Place, _ord_p, parse_place
from .position import PositionReport, check_general, check_subgeneral, greedy_basis
from .projective import LinearForm, LinearSubvariety, ProjPoint

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
            row = self.matrix[r]
            hi = l - n + r + 1  # 1-based top usable input index of L'_{r+1}
            if len(row) != l + 1 or row[0] or any(row[hi:]):
                return False
            if combine(row, input_rows) != list(self.outputs[r].coeffs):
                return False
        rows = self.matrix[1:]
        fixed = _unit_rows(rows)  # then C_v = 1 at every place
        for v, c in self.constants:
            place = parse_place(v)  # refuses a key that names no place
            if parse_rat(c) != (1 if fixed else _rows_constant(rows, place)):
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
    # the greedy basis of the inputs modulo X: the walk (module docstring)
    picks = greedy_basis(forms, variety, n + 1)[1]
    if len(picks) <= n:
        # rank rule: l+1 forms are l-subgeneral exactly at full rank n+1 on X
        report = check_subgeneral(forms, variety, l)
        raise PositionError(
            "inputs are not %d-subgeneral on X (%d witnesses)"
            % (l, len(report.witnesses)),
            report=report,
        )
    if picks[0]:
        # L_1 lies in rowspace(X): the outputs are L_1 and the walk's first
        # n picks, and they are not in general position
        outputs = [forms[0]] + [forms[j] for j in picks[:n]]
        out_report = check_general(outputs, variety)
        raise PositionError(
            "L_1 vanishes on X, so the outputs are not in general position"
            " (%d witnesses)" % len(out_report.witnesses),
            report=out_report,
        )
    return CombinationCertificate(
        variety=variety,
        inputs=tuple(forms),
        outputs=tuple([forms[j] for j in picks]),
        matrix=tuple([_unit_row(j, l) for j in picks]),
        # the n+1 outputs have full rank on X: general position by the rank rule
        position=PositionReport(True, n, n + 1, variety),
        # unit rows: C_v = 1 at every place
        constants=tuple(sorted((str(v), "1") for v in constant_places)),
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


def _unit_rows(rows) -> bool:
    """Whether every row has one nonzero entry and that entry is 1, as every
    row that quang_combine builds has: C_v = 1 at every place then."""
    return all(row.count(0) == len(row) - 1 and 1 in row for row in rows)


def _rows_constant(rows, place: Place) -> int | Fraction:
    """chain_constant of the combination rows (the matrix without row 1);
    an int when it is integral, as it is whenever every entry is an int."""
    if _unit_rows(rows):  # no rows at all, too
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


def _wrong_space(form: LinearForm, point: ProjPoint) -> ArgumentError:
    return ArgumentError(
        "form on P^%d evaluated at point of P^%d" % (form.dim, point.dim)
    )


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
    p = place.p
    if p is None:
        return list(map(abs, values))
    return [-_ord_p(v, p) if v % p == 0 else 0 for v in values]


def _perm_from_keys(keys) -> tuple[int, ...]:
    # ties broken by original index, since sorted is stable
    return tuple(map((1).__add__, sorted(range(len(keys)), key=keys.__getitem__)))


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


def _chain_inequality(keys, perm, terms, maxx, n: int, p: Optional[int]):
    """The telescoping estimate at one point, compared exactly: (passed,
    slack, lhs, rhs) from the inputs' sort keys (_keys), their permutation
    and the re-sorted family's _chain_terms.  slack is the reported float;
    lhs and rhs are exact: at inf e^lhs and e^rhs as integer (num, den)
    pairs, with maxx = max|x_i| of the point, and at a prime p (p None at
    inf) the integers lhs/log p and rhs/log p (maxx unread)."""
    _, out_idx, b_in, b_out, k_exact, _ = terms
    l = len(keys) - 1
    e = l - n + 1
    # output t is sorted input out_idx[t], that is input perm[out_idx[t]]
    out_keys = [keys[perm[j] - 1] for j in out_idx]
    if p is None:
        # lhs = maxx^(l+1) B_in / |prod L_j(P)|,
        # rhs = (maxx^(n+1) B_out / |prod L'_t(P)|)^(l-n+1) e^(K_v)
        lhs = maxx ** (l + 1) * b_in, math.prod(keys)  # the keys are |L_j(P)|
        rhs = (
            (maxx ** (n + 1) * b_out) ** e * k_exact[0],
            math.prod(out_keys) ** e * k_exact[1],
        )
        lhs_cross = lhs[0] * rhs[1]
        rhs_cross = rhs[0] * lhs[1]
        return lhs_cross <= rhs_cross, _log_ratio(rhs_cross, lhs_cross), lhs, rhs
    lhs = -sum(keys)  # the keys are -ord_p(L_j(P))
    rhs = -e * sum(out_keys) + k_exact
    return lhs <= rhs, (rhs - lhs) * math.log(p), lhs, rhs


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
    coords = point.coords
    if len(coords) != len(forms[0].coeffs):
        # the forms share X's ambient space, so one check covers them all
        raise _wrong_space(forms[0], point)
    in_vals = [sum(map(mul, f.coeffs, coords)) for f in forms]
    if 0 in in_vals:
        i = in_vals.index(0)
        raise _on_form(point, i, forms[i])
    keys = _keys(in_vals, place)
    perm = _perm_from_keys(keys)
    terms = _chain_terms(tuple([forms[i - 1] for i in perm]), variety, place)
    p = place.p
    maxx = max(map(abs, coords)) if p is None else None
    passed, slack, lhs, rhs = _chain_inequality(keys, perm, terms, maxx, variety.dim, p)
    if p is None:
        lhs, rhs = _log_ratio(*lhs), _log_ratio(*rhs)
    else:
        logp = math.log(p)
        lhs, rhs = lhs * logp, rhs * logp
    return ChainCheckRecord(
        point=str(point),
        place=place,
        perm=perm,
        lhs=lhs,
        rhs=rhs,
        constant_k=terms[5],
        chain_c=terms[0],
        slack=slack,
        passed=passed,
    )


def chain_check_column(
    points, place: Place, certificate: CombinationCertificate
) -> list:
    """chain_check over a column of points, with no record: (passed, slack)
    at each point, equal to that point's chain_check record, or None where
    the point lies on an input (where chain_check raises SupportError).

    Each input is evaluated once over the coordinate columns, the re-sorted
    family's _chain_terms are looked up once per distinct permutation, and
    each point is compared by chain_check's own _chain_inequality.  Raises
    chain_check's ArgumentError when a point lies outside the inputs'
    ambient space.
    """
    forms = certificate.inputs
    variety = certificate.variety
    coords = [pt.coords for pt in points]
    width = len(forms[0].coeffs)
    for pt, c in zip(points, coords):
        if len(c) != width:
            raise _wrong_space(forms[0], pt)
    if not coords:
        return []
    xs = list(zip(*coords))
    p = place.p
    n = variety.dim
    terms_of: dict = {}
    out = []
    for c, vals in zip(coords, zip(*[f.column(xs) for f in forms])):
        if 0 in vals:
            out.append(None)
            continue
        keys = _keys(vals, place)
        perm = _perm_from_keys(keys)
        terms = terms_of.get(perm)
        if terms is None:
            terms = terms_of[perm] = _chain_terms(
                tuple([forms[i - 1] for i in perm]), variety, place
            )
        maxx = max(map(abs, c)) if p is None else None
        out.append(_chain_inequality(keys, perm, terms, maxx, n, p)[:2])
    return out
