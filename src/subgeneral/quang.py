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
quang_combine writes "1" for each place (a place listed twice is refused:
the JSON object of constants would keep it once), and a replay that finds
unit rows compares every listed constant with 1, with no place parsed and
no valuation read (from_json_dict refuses a key that names no place, and
two keys that name one place, such as "inf" and "oo").
Rational rows are read entry by entry, at the place each key names.

chain_check verifies, point by point and place by place, the telescoping
estimate behind the main bound with a fully explicit constant:

    sum_{j=1}^{l+1} lambda_{H_j,v}(P)
        <= (l-n+1) sum_{t=1}^{n+1} lambda_{H'_t,v}(P) + K_v,

    K_v = n*log C_v + l*log B_v + n(l-n)*gamma_v,

where the H'_t are the outputs on the family re-sorted so that ||H_j(P)||_v
ascends (the estimate is false without that re-sorting): the greedy basis
of the re-sorted inputs modulo X, with C_v = 1.  B_v = max_j ||H_j||_v
(exactly 1 at finite places), and gamma_v is log(M+1) at the archimedean
place and 0 elsewhere, so K_v does not depend on the order (K_v = 0 at
every prime).  The check uses the certificate's inputs and X only: a table
on the certificate holds, per sort order, the re-sorted family's greedy
basis from quang_combine's own walk (_walk), which refuses what
quang_combine refuses and then keeps nothing; (n, l), B_in, K_inf and the
packed inputs are kept once per certificate.  Both sides are compared
exactly: integer valuation ledgers at finite places, and at the
archimedean place the two norm products as integer (numerator, denominator)
pairs, cross-multiplied; only the reported floats are rounded, each from
its reduced fraction.  Each point is one cell (_cell), one frame that
checks its space, evaluates the inputs, raises SupportError for a point on
an input, reads the table at the point's sort order and compares.  The
inputs a_j are evaluated as one integer product: with C_i = sum_j a_ji
2^(64j) and MASK = sum_j 2^63 2^(64j), the l+1 values L_j(P) are the
signed 64-bit limbs of (sum_i C_i x_i + MASK) ^ MASK, read by one
struct.unpack.  That is exact when every |L_j(P)| < 2^63, which holds
whenever max|x_i| < 2^62 // max_j sum_i |a_ji|; a point at or above that
bound is evaluated form by form.
chain_check_column, for the experiments' chain summary, checks every
point's space first, reads the inputs' values from columns (the sampler's
in an experiment, else one evaluation per input over the coordinate
columns), hands each point's values to its cell, and keeps (passed, slack)
per cell, with no record.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from struct import unpack

from ._frozen import Frozen
from .errors import ArgumentError, PositionError, SupportError
from .jsonio import parse_rat, rat_str, stable_dumps
# rank_rows stays bound, unused: the benchmark's perfbench/tests/test_tracer.py asserts it
from .linalg import combine, rank_rows
from .places import INF, Place, _ord_p, parse_place
from .position import PositionReport, check_general, check_subgeneral, greedy_basis
from .projective import LinearForm, LinearSubvariety, ProjPoint, wrong_space_error
from .weil import _coordinate_columns


class CombinationCertificate(Frozen):
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

    @functools.cached_property
    def _chain_table(self) -> dict:
        """The chain check's table of sort orders (module docstring), filled
        by _table_terms.  Not a field, so ==, hash and the JSON never see it."""
        return {}

    @functools.cached_property
    def _chain_constants(self) -> tuple:
        """What the chain check reads once per certificate:
        (l, n, B_in, e^(K_inf), K_inf, cols, mask, nbytes, fmt, bound).
        B_in is the inputs' product of max|coeff| and K_inf = l*log B +
        n(l-n)*log(M+1) with B = max|coeff| (C_v = 1); K_v = 0 at every
        prime.  The rest packs the inputs for _cell's evaluation (module
        docstring): cols[i] = sum_j a_ji 2^(64j), mask = sum_j 2^(64j+63),
        the struct format of the l+1 signed 64-bit values and their byte
        count, and the bound on max|x| below which every value fits.  Ints
        and a str only, so the certificate pickles with it."""
        forms = self.inputs
        l, n = len(forms) - 1, self.variety.dim
        big_b = max(f._max_coeff for f in forms)
        k = big_b**l * (self.variety.ambient_dim + 1) ** (n * (l - n))
        rows = [f.coeffs for f in forms]
        cols = tuple([sum([a << 64 * j for j, a in enumerate(col)]) for col in zip(*rows)])
        mask = sum([1 << (64 * j + 63) for j in range(l + 1)])
        bound = 2**62 // max([sum(map(abs, row)) for row in rows])
        b_in = math.prod(f._max_coeff for f in forms)
        return l, n, b_in, k, math.log(k), cols, mask, 8 * (l + 1), "<%dq" % (l + 1), bound

    def verify_soundness(self) -> bool:
        """Replay the matrix: row 1 is the first input, later rows respect
        the span discipline and reproduce the outputs exactly, and each
        listed (place, C_v) is the constant of those rows.  Every input lives
        in X's ambient space, so an output of another length is no replay,
        and fewer than n+1 inputs are none."""
        l = self.level
        n = self.variety.dim
        if l < n or len(self.outputs) != n + 1 or len(self.matrix) != n + 1:
            return False
        if self.outputs[0] != self.inputs[0]:
            return False
        if tuple(self.matrix[0]) != _unit_row(0, l):
            return False
        input_rows = [f.coeffs for f in self.inputs]
        # combine would cut a longer input to the first input's length
        if set(map(len, input_rows)) != {self.variety.ambient_dim + 1}:
            return False
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
            # a place is read only where C_v depends on it; from_json_dict
            # refuses a key that names no place
            if parse_rat(c) != (1 if fixed else _rows_constant(rows, parse_place(v))):
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
        places = set()
        for v, c in constants:
            place = parse_place(v)  # refuses a key that names no place
            parse_rat(c)
            # two keys for one place are refused, as quang_combine refuses a
            # place listed twice
            if place in places:
                raise ArgumentError("constants name the place %s twice" % place)
            places.add(place)
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
    ArgumentError when a form is not a LinearForm or a place is listed
    twice in constant_places.
    """
    forms = list(forms)
    keys = sorted([str(v) for v in constant_places])
    if len(set(keys)) != len(keys):  # the JSON object would keep it once
        raise ArgumentError("duplicate places in constant_places")
    picks = _walk(forms, variety)
    l, n = len(forms) - 1, variety.dim
    return CombinationCertificate(
        variety=variety,
        inputs=tuple(forms),
        outputs=tuple([forms[j] for j in picks]),
        matrix=tuple([_unit_row(j, l) for j in picks]),
        # the n+1 outputs have full rank on X: general position by the rank rule
        position=PositionReport(True, n, n + 1, variety),
        # unit rows: C_v = 1 at every place
        constants=tuple([(v, "1") for v in keys]),
    )


def _walk(forms: list, variety: LinearSubvariety) -> list[int]:
    """quang_combine's checks and refusals on a family: the 0-based picks of
    its greedy basis modulo X (the walk, module docstring), n+1 of them with
    the first 0, or the error that quang_combine raises."""
    if not all(isinstance(f, LinearForm) for f in forms):
        raise ArgumentError("the combination takes linear forms only")
    l = len(forms) - 1
    n = variety.dim
    if l < n:
        raise ArgumentError("need at least dim X + 1 forms, got %d" % (l + 1))
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
    return picks


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
    min_ord: int | None = None
    for row in rows:
        for c in row:
            if c:
                e = _ord_p(c.numerator, p) - _ord_p(c.denominator, p)
                if min_ord is None or e < min_ord:
                    min_ord = e
    if not min_ord:  # no nonzero entry, or max_j ||c_tj||_p = 1
        return 1
    return p**-min_ord if min_ord < 0 else Fraction(1, p**min_ord)


class Ordering(Frozen):
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
    p = place.p
    if p is None:
        return list(map(abs, values))
    # ord_p inline: a call of _ord_p per value divisible by p took a third
    # of the keys' time at p = 2 (a value of 0 would never leave the loop)
    keys = []
    for v in values:
        e = 0
        while not v % p:
            v //= p
            e -= 1
        keys.append(e)
    return keys


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
    keys = _keys(values, place)
    # ties broken by input index, since sorted is stable
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return Ordering(place, tuple([i + 1 for i in order]))


# ---------------------------------------------------------------------------
# chain check


class ChainCheckRecord(Frozen):
    point: str
    place: Place
    perm: tuple[int, ...]
    lhs: float
    rhs: float  # includes the constant
    constant_k: float
    chain_c: str  # C_v of the re-sorted family's outputs, as a rational string
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


def _table_terms(cert: CombinationCertificate, order: tuple[int, ...]):
    """The certificate's chain table at a sort order (0-based input indices):
    (perm, outputs, B_out), with perm the order 1-based, the outputs the
    greedy basis of the re-sorted inputs modulo X as input indices, and
    B_out the product of their max|coeff|.  A family that quang_combine
    refuses raises its error from the same walk, and nothing is kept."""
    terms = cert._chain_table.get(order)
    if terms is None:
        picks = _walk([cert.inputs[i] for i in order], cert.variety)
        out = tuple([order[j] for j in picks])
        b_out = math.prod([cert.inputs[i]._max_coeff for i in out])
        terms = cert._chain_table[order] = tuple([i + 1 for i in order]), out, b_out
    return terms


def _log_ratio(num: int, den: int) -> float:
    """log(num/den) of positive integers, as log(a) - log(b) of the reduced
    fraction a/b: every reported archimedean float is read this way."""
    g = math.gcd(num, den)
    return math.log(num // g) - math.log(den // g)


def _cell(cert: CombinationCertificate, place: Place, point: ProjPoint, vals=None):
    """One point of the chain check, compared exactly: (passed, slack, lhs,
    rhs, perm), or the SupportError of the first input that vanishes at the
    point.  vals, the inputs' values at the point, are evaluated here when
    not given, after the point's space is checked: packed (module docstring)
    while max|x_i| is below the certificate's bound, else form by form.
    slack is the reported float; lhs and rhs are exact: at inf e^lhs and
    e^rhs as integer (num, den) pairs, and at a prime p the integers lhs/log p
    and rhs/log p (K_v = 0)."""
    l, n, b_in, k, _, cols, mask, nbytes, fmt, bound = cert._chain_constants
    coords = point.coords
    maxx = max(map(abs, coords))
    if vals is None:
        if len(coords) != len(cols):
            # the forms share X's ambient space, so one check covers them all
            raise wrong_space_error(cert.inputs[0], point)
        if maxx < bound:
            packed = (sum(map(mul, cols, coords)) + mask) ^ mask
            vals = unpack(fmt, packed.to_bytes(nbytes, "little"))
        else:
            vals = [sum(map(mul, f.coeffs, coords)) for f in cert.inputs]
    if 0 in vals:
        i = vals.index(0)
        raise _on_form(point, i, cert.inputs[i])
    keys = _keys(vals, place)
    # 0-based; ties broken by input index, since sorted is stable
    order = tuple(sorted(range(l + 1), key=keys.__getitem__))
    terms = cert._chain_table.get(order)
    if terms is None:
        terms = _table_terms(cert, order)
    perm, out_pos, b_out = terms
    e = l - n + 1
    out_keys = [keys[i] for i in out_pos]
    p = place.p
    if p is None:
        # lhs = maxx^(l+1) B_in / |prod L_j(P)|,
        # rhs = (maxx^(n+1) B_out / |prod L'_t(P)|)^(l-n+1) e^(K_v)
        lhs = maxx ** (l + 1) * b_in, math.prod(keys)  # the keys are |L_j(P)|
        rhs = (maxx ** (n + 1) * b_out) ** e * k, math.prod(out_keys) ** e
        lhs_cross = lhs[0] * rhs[1]
        rhs_cross = rhs[0] * lhs[1]
        return lhs_cross <= rhs_cross, _log_ratio(rhs_cross, lhs_cross), lhs, rhs, perm
    lhs = -sum(keys)  # the keys are -ord_p(L_j(P))
    rhs = -e * sum(out_keys)
    return lhs <= rhs, (rhs - lhs) * math.log(p), lhs, rhs, perm


def chain_check(
    point: ProjPoint, place: Place, certificate: CombinationCertificate
) -> ChainCheckRecord:
    """Exact verification of the telescoping estimate at one (point, place).

    The family is re-sorted by ||H(P)||_v ascending, and both sides are
    compared exactly, from the certificate's inputs and X through its table
    (module docstring).  Raises SupportError when P sits on an input, which
    makes the sample point inadmissible, not the estimate false (every
    output is an input); and quang_combine's PositionError when that
    refuses the re-sorted family.
    """
    passed, slack, lhs, rhs, perm = _cell(certificate, place, point)
    p = place.p
    if p is None:
        lhs, rhs = _log_ratio(*lhs), _log_ratio(*rhs)
        k = certificate._chain_constants[4]
    else:
        logp = math.log(p)
        lhs, rhs, k = lhs * logp, rhs * logp, 0.0
    return ChainCheckRecord(str(point), place, perm, lhs, rhs, k, "1", slack, passed)


def chain_check_column(
    points, place: Place, certificate: CombinationCertificate, columns=None
) -> list:
    """chain_check over a column of points, with no record: (passed, slack)
    at each point, equal to that point's chain_check record.

    Every point is chain_check's own cell, compared from the same table on
    the certificate, on the inputs' values read from columns: columns[j][i]
    is input j at points[i] (the experiments pass the sampler's columns),
    and when not given each input is evaluated once over the coordinate
    columns.  Every point's space is checked before any comparison, so a
    point outside the inputs' ambient space raises chain_check's
    ArgumentError even after a point whose ordering is refused or that lies
    on an input; then the first point that chain_check refuses raises its
    error (SupportError on an input, or PositionError).
    """
    points = list(points)
    forms = certificate.inputs
    for pt in points:
        if len(pt.coords) != len(forms[0].coeffs):
            raise wrong_space_error(forms[0], pt)
    if not points:
        return []
    if columns is None:
        xs = _coordinate_columns(points)
        columns = [f.column(xs) for f in forms]
    return [
        _cell(certificate, place, pt, vals)[:2] for pt, vals in zip(points, zip(*columns))
    ]
