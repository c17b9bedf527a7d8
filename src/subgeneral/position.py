"""Subgeneral and general position checks for hyperplane arrangements.

A family of hyperplanes H_1..H_q is in l-subgeneral position on a linear
subvariety X of dimension n when every subfamily J with #J <= l+1 satisfies

    dim( (intersect_{j in J} Supp H_j) intersect X ) <= l - #J,

with dim(empty) = -1.  General position is the case l = n.

Dimensions are exact, from fraction-free integer elimination.
greedy_basis reduces X's forms to an integer echelon once and each input
form against it once, so everything here works modulo X, in the n+1
columns that are not X's pivots: dim(J meet X) = n - (rank of J's reduced
rows).  The sweep walks the subsets depth first in lexicographic order,
and each subset's echelon is its prefix's extended by one row reduction
(linalg.extend_echelon): one reduction per subset, and one echelon per
level of the walk in memory.  A subset whose intersection with X is
already empty is not extended: a superset J' with #J' <= l+1 meets X in
dimension -1 <= l - #J', so it cannot violate.  Witnesses are filed by
size, so they come out smallest subfamily first, then lexicographically,
as a size-by-size subset loop finds them.  verdict_only keeps the first
witness in that order: once a witness of size s is found, nothing of size
s or more is visited again.

Rank rule: with q <= l+1 forms the whole family is the worst subfamily.  The
condition reads #J - rank(J mod X) <= l - n, and that nullity never falls
when a form is added (#J grows by one, the rank by at most one).  So such a
family is l-subgeneral exactly when its reduced rows have rank at least
q - (l - n); for q = l+1 that is full rank n+1 on X.  One echelon of the
reduced rows decides a passing family before any sweep, and a failing one
is swept as above for its witnesses.  At l < dim X the threshold
q + (n - l) exceeds q, so the rule is not tried there.

The rank rule's echelon is grown in input order, so the forms that grow it
(greedy_basis's picks) are the greedy basis of the family modulo X.  That
basis is what the combination construction (quang) reads: with l+1 forms
the picks reach n+1 exactly when the family is l-subgeneral, and when the
first pick is L_1 they are the construction's outputs.
"""

from __future__ import annotations

from ._frozen import Frozen
from .errors import ArgumentError
from .linalg import extend_echelon, reduce_row
from .projective import LinearForm, LinearSubvariety
from .jsonio import stable_dumps


class Witness(Frozen):
    """One violating subfamily: indices are 1-based into the arrangement."""

    subset: tuple[int, ...]
    dim: int
    allowed: int

    def to_json_dict(self) -> dict:
        return {"subset": list(self.subset), "dim": self.dim, "allowed": self.allowed}


class PositionReport(Frozen):
    verdict: bool
    level: int
    q: int
    variety: LinearSubvariety
    witnesses: tuple[Witness, ...] = ()
    complete: bool = True  # False when verdict-only mode stopped early

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "level": self.level,
            "q": self.q,
            "x": self.variety.to_json(),
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "complete": self.complete,
        }

    def to_json(self) -> str:
        return stable_dumps(self.to_json_dict())


def greedy_basis(forms, variety: LinearSubvariety, rank: int):
    """(reduced rows, picks) of a family of linear forms on X.

    The forms are checked first: at least one, linear forms only, all on X's
    ambient space.  Each is reduced modulo X once, against X's integer
    echelon, and kept in the n+1 columns that are not X's pivots.  picks are
    the 0-based indices of the forms that grow one echelon of those rows,
    in input order, until it reaches the given rank: the greedy basis of the
    family modulo X.  Reduction stops at the pick that reaches a positive
    rank, so the reduced rows are all the family's only when the picks fall
    short of it or the rank is 0: the cases in which the sweep reads them.
    """
    forms = list(forms)
    if not forms:
        raise ArgumentError("need at least one form")
    for f in forms:
        if not isinstance(f, LinearForm):
            raise ArgumentError("position checks take linear forms only")
        if f.dim != variety.ambient_dim:
            raise ArgumentError("form lives in the wrong ambient space")
    base: list = []
    for f in variety.forms:
        base = extend_echelon(base, f.coeffs)
    pivots = {col for col, _ in base}
    free = [c for c in range(variety.ambient_dim + 1) if c not in pivots]
    reduced = []
    picks = []
    echelon: list = []
    for j, f in enumerate(forms):
        rem = reduce_row(base, f.coeffs)
        row = [rem[c] for c in free]
        reduced.append(row)
        if len(picks) < rank:
            grown = extend_echelon(echelon, row)
            if grown is not echelon:  # the same list back means row lies in it
                picks.append(j)
                echelon = grown
                if len(picks) == rank:
                    break
    return reduced, picks


def _violations(forms, variety: LinearSubvariety, level: int, verdict_only: bool = False):
    """(witnesses, complete) of the subset sweep over a list of forms, which
    greedy_basis checks; complete is False when verdict_only stopped."""
    n = variety.dim
    q = len(forms)
    # rank rule (module docstring): the whole family decides the verdict
    rule = n <= level and q <= level + 1
    need = q - (level - n)
    reduced, picks = greedy_basis(forms, variety, need if rule else 0)
    if rule and len(picks) >= need:
        return [], True
    found: list[list[Witness]] = [[] for _ in range(min(level + 1, q) + 1)]
    cap = len(found) - 1  # largest subset size still worth visiting

    def visit(subset, echelon):
        # children subset + (j,) in lex order, each grown from this echelon
        nonlocal cap
        size = len(subset) + 1
        allowed = level - size
        for j in range(subset[-1] if subset else 0, q):
            if size > cap:
                return
            ext = extend_echelon(echelon, reduced[j])
            dim = n - len(ext)
            child = subset + (j + 1,)
            if dim > allowed:
                found[size].append(Witness(child, dim, allowed))
                if verdict_only:
                    # later subsets of this size are lex-greater and larger
                    # ones come later in the order: only a smaller one can
                    # still come first
                    cap = size - 1
                    return
            if dim >= 0 and size < cap:
                visit(child, ext)

    visit((), [])
    witnesses = [w for ws in found for w in ws]
    if verdict_only and witnesses:
        return witnesses[:1], False
    return witnesses, True


def check_subgeneral(
    forms, variety: LinearSubvariety, level: int, verdict_only: bool = False
) -> PositionReport:
    """Full l-subgeneral position report with all violating witnesses.

    Witnesses come out smallest subfamily first, then lexicographically.
    verdict_only stops at the first violation (complete=False in that case).
    """
    forms = list(forms)
    if level < variety.dim:
        raise ArgumentError(
            "level l=%d below dim X=%d; the position notion needs l >= dim X"
            % (level, variety.dim)
        )
    witnesses, complete = _violations(forms, variety, level, verdict_only)
    return PositionReport(
        verdict=not witnesses,
        level=level,
        q=len(forms),
        variety=variety,
        witnesses=tuple(witnesses),
        complete=complete or not witnesses,
    )


def check_general(forms, variety: LinearSubvariety, verdict_only: bool = False) -> PositionReport:
    """General position == dim(X)-subgeneral position."""
    return check_subgeneral(forms, variety, variety.dim, verdict_only=verdict_only)


def violations_at(forms, variety: LinearSubvariety, level: int) -> tuple[Witness, ...]:
    """Raw subset sweep at any level, without the l >= dim X gate.

    Useful for strictness probes: a family is *strictly* l-subgeneral when
    violations_at(l) is empty and violations_at(l-1) is not.
    """
    if level < 0:
        raise ArgumentError("level must be >= 0")
    witnesses, _ = _violations(list(forms), variety, level)
    return tuple(witnesses)
