"""Subgeneral and general position checks for hyperplane arrangements.

A family of hyperplanes H_1..H_q is in l-subgeneral position on a linear
subvariety X of dimension n when every subfamily J with #J <= l+1 satisfies

    dim( (intersect_{j in J} Supp H_j) intersect X ) <= l - #J,

with dim(empty) = -1.  General position is the case l = n.

Dimensions are exact, from fraction-free integer elimination.  X's forms
are reduced to an integer echelon once and each input form is reduced
against it once, so the sweep works modulo X, in the n+1 columns that are
not X's pivots: dim(J meet X) = n - (rank of J's reduced rows).  The sweep
walks the subsets depth first in lexicographic order, and each subset's
echelon is its prefix's extended by one row reduction
(linalg.extend_echelon): one reduction per subset, and one echelon per
level of the walk in memory.  A subset whose intersection with X is
already empty is not extended: a superset J' with #J' <= l+1 meets X in
dimension -1 <= l - #J', so it cannot violate.  Witnesses are filed by
size, so they come out smallest subfamily first, then lexicographically,
as a size-by-size subset loop finds them.  verdict_only keeps the first
witness in that order: once a witness of size s is found, nothing of size
s or more is visited again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArgumentError
from .linalg import extend_echelon, rank_rows, reduce_row
from .projective import LinearForm, LinearSubvariety
from .jsonio import stable_dumps


@dataclass(frozen=True)
class Witness:
    """One violating subfamily: indices are 1-based into the arrangement."""

    subset: tuple[int, ...]
    dim: int
    allowed: int

    def to_json_dict(self) -> dict:
        return {"subset": list(self.subset), "dim": self.dim, "allowed": self.allowed}


@dataclass(frozen=True)
class PositionReport:
    verdict: bool
    level: int
    q: int
    variety: LinearSubvariety
    witnesses: tuple[Witness, ...] = field(default_factory=tuple)
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


def intersection_dim(forms, variety: LinearSubvariety) -> int:
    """Projective dimension of (common zero locus of linear forms) meet X; -1 if empty."""
    forms = list(forms)
    rows = _coeff_rows(forms, variety) if forms else []
    return variety.ambient_dim - rank_rows([f.coeffs for f in variety.forms] + rows)


def _coeff_rows(forms, variety: LinearSubvariety) -> list[tuple[int, ...]]:
    """Coefficient rows of a family, after the checks every sweep needs:
    at least one form, linear forms only, all on X's ambient space."""
    forms = list(forms)
    if not forms:
        raise ArgumentError("need at least one form")
    for f in forms:
        if not isinstance(f, LinearForm):
            raise ArgumentError("position checks take linear forms only")
        if f.dim != variety.ambient_dim:
            raise ArgumentError("form lives in the wrong ambient space")
    return [f.coeffs for f in forms]


def _violations(rows, variety: LinearSubvariety, level: int, verdict_only: bool = False):
    """(witnesses, complete) of the subset sweep over integer rows that
    _coeff_rows has checked; complete is False when verdict_only stopped."""
    base: list = []
    for f in variety.forms:
        base = extend_echelon(base, f.coeffs)
    pivots = {col for col, _ in base}
    free = [c for c in range(variety.ambient_dim + 1) if c not in pivots]
    reduced = []
    for row in rows:
        rem = reduce_row(base, row)
        reduced.append([rem[c] for c in free])
    n = variety.dim
    q = len(reduced)
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
    rows = _coeff_rows(forms, variety)
    if level < variety.dim:
        raise ArgumentError(
            "level l=%d below dim X=%d; the position notion needs l >= dim X"
            % (level, variety.dim)
        )
    witnesses, complete = _violations(rows, variety, level, verdict_only)
    return PositionReport(
        verdict=not witnesses,
        level=level,
        q=len(rows),
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
    rows = _coeff_rows(forms, variety)
    if level < 0:
        raise ArgumentError("level must be >= 0")
    witnesses, _ = _violations(rows, variety, level)
    return tuple(witnesses)
