"""Local Weil functions, heights, and proximity sums over Q.

For a linear form L and a point P with canonical coordinates x,

    lambda_{L,v}(P) = log||x||_v + log||L||_v - log||L(P)||_v,

with ||.||_v the max-norm over coordinates.  A degree-d form F uses
d*log||x||_v instead.  Canonical normalization makes every finite-place
max-norm of x and of the coefficient vector equal to 1, so finite local
values reduce to ord_p(F(P)) * log p: exact, nonnegative prime-power
ledgers.  A closed subscheme given as an intersection of divisor components
takes the minimum of the component values.

Heights: h(P) = log max_i |x_i|, the sum of local max-norm logs (the finite
places contribute 0 for canonical coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import Optional, Union

from .errors import ArgumentError, SupportError
from .places import Place, _ord_p, parse_place
from .projective import HomForm, LinearForm, ProjPoint

Target = Union[LinearForm, HomForm, "SubschemeSpec"]


@dataclass(frozen=True)
class SubschemeSpec:
    """A closed subscheme presented as the intersection of divisor supports."""

    components: tuple
    label: str = ""

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ArgumentError("subscheme needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ArgumentError("components live in different ambient spaces")
        for c in comps:
            if not isinstance(c, (LinearForm, HomForm)):
                raise ArgumentError("components must be linear or homogeneous forms")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def __str__(self) -> str:
        return self.label or "cap(%s)" % "; ".join(str(c) for c in self.components)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "components": [target_to_json(c) for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "SubschemeSpec":
        comps = tuple(target_from_json(c) for c in data["components"])
        return cls(comps, str(data.get("label", "")))


def target_to_json(t: Target) -> dict:
    if isinstance(t, LinearForm):
        return {"type": "linear", "coeffs": t.to_json()}
    if isinstance(t, HomForm):
        d = t.to_json()
        d["type"] = "form"
        return d
    if isinstance(t, SubschemeSpec):
        d = t.to_json()
        d["type"] = "subscheme"
        return d
    raise ArgumentError("not a Weil target: %r" % (t,))


def target_from_json(data) -> Target:
    if isinstance(data, (list, tuple)):
        # bare coefficient list: shorthand for a linear form
        return LinearForm.from_json(data)
    if not isinstance(data, dict):
        raise ArgumentError("not a Weil target: %r" % (data,))
    kind = data.get("type")
    if kind == "linear":
        return LinearForm.from_json(data["coeffs"])
    if kind == "form":
        return HomForm.from_json(data)
    if kind == "subscheme":
        return SubschemeSpec.from_json(data)
    raise ArgumentError("unknown target type: %r" % (kind,))


@dataclass(frozen=True)
class WeilValue:
    """One local Weil value.

    exact is (p, e) with value == e*log(p) at finite places, None at the
    archimedean place.  dropped lists 1-based component indices that sat on
    their support and were removed from a lenient subscheme minimum.
    """

    value: float
    place: Place
    subject: str
    point: str
    exact: Optional[tuple[int, int]] = None
    dropped: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "place": str(self.place),
            "subject": self.subject,
            "point": self.point,
            "exact": list(self.exact) if self.exact else None,
            "dropped": list(self.dropped),
        }


# ---------------------------------------------------------------------------
# the local-value kernel: the one place that knows the support convention
# and the float formula; every local value in the package is read from it


def _live(point: ProjPoint, target: Target, mode: str):
    """((component, F(P)) for each component nonzero at P, 1-based indices
    of the vanishing ones); a form is its own single component.

    Raises SupportError when P lies on a form, on every component of a
    subscheme, or in strict mode on any component."""
    if isinstance(target, (LinearForm, HomForm)):
        val = target.evaluate(point)
        if val == 0:
            raise SupportError(
                "point %s lies on the support of %s" % (point, target),
                point=str(point),
                subject=str(target),
            )
        return ((target, val),), ()
    if not isinstance(target, SubschemeSpec):
        raise ArgumentError("not a Weil target: %r" % (target,))
    if mode not in ("lenient", "strict"):
        raise ArgumentError("mode must be 'lenient' or 'strict'")
    vals = [(c, c.evaluate(point)) for c in target.components]
    zero_idx = tuple(i + 1 for i, (_, v) in enumerate(vals) if v == 0)
    if len(zero_idx) == len(vals):
        raise SupportError(
            "point %s lies on the subscheme %s" % (point, target),
            point=str(point),
            subject=str(target),
        )
    if mode == "strict" and zero_idx:
        raise SupportError(
            "point %s lies on component %d of %s (strict mode)"
            % (point, zero_idx[0], target),
            point=str(point),
            subject=str(target),
            component=zero_idx[0],
        )
    return [cv for cv in vals if cv[1]], zero_idx


def _ledger(live, maxx: int, places):
    """(exacts, values): the local values of _live's components at each
    place, with maxx = max|x_i|, exactly and by the one float formula.

    At a finite place, exact is the int e = ord_p(F(P)) (canonical
    coordinates make the max-norms of x and of the coefficients 1 there) and
    value is e*log p.  At inf, exact is the reduced (num, den) of
    maxx^d * max|coeff| / |F(P)| and value is log(num) - log(den).  A
    subscheme takes the least exact value over its live components."""
    exacts, values = [], []
    for place in places:
        p = place.p
        if p is not None:
            e = None
            for _, v in live:
                k = _ord_p(v, p) if v % p == 0 else 0
                if e is None or k < e:
                    e = k
            exacts.append(e)
            values.append(e * log(p) if e else 0.0)
            continue
        num = den = 0
        for comp, v in live:
            n, d = maxx**comp.degree * comp._max_coeff, abs(v)
            if not den or n * den < num * d:
                num, den = n, d
        g = gcd(num, den)
        num, den = num // g, den // g
        exacts.append((num, den))
        values.append(log(num) - log(den))
    return exacts, values


def weil_hyperplane(point: ProjPoint, form: LinearForm, place: Place) -> WeilValue:
    """lambda_{L,v}(P) for a hyperplane; finite values are >= 0 exactly."""
    if not isinstance(form, LinearForm):
        raise ArgumentError("weil_hyperplane takes a linear form")
    return local_weil(point, form, place)


def weil_divisor(point: ProjPoint, form: HomForm, place: Place) -> WeilValue:
    """lambda_{D,v}(P) for the degree-d hypersurface D = {F = 0}."""
    if not isinstance(form, HomForm):
        raise ArgumentError("weil_divisor takes a homogeneous form")
    return local_weil(point, form, place)


def weil_subscheme(
    point: ProjPoint, spec: SubschemeSpec, place: Place, mode: str = "lenient"
) -> WeilValue:
    """min over components, with two support conventions.

    lenient (default): components vanishing at P contribute +infinity to the
    min and are dropped, provided at least one component is nonzero there.
    strict: any vanishing component raises SupportError.
    """
    return local_weil(point, spec, place, mode)


def local_weil(
    point: ProjPoint, target: Target, place: Place, mode: str = "lenient"
) -> WeilValue:
    live, dropped = _live(point, target, mode)
    (e,), (value,) = _ledger(live, height_exact(point), (place,))
    ledger = None if place.p is None else (place.p, e)
    return WeilValue(value, place, str(target), str(point), ledger, dropped)


def is_on_support(point: ProjPoint, target: Target, mode: str = "lenient") -> bool:
    """True when local_weil would raise SupportError at every place."""
    try:
        _live(point, target, mode)
    except SupportError:
        return True
    return False


# ---------------------------------------------------------------------------
# heights and proximity


def height_exact(point: ProjPoint) -> int:
    return max(map(abs, point.coords))


def height(point: ProjPoint) -> float:
    """Absolute logarithmic height; 0 exactly for coordinate points."""
    return math.log(height_exact(point))


def height_scaled(point: ProjPoint, degree) -> float:
    """Height against the degree-d twist O(d): d * h(P)."""
    d = Fraction(degree)
    if d <= 0:
        raise ArgumentError("degree must be positive")
    return float(d) * height(point)


def proximity_sum(point: ProjPoint, target: Target, places, mode: str = "lenient") -> float:
    """m_S(P, target) = sum of local Weil values over the places in S."""
    seq = list(places)
    if len(set(seq)) != len(seq):
        raise ArgumentError("duplicate places in S")
    return math.fsum(local_weil(point, target, v, mode).value for v in seq)


# ---------------------------------------------------------------------------
# batch evaluation (manifest -> rows)


def weil_batch(manifest: dict) -> list[dict]:
    """Evaluate a JSON manifest: {points, targets, places, mode?}.

    Returns one row dict per (point, target, place), in manifest order.
    Support hits become rows with value None and exact "support" instead of
    an error.  Each target is evaluated once per point, and each label is
    formatted once.
    """
    mode = manifest.get("mode", "lenient")
    if mode not in ("lenient", "strict"):
        raise ArgumentError("mode must be 'lenient' or 'strict'")
    points = [ProjPoint.from_json(p) for p in manifest["points"]]
    targets = [target_from_json(t) for t in manifest["targets"]]
    places = [parse_place(v) for v in manifest["places"]]
    if len(set(places)) != len(places):
        raise ArgumentError("duplicate places in manifest")
    target_labels = [str(t) for t in targets]
    place_labels = [str(v) for v in places]
    rows = []
    for pt in points:
        point_label = str(pt)
        maxx = height_exact(pt)
        for tg, target_label in zip(targets, target_labels):
            try:
                exacts, values = _ledger(_live(pt, tg, mode)[0], maxx, places)
                cells = [
                    (value, "" if v.p is None else "%d^%d" % (v.p, e))
                    for v, e, value in zip(places, exacts, values)
                ]
            except SupportError:
                cells = [(None, "support")] * len(places)
            for place_label, (value, exact) in zip(place_labels, cells):
                rows.append(
                    {
                        "point": point_label,
                        "target": target_label,
                        "place": place_label,
                        "value": value,
                        "exact": exact,
                    }
                )
    return rows
