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
from typing import Optional, Union

from .errors import ArgumentError, SupportError
from .places import Place, valuation
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
            "components": [_target_to_json(c) for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "SubschemeSpec":
        comps = tuple(target_from_json(c) for c in data["components"])
        return cls(comps, str(data.get("label", "")))


def _target_to_json(t: Target) -> dict:
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


def target_to_json(t: Target) -> dict:
    return _target_to_json(t)


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


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def _max_abs(values) -> int:
    return max(abs(v) for v in values)


def _form_value_exact(point: ProjPoint, form, place: Place):
    """Shared core: (float value, exact pair, raw Fraction at inf).

    Raises SupportError when form(P) == 0.
    """
    val = form.evaluate(point)
    if val == 0:
        raise SupportError(
            "point %s lies on the support of %s" % (point, form),
            point=str(point),
            subject=str(form),
        )
    d = form.degree
    if place.is_archimedean:
        q = Fraction(_max_abs(point.coords) ** d * _max_abs(form.coeffs), abs(val))
        return _log_fraction(q), None, q
    e = valuation(val, place.p)
    return e * math.log(place.p), (place.p, e), None


def weil_hyperplane(point: ProjPoint, form: LinearForm, place: Place) -> WeilValue:
    """lambda_{L,v}(P) for a hyperplane; finite values are >= 0 exactly."""
    if not isinstance(form, LinearForm):
        raise ArgumentError("weil_hyperplane takes a linear form")
    value, exact, _ = _form_value_exact(point, form, place)
    return WeilValue(value, place, str(form), str(point), exact)


def weil_divisor(point: ProjPoint, form: HomForm, place: Place) -> WeilValue:
    """lambda_{D,v}(P) for the degree-d hypersurface D = {F = 0}."""
    if not isinstance(form, HomForm):
        raise ArgumentError("weil_divisor takes a homogeneous form")
    value, exact, _ = _form_value_exact(point, form, place)
    return WeilValue(value, place, str(form), str(point), exact)


def _live_components(point: ProjPoint, spec: SubschemeSpec, mode: str):
    """(components nonzero at P, 1-based indices of the vanishing ones).

    Raises SupportError when P lies on the subscheme, or in strict mode on
    any component."""
    if mode not in ("lenient", "strict"):
        raise ArgumentError("mode must be 'lenient' or 'strict'")
    vals = [c.evaluate(point) for c in spec.components]
    zero_idx = tuple(i + 1 for i, v in enumerate(vals) if v == 0)
    if len(zero_idx) == len(vals):
        raise SupportError(
            "point %s lies on the subscheme %s" % (point, spec),
            point=str(point),
            subject=str(spec),
        )
    if mode == "strict" and zero_idx:
        raise SupportError(
            "point %s lies on component %d of %s (strict mode)"
            % (point, zero_idx[0], spec),
            point=str(point),
            subject=str(spec),
            component=zero_idx[0],
        )
    return [c for c, v in zip(spec.components, vals) if v != 0], zero_idx


def weil_subscheme(
    point: ProjPoint, spec: SubschemeSpec, place: Place, mode: str = "lenient"
) -> WeilValue:
    """min over components, with two support conventions.

    lenient (default): components vanishing at P contribute +infinity to the
    min and are dropped, provided at least one component is nonzero there.
    strict: any vanishing component raises SupportError.
    """
    live, zero_idx = _live_components(point, spec, mode)
    if place.is_archimedean:
        best: Optional[Fraction] = None
        for comp in live:
            _, _, q = _form_value_exact(point, comp, place)
            if best is None or q < best:
                best = q
        return WeilValue(
            _log_fraction(best), place, str(spec), str(point), None, zero_idx
        )
    best_e: Optional[int] = None
    for comp in live:
        _, exact, _ = _form_value_exact(point, comp, place)
        if best_e is None or exact[1] < best_e:
            best_e = exact[1]
    return WeilValue(
        best_e * math.log(place.p),
        place,
        str(spec),
        str(point),
        (place.p, best_e),
        zero_idx,
    )


def local_weil(
    point: ProjPoint, target: Target, place: Place, mode: str = "lenient"
) -> WeilValue:
    if isinstance(target, LinearForm):
        return weil_hyperplane(point, target, place)
    if isinstance(target, HomForm):
        return weil_divisor(point, target, place)
    if isinstance(target, SubschemeSpec):
        return weil_subscheme(point, target, place, mode)
    raise ArgumentError("not a Weil target: %r" % (target,))


def local_weil_ratio(
    point: ProjPoint, target: Target, place: Place, mode: str = "lenient"
) -> Fraction:
    """The exact rational q with local_weil(...).value == log q.

    q is p^e at a finite place; for a subscheme it is the least q over the
    live components.  Raises SupportError wherever local_weil does."""
    if isinstance(target, SubschemeSpec):
        live, _ = _live_components(point, target, mode)
    elif isinstance(target, (LinearForm, HomForm)):
        live = [target]
    else:
        raise ArgumentError("not a Weil target: %r" % (target,))
    best: Optional[Fraction] = None
    for comp in live:
        _, exact, q = _form_value_exact(point, comp, place)
        if exact is not None:
            q = Fraction(exact[0]) ** exact[1]
        if best is None or q < best:
            best = q
    return best


def is_on_support(point: ProjPoint, target: Target, mode: str = "lenient") -> bool:
    """True when local_weil would raise SupportError at every place."""
    if isinstance(target, (LinearForm, HomForm)):
        return target.evaluate(point) == 0
    if isinstance(target, SubschemeSpec):
        vals = [c.evaluate(point) for c in target.components]
        if mode == "strict":
            return any(v == 0 for v in vals)
        return all(v == 0 for v in vals)
    raise ArgumentError("not a Weil target: %r" % (target,))


# ---------------------------------------------------------------------------
# heights and proximity


def height_exact(point: ProjPoint) -> int:
    return _max_abs(point.coords)


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
    an error.
    """
    from .places import parse_place

    mode = manifest.get("mode", "lenient")
    points = [ProjPoint.from_json(p) for p in manifest["points"]]
    targets = [target_from_json(t) for t in manifest["targets"]]
    places = [parse_place(v) for v in manifest["places"]]
    if len(set(places)) != len(places):
        raise ArgumentError("duplicate places in manifest")
    rows = []
    for pt in points:
        for tg in targets:
            for v in places:
                try:
                    w = local_weil(pt, tg, v, mode)
                    rows.append(
                        {
                            "point": str(pt),
                            "target": str(tg),
                            "place": str(v),
                            "value": w.value,
                            "exact": "%d^%d" % w.exact if w.exact else "",
                        }
                    )
                except SupportError:
                    rows.append(
                        {
                            "point": str(pt),
                            "target": str(tg),
                            "place": str(v),
                            "value": None,
                            "exact": "support",
                        }
                    )
    return rows
