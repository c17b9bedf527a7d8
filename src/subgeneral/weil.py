"""Local Weil functions and heights over Q.

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

Every local value is read from one column kernel, which evaluates one target
over a column of points: a batch evaluates each distinct target once per
sample, and a one-point value is a column of one.  Each component, linear or
not, is evaluated over the coordinate columns by its form's own column().
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import gcd, log
from itertools import compress, count, repeat
from operator import not_

from ._frozen import Frozen
from .errors import ArgumentError, SupportError
from .places import Place, _ord_p, parse_place
from .projective import HomForm, LinearForm, ProjPoint, wrong_space_error


class SubschemeSpec(Frozen):
    """A closed subscheme presented as the intersection of divisor supports."""

    components: tuple
    label: str

    def __init__(self, components: tuple, label: str = ""):
        comps = tuple(components)
        if not comps:
            raise ArgumentError("subscheme needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ArgumentError("components live in different ambient spaces")
        for c in comps:
            if not isinstance(c, (LinearForm, HomForm)):
                raise ArgumentError("components must be linear or homogeneous forms")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "label", label)

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


Target = LinearForm | HomForm | SubschemeSpec


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


class WeilValue(Frozen):
    """One local Weil value.

    exact is (p, e) with value == e*log(p) at finite places, None at the
    archimedean place.  dropped lists 1-based component indices that sat on
    their support and were removed from a lenient subscheme minimum.
    """

    value: float
    place: Place
    subject: str
    point: str
    exact: tuple[int, int] | None = None
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


def _column(target: Target, points, xs, maxes, mode: str, places, cols=None, lean=False):
    """(exacts, values, marks): one target's local values over a column of
    points, with xs = _coordinate_columns(points) and maxes[i] = max|x_i| of
    points[i] (read only at inf).  cols, when given, are the target's
    component columns over the points (_component_columns, kept by the
    sampler); xs is then not read.

    exacts[k] and values[k] are the exact and the float column at
    places[k].  marks[i] is the tuple of 1-based indices of the components
    that vanish at points[i] and were dropped from a lenient subscheme's
    minimum (() for a form) or, when points[i] lies on the support, the
    SupportError that a one-point caller raises; that point's cells are
    None.  Nothing is raised per point.

    lean serves bulk callers that read only the floats and where the support
    hits are: marks is then the ascending list of the hits' indices, and no
    SupportError is built.  A form with no hit then keeps no exact column
    (its exacts[k] is None): each float is read in one pass from the form's
    value, with no (num, den) pair or ord_p column kept, the log of a
    small num or den read from a table of log's own values, and at a prime
    the float of each distinct value computed once, so the floats are the
    ones the exact column gives.

    Each component is evaluated once over the column, by its column(xs),
    unless cols holds its values already.
    At a finite place the exact value is the int e = ord_p(F(P)) (canonical
    coordinates make the max-norms of x and of the coefficients 1 there) and
    the float is e*log p, log p taken once per place.  At inf it is the
    reduced (num, den) of max|x_i|^d * max|coeff| / |F(P)| and the float is
    log(num) - log(den).  A subscheme takes the least exact value over its
    components nonzero at the point.
    """
    comps = _components(target)
    if isinstance(target, SubschemeSpec) and mode not in ("lenient", "strict"):
        raise ArgumentError("mode must be 'lenient' or 'strict'")
    if not points:
        return [[] for _ in places], [[] for _ in places], []
    if cols is None:
        cols = _component_columns(target, points, xs)
    zeros = sorted({i for col in cols if not all(col) for i in compress(count(), map(not_, col))})
    # on the support: a form vanishes, or every component of a subscheme
    # does, or in strict mode one does
    if len(cols) == 1 or mode == "strict":
        hits = zeros
    else:
        hits = [i for i in zeros if not any(col[i] for col in cols)]
    if lean:
        marks = hits
    else:
        marks = [()] * len(points)
        for i in zeros:
            marks[i] = tuple(k for k, col in enumerate(cols, 1) if not col[i])
        for i in hits:
            marks[i] = _support_error(points[i], target, marks[i], mode)
    direct = lean and not zeros and len(cols) == 1
    exacts, values = [], []
    for place in places:
        p = place.p
        exact = None
        if p is None and direct:
            deg, scale, value = comps[0].degree, comps[0]._max_coeff, []
            logs = _small_logs()
            for m, v in zip(maxes, cols[0]):
                num, den = m**deg * scale, abs(v)
                g = gcd(num, den)
                num, den = num // g, den // g
                value.append(
                    (logs[num] if num < _SMALL else log(num))
                    - (logs[den] if den < _SMALL else log(den))
                )
        elif p is None:
            per_comp = []
            for c, col in zip(comps, cols):
                deg, scale, q = c.degree, c._max_coeff, []
                for m, v in zip(maxes, col):
                    if v:
                        num, den = m**deg * scale, abs(v)
                        g = gcd(num, den)
                        q.append((num // g, den // g))
                    else:
                        q.append(None)
                per_comp.append(q)
            exact = _least(per_comp, hits, _least_ratio)
            value = [None if q is None else log(q[0]) - log(q[1]) for q in exact]
        else:
            logp = log(p)
            if direct:
                # the float of each distinct multiple of p once; any other
                # value is 0 * logp
                memo = {v: _ord_p(v, p) * logp for v in set(cols[0]) if v % p == 0}
                value = list(map(memo.get, cols[0], repeat(0 * logp)))
            else:
                per_comp = [
                    [(_ord_p(v, p) if v % p == 0 else 0) if v else None for v in col]
                    for col in cols
                ]
                exact = _least(per_comp, hits, min)
                value = [None if e is None else e * logp for e in exact]
        exacts.append(exact)
        values.append(value)
    return exacts, values, marks


# The float loop at inf reads log k from a table below this bound.
_SMALL = 4096


@cache
def _small_logs() -> tuple[float, ...]:
    """log k at index k for 0 < k < _SMALL, built on first use: an index
    costs less than a log call, and the floats are log's own."""
    return (0.0, *map(log, range(1, _SMALL)))


def _components(target: Target) -> tuple:
    """The forms whose values make the target's local value: a subscheme's
    components, or the form itself."""
    if isinstance(target, SubschemeSpec):
        return target.components
    if isinstance(target, (LinearForm, HomForm)):
        return (target,)
    raise ArgumentError("not a Weil target: %r" % (target,))


def _component_columns(target: Target, points, xs) -> list:
    """Each component's values over a column of points, by its column(xs),
    after one dimension check: a point of another space raises the
    one-point ArgumentError."""
    width = target.dim + 1
    if xs is None or len(xs) != width:
        bad = next(pt for pt in points if len(pt.coords) != width)
        raise wrong_space_error(target, bad)
    return [c.column(xs) for c in _components(target)]


def _coordinate_columns(points):
    """The coordinate columns x_0, ..., x_M of a column of points, for every
    _column call over them; None for points of several spaces."""
    coords = [pt.coords for pt in points]
    if len(set(map(len, coords))) > 1:
        return None
    return [[x[k] for x in coords] for k in range(len(coords[0]))] if coords else []


def _support_error(point: ProjPoint, target: Target, zero_idx, mode: str) -> SupportError:
    """The SupportError of a point on the target's support, where the
    components of 1-based indices zero_idx vanish."""
    if not isinstance(target, SubschemeSpec):
        return SupportError(
            "point %s lies on the support of %s" % (point, target),
            point=str(point),
            subject=str(target),
        )
    if len(zero_idx) == len(target.components):
        return SupportError(
            "point %s lies on the subscheme %s" % (point, target),
            point=str(point),
            subject=str(target),
        )
    return SupportError(
        "point %s lies on component %d of %s (strict mode)"
        % (point, zero_idx[0], target),
        point=str(point),
        subject=str(target),
        component=zero_idx[0],
    )


def _least(per_comp, hits, least):
    """Per point, least(list of the values of the components live there,
    never empty); None at a support hit (hits: their indices).  A form's one
    column is its value column."""
    if len(per_comp) == 1:
        return per_comp[0]
    hit = set(hits)
    return [
        None if i in hit else least([q for q in qs if q is not None])
        for i, qs in enumerate(zip(*per_comp))
    ]


def _least_ratio(qs):
    """The first least of (num, den) pairs with den > 0, compared by
    cross-multiplying: num/den < a/b exactly when num*b < a*den."""
    best = qs[0]
    for q in qs[1:]:
        if q[0] * best[1] < best[0] * q[1]:
            best = q
    return best


def _hits(marks) -> list[int]:
    """The indices of the support hits among a column's marks, ascending."""
    if marks.count(()) == len(marks):
        return []
    truthy = compress(range(len(marks)), marks)  # dropped components or hits
    return [i for i in truthy if not isinstance(marks[i], tuple)]


def _raise_hit(marks) -> None:
    """Raise the first support hit among a column's marks."""
    hits = _hits(marks)
    if hits:
        raise marks[hits[0]]


def _one_point(point: ProjPoint, target: Target, mode: str, places):
    """The kernel on a column of one: (exacts, values, dropped), one entry
    per place; raises the point's SupportError."""
    xs = [[x] for x in point.coords]
    maxes = (height_exact(point),)
    exacts, values, marks = _column(target, (point,), xs, maxes, mode, places)
    _raise_hit(marks)
    return [e for e, in exacts], [v for v, in values], marks[0]


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
    (e,), (value,), dropped = _one_point(point, target, mode, (place,))
    ledger = None if place.p is None else (place.p, e)
    return WeilValue(value, place, str(target), str(point), ledger, dropped)


# ---------------------------------------------------------------------------
# heights


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


# ---------------------------------------------------------------------------
# batch evaluation (manifest -> rows)


def weil_batch(manifest: dict) -> list[dict]:
    """Evaluate a JSON manifest: {points, targets, places, mode?}.

    Returns one row dict per (point, target, place), in manifest order.
    Support hits become rows with value None and exact "support" instead of
    an error.  Each target is evaluated once over all the points, and each
    label is formatted once.
    """
    mode = manifest.get("mode", "lenient")
    if mode not in ("lenient", "strict"):
        raise ArgumentError("mode must be 'lenient' or 'strict'")
    points = [ProjPoint.from_json(p) for p in manifest["points"]]
    targets = [target_from_json(t) for t in manifest["targets"]]
    places = [parse_place(v) for v in manifest["places"]]
    if len(set(places)) != len(places):
        raise ArgumentError("duplicate places in manifest")
    xs = _coordinate_columns(points)
    maxes = [height_exact(pt) for pt in points]
    columns = [_column(tg, points, xs, maxes, mode, places)[:2] for tg in targets]
    # the exact text of each (target, place) column, each (place, e) label
    # formatted once
    labels = [{None: "support"} for _ in places]
    texts = []
    for exacts, _ in columns:
        per_place = []
        for v, known, es in zip(places, labels, exacts):
            if v.p is None:
                per_place.append(["support" if e is None else "" for e in es])
            else:
                for e in set(es).difference(known):
                    known[e] = "%d^%d" % (v.p, e)
                per_place.append(list(map(known.__getitem__, es)))
        texts.append(per_place)
    target_labels = [str(t) for t in targets]
    place_labels = [str(v) for v in places]
    rows = []
    for i, pt in enumerate(points):
        point_label = str(pt)
        for target_label, (_, values), cells in zip(target_labels, columns, texts):
            for place_label, vs, ts in zip(place_labels, values, cells):
                rows.append(
                    {
                        "point": point_label,
                        "target": target_label,
                        "place": place_label,
                        "value": vs[i],
                        "exact": ts[i],
                    }
                )
    return rows
