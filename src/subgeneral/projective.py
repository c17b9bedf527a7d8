"""Projective points, linear and homogeneous forms over Q, Veronese maps.

Everything is stored canonically: coordinates or coefficients (a form keeps
only its nonzero terms) are coprime integers, the first nonzero positive.
That makes the p-adic max-norm of every point and form 1 at all finite
places, which keeps local height bookkeeping exact.

Each form evaluates itself over a column of points by its own rule:
column(xs) maps the coordinate columns (xs[k][i] is coordinate k of point i)
to the form's value at every point.  HomForm.evaluate is its column of one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, mul

from ._frozen import Frozen
from .errors import ArgumentError
from .jsonio import json_int, parse_rat, rat_str
from .linalg import nullspace, primitive, rank_rows


def _exact(values) -> list:
    """values as a list of ints and Fractions: an int stays an int, anything
    else is read by Fraction."""
    return [v if type(v) is int else Fraction(v) for v in values]


def linear_column(coeffs, xs) -> list:
    """sum_k coeffs[k] * xs[k] at every index, from the columns xs.  A term
    whose coefficient is 0 or whose column is all 0 (a coordinate that
    vanishes on X) is left out; two or three terms are one comprehension,
    one or four and more a chain of maps, and none a column of 0."""
    terms = [(a, x) for a, x in zip(coeffs, xs) if a and any(x)]
    if len(terms) == 2:
        (a, x), (b, y) = terms
        return [a * u + b * v for u, v in zip(x, y)]
    if len(terms) == 3:
        (a, x), (b, y), (c, z) = terms
        return [a * u + b * v + c * w for u, v, w in zip(x, y, z)]
    if not terms:
        return [0] * len(xs[0])
    total = map(terms[0][0].__mul__, terms[0][1])
    for a, x in terms[1:]:
        total = map(add, total, map(a.__mul__, x))
    return list(total)


def normalize_coords(values) -> tuple[int, ...]:
    vals = _exact(values)
    if len(vals) < 2:
        raise ArgumentError("projective objects need at least 2 coordinates")
    if not any(vals):
        raise ArgumentError("all coordinates are zero")
    return primitive(vals)


def wrong_space_error(form, point) -> ArgumentError:
    """The error for a form (or subscheme) read at a point of another space."""
    return ArgumentError(
        "form on P^%d evaluated at point of P^%d" % (form.dim, point.dim)
    )


def _parse_vector(text):
    # accepts "[1:2:3]", "[1,2,3]", "1,2,3", or an iterable of rationals
    if isinstance(text, str):
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        parts = re.split(r"[:,]", body)
        return [parse_rat(p) for p in parts]
    return list(text)


@lru_cache(maxsize=64)
def _label_format(count: int) -> str:
    """The label format of a point with count coordinates, "[%d:...:%d]":
    canonical coordinates are ints, which %d writes as str does.  Kept once
    per length, not once per point."""
    return "[%s]" % ":".join(["%d"] * count)


class ProjPoint(Frozen):
    """A rational point of P^M in canonical integer coordinates."""

    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", normalize_coords(coords))

    @classmethod
    def parse(cls, text) -> "ProjPoint":
        return cls(tuple(_parse_vector(text)))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return _label_format(len(self.coords)) % self.coords

    __repr__ = __str__

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data) -> "ProjPoint":
        return cls(tuple(parse_rat(c) for c in data))


class LinearForm(Frozen):
    """A nonzero linear form a0*x0 + ... + aM*xM, canonically normalized."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", normalize_coords(coeffs))

    @classmethod
    def parse(cls, text) -> "LinearForm":
        return cls(tuple(_parse_vector(text)))

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    degree = 1  # a class attribute, not a field

    @cached_property
    def _max_coeff(self) -> int:
        """max|coeff|, read by the local-value kernel at every point."""
        return max(map(abs, self.coeffs))

    @property
    def monomial_count(self) -> int:
        return len(self.coeffs) - self.coeffs.count(0)

    def evaluate(self, point: ProjPoint) -> int:
        if len(point.coords) != len(self.coeffs):
            raise wrong_space_error(self, point)
        return sum(map(mul, self.coeffs, point.coords))

    def column(self, xs) -> list:
        """a_0*x_0 + ... + a_M*x_M at every point, from the coordinate columns."""
        return linear_column(self.coeffs, xs)

    def __str__(self) -> str:
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            term = "x%d" % i if abs(a) == 1 else "%d*x%d" % (abs(a), i)
            parts.append(("-" if a < 0 else "+", term))
        text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, term in parts[1:]:
            text += " %s %s" % (sign, term)
        return text

    __repr__ = __str__

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "LinearForm":
        return cls(tuple(parse_rat(c) for c in data))


# ---------------------------------------------------------------------------
# monomial order: within fixed total degree, exponent tuples in descending
# lexicographic order, so x0^d comes first and xM^d last.


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if nvars < 1 or degree < 0:
        raise ArgumentError("monomials(nvars >= 1, degree >= 0)")
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


class HomForm(Frozen):
    """A homogeneous form of degree d on P^M.  _terms holds its nonzero
    (exponents, coefficient) pairs in monomial order, the coefficients
    coprime ints, the first positive: a form costs what its terms cost."""

    dim: int
    degree: int
    _terms: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, dim: int, degree: int, coeffs: tuple[int, ...]):
        """The form with coeffs aligned with monomials(dim + 1, degree)."""
        mono = monomials(dim + 1, degree)
        if len(coeffs) != len(mono):
            raise ArgumentError("degree-%d form on P^%d needs %d coefficients, got %d"
                                % (degree, dim, len(mono), len(coeffs)))
        self._store(dim, degree, [(e, c) for e, c in zip(mono, _exact(coeffs)) if c])

    def _store(self, dim: int, degree: int, terms) -> None:
        """Set the fields from nonzero exact (exponents, coefficient) pairs in monomial order."""
        if degree < 1:
            raise ArgumentError("degree must be >= 1")
        if not terms:
            raise ArgumentError("form is identically zero")
        exps, vals = zip(*terms)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_terms", tuple(zip(exps, primitive(vals))))

    @classmethod
    def from_terms(cls, dim: int, degree: int, terms) -> "HomForm":
        """sum c * x^e over terms, a dict or (e, c) pairs naming each e once."""
        exact = {}
        for exps, c in terms.items() if isinstance(terms, dict) else terms:
            key = tuple(int(e) for e in exps)
            if len(key) != dim + 1 or any(e < 0 for e in key) or sum(key) != degree:
                raise ArgumentError("bad exponent tuple %r for degree %d" % (exps, degree))
            if key in exact:
                raise ArgumentError("exponents %r named twice in a form's terms" % (list(key),))
            exact[key] = c if type(c) is int else Fraction(c)
        form = object.__new__(cls)
        form._store(dim, degree, sorted([(e, c) for e, c in exact.items() if c], reverse=True))
        return form

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return list(self._terms)

    @cached_property
    def coeffs(self) -> tuple[int, ...]:
        """The dense coefficient tuple, aligned with monomials(dim + 1, degree)."""
        terms = dict(self._terms)
        return tuple(terms.get(e, 0) for e in monomials(self.dim + 1, self.degree))

    @cached_property
    def _max_coeff(self) -> int:
        """max|coeff|, read by the local-value kernel at every point."""
        return max(abs(c) for _, c in self._terms)

    @property
    def monomial_count(self) -> int:
        return len(self._terms)

    def evaluate(self, point: ProjPoint) -> int:
        if point.dim != self.dim:
            raise wrong_space_error(self, point)
        return self.column([[x] for x in point.coords])[0]

    def column(self, xs) -> list:
        """The sum of c * x^e over the nonzero terms at every point, from the
        coordinate columns; a power column is x for e = 1 and x**e above."""
        total = None
        for exps, c in self._terms:
            term = repeat(c, len(xs[0]))
            for x, e in zip(xs, exps):
                if e:
                    term = map(mul, term, x if e == 1 else map(pow, x, repeat(e)))
            total = term if total is None else map(add, total, term)
        return list(total)

    def __str__(self) -> str:
        chunks = []
        for exps, c in self._terms:
            mono = "*".join(
                ("x%d" % i if e == 1 else "x%d^%d" % (i, e))
                for i, e in enumerate(exps)
                if e
            )
            chunks.append("%+d*%s" % (c, mono))
        return " ".join(chunks)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "terms": [[list(e), rat_str(c)] for e, c in self._terms],
        }

    @classmethod
    def from_json(cls, data) -> "HomForm":
        terms = [
            (tuple(json_int(x, "exponent") for x in e), parse_rat(c)) for e, c in data["terms"]
        ]
        dim, degree = json_int(data["dim"], "dim"), json_int(data["degree"], "degree")
        return cls.from_terms(dim, degree, terms)


# ---------------------------------------------------------------------------
# Veronese embedding


def veronese_point(point: ProjPoint, degree: int) -> ProjPoint:
    """Image of a point under the degree-d Veronese map.

    For canonical input the raw monomial vector is already canonical: the
    pure powers x_i^d keep the gcd at 1 and the leading sign positive.
    """
    if degree < 1:
        raise ArgumentError("degree must be >= 1")
    vals = []
    x = point.coords
    for exps in monomials(point.dim + 1, degree):
        v = 1
        for xi, e in zip(x, exps):
            if e:
                v *= xi**e
        vals.append(v)
    return ProjPoint(tuple(vals))


class VeroneseLinearization(Frozen):
    """Linear form on the Veronese image plus the normalization scalar s
    with evaluate(form, veronese_point(P, d)) == s * evaluate(F, P)."""

    form: LinearForm
    scale: Fraction


def veronese_form(form: HomForm) -> VeroneseLinearization:
    """Rewrite a degree-d form as a linear form in the monomial coordinates."""
    linear = LinearForm(form.coeffs)
    # both sides are canonical, so the scalar is the ratio of normalizations
    num = next(c for c in linear.coeffs if c != 0)
    den = next(c for c in form.coeffs if c != 0)
    return VeroneseLinearization(linear, Fraction(num, den))


# ---------------------------------------------------------------------------
# linear subvarieties


class LinearSubvariety(Frozen):
    """X in P^M cut out by independent linear forms; empty forms mean P^M."""

    ambient_dim: int
    forms: tuple[LinearForm, ...]

    def __init__(self, ambient_dim: int, forms: tuple[LinearForm, ...] = ()):
        if ambient_dim < 1:
            raise ArgumentError("ambient dimension must be >= 1")
        forms = tuple(forms)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "forms", forms)
        for f in forms:
            if f.dim != ambient_dim:
                raise ArgumentError("defining form lives in the wrong ambient space")
        rows = [f.coeffs for f in forms]
        if rows and rank_rows(rows) != len(rows):
            raise ArgumentError("defining forms must be linearly independent")
        if self.dim < 1:
            raise ArgumentError("subvariety dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.forms)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Primitive integer basis of the solution space, dim+1 vectors."""
        return nullspace([f.coeffs for f in self.forms], self.ambient_dim + 1)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "forms": [f.to_json() for f in self.forms],
        }

    @classmethod
    def from_json(cls, data) -> "LinearSubvariety":
        return cls(
            json_int(data["ambient_dim"], "ambient_dim"),
            tuple(LinearForm.from_json(f) for f in data.get("forms", [])),
        )


def projective_space(ambient_dim: int) -> LinearSubvariety:
    return LinearSubvariety(ambient_dim, ())


def point_from_canonical(coords: tuple[int, ...]) -> ProjPoint:
    """Wrap coordinates the caller guarantees are already canonical
    (coprime ints, first nonzero positive), skipping renormalization.
    Bulk enumeration uses this; anything user-facing must not.  The field
    is written to the instance __dict__, as the generated storing inits do."""
    p = object.__new__(ProjPoint)
    p.__dict__["coords"] = coords
    return p
