"""Projective points, linear and homogeneous forms over Q, Veronese maps.

Everything is stored in a canonical integer normalization: coordinates or
coefficients are coprime integers with the first nonzero entry positive.
That convention makes the p-adic max-norm of every point and form equal to 1
at all finite places, which keeps local height bookkeeping exact.

Each form evaluates itself over a column of points by its own rule:
column(xs) maps the coordinate columns (xs[k][i] is coordinate k of point i)
to the form's value at every point.  HomForm.evaluate is its column of one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from itertools import repeat
from operator import add, mul

from .errors import ArgumentError
from .jsonio import json_int, parse_rat, rat_str
from .linalg import nullspace, primitive, rank_rows


def normalize_coords(values) -> tuple[int, ...]:
    vals = list(values)
    if not all(type(v) is int for v in vals):
        vals = [Fraction(v) for v in vals]
    if len(vals) < 2:
        raise ArgumentError("projective objects need at least 2 coordinates")
    if not any(vals):
        raise ArgumentError("all coordinates are zero")
    return primitive(vals)


def _parse_vector(text):
    # accepts "[1:2:3]", "[1,2,3]", "1,2,3", or an iterable of rationals
    if isinstance(text, str):
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        parts = re.split(r"[:,]", body)
        return [parse_rat(p) for p in parts]
    return list(text)


@dataclass(frozen=True)
class ProjPoint:
    """A rational point of P^M in canonical integer coordinates."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", normalize_coords(self.coords))

    @classmethod
    def parse(cls, text) -> "ProjPoint":
        return cls(tuple(_parse_vector(text)))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "[%s]" % ":".join(map(str, self.coords))

    __repr__ = __str__

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data) -> "ProjPoint":
        return cls(tuple(parse_rat(c) for c in data))


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form a0*x0 + ... + aM*xM, canonically normalized."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", normalize_coords(self.coeffs))

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

    def evaluate(self, point: ProjPoint) -> int:
        if len(point.coords) != len(self.coeffs):
            raise ArgumentError(
                "form on P^%d evaluated at point of P^%d" % (self.dim, point.dim)
            )
        return sum(map(mul, self.coeffs, point.coords))

    def column(self, xs) -> list:
        """a_0*x_0 + ... + a_M*x_M at every point, from the coordinate columns."""
        terms = [map(a.__mul__, x) for a, x in zip(self.coeffs, xs) if a]
        total = terms[0]
        for term in terms[1:]:
            total = map(add, total, term)
        return list(total)

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


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {exps: i for i, exps in enumerate(monomials(nvars, degree))}


@dataclass(frozen=True)
class HomForm:
    """A homogeneous form of degree d on P^M, coefficients in monomial order.

    coeffs is aligned with monomials(M+1, d) and canonically normalized:
    coprime integers, first nonzero entry positive.
    """

    dim: int
    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ArgumentError("degree must be >= 1")
        expected = comb(self.dim + self.degree, self.degree)
        if len(self.coeffs) != expected:
            raise ArgumentError(
                "degree-%d form on P^%d needs %d coefficients, got %d"
                % (self.degree, self.dim, expected, len(self.coeffs))
            )
        vals = [Fraction(c) for c in self.coeffs]
        if not any(vals):
            raise ArgumentError("form is identically zero")
        object.__setattr__(self, "coeffs", primitive(vals))

    @classmethod
    def from_terms(cls, dim: int, degree: int, terms: dict) -> "HomForm":
        index = monomial_index(dim + 1, degree)
        coeffs = [Fraction(0)] * comb(dim + degree, degree)
        for exps, c in terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != dim + 1 or any(e < 0 for e in key) or sum(key) != degree:
                raise ArgumentError("bad exponent tuple %r for degree %d" % (exps, degree))
            coeffs[index[key]] += Fraction(c)
        if not any(coeffs):
            raise ArgumentError("form is identically zero")
        return cls(dim, degree, tuple(coeffs))

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return list(self._terms)

    @cached_property
    def _terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The nonzero (exponents, coefficient) pairs, read at every point."""
        mono = monomials(self.dim + 1, self.degree)
        return tuple((mono[i], c) for i, c in enumerate(self.coeffs) if c != 0)

    @cached_property
    def _max_coeff(self) -> int:
        """max|coeff|, read by the local-value kernel at every point."""
        return max(map(abs, self.coeffs))

    @property
    def monomial_count(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)

    def evaluate(self, point: ProjPoint) -> int:
        if point.dim != self.dim:
            raise ArgumentError(
                "form on P^%d evaluated at point of P^%d" % (self.dim, point.dim)
            )
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
        terms = {
            tuple(json_int(x, "exponent") for x in e): parse_rat(c)
            for e, c in data["terms"]
        }
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


@dataclass(frozen=True)
class VeroneseLinearization:
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


@dataclass(frozen=True)
class LinearSubvariety:
    """X in P^M cut out by independent linear forms; empty forms mean P^M."""

    ambient_dim: int
    forms: tuple[LinearForm, ...] = ()

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ArgumentError("ambient dimension must be >= 1")
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        for f in forms:
            if f.dim != self.ambient_dim:
                raise ArgumentError("defining form lives in the wrong ambient space")
        rows = [f.coeffs for f in forms]
        if rows and rank_rows(rows) != len(rows):
            raise ArgumentError("defining forms must be linearly independent")
        if self.dim < 1:
            raise ArgumentError("subvariety dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.forms)

    def contains(self, point: ProjPoint) -> bool:
        return all(f.evaluate(point) == 0 for f in self.forms)

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
    Bulk enumeration uses this; anything user-facing must not."""
    p = object.__new__(ProjPoint)
    object.__setattr__(p, "coords", coords)
    return p
