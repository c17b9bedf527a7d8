"""Places of Q and normalized logarithmic norms.

A place v is either the archimedean absolute value (||x||_inf = |x|) or a
p-adic one normalized so that ||p||_p = 1/p, i.e. ||x||_p = p^(-ord_p(x)).
With this normalization the product formula reads

    sum_v log||x||_v = 0        for x in Q*,

and it holds *exactly* in symbolic form: log|x| = sum_p ord_p(x) * log p.
Log-norms carry both an exact prime-power ledger (at finite places) and a
double-precision approximation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from sympy import isprime

from .errors import ArgumentError
from .jsonio import rat_str

Rat = Fraction

# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: p is None for the archimedean place, a prime otherwise."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or self.p < 2 or not isprime(self.p):
                raise ArgumentError("finite place needs a prime, got %r" % (self.p,))

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "inf" if self.p is None else "p=%d" % self.p

    __repr__ = __str__


INF = Place()


def parse_place(s) -> Place:
    """Accepts 'inf', 'p=7', '7', or an int."""
    if isinstance(s, Place):
        return s
    if isinstance(s, int):
        return Place(s)
    text = str(s).strip().lower()
    if text in ("inf", "infinity", "oo"):
        return INF
    if text.startswith("p="):
        text = text[2:]
    try:
        return Place(int(text))
    except ValueError as exc:
        raise ArgumentError("not a place: %r" % (s,)) from exc


# ---------------------------------------------------------------------------
# valuations and log-norms


def valuation(x, p: int) -> int:
    """ord_p(x) for nonzero rational x, additive on products."""
    if not isinstance(p, int) or p < 2 or not isprime(p):
        raise ArgumentError("valuation needs a prime, got %r" % (p,))
    f = Fraction(x)
    if f == 0:
        raise ArgumentError("ord_p(0) is undefined")
    e = 0
    n = f.numerator
    while n % p == 0:
        n //= p
        e += 1
    d = f.denominator
    while d % p == 0:
        d //= p
        e -= 1
    return e


def _ord_p(n: int, p: int) -> int:
    """ord_p(n) for a nonzero integer n, with no checks on p.

    For internal callers that take p from a Place, which proved it prime
    when it was built; valuation() is the checked public entry point."""
    if n == 0:
        raise ArgumentError("ord_p(0) is undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class LogNorm:
    """log||x||_v with an exact ledger at finite places.

    exact is (p, ord_p(x)) when v is finite, None at the archimedean place;
    approx is the double value of the log-norm, -ord_p(x)*log(p) or log|x|.
    """

    exact: Optional[tuple[int, int]]
    approx: float

    def as_fraction_exponent(self) -> Optional[int]:
        return None if self.exact is None else -self.exact[1]


def log_norm(x, v: Place) -> LogNorm:
    """Normalized log||x||_v.  Examples: ||3/8||_2 = 8, ||-6/5||_inf = 6/5."""
    f = Fraction(x)
    if f == 0:
        raise ArgumentError("log-norm of 0 is undefined")
    if v.is_archimedean:
        a = abs(f)
        return LogNorm(None, math.log(a.numerator) - math.log(a.denominator))
    e = valuation(f, v.p)
    return LogNorm((v.p, e), -e * math.log(v.p))


# ---------------------------------------------------------------------------
# factorization: trial division by a fixed sieve, then Brent's rho.
# sympy.factorint is the obvious shelf routine but measures ~3x slower on
# uniform 10^12 inputs, which busts the product-formula check's time budget.
# A cofactor that stays large walks every sieve prime, so the bound is kept
# low: 3000 took 90-112 us per uniform 10^12 input against 220-228 us for
# 30000, with the same factorizations; Brent's rho takes the larger primes.

_SIEVE_BOUND = 3000


def _small_primes(bound: int) -> list[int]:
    mark = bytearray([1]) * (bound + 1)
    mark[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if mark[i]:
            mark[i * i :: i] = b"\x00" * len(mark[i * i :: i])
    return [i for i in range(bound + 1) if mark[i]]

_SMALL_PRIMES = _small_primes(_SIEVE_BOUND)


def _brent_rho(n: int) -> int:
    # returns a nontrivial divisor of composite odd n
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: multiplicity}."""
    if n < 1:
        raise ArgumentError("factor_int needs n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if isprime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _brent_rho(m)
                stack.append(d)
                stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# product formula


@dataclass(frozen=True)
class ProductFormulaLedger:
    """All nonzero local contributions for one rational.

    finite holds (p, ord_p(x)) for exactly the primes dividing numerator or
    denominator, sorted by p; arch_log is log|x|.  The product formula says
    the contributions cancel: |x| = prod_p p^(ord_p(x)), an exact integer
    identity checked by residual_is_zero.
    """

    x: Fraction
    finite: tuple[tuple[int, int], ...]
    arch_log: float

    def residual_is_zero(self) -> bool:
        prod = Fraction(1)
        for p, e in self.finite:
            prod *= Fraction(p) ** e
        return prod == abs(self.x)

    def residual_float(self) -> float:
        # arch term plus finite terms, each log||x||_v; zero up to rounding
        return math.fsum([self.arch_log] + [-e * math.log(p) for p, e in self.finite])

    def to_json_dict(self) -> dict:
        return {
            "x": rat_str(self.x),
            "finite": [[p, e] for p, e in self.finite],
            "arch_log": self.arch_log,
            "residual_exact_zero": self.residual_is_zero(),
        }


def product_formula_residual(x) -> ProductFormulaLedger:
    """Decompose log|x| over all places with nonzero contribution."""
    f = Fraction(x)
    if f == 0:
        raise ArgumentError("product formula needs x != 0")
    num = factor_int(abs(f.numerator))
    den = factor_int(f.denominator)
    finite = dict(num)
    for p, e in den.items():
        finite[p] = finite.get(p, 0) - e  # coprime in lowest terms, but safe
    ledger = tuple(sorted((p, e) for p, e in finite.items() if e != 0))
    a = abs(f)
    arch = math.log(a.numerator) - math.log(a.denominator)
    return ProductFormulaLedger(f, ledger, arch)


def ulp_distance(a: float, b: float) -> float:
    """|a - b| measured in units of the larger value's ulp."""
    if a == b:
        return 0.0
    scale = math.ulp(max(abs(a), abs(b), 1e-300))
    return abs(a - b) / scale
