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

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from operator import mul

from ._frozen import Frozen
from .errors import ArgumentError
from .jsonio import rat_str

# ---------------------------------------------------------------------------
# primality: the first k prime bases of Miller-Rabin decide every n below
# _PSI[k-1] (OEIS A014233; Sorenson & Webster, Math. Comp. 2017).  At or above
# the last bound the test is strong BPSW, base 2 and then a strong Lucas test
# with Selfridge's parameters (Baillie & Wagstaff 1980), the same test as
# sympy.isprime there; below it both tests are proven, so the answers agree.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    k = bisect_right(_PSI, n)
    if k < len(_PSI):
        return all(_is_strong_prp(n, a) for a in _MR_BASES[: k + 1])
    return _is_strong_prp(n, 2) and _is_strong_lucas_prp(n)


def _is_strong_prp(n: int, a: int) -> bool:
    """Miller-Rabin to base a for odd n > a."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if (n & 7) in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test for odd n > 2: P = 1, Q = (1-D)/4 with D the first
    of 5, -7, 9, -11, ... with (D/n) = -1 (Selfridge's method A)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and d % n:
            return False
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k * 2^s, k odd
    # U_k, V_k and Q^k mod n by doubling (U_2m = U V, V_2m = V^2 - 2 Q^m)
    # and stepping (U_m+1 = (U + V)/2, V_m+1 = (D U + V)/2), from U_1 = V_1 = 1
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
            qk = qk * q % n
    if u == 0:
        return True
    for _ in range(s):  # V_k, V_2k, ..., V_(n+1)/2
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


# ---------------------------------------------------------------------------
# places


class Place(Frozen):
    """A place of Q: p is None for the archimedean place, a prime otherwise.
    Places order by p, and comparing inf with a prime raises TypeError."""

    p: int | None

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not _is_prime(p):
                raise ArgumentError("finite place needs a prime, got %r" % (p,))
        object.__setattr__(self, "p", p)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p,) < (other.p,)

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p,) <= (other.p,)

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p,) > (other.p,)

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p,) >= (other.p,)

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
    if not isinstance(p, int) or not _is_prime(p):
        raise ArgumentError("valuation needs a prime, got %r" % (p,))
    f = Fraction(x)
    if f == 0:
        raise ArgumentError("ord_p(0) is undefined")
    return _ord_p(f.numerator, p) - _ord_p(f.denominator, p)


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


class LogNorm(Frozen):
    """log||x||_v with an exact ledger at finite places.

    exact is (p, ord_p(x)) when v is finite, None at the archimedean place;
    approx is the double value of the log-norm, -ord_p(x)*log(p) or log|x|.
    """

    exact: tuple[int, int] | None
    approx: float


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
# factorization: one gcd with the product of the sieve primes; for a
# composite cofactor, gcds with the products of the primes in the chunks
# (3000, 6000], (6000, 12000], ..., (48000, 96000]; then Brent's rho.  The
# sieve gcd g is the product of the sieve primes that divide n, so only the
# primes of g are walked, and only while p^2 <= g; n is divided by those
# primes alone.  Every input pays the sieve gcd, so its bound stays at 3000:
# one gcd took 3.4 us there, 11.7 us at 10^4 and 35 us at 3*10^4.  A
# cofactor below 3001^2 with no sieve factor is prime, with no test, and so
# is any piece of it that is split off below 3001^2.  Only a cofactor that
# failed the primality test pays the chunk gcds, about 10 ns per prime of a
# chunk (3.4 us for the first, 46 us for the last), and they stop at the
# first chunk that shares a prime with it; rho took 0.5-0.65 us * sqrt(p) to
# find a least prime p between 5,000 and 10^6.  The chunks stop at 96,000:
# on the benchmark's seed-1 ledger rationals (20,000 integers up to 10^12),
# factoring took 1.03 s with no chunk, 0.75 s with chunks to 96,000 and
# no less with chunks to 192,000 or 384,000, while each added chunk about
# doubles the gcds that a cofactor still bound for rho pays.  The products
# are built on the first composite cofactor (about 4-6 ms), never at
# import.  Rho starts the same way on every call (y = 2, c = 1, then the
# next c), with no generator to seed, so a factorization's dict order is
# fixed by n.
# sympy's factorint, the test oracle, measured ~3x slower on uniform 10^12
# inputs, which busts the product-formula check's time budget.

_SIEVE_BOUND = 3000


def _small_primes(bound: int) -> list[int]:
    # a sieve of the odd numbers: mark[i] stands for 2i + 1
    mark = bytearray([1]) * ((bound + 1) // 2)
    mark[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if mark[i]:
            p = 2 * i + 1
            mark[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(mark), p)))
    return [2, *compress(range(1, bound + 1, 2), mark)]


def _product(xs: list[int]) -> int:
    # pairwise, so each multiplication is of two numbers of about one size
    while len(xs) > 1:
        xs = [*map(mul, xs[::2], xs[1::2]), *xs[len(xs) & ~1 :]]
    return xs[0]


_SMALL_PRIMES = _small_primes(_SIEVE_BOUND)
_SIEVE_PRODUCT = math.prod(_SMALL_PRIMES)
_PRIME_BELOW = (_SIEVE_BOUND + 1) ** 2  # a cofactor below this is prime
_CHUNK_EDGES = (_SIEVE_BOUND, 6000, 12000, 24000, 48000, 96000)


@functools.cache
def _chunk_products() -> tuple[int, ...]:
    """The product of the primes in each chunk (a, b] between _CHUNK_EDGES,
    built on the first composite cofactor, not at import."""
    primes = _small_primes(_CHUNK_EDGES[-1])
    cuts = [bisect_right(primes, e) for e in _CHUNK_EDGES]
    return tuple(_product(primes[i:j]) for i, j in zip(cuts, cuts[1:]))


def _split(m: int) -> int:
    """A nontrivial divisor of a composite m with no prime factor up to 3000."""
    for chunk in _chunk_products():
        g = math.gcd(m, chunk)
        if g > 1:
            if g < m:
                return g
            break  # every prime of m lies in this chunk: rho is quick
    return _brent_rho(m)


def _brent_rho(n: int) -> int:
    # returns a nontrivial divisor of composite odd n: the walk
    # y -> y^2 + c from y = 2, with c = 1, 2, 3, ... until one splits n.
    # The product of the differences is reduced mod n and tested by a gcd
    # once per block of m steps, not reduced at every step: against a
    # reduction per step in blocks of 128 this took 13-19% less time
    m = 16
    c = 0
    while True:
        c += 1
        y = 2
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
                    q *= x - y  # gcd ignores the sign
                q %= n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: multiplicity}."""
    if not isinstance(n, int) or n < 1:
        raise ArgumentError("factor_int needs an int n >= 1, got %r" % (n,))
    out: dict[int, int] = {}
    g = math.gcd(n, _SIEVE_PRODUCT)
    found = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            found.append(p)
    if g > 1:  # no sieve prime up to sqrt(g) divides it: a prime
        found.append(g)
    for p in found:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    if 1 < n < _PRIME_BELOW:  # every prime factor exceeds the bound
        out[n] = 1
    elif n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            # a piece below 3001^2 is prime: every prime factor exceeds 3000
            if m < _PRIME_BELOW or _is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _split(m)
                stack.append(d)
                stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# product formula


class ProductFormulaLedger(Frozen):
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
    den = factor_int(f.denominator)  # coprime to the numerator, lowest terms
    ledger = tuple(sorted([*num.items(), *((p, -e) for p, e in den.items())]))
    a = abs(f)
    arch = math.log(a.numerator) - math.log(a.denominator)
    return ProductFormulaLedger(f, ledger, arch)


def ulp_distance(a: float, b: float) -> float:
    """|a - b| measured in units of the larger value's ulp."""
    if a == b:
        return 0.0
    scale = math.ulp(max(abs(a), abs(b), 1e-300))
    return abs(a - b) / scale
