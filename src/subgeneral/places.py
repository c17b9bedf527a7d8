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
from .errors import ArgumentError, DomainError
from .jsonio import rat_str

# ---------------------------------------------------------------------------
# primality: trial division by the primes up to 47, then Miller-Rabin to a
# set of witnesses that decides every n below a bound with no prime factor
# up to 47.  Below 341531 these are the first k prime bases, which decide
# every n below A014233's psi_k (Sorenson & Webster, Math. Comp. 2017).  On
# [341531, 4296595241) one witness does, picked by hashing n (Forisek &
# Jancina, "Fast Primality Testing for Integers That Fit into a Machine
# Word", 2015), and below 2^64 the sets of 3 to 7 witnesses collected at
# miller-rabin.appspot.com do; the hash, its table and those sets are the
# ones of sympy 1.14's isprime.  A witness that is 0 mod n is passed over.
# Up to psi_13 the prime bases decide again, and at or above it the test
# is strong BPSW, base 2 and then a strong Lucas test with Selfridge's
# parameters (Baillie & Wagstaff 1980), the same test as sympy.isprime
# there; below it every answer is proven.

_PRIMES_TO_47 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_PRIMORIAL_47 = math.prod(_PRIMES_TO_47)
_HASHED_FROM, _HASHED_BELOW = 341531, 4296595241
_HASHED_WITNESSES = """
15591 2018 166 7429 8064 16045 10503 4399 1949 1295 2776 3620 560 3128
5212 2657 2300 2021 4652 1471 9336 4018 2398 20462 10277 8028 2213 6219
620 3763 4852 5012 3185 1333 6227 5298 1074 2391 5113 7061 803 1269 3875
422 751 580 4729 10239 746 2951 556 2206 3778 481 1522 3476 481 2487
3266 5633 488 3373 6441 3344 17 15105 1490 4154 2036 1882 1813 467 3307
14042 6371 658 1005 903 737 1887 7447 1888 2848 1784 7559 3400 951 13969
4304 177 41 19875 3110 13221 8726 571 7043 6943 1199 352 6435 165 1169
3315 978 233 3003 2562 2994 10587 10030 2377 1902 5354 4447 1555 263
27027 2283 305 669 1912 601 6186 429 1930 14873 1784 1661 524 3577 236
2360 6146 2850 55637 1753 4178 8466 222 2579 2743 2031 2226 2276 374
2132 813 23788 1610 4422 5159 1725 3597 3366 14336 579 165 1375 10018
12616 9816 1371 536 1867 10864 857 2206 5788 434 8085 17618 727 3639
1595 4944 2129 2029 8195 8344 6232 9183 8126 1870 3296 7455 8947 25017
541 19115 368 566 5674 411 522 1027 8215 2050 6544 10049 614 774 2333
3007 35201 4706 1152 1785 1028 1540 3743 493 4474 2521 26845 8354 864
18915 5465 2447 42 4511 1660 166 1249 6259 2553 304 272 7286 73 6554 899
2816 5197 13330 7054 2818 3199 811 922 350 7514 4452 3449 2663 4708 418
1621 1171 3471 88 11345 412 1559 194
"""
# (bound, witnesses) outside the hashed range, by increasing bound
_LADDER = (
    (2047, (2,)),
    (_HASHED_FROM, (2, 3)),
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (
        7999252175582851,
        (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805),
    ),
    (
        585226005592931977,
        (
            2, 123635709730000, 9233062284813009, 43835965440333360,
            761179012939631437, 1263739024124850375,
        ),
    ),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318665857834031151167461, _PRIMES_TO_47[:12]),
    (3317044064679887385961981, _PRIMES_TO_47[:13]),
)


@functools.cache
def _hashed_witnesses() -> tuple[int, ...]:
    """The 256 witnesses of the hashed range, decoded on first use."""
    return tuple(map(int, _HASHED_WITNESSES.split()))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL_47) > 1:
        return n in _PRIMES_TO_47
    if _HASHED_FROM <= n < _HASHED_BELOW:
        h = ((n >> 16) ^ n) * 0x45D9F3B
        h = ((h >> 16) ^ h) * 0x45D9F3B
        return _is_strong_prp(n, _hashed_witnesses()[((h >> 16) ^ h) & 255])
    for bound, witnesses in _LADDER:
        if n < bound:
            return all(_is_strong_prp(n, a) for a in witnesses if a % n)
    return _is_strong_prp(n, 2) and _is_strong_lucas_prp(n)


def _is_strong_prp(n: int, a: int) -> bool:
    """Miller-Rabin to base a for odd n > 2 that does not divide a."""
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
# primes of g are walked, while p^2 <= g and until what is left of g is one
# sieve prime; n is divided by those primes alone.  A ledger takes one
# sieve gcd for its numerator and denominator together and splits it by a
# gcd with the numerator: 2.7-3.0 us against 4.1 us for two gcds.  A
# cofactor below 3001^2 with no sieve factor is prime, with no test, and so
# is any piece of it that is split off below 3001^2; above, a prime
# cofactor's test took 2.9-3.8 us in the hashed range and 22-32 us at
# 10^11-10^12 (6-10 us and 31-37 us with the first k prime bases).  With
# those costs the median seed-1 ledger took 36.0-37.3 us with a sieve to
# 1000, 34.6-36.2 us to 2000, 35.4-36.5 us to 3000, 36.8-38.7 us to 5000
# and 39.8-41.9 us to 10^4 (best and median of 7 passes over 20,000), so
# the bound stays at 3000.  Only a cofactor that failed the primality test
# pays the chunk gcds, about 10 ns per prime of a chunk (3.4 us for the
# first, 46 us for the last), and they stop at the first chunk that shares
# a prime with it; rho took 0.5-0.65 us * sqrt(p) to find a least prime p
# between 5,000 and 10^6.  The chunks stop at 96,000:
# on the benchmark's seed-1 ledger rationals (20,000 integers up to 10^12),
# factoring took 1.03 s with no chunk, 0.75 s with chunks to 96,000 and
# no less with chunks to 192,000 or 384,000, while each added chunk about
# doubles the gcds that a cofactor still bound for rho pays.  The products
# are built on the first composite cofactor (about 4-6 ms), never at
# import.  Rho starts the same way on every call (y = 2, c = 1, then the
# next c), with no generator to seed, so a factorization's dict order is
# fixed by n.  Every n below 10^24 is factored in full: a composite
# cofactor's least prime is below 10^12, and the next primes after 10^12
# and 3*10^12 took 0.8 s.  From 10^24 on, rho has a budget of 2^22 steps,
# counted once per gcd block, and a cofactor it does not split is refused
# (DomainError) after 2-3 s.
# sympy's factorint, the test oracle, measured ~3x slower on uniform 10^12
# inputs, which busts the product-formula check's time budget.

_SIEVE_BOUND = 3000
_RHO_FREE_BELOW = 10**24  # rho's step budget binds from here on
_RHO_STEPS = 1 << 22


def _odd_sieve(bound: int) -> bytearray:
    """mark[i] is 1 exactly when 2i + 1 <= bound is prime."""
    mark = bytearray([1]) * ((bound + 1) // 2)
    mark[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if mark[i]:
            p = 2 * i + 1
            mark[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(mark), p)))
    return mark


def _product(xs: list[int]) -> int:
    # pairwise, so each multiplication is of two numbers of about one size
    while len(xs) > 1:
        xs = [*map(mul, xs[::2], xs[1::2]), *xs[len(xs) & ~1 :]]
    return xs[0]


_ODD_SIEVE = _odd_sieve(_SIEVE_BOUND)
_SMALL_PRIMES = [2, *compress(range(1, _SIEVE_BOUND + 1, 2), _ODD_SIEVE)]
_SIEVE_PRODUCT = math.prod(_SMALL_PRIMES)
_PRIME_BELOW = (_SIEVE_BOUND + 1) ** 2  # a cofactor below this is prime
_CHUNK_EDGES = (_SIEVE_BOUND, 6000, 12000, 24000, 48000, 96000)


@functools.cache
def _chunk_products() -> tuple[int, ...]:
    """The product of the primes in each chunk (a, b] between _CHUNK_EDGES,
    built on the first composite cofactor, not at import."""
    bound = _CHUNK_EDGES[-1]
    primes = [2, *compress(range(1, bound + 1, 2), _odd_sieve(bound))]
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
    # reduction per step in blocks of 128 this took 13-19% less time.
    m = 16
    c = steps = 0
    budget = _RHO_STEPS if n >= _RHO_FREE_BELOW else math.inf
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
                steps += m
                if steps > budget:
                    raise DomainError(
                        "cannot factor the cofactor %d: Brent's rho found no "
                        "factor in %d steps; factoring is complete only for "
                        "numbers below 10^24" % (n, _RHO_STEPS)
                    )
            steps += r
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor_int(n: int, *, _sieve_gcd: int | None = None) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: multiplicity}.

    Every n below 10^24 is factored in full; from 10^24 on, a cofactor that
    Brent's rho does not split within its step budget raises DomainError.
    _sieve_gcd, when given, must be gcd(n, _SIEVE_PRODUCT): the ledger
    finds it for a numerator and a denominator with one gcd."""
    if not isinstance(n, int) or n < 1:
        raise ArgumentError("factor_int needs an int n >= 1, got %r" % (n,))
    g = math.gcd(n, _SIEVE_PRODUCT) if _sieve_gcd is None else _sieve_gcd
    found = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            found.append(p)
            if g <= _SIEVE_BOUND and _ODD_SIEVE[g >> 1]:
                break  # what is left of g is one sieve prime
    if g > 1:  # no sieve prime up to sqrt(g) divides it: a prime
        found.append(g)
    out: dict[int, int] = {}
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
    f = x if x.__class__ is Fraction else Fraction(x)
    a, d = abs(f.numerator), f.denominator
    if not a:
        raise ArgumentError("product formula needs x != 0")
    # one sieve gcd for both: a and d are coprime, so the sieve primes that
    # do not divide a divide d
    g = math.gcd(a * d, _SIEVE_PRODUCT)
    ga = math.gcd(g, a)
    num = factor_int(a, _sieve_gcd=ga)
    den = factor_int(d, _sieve_gcd=g // ga)
    ledger = tuple(sorted([*num.items(), *((p, -e) for p, e in den.items())]))
    return ProductFormulaLedger(f, ledger, math.log(a) - math.log(d))


def ulp_distance(a: float, b: float) -> float:
    """|a - b| measured in units of the larger value's ulp."""
    if a == b:
        return 0.0
    scale = math.ulp(max(abs(a), abs(b), 1e-300))
    return abs(a - b) / scale
