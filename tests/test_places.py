"""Places of Q: normalized log-norms, valuations, and the product formula."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import subgeneral
from subgeneral import (
    ArgumentError,
    INF,
    Place,
    factor_int,
    log_norm,
    parse_place,
    product_formula_residual,
    ulp_distance,
    valuation,
)

from subgeneral.places import _PSI, _is_prime, _is_strong_lucas_prp, _is_strong_prp

from gen import rand_fraction
from oracles import (
    factor_reference,
    next_prime_reference,
    prime_reference,
    strong_lucas_reference,
)


def test_place_identity_and_parse():
    assert INF.is_archimedean
    assert str(INF) == "inf"
    p2 = Place(2)
    assert not p2.is_archimedean
    assert parse_place("inf") == INF
    assert parse_place("2") == p2
    assert parse_place(str(Place(97))) == Place(97)


def test_place_rejects_composite():
    with pytest.raises(ArgumentError):
        Place(6)
    with pytest.raises(ArgumentError):
        Place(1)


def test_valuation_frozen_values():
    assert valuation(40, 2) == 3
    assert valuation(1, 7) == 0
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(Fraction(9, 2), 2) == -1


def test_valuation_of_zero_rejected():
    with pytest.raises(ArgumentError):
        valuation(0, 2)


def test_log_norm_frozen_values():
    ln = log_norm(12, Place(2))
    assert ln.exact == (2, 2)
    assert ln.approx == -2 * math.log(2)

    ln = log_norm(-6, INF)
    assert ln.exact is None
    assert ln.approx == pytest.approx(math.log(6), abs=0)

    ln = log_norm(Fraction(3, 8), Place(2))
    assert ln.exact == (2, -3)
    assert ln.approx == 3 * math.log(2)


def test_log_norm_of_zero_rejected():
    with pytest.raises(ArgumentError):
        log_norm(0, INF)


def test_log_norm_multiplicative_at_finite_places():
    rng = random.Random(101)
    for _ in range(200):
        x = rand_fraction(rng, 10**6)
        y = rand_fraction(rng, 10**6)
        for p in (2, 3, 5, 13):
            v = Place(p)
            ex = log_norm(x, v).exact[1]
            ey = log_norm(y, v).exact[1]
            assert log_norm(x * y, v).exact == (p, ex + ey)


def test_ultrametric_inequality():
    rng = random.Random(102)
    for _ in range(200):
        x = rand_fraction(rng, 10**6)
        y = rand_fraction(rng, 10**6)
        if x + y == 0:
            continue
        for p in (2, 3, 7):
            ordx, ordy = valuation(x, p), valuation(y, p)
            assert valuation(x + y, p) >= min(ordx, ordy)


def test_product_formula_frozen_ledgers():
    led = product_formula_residual(-6)
    assert led.finite == ((2, 1), (3, 1))
    assert led.residual_is_zero()

    led = product_formula_residual(1)
    assert led.finite == ()
    assert led.arch_log == 0.0
    assert led.residual_is_zero()

    led = product_formula_residual(Fraction(35, 4))
    assert led.finite == ((2, -2), (5, 1), (7, 1))
    assert led.residual_is_zero()


def test_product_formula_zero_rejected():
    with pytest.raises(ArgumentError):
        product_formula_residual(0)


def test_product_formula_float_residual_small():
    rng = random.Random(103)
    for _ in range(100):
        led = product_formula_residual(rand_fraction(rng, 10**9))
        assert led.residual_is_zero()
        assert abs(led.residual_float()) < 1e-9


def test_product_formula_ledger_json_shape():
    d = product_formula_residual(Fraction(-35, 4)).to_json_dict()
    assert d["x"] == "-35/4"
    assert d["finite"] == [[2, -2], [5, 1], [7, 1]]
    assert d["residual_exact_zero"] is True


# the chunks (a, b] whose prime products split a composite cofactor
CHUNK_EDGES = (3000, 6000, 12000, 24000, 48000, 96000)


def _prev_prime(n: int) -> int:
    while not prime_reference(n):
        n -= 1
    return n


def _chunk_of(p: int) -> int:
    """0 for a sieve prime, k for the k-th chunk, 6 above the last."""
    return sum(p > e for e in CHUNK_EDGES)


# one prime in each chunk and one above them all
_PARTNERS = (3011, 7001, 20011, 40009, 70001, 1000003)


def test_factor_int_against_reference():
    rng = random.Random(104)
    values = [rng.randint(2, 10**12) for _ in range(60)]
    values += [2**40, 3 * 5 * 7 * 11 * 13, 10**12 - 11, 999983**2]
    # the primes at each chunk edge, times a prime of another chunk or above
    edge_primes = []
    for e in CHUNK_EDGES:
        edge_primes += [_prev_prime(e), next_prime_reference(e)]
    for p in edge_primes:
        values += [p * q for q in _PARTNERS if _chunk_of(q) != _chunk_of(p)]
        values += [p**2, p**3, 2**5 * p**2 * 1000003]
    # two primes of one chunk: the chunk's gcd is the whole cofactor
    values += [3001 * 5987, 6007 * 11981, 12007 * 23993, 48017 * 95989, 3001**2 * 5987]
    # three-prime cofactors, within and across chunks
    values += [3001 * 20011 * 1000003, 7 * 3001 * 10007 * 70001, 48017 * 95989 * 70001]
    # every prime above the last chunk: only rho splits it
    values += [next_prime_reference(96000) * next_prime_reference(10**6), 1000003 * 1000033]
    for n in values:
        assert factor_int(n) == factor_reference(n), n


def test_chunk_gcds_split_cofactors_with_a_prime_below_96000_without_rho(monkeypatch):
    calls = []
    rho = subgeneral.places._brent_rho

    def counting(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(subgeneral.places, "_brent_rho", counting)
    rng = random.Random(105)
    lows = CHUNK_EDGES + (10**9,)
    for _ in range(300):
        p = next_prime_reference(rng.randint(3000, 95900))
        k = rng.choice([k for k in range(1, 7) if k != _chunk_of(p)])
        q = next_prime_reference(rng.randint(lows[k - 1], lows[k] - 100))
        smooth = rng.choice((1, 2, 3 * 5**4, 2999))
        assert factor_int(smooth * p * q) == factor_reference(smooth * p * q)
    assert calls == []
    # a cofactor with both primes above the last chunk reaches rho
    p, q = next_prime_reference(96000), next_prime_reference(10**7)
    assert factor_int(p * q) == {p: 1, q: 1}
    assert calls


def test_importing_the_package_builds_no_chunk_product():
    src = str(Path(subgeneral.__file__).resolve().parents[1])
    code = (
        "import subgeneral, subgeneral.cli\n"
        "from subgeneral import places\n"
        "before = places._chunk_products.cache_info().misses\n"
        "places.factor_int(3001 * 3011)\n"
        "print(before, places._chunk_products.cache_info().misses)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "1"]


def test_factor_int_edges():
    assert factor_int(1) == {}
    assert factor_int(2) == {2: 1}
    with pytest.raises(ArgumentError):
        factor_int(0)


def test_factor_int_takes_no_primality_test_below_the_sieve_square(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return _is_prime(n)

    monkeypatch.setattr(subgeneral.places, "_is_prime", counting)
    # a sieve part whose last prime is found by the gcd, not by division,
    # and cofactors below 3001^2 with no sieve factor: all prime
    inputs = [
        2003 * 2999,
        2999**3,
        2**7 * 3**4 * 2999,
        3001,
        2 * 3001,
        2999 * 3001,
        9005989,  # the largest prime below 3001^2
        2**3 * 5 * 9005989,
    ]
    for n in inputs:
        assert factor_int(n) == factor_reference(n)
    assert calls == []
    # from 3001^2 on a cofactor with no sieve factor may be composite
    assert factor_int(3001 * 3011) == {3001: 1, 3011: 1}
    assert calls


def test_factor_int_rejects_non_integers():
    for bad in (12.5, 10**13 + 0.0, "12", Fraction(12), -3):
        with pytest.raises(ArgumentError):
            factor_int(bad)


# ---------------------------------------------------------------------------
# primality against the sympy oracle

# Carmichael numbers, and 3215031751, a strong pseudoprime to bases 2, 3, 5, 7
_PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                 321197185, 5394826801, 232250619601, 9746347772161, 3215031751]
# Chernick's (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael
# number; these k put it above psi_13 and make it a strong base-2 pseudoprime,
# so only the Lucas step of BPSW can reject it
_CHERNICK_K = [100010036, 100015586, 100016170, 100017346, 100020070]


def test_is_prime_matches_sympy_below_100000():
    assert [n for n in range(100_000) if _is_prime(n) != prime_reference(n)] == []


def test_is_prime_matches_sympy_on_seeded_odd_numbers():
    rng = random.Random(2024)
    for bits in (16, 32, 48, 64, 82, 100, 128, 256):
        values = [rng.getrandbits(bits) | 1 | 1 << (bits - 1) for _ in range(2000)]
        got = [_is_prime(n) for n in values]
        assert got == [prime_reference(n) for n in values], bits
        assert any(got), bits  # the prime answer is exercised at every size


def test_is_prime_at_the_miller_rabin_bounds_and_pseudoprimes():
    values = [psi + d for psi in _PSI for d in (-2, -1, 0, 1, 2)] + _PSEUDOPRIMES
    for n in values:
        assert _is_prime(n) == prime_reference(n), n
    assert not any(_is_prime(n) for n in list(_PSI) + _PSEUDOPRIMES)


def test_is_prime_takes_bpsw_above_the_last_bound():
    rng = random.Random(13)
    for k in _CHERNICK_K:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(prime_reference(p) for p in factors)
        n = math.prod(factors)
        assert n > _PSI[-1] and _is_strong_prp(n, 2)
        assert not _is_prime(n) and not prime_reference(n)
    for _ in range(200):
        p, q = (next_prime_reference(rng.getrandbits(48)) for _ in range(2))
        assert p * q > _PSI[-1]
        assert not _is_prime(p * q) and not prime_reference(p * q)
    for e in (89, 107, 127, 521):
        assert _is_prime(2**e - 1) and prime_reference(2**e - 1)
        assert _is_prime(2**e + 1) == prime_reference(2**e + 1)


def test_strong_lucas_step_matches_sympy():
    odd = list(range(3, 20_001, 2))  # 5459, 5777, 10877, 16109, 18971 fool it
    rng = random.Random(31)
    for bits in (40, 64, 100, 128):
        odd += [rng.getrandbits(bits) | 1 | 1 << (bits - 1) for _ in range(500)]
    # squares of large primes: (D/n) is never -1 and no small D shares a
    # factor with n, so only the square test ends the search for D
    odd += [(2**61 - 1) ** 2, (10**12 + 39) ** 2]
    got = [_is_strong_lucas_prp(n) for n in odd]
    assert got == [strong_lucas_reference(n) for n in odd]
    liars = [n for n, ok in zip(odd, got) if ok and not prime_reference(n)]
    assert liars[:5] == [5459, 5777, 10877, 16109, 18971]


def test_places_at_huge_primes():
    assert Place(2**127 - 1).p == 2**127 - 1
    assert valuation(Fraction(2**127 - 1, 3), 2**127 - 1) == 1
    with pytest.raises(ArgumentError):
        Place(2**127 + 1)
    with pytest.raises(ArgumentError):
        valuation(5, 2**127 + 1)


def test_the_package_imports_without_sympy():
    src = str(Path(subgeneral.__file__).resolve().parents[1])
    code = "import sys, subgeneral, subgeneral.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_ulp_distance_basics():
    assert ulp_distance(1.5, 1.5) == 0.0
    x = 1.0
    assert ulp_distance(x, math.nextafter(x, 2.0)) == pytest.approx(1.0)
    assert ulp_distance(0.0, 0.0) == 0.0
