"""Places of Q: normalized log-norms, valuations, and the product formula."""

import json
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
    DomainError,
    INF,
    Place,
    factor_int,
    log_norm,
    parse_place,
    product_formula_residual,
    ulp_distance,
    valuation,
)

from subgeneral.places import (
    _HASHED_BELOW,
    _HASHED_FROM,
    _LADDER,
    _is_prime,
    _is_strong_lucas_prp,
    _is_strong_prp,
)

from gen import rand_fraction
from oracles import (
    bpsw_reference,
    factor_reference,
    next_prime_reference,
    prime_flags_by_sieve,
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
        # log|x| and the finite terms -ord_p(x) log p cancel up to rounding
        finite = [-e * math.log(p) for p, e in led.finite]
        assert abs(math.fsum([led.arch_log] + finite)) < 1e-9


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
        "tables = (places._chunk_products, places._hashed_witnesses)\n"
        "before = [t.cache_info().misses for t in tables]\n"
        "places.factor_int(3001 * 3011)\n"
        "print(*before, *[t.cache_info().misses for t in tables])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "0", "1", "1"]


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


def test_factor_int_and_ledgers_match_sympy_on_seeded_rationals():
    rng = random.Random(106)
    sieve = [p for p in range(2, 3001) if prime_reference(p)]
    rationals = [rand_fraction(rng, 10**12) for _ in range(300)]
    # sieve primes split between numerator and denominator
    for _ in range(100):
        chosen = rng.sample(sieve, 6)
        top = math.prod(chosen[:3]) * rng.randint(1, 10**4)
        bottom = math.prod(chosen[3:]) * rng.randint(1, 10**4)
        rationals.append(Fraction(top * rng.choice((1, -1)), bottom))
    rationals += [Fraction(2999, 2), Fraction(210, 2999 * 2003), Fraction(1, 3001 * 3011)]
    for x in rationals:
        num, den = factor_reference(abs(x.numerator)), factor_reference(x.denominator)
        assert factor_int(abs(x.numerator)) == num, x
        assert factor_int(x.denominator) == den, x
        expected = sorted([*num.items(), *((p, -e) for p, e in den.items())])
        assert list(product_formula_residual(x).finite) == expected, x


def test_factoring_refuses_a_cofactor_that_rho_does_not_split_in_its_budget(monkeypatch):
    monkeypatch.setattr(subgeneral.places, "_RHO_STEPS", 64)
    # both primes exceed the last chunk and p*q exceeds 10^24: rho needs
    # about sqrt(p) = 10^6 steps, far more than the budget
    p, q = next_prime_reference(10**12), next_prime_reference(3 * 10**12)
    with pytest.raises(DomainError, match=r"cofactor %d\b.*10\^24" % (p * q)):
        factor_int(2**5 * p * q)
    with pytest.raises(DomainError, match=str(p * q)):
        product_formula_residual(Fraction(7, p * q))
    # below 10^24 rho has no budget: 10^6 * 10^7 takes about 10^3 steps
    a, b = next_prime_reference(10**6), next_prime_reference(10**7)
    assert factor_int(a * b) == {a: 1, b: 1}
    ledger = product_formula_residual(Fraction(a * b, 5))
    assert ledger.finite == ((5, -1), (a, 1), (b, 1))


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


# A014233: the first k prime bases decide every n below psi_k
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
# every bound where the witness ladder changes its witnesses
_RUNG_BOUNDS = sorted({_HASHED_FROM, _HASHED_BELOW, *(b for b, _ in _LADDER)})
_BPSW_FROM = _LADDER[-1][0]


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
        assert n > _BPSW_FROM and _is_strong_prp(n, 2)
        assert not _is_prime(n) and not prime_reference(n)
    for _ in range(200):
        p, q = (next_prime_reference(rng.getrandbits(48)) for _ in range(2))
        assert p * q > _BPSW_FROM
        assert not _is_prime(p * q) and not prime_reference(p * q)
    for e in (89, 107, 127, 521):
        assert _is_prime(2**e - 1) and prime_reference(2**e - 1)
        assert _is_prime(2**e + 1) == prime_reference(2**e + 1)


# ---------------------------------------------------------------------------
# the witness ladder against oracles that share none of its witnesses


def test_is_prime_matches_a_sieve_below_one_million():
    flags = prime_flags_by_sieve(10**6)
    assert [n for n in range(10**6) if _is_prime(n) != flags[n]] == []


def _rungs():
    """[lo, hi) for each rung of the ladder, and one range above the last."""
    bounds = [2, *_RUNG_BOUNDS, 2**100]
    return list(zip(bounds, bounds[1:]))


def test_is_prime_matches_bpsw_on_seeded_samples_in_every_rung():
    rng = random.Random(271)
    for lo, hi in _rungs():
        values = [rng.randrange(lo, hi) | 1 for _ in range(300)]
        # composites that pass the trial division: two primes of about
        # half the size each, where the rung is wide enough for them
        half = math.isqrt(lo)
        if half > 53:
            for _ in range(40):
                p = next_prime_reference(rng.randrange(half, math.isqrt(hi - 1)))
                q = next_prime_reference(rng.randrange(lo // p, (hi - 1) // p))
                if lo <= p * q < hi:
                    values.append(p * q)
        # multiples of the last two trial primes
        for s in (43, 47) * 10:
            values.append(s * rng.randrange(lo // s + 1, (hi - 1) // s + 1))
        values = [n for n in values if lo <= n < hi]
        got = [_is_prime(n) for n in values]
        assert got == [bpsw_reference(n) for n in values], (lo, hi)
        assert any(got) and not all(got), (lo, hi)


def test_is_prime_at_every_rung_bound():
    values = [b + d for b in _RUNG_BOUNDS for d in (-2, -1, 0, 1, 2)]
    assert [_is_prime(n) for n in values] == [bpsw_reference(n) for n in values]


# base-2 strong pseudoprimes in the hashed range, products p*q of primes
# with ord_p(2) | q - 1: each passes the base-2 test, so only the hashed
# witness can reject it
_SPSP2_HASHED = [
    486737, 7462001, 16879501, 46679761, 63001801, 95451361, 158192317,
    206304961, 250958401, 365077373, 437866087, 540621181, 682528687,
    771337891, 871157233, 1157839381, 1427771089, 1581576641, 2007646961,
    2274584089, 2634284801, 2881429741, 3207297773, 3450717901, 3935864017,
]


def test_is_prime_rejects_base_2_strong_pseudoprimes_in_the_hashed_range():
    for n in _SPSP2_HASHED:
        assert _HASHED_FROM <= n < _HASHED_BELOW
        assert _is_strong_prp(n, 2) and not bpsw_reference(n), n
        assert not _is_prime(n), n


def test_the_hashed_range_takes_exactly_one_witness(monkeypatch):
    calls = []

    def counting(n, a):
        calls.append(a)
        return _is_strong_prp(n, a)

    monkeypatch.setattr(subgeneral.places, "_is_strong_prp", counting)
    rng = random.Random(272)
    odd = [_HASHED_FROM, _HASHED_BELOW - 1] + _SPSP2_HASHED
    odd += [rng.randrange(_HASHED_FROM, _HASHED_BELOW) | 1 for _ in range(2000)]
    # the primes just outside the range take two and three witnesses
    for n, witnesses in [(341521, 2), (4296595243, 3)]:
        assert prime_reference(n)
        calls.clear()
        _is_prime(n)
        assert len(calls) == witnesses, n
    tested = 0
    for n in odd:
        if math.gcd(n, 614889782588491410) > 1:  # 47#
            continue  # trial division decides it
        calls.clear()
        _is_prime(n)
        assert len(calls) == 1, n
        tested += 1
    assert tested > 400


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


_FRESH_PROCESS = """
import json, os, sys, subgeneral, subgeneral.cli
watched = ["subgeneral." + m for m in ("experiments", "quang", "position", "seshadri")]
watched += ["dataclasses", "typing"]
print([m for m in watched if m in sys.modules])
for phase in json.loads(sys.argv[1]):
    for argv in phase:
        assert subgeneral.cli.main(argv + ["--out", os.devnull]) == 0, argv
    print([m for m in watched if m in sys.modules])
"""


def test_weil_and_norm_commands_import_no_experiment_module():
    # one-shot Weil values and ledgers load none of the modules that only
    # experiments and certificates run, no command but an experiment loads
    # dataclasses, and none loads typing (run under -S: site may import it)
    src = str(Path(subgeneral.__file__).resolve().parents[1])
    manifest = {"points": [["1", "4"]], "targets": [["1", "0"]], "places": ["inf", "p=2"]}
    forms = "[[1,0,0],[0,1,0],[1,-1,0]]"
    line = '{"ambient_dim": 2, "forms": [["0", "0", "1"]]}'
    config = {
        "x": {"ambient_dim": 1, "forms": []},
        "arrangements": {"inf": [["1", "0"], ["5", "7"]]},
        "l": 1,
        "epsilon": "1/10",
        "height_window": [0.5, 2.5],
        "seed": 0,
    }
    phases = [
        [
            ["norm", "-35/4", "--ledger"],
            ["weil", "--point", "[1:2]", "--place", "inf", "--linear", "[1,-3]"],
            ["weil", "--manifest", json.dumps(manifest)],
            ["height", "[2:3:5]"],
        ],
        [
            ["position", "check", "--forms", forms, "--l", "2"],
            ["quang", "combine", "--forms", forms, "--x", line, "--places", "inf,p=2"],
            ["seshadri", "--target", json.dumps(["1", "2", "3"])],
        ],
        [["experiment", "run", "--config", json.dumps(config)]],
    ]
    out = subprocess.run(
        [sys.executable, "-S", "-c", _FRESH_PROCESS, json.dumps(phases)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    certificates = ["subgeneral.quang", "subgeneral.position", "subgeneral.seshadri"]
    everything = ["subgeneral.experiments", *certificates, "dataclasses"]
    assert out.stdout.splitlines() == ["[]", "[]", repr(certificates), repr(everything)]


def test_ulp_distance_basics():
    assert ulp_distance(1.5, 1.5) == 0.0
    x = 1.0
    assert ulp_distance(x, math.nextafter(x, 2.0)) == pytest.approx(1.0)
    assert ulp_distance(0.0, 0.0) == 0.0
