"""The parse edge: integral text becomes an int, everything else a Fraction,
and every parsed object equals the one read entirely through Fraction."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from subgeneral import ArgumentError, HomForm, LinearForm, ProjPoint, SubschemeSpec, monomials
from subgeneral.cli import main
from subgeneral.jsonio import parse_rat
from subgeneral.weil import target_from_json

from oracles import parse_rat_by_fraction, target_by_fraction


def _integer_text(rng):
    """Integer text with a sign, leading zeros, underscores, whitespace or a
    magnitude of 10^12 and above."""
    n = rng.choice((0, rng.randint(1, 99), rng.randint(10**12, 10**30)))
    digits = str(n)
    style = rng.randrange(5)
    if style == 1:
        digits = "0" * rng.randint(1, 3) + digits
    elif style == 2 and len(digits) > 1:
        cut = rng.randint(1, len(digits) - 1)
        digits = digits[:cut] + "_" + digits[cut:]
    text = rng.choice(("", "+", "-")) + digits
    if style == 3:
        text = rng.choice((" ", "\t", "\n ")) + text + rng.choice(("", " ", "\n"))
    return text


def _rational_text(rng):
    """a/b (integral or not), or a decimal such as 2.50 or 5.0."""
    a = rng.choice((rng.randint(-99, 99), rng.randint(10**12, 10**20)))
    b = rng.randint(1, 12)
    kind = rng.randrange(3)
    if kind == 0:
        return "%d/%d" % (a, b)
    if kind == 1:
        return "%d/%d" % (a * b, b)  # 4/2
    return "%d.%s" % (a, rng.choice(("0", "50", "5", "25", "00")))


FIXED = ["0", "-0", "+0", "+5", "007", "1_000", " 5 ", "4/2", "2.50", "5.0", "-3/9"]
FIXED += ["10" * 7, "-" + str(10**12), str(10**40 + 1)]


def _number_text(rng):
    return rng.choice((rng.choice(FIXED), _integer_text(rng), _rational_text(rng)))


def test_parse_rat_is_an_int_exactly_when_the_value_is_integral():
    rng = random.Random(3)
    for text in FIXED + [_number_text(rng) for _ in range(600)]:
        want = parse_rat_by_fraction(text)
        got = parse_rat(text)
        assert got == want, text
        assert type(got) is (int if want.denominator == 1 else Fraction), text
    # JSON numbers read as their text does
    for value, want in ((5, 5), (-12, -12), (2.5, Fraction(5, 2)), (5.0, 5), (0.0, 0)):
        got = parse_rat(value)
        assert got == want and type(got) is type(want)


MALFORMED = ["1/0", "x", "", "1/", "/2", "--1", "1 2", "1.2.3", "0x10", "1__0", "_1"]
MALFORMED += ["inf", "nan", "1e", "1" * 5000]
# Fraction reads Unicode digits, so they are accepted as they always were
NON_ASCII = ["٥", "1٢", "１", "١/٢"]


def _exit_codes(text):
    man = {"points": [["1", text]], "targets": [["1", "1"]], "places": ["inf"]}
    argvs = (
        ["height", "[1:%s]" % text],
        ["weil", "--manifest", json.dumps(man)],
        ["delta", "--l", "1", "--n", "1", "--epsilon=%s" % text],
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return [main(argv) for argv in argvs]


@pytest.mark.parametrize("text", MALFORMED + NON_ASCII, ids=lambda t: repr(t[:8]))
def test_malformed_text_is_refused_as_fraction_refuses_it(text):
    try:
        want = parse_rat_by_fraction(text)
    except ArgumentError:
        want = None
    if want is None:
        with pytest.raises(ArgumentError):
            parse_rat(text)
        assert _exit_codes(text) == [65, 65, 65]
    else:
        got = parse_rat(text)
        assert got == want and type(got) is (int if want.denominator == 1 else Fraction)
        assert _exit_codes(text) == [0, 0, 0]


def _coeff_texts(rng, n):
    """n number texts, not all of value zero."""
    while True:
        texts = [_number_text(rng) for _ in range(n)]
        if any(parse_rat_by_fraction(t) for t in texts):
            return texts


def test_parsed_objects_equal_the_fraction_read_objects():
    rng = random.Random(5)
    for _ in range(150):
        dim = rng.randint(1, 3)
        coords = _coeff_texts(rng, dim + 1)
        pt = ProjPoint.from_json(coords)
        want = ProjPoint(tuple(parse_rat_by_fraction(c) for c in coords))
        assert pt == want and pt.coords == want.coords
        assert all(type(c) is int for c in pt.coords)
        text = "[%s]" % rng.choice(":,").join(c.strip() for c in coords)
        assert ProjPoint.parse(text).coords == want.coords

        lin = _coeff_texts(rng, dim + 1)
        degree = rng.randint(1, 3)
        mono = monomials(dim + 1, degree)
        exps = rng.sample(mono, rng.randint(1, min(3, len(mono))))
        form = {
            "type": "form",
            "dim": dim,
            "degree": degree,
            "terms": [[list(e), c] for e, c in zip(exps, _coeff_texts(rng, len(exps)))],
        }
        sub = {"type": "subscheme", "label": "s", "components": [lin, form]}
        for data, cls in ((lin, LinearForm), (form, HomForm), (sub, SubschemeSpec)):
            got, want = target_from_json(data), target_by_fraction(data)
            assert type(got) is cls and got == want
            if cls is SubschemeSpec:
                got, want = got.components, want.components
            else:
                got, want = [got], [want]
            for g, w in zip(got, want):
                assert g.coeffs == w.coeffs
                assert all(type(c) is int for c in g.coeffs)
