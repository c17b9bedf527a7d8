"""Stable JSON emission.

Reports must be byte-identical across runs with the same inputs, so every
dict is dumped with sorted keys and a fixed separator convention.  Floats go
through repr (shortest round-trip form), which is deterministic on every
CPython we target.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ArgumentError


def stable_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def stable_dumps_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def rat_str(x) -> str:
    """Canonical rational string: 'a/b' with '/b' omitted when b == 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_rat(s) -> int | Fraction:
    """The rational that the text of s names: an int exactly when it is
    integral, else a Fraction.

    ASCII integer text goes straight to int(); anything else is read by
    Fraction, which accepts a superset of that grammar with the same values
    ("a/b", decimals, exponents, underscores), and a denominator of 1 gives
    its numerator.  Text neither accepts raises ArgumentError.
    """
    text = str(s).strip()
    try:
        if _INT_TEXT.fullmatch(text):
            return int(text)
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError("not a rational: %r" % (s,)) from exc
    return f.numerator if f.denominator == 1 else f


def json_int(value, name: str) -> int:
    """value, which must be a JSON integer: not a bool, float or string."""
    if type(value) is not int:
        raise TypeError("%s must be a JSON integer, got %r" % (name, value))
    return value
