"""Exact rational arithmetic backend.

Every quantity in this package (endowments, supplies, demands, allocation
amounts, utilities, cut capacities) is an exact rational.  ``Rational`` is
``gmpy2.mpq`` when available and ``fractions.Fraction`` otherwise; the two are
interchangeable for everything we do (arithmetic, ordering, hashing, ``str``).
No floats are created anywhere downstream, so equality checks are exact.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Rational
except ImportError:
    from fractions import Fraction as Rational

ZERO = Rational(0)
ONE = Rational(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParseError(ValueError):
    """Raised when external input (numbers, instance files) is malformed."""


def parse_rational(text: str) -> "Rational":
    """Parse a string like ``"3/4"``, ``"-2"`` or ``"5"`` into a Rational.

    Only integer and integer-ratio forms are accepted; decimals, floats and
    whitespace are rejected so that file round-trips stay exact.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a rational as a string, got {text!r}")
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational number: {text!r}")
    # Build from integer parts: int() accepts leading zeros, which the gmpy2
    # string constructor rejects.
    if "/" in text:
        numerator, denominator = text.split("/", 1)
        if int(denominator) == 0:
            raise ParseError(f"zero denominator: {text!r}")
        return Rational(int(numerator), int(denominator))
    return Rational(int(text))


def format_rational(value) -> str:
    """Render a Rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    value = Rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
