"""Exact rational scalars.

Every coefficient in this package is exact: a ``fractions.Fraction`` or, where
the value is integral and the code that made it kept it so, an int.  Metrics
and the scalars that results report are Fractions; a form's coefficients may
be either (``linalg.kernel`` and the searches built on it keep ints), and a
form with int coefficients is equal, hashes equal and prints the same as its
Fraction twin.  Floats
are rejected at the boundary: binary floating point cannot represent most of
the rationals that show up here, and silent rounding would defeat the whole
point of an exact kernel.  ``as_scalar`` is the single coercion chokepoint.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidParameter

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def as_scalar(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts int, Fraction, and strings ``"[+-]p"`` or ``"[+-]p/q"`` in ASCII
    digits, spaces around them allowed, like ``"3"`` or ``"-2/5"``.  Floats,
    bools and any other text (``"0.5"``, ``"1e3"``, ``"1_000"``) are refused.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise InvalidParameter(f"{type(value).__name__} {value!r} rejected: "
                               "pass an int, Fraction, or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (TypeError, ValueError, ZeroDivisionError):
            # no match, past the int-conversion limit, or q = 0
            raise InvalidParameter(f"not a rational literal: {value!r}") from None
    raise InvalidParameter(f"cannot interpret {value!r} as a rational scalar")


def _exact(value):
    """An integral rational as an int, any other kept as its Fraction; a
    quotient of two ints follows the same rule in ``linalg._ratio``."""
    return value.numerator if value.denominator == 1 else value


def format_scalar(value: Fraction) -> str:
    """Render canonically: ``"p"`` for integers, ``"p/q"`` otherwise."""
    value = as_scalar(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def height(value: Fraction) -> int:
    """max(|numerator|, denominator) of the reduced fraction; height(0) = 0."""
    value = as_scalar(value)
    if value == 0:
        return 0
    return max(abs(value.numerator), value.denominator)
