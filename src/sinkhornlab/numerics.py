"""Exact rational helpers: rational square roots and the p/q text form
used across the package.

Exact scalars are stdlib :class:`fractions.Fraction` values, which are
arbitrary precision, always reduced, and carry a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def is_rational_square(q: Fraction) -> bool:
    """True iff the positive rational q is the square of a rational."""
    return rational_sqrt(q) is not None


def rational_sqrt(q: Fraction) -> Fraction | None:
    """The positive rational square root of q, or None if q has none.

    A reduced fraction is a rational square exactly when its numerator and
    denominator are both perfect squares of integers.
    """
    if q <= 0:
        raise ValueError(f"expected a positive rational, got {q}")
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        # gcd(rn, rd) = 1 already: its square divides gcd(numerator, denominator) = 1
        return Fraction(rn, rd)
    return None


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal text into an exact Fraction.

    Decimal strings expand exactly ('0.25' -> 1/4); a binary float never
    enters the conversion.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


#: digits per chunk when converting a long integer; the interpreter's
#: int-to-str limit cannot be set below 640 digits
_CHUNK_DIGITS = 500
_CHUNK = 10**_CHUNK_DIGITS


def _int_text(k: int) -> str:
    """Decimal text of any integer.

    str() refuses integers past the interpreter's digit limit (4,300 by
    default), which guards parsing and stays in place; longer values are
    converted in chunks of _CHUNK_DIGITS digits instead.
    """
    if -_CHUNK < k < _CHUNK:
        return str(k)
    if k < 0:
        return "-" + _int_text(-k)
    chunks = []
    while k >= _CHUNK:
        k, low = divmod(k, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(k))
    return "".join(reversed(chunks))


def format_rational(q: Fraction) -> str:
    """Serialize as 'p/q' in lowest terms, omitting '/q' for integers.

    Renders a Fraction of any size.
    """
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"
