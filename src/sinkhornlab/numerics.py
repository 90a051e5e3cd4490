"""Exact rational helpers: rational square roots and the p/q text form
used across the package.

Exact scalars are stdlib :class:`fractions.Fraction` values, which are
arbitrary precision, always reduced, and carry a positive denominator.
"""

from __future__ import annotations

import re
import reprlib
import sys
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


def _echo(x) -> str:
    """x's repr for an error line, cut to 60 characters. A string's full
    repr is cut, since reprlib would elide the middle of any string past 30
    characters; reprlib abbreviates long and deeply nested containers
    without recursing through them."""
    return _clip(repr(x) if isinstance(x, str) else reprlib.repr(x))


def _clip(text: str) -> str:
    """text cut to 60 characters, for an error line."""
    return text if len(text) <= 60 else text[:57] + "..."


#: underscores between an exponent's digits, which Fraction reads from 3.11 on
_UNDERSCORES = r"(?:_\d+)*" if sys.version_info >= (3, 11) else ""
#: the decimal exponent at the end of a token, as Fraction reads it
_EXPONENT = re.compile(rf"[eE][-+]?(\d+{_UNDERSCORES})\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal text into an exact Fraction.

    Decimal strings expand exactly ('0.25' -> 1/4); a binary float never
    enters the conversion. Fraction builds 10**exp in full, so an exponent
    of more than the interpreter's int-to-str digit limit (4,300 by
    default) is refused before any power is built.
    """
    stripped = text.strip()
    exponent = _EXPONENT.search(stripped)
    limit = sys.get_int_max_str_digits()
    # an exponent of more than `limit` digits is left to Fraction, whose
    # int() refuses it at once
    if exponent and limit:
        digits = exponent[1].replace("_", "")
        if len(digits) <= limit and int(digits) > limit:
            raise ValueError(f"exponent beyond {limit} in magnitude: {_echo(text)}")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {_echo(text)}") from exc


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
