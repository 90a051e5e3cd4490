"""Closed-form scaling limits.

For a positive 2x2 matrix (a b; c d) the limit of the alternating
scaling iteration is (alpha beta; beta alpha) with

    alpha = sqrt(ad) / (sqrt(ad) + sqrt(bc)),   beta = 1 - alpha,

realized as X A Y for explicit diagonals X, Y. For rational entries the
limit is rational iff ad/bc is the square of a rational. A symmetric
matrix (a b; b d) admits a single symmetric scaler D with D A D doubly
stochastic. Finally, the all-ones n x n matrix with its corner replaced
by K has a fully explicit limit driven by one quadratic in alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .matrices import DiagonalScaling, PositiveMatrix, Scalar
from .numerics import _clip, _echo, format_rational, rational_sqrt


def _require_positive(**named) -> None:
    """Raise unless every value is positive. The message renders an exact
    value with format_rational, since its str() fails past the int-to-str
    digit limit, and cuts it to 60 characters."""
    for name, v in named.items():
        if v <= 0:
            shown = format_rational(v) if isinstance(v, (int, Fraction)) else repr(v)
            raise ValueError(f"entry {name} must be positive, got {_clip(shown)}")


def _alpha_beta_matrix(alpha: Scalar, beta: Scalar) -> PositiveMatrix:
    """The 2x2 limit (alpha beta; beta alpha)."""
    return PositiveMatrix(((alpha, beta), (beta, alpha)))


class FloatRangeError(ValueError):
    """A float closed form whose value leaves float range: an entry or
    scaler underflows to 0, overflows to inf, or comes out NaN."""


def _require_float_range(what: str, args: tuple, **named: float) -> None:
    """Raise FloatRangeError unless every named value is positive and
    finite. The message echoes each argument clipped, through _echo."""
    for name, v in named.items():
        if not 0 < v < math.inf:
            shown = ", ".join(map(_echo, args))
            raise FloatRangeError(f"{what} = ({shown}) leaves float range: {name} = {v!r}")


@dataclass(frozen=True)
class Limit2x2:
    """Limit (alpha beta; beta alpha) of a positive 2x2 matrix, with the
    diagonals left/right that realize it as left @ A @ right."""

    alpha: float
    beta: float
    left: DiagonalScaling
    right: DiagonalScaling

    def matrix(self) -> PositiveMatrix:
        return _alpha_beta_matrix(self.alpha, self.beta)


def limit_2x2(a: float, b: float, c: float, d: float) -> Limit2x2:
    """Closed-form limit of the 2x2 matrix (a b; c d), all entries > 0."""
    _require_positive(a=a, b=b, c=c, d=d)
    sad = math.sqrt(a * d)
    sbc = math.sqrt(b * c)
    scd = math.sqrt(c * d)
    sab = math.sqrt(a * b)
    what = "2x2 limit of a, b, c, d", (a, b, c, d)
    try:
        alpha = sad / (sad + sbc)
        beta = sbc / (sad + sbc)
        y1, y2 = 1.0 / (a * scd + c * sab), 1.0 / (b * scd + d * sab)
    except ZeroDivisionError:  # raises: a denominator underflowed
        _require_float_range(*what, denominator=0.0)
    _require_float_range(*what, alpha=alpha, beta=beta, x1=scd, x2=sab, y1=y1, y2=y2)
    return Limit2x2(alpha, beta, DiagonalScaling((scd, sab)), DiagonalScaling((y1, y2)))


@dataclass(frozen=True)
class ExactLimit2x2:
    """Exact 2x2 limit: rational alpha/beta when ratio = ad/bc is a
    rational square, otherwise only the witness ratio.

    The realizing diagonals are deliberately not carried in exact form:
    they involve sqrt(cd) and sqrt(ab), which are usually irrational even
    when the limit itself is rational.
    """

    ratio: Fraction
    alpha: Fraction | None
    beta: Fraction | None

    @property
    def is_rational(self) -> bool:
        return self.alpha is not None

    def matrix(self) -> PositiveMatrix | None:
        if self.alpha is None:
            return None
        return _alpha_beta_matrix(self.alpha, self.beta)


def limit_2x2_exact(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> ExactLimit2x2:
    """Exact limit of a rational 2x2 matrix, or the irrationality witness.

    When ad/bc = s^2 for rational s, alpha = s/(s+1) exactly; otherwise
    the limit has irrational entries and only ratio = ad/bc is returned.
    """
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    _require_positive(a=a, b=b, c=c, d=d)
    ratio = (a * d) / (b * c)
    s = rational_sqrt(ratio)
    if s is None:
        return ExactLimit2x2(ratio, None, None)
    alpha = s / (s + 1)
    return ExactLimit2x2(ratio, alpha, 1 - alpha)


@dataclass(frozen=True)
class SymmetricLimit2x2:
    """Limit of a symmetric positive (a b; b d) realized as D A D."""

    alpha: float
    beta: float
    scaler: DiagonalScaling
    lam: float  # scaler = lam * diag(1/row_1, 1/row_2)-style row scaling

    def matrix(self) -> PositiveMatrix:
        return _alpha_beta_matrix(self.alpha, self.beta)


def limit_2x2_symmetric(a: float, b: float, d: float) -> SymmetricLimit2x2:
    """Limit of the symmetric matrix (a b; b d) via one symmetric scaler.

    alpha = sqrt(ad)/(sqrt(ad) + b), lam = (abd + b^2 sqrt(ad))^(-1/2),
    D = diag(lam*sqrt(bd), lam*sqrt(ab)), and D A D is doubly stochastic.
    """
    _require_positive(a=a, b=b, d=d)
    sad = math.sqrt(a * d)
    alpha = sad / (sad + b)
    beta = b / (sad + b)
    what = "symmetric 2x2 limit of a, b, d", (a, b, d)
    try:
        lam = 1.0 / math.sqrt(a * b * d + b * b * sad)
    except ZeroDivisionError:  # raises: a denominator underflowed
        _require_float_range(*what, denominator=0.0)
    d1, d2 = lam * math.sqrt(b * d), lam * math.sqrt(a * b)
    _require_float_range(*what, alpha=alpha, beta=beta, lam=lam, d1=d1, d2=d2)
    return SymmetricLimit2x2(alpha, beta, DiagonalScaling((d1, d2)), lam)


@dataclass(frozen=True)
class BorderedLimit:
    """Limit of the n x n all-ones matrix with corner entry K.

    The limit has the two-block shape (alpha beta..; beta gamma..): alpha
    in the corner, beta along the first row and column, gamma elsewhere,
    with alpha + (n-1) beta = beta + (n-1) gamma = 1. The symmetric
    scaler is diag(x1, x2, ..., x2) with alpha = K x1^2, beta = x1 x2,
    gamma = x2^2. alpha, beta, gamma are exact Fractions for the
    triangular-number family, floats otherwise; x1, x2 are always floats
    (they involve square roots that rarely stay rational).
    """

    n: int
    K: Scalar
    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    x1: float
    x2: float

    def limit_matrix(self) -> PositiveMatrix:
        first = (self.alpha,) + (self.beta,) * (self.n - 1)
        other = (self.beta,) + (self.gamma,) * (self.n - 1)
        return PositiveMatrix((first,) + (other,) * (self.n - 1))


def bordered_matrix(n: int, K: Scalar) -> PositiveMatrix:
    """The n x n all-ones matrix with the (1,1) entry replaced by K."""
    if n < 2:
        raise ValueError(f"bordered matrix needs n >= 2, got {n}")
    if K <= 0:
        raise ValueError(f"corner entry must be positive, got {K}")
    first = (K,) + (1,) * (n - 1)
    other = (1,) * n
    return PositiveMatrix((first,) + (other,) * (n - 1))


def bordered_limit(n: int, K: float) -> BorderedLimit:
    """Closed-form limit of the bordered matrix for any K > 0, n >= 3.

    alpha is the root of (K-1) a^2 - (2K+n-2) a + K = 0 lying in (0, 1),
    evaluated as 2K / (2K+n-2 + sqrt(4(n-1)K + (n-2)^2)): the same root
    as the textbook minus-branch formula, rearranged so that it stays
    numerically stable near K = 1 (where the quadratic degenerates) and
    is well-defined there. K = 1 short-circuits to the flat limit 1/n.
    """
    if n < 3:
        raise ValueError(f"bordered limit needs n >= 3, got {n}")
    if K <= 0:
        raise ValueError(f"corner entry must be positive, got {K}")
    try:
        if K == 1:
            third = 1.0 / n
            return BorderedLimit(
                n=n, K=K, alpha=third, beta=third, gamma=third,
                x1=math.sqrt(third), x2=math.sqrt(third),
            )
        disc = 4.0 * (n - 1) * K + (n - 2) ** 2
        alpha = 2.0 * K / (2.0 * K + n - 2 + math.sqrt(disc))
        beta = (1 - alpha) / (n - 1)
        gamma = (n - 2 + alpha) / (n - 1) ** 2
    except OverflowError:  # n, or its square, past float range
        # n's bit length, since an int past the int-to-str limit has no repr
        floor = int(n).bit_length() - 1
        raise FloatRangeError(
            f"bordered limit of n >= 2**{floor}, K = {K!r} leaves float range: n is too large"
        ) from None
    x1, x2 = math.sqrt(alpha / K), math.sqrt(gamma)
    _require_float_range(
        "bordered limit of n, K", (n, K), alpha=alpha, beta=beta, gamma=gamma, x1=x1, x2=x2
    )
    return BorderedLimit(n=n, K=K, alpha=alpha, beta=beta, gamma=gamma, x1=x1, x2=x2)


def bordered_limit_triangular(k: int) -> BorderedLimit:
    """Exact rational 3x3 bordered limit for K = k(k+1)/2, k >= 2.

    These corner values are precisely the ones whose limit is rational:
    alpha = (k^2-k)/(k^2+k-2), beta = (k-1)/(k^2+k-2),
    gamma = (k^2-1)/(2(k^2+k-2)).
    """
    if k < 2:
        raise ValueError(
            f"triangular family needs k >= 2, got {k} (k = 1 gives the flat all-ones matrix)"
        )
    K = Fraction(k * k + k, 2)
    den = k * k + k - 2
    alpha = Fraction(k * k - k, den)
    beta = Fraction(k - 1, den)
    gamma = Fraction(k * k - 1, 2 * den)
    return BorderedLimit(
        n=3,
        K=K,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        x1=math.sqrt(alpha / K),
        x2=math.sqrt(gamma),
    )
