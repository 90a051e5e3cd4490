"""Positive matrices, diagonal scalings, margin targets, and the
doubly stochastic predicate built on them.

Two numeric regimes share one representation: exact (Fraction entries,
ints are promoted) and approximate (float entries). A matrix is pinned to
a single regime at construction and operations never mix regimes.

PositiveMatrix, DiagonalScaling and MarginTarget are frozen dataclasses:
each validates its input in its own __init__, is compared and hashed by
value, and raises FrozenInstanceError on assignment, so everything here
is safe to share across threads and to use as a dict or cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import inf
from typing import Iterable, Union

from .numerics import _clip, _echo, format_rational, parse_rational

Scalar = Union[float, Fraction]

#: margin tolerance for approximate-regime stochasticity checks
DEFAULT_TOLERANCE = 1e-12

#: relative slack allowed between float target totals
_TARGET_TOTAL_RTOL = 1e-9


class NonPositiveEntryError(ValueError):
    """A matrix, scaling, or target entry was zero or negative."""


class NonFiniteEntryError(ValueError):
    """A float matrix, scaling, or target entry was infinite or NaN."""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class RegimeError(ValueError):
    """Exact (Fraction) and approximate (float) scalars were mixed."""


def _coerce(values, what: str) -> tuple[tuple[Scalar, ...], bool]:
    """Validate a flat sequence of scalars; return (entries, exact).

    The regime and the type checks are decided once per distinct entry
    type, not per entry; only a bad input is scanned again, to name its
    first offending entry. Plain floats and plain Fractions are kept as
    they are, when every entry has that one type; every other entry is
    converted to the regime's type.
    """
    out = tuple(values)
    types = set(map(type, out))
    if types == {float}:
        return out, False
    if types == {Fraction}:
        return out, True
    exact = not any(issubclass(t, float) for t in types)
    if not exact and any(issubclass(t, Fraction) for t in types):
        raise RegimeError(f"{what} mixes float and Fraction entries")
    conv = Fraction if exact else float
    bad = {t for t in types if t is bool or not issubclass(t, (int, float, Fraction))}
    if bad:
        k = next(k for k, x in enumerate(out) if type(x) in bad)
        for x in out[:k]:  # an entry before k that cannot be converted fails first
            conv(x)
        raise TypeError(f"{what} entry {k + 1} is not a scalar: {out[k]!r}")
    return tuple(map(conv, out)), exact


def _require_positive(flat, exact: bool, describe) -> None:
    """Raise unless every value is positive and, for floats, finite.

    describe(k) gives the label and the value of value k for the error
    message, which renders the value and cuts it to 60 characters, since
    a Fraction's str() fails past the int-to-str digit limit. An exact
    value is a plain Fraction (see _coerce), whose sign is its
    numerator's: testing that int is about 7x cheaper than comparing the
    Fraction with 0, and no Fraction is ever compared with a float.
    """
    if exact:
        bad = [k for k, v in enumerate(flat) if v.numerator <= 0]
    elif 0 < min(flat) and sum(flat) < inf:
        return  # no NaN (it would make the sum NaN), so min is exact and inf is ruled out
    else:
        bad = [k for k, v in enumerate(flat) if not 0 < v < inf]
    if not bad:
        return
    label, value = describe(bad[0])
    shown = _clip(_render(value, exact))
    if flat[bad[0]] <= 0:
        raise NonPositiveEntryError(f"{label} is not positive: {shown}")
    raise NonFiniteEntryError(f"{label} is not finite: {shown}")


@dataclass(frozen=True, slots=True)
class PositiveMatrix:
    """Dense m x n matrix with strictly positive entries.

    Entries are all Fraction (exact regime; ints are promoted) or all
    float (approximate regime). Zero or negative entries are rejected
    with :class:`NonPositiveEntryError`, infinite or NaN floats with
    :class:`NonFiniteEntryError`, each naming the offending position.
    """

    entries: tuple[tuple[Scalar, ...], ...]
    exact: bool

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        entries = tuple(tuple(row) for row in rows)
        if not entries or not entries[0]:
            raise DimensionError("matrix needs at least one row and one column")
        n = len(entries[0])
        if any(len(row) != n for row in entries):
            raise DimensionError("matrix rows have unequal lengths")
        flat, exact = _coerce(chain.from_iterable(entries), "matrix")

        def describe(k):
            i, j = divmod(k, n)
            return f"entry ({i + 1},{j + 1})", entries[i][j]

        _require_positive(flat, exact, describe)
        grid = tuple(flat[i * n:(i + 1) * n] for i in range(len(entries)))
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def _unchecked(cls, grid: tuple[tuple[Fraction, ...], ...]) -> "PositiveMatrix":
        """The exact matrix over `grid`, a tuple of equal-length tuples of
        positive plain Fractions, stored as given without __init__'s checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "exact", True)
        return self

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(_render(x, self.exact) for x in row) for row in self.entries
        )
        return f"PositiveMatrix[{body}]"

    # --- JSON wire format: {"rows": [[...]]}, numbers = approximate,
    # --- "p/q" strings = exact; mixing the two is an input error.

    def to_json_obj(self) -> dict:
        if self.exact:
            rows = [[format_rational(x) for x in row] for row in self.entries]
        else:
            rows = [list(row) for row in self.entries]
        return {"rows": rows}

    @classmethod
    def from_json_obj(cls, obj) -> "PositiveMatrix":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ValueError('matrix JSON must be an object with a "rows" field')
        rows = obj["rows"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ValueError('"rows" must be an array of arrays')
        parsed = []
        for row in rows:
            out = []
            for x in row:
                if isinstance(x, str):
                    out.append(parse_rational(x))
                elif isinstance(x, (int, float)) and not isinstance(x, bool):
                    try:
                        out.append(float(x))
                    except OverflowError:  # an integer literal beyond float range
                        raise NonFiniteEntryError("matrix entry is beyond float range") from None
                else:
                    raise ValueError(f"matrix entry is not a number: {_echo(x)}")
            parsed.append(out)
        return cls(parsed)


@dataclass(frozen=True, slots=True)
class DiagonalScaling:
    """Positive diagonal matrix stored as its diagonal vector."""

    diag: tuple[Scalar, ...]
    exact: bool

    def __init__(self, diag: Iterable[Scalar]):
        flat, exact = _coerce(diag, "diagonal")
        if not flat:
            raise DimensionError("diagonal needs at least one coordinate")
        _require_positive(flat, exact, lambda k: (f"diagonal coordinate {k + 1}", flat[k]))
        object.__setattr__(self, "diag", flat)
        object.__setattr__(self, "exact", exact)

    def __len__(self) -> int:
        return len(self.diag)

    def __repr__(self) -> str:
        return f"diag({', '.join(_render(x, self.exact) for x in self.diag)})"


@dataclass(frozen=True, slots=True)
class MarginTarget:
    """Positive target row sums r and column sums c with equal totals."""

    row_targets: tuple[Scalar, ...]
    col_targets: tuple[Scalar, ...]
    exact: bool

    def __init__(self, row_targets: Iterable[Scalar], col_targets: Iterable[Scalar]):
        rt, r_exact = _coerce(row_targets, "row targets")
        ct, c_exact = _coerce(col_targets, "column targets")
        if r_exact != c_exact:
            raise RegimeError("row and column targets are in different regimes")
        for name, vec in (("row", rt), ("column", ct)):
            _require_positive(vec, r_exact, lambda k: (f"{name} target {k + 1}", vec[k]))
        r_total, c_total = sum(rt), sum(ct)
        slack = 0 if r_exact else _TARGET_TOTAL_RTOL * max(1.0, abs(r_total))
        if abs(r_total - c_total) > slack:
            raise ValueError(
                f"target totals differ: sum(r) = {_clip(_render(r_total, r_exact))}, "
                f"sum(c) = {_clip(_render(c_total, r_exact))}"
            )
        object.__setattr__(self, "row_targets", rt)
        object.__setattr__(self, "col_targets", ct)
        object.__setattr__(self, "exact", r_exact)

    def __repr__(self) -> str:
        r, c = ([_render(x, self.exact) for x in v] for v in (self.row_targets, self.col_targets))
        return f"MarginTarget(r=[{', '.join(r)}], c=[{', '.join(c)}])"


def _render(x: Scalar, exact: bool) -> str:
    return format_rational(x) if exact else repr(x)


def _check_same_regime(a_exact: bool, b_exact: bool) -> None:
    if a_exact != b_exact:
        raise RegimeError("cannot mix exact and approximate operands")


# --- margins and scalings -------------------------------------------------

def row_sums(A: PositiveMatrix) -> tuple[Scalar, ...]:
    """Vector of row sums of A."""
    return tuple(sum(row) for row in A.entries)


def col_sums(A: PositiveMatrix) -> tuple[Scalar, ...]:
    """Vector of column sums of A."""
    return tuple(sum(col) for col in zip(*A.entries))


def transpose(A: PositiveMatrix) -> PositiveMatrix:
    return PositiveMatrix(zip(*A.entries))


def _resolve_targets(A: PositiveMatrix, target: MarginTarget | None):
    """(row targets, column targets) for A; all ones when target is None."""
    if target is None:
        one = Fraction(1) if A.exact else 1.0
        return (one,) * A.rows, (one,) * A.cols
    if target.exact != A.exact:
        raise RegimeError("matrix and margin target are in different regimes")
    if len(target.row_targets) != A.rows or len(target.col_targets) != A.cols:
        raise DimensionError(
            f"target of shape {len(target.row_targets)}/{len(target.col_targets)}"
            f" does not fit a {A.rows}x{A.cols} matrix"
        )
    return target.row_targets, target.col_targets


def row_scaling(A: PositiveMatrix, target: MarginTarget | None = None) -> DiagonalScaling:
    """Diagonal that left-multiplies A so every row sums to its target.

    Coordinate i is target_i / row_i(A); targets default to 1.
    """
    t = _resolve_targets(A, target)[0]
    return DiagonalScaling(ti / s for ti, s in zip(t, row_sums(A)))


def col_scaling(A: PositiveMatrix, target: MarginTarget | None = None) -> DiagonalScaling:
    """Diagonal that right-multiplies A so every column sums to its target."""
    t = _resolve_targets(A, target)[1]
    return DiagonalScaling(tj / s for tj, s in zip(t, col_sums(A)))


def apply_left(D: DiagonalScaling, A: PositiveMatrix) -> PositiveMatrix:
    """D @ A: multiply row i of A by D_i."""
    _check_same_regime(D.exact, A.exact)
    if len(D) != A.rows:
        raise DimensionError(f"diagonal of size {len(D)} cannot scale {A.rows} rows")
    return PositiveMatrix(
        tuple(d * x for x in row) for d, row in zip(D.diag, A.entries)
    )


def apply_right(A: PositiveMatrix, D: DiagonalScaling) -> PositiveMatrix:
    """A @ D: multiply column j of A by D_j."""
    _check_same_regime(A.exact, D.exact)
    if len(D) != A.cols:
        raise DimensionError(f"diagonal of size {len(D)} cannot scale {A.cols} columns")
    return PositiveMatrix(
        tuple(x * d for x, d in zip(row, D.diag)) for row in A.entries
    )


# --- doubly stochastic predicate --------------------------------------------

def _resolve_tol(A: PositiveMatrix, tol: float | None) -> Scalar:
    if tol is None:
        return 0 if A.exact else DEFAULT_TOLERANCE
    # a bool is a flag, not a bound; a value that does not compare is none
    if isinstance(tol, bool):
        raise ValueError(f"tolerance must be a real number, got {tol!r}")
    try:
        in_range = 0 <= tol < inf
    except TypeError:
        raise ValueError(f"tolerance must be a real number, got {tol!r}") from None
    # NaN is never met and inf is met by any input, so both are rejected
    if not in_range:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if A.exact and tol != 0:
        raise ValueError("exact regime requires tolerance 0")
    return tol


def _margins_within(sums, targets, tol) -> bool:
    return all(abs(s - t) <= tol for s, t in zip(sums, targets))


def is_doubly_stochastic(
    A: PositiveMatrix, target: MarginTarget | None = None, tol: float | None = None
) -> bool:
    """True iff every row and column sum of A matches its target within tol.

    Targets default to 1; tol defaults to 0 in the exact regime and
    DEFAULT_TOLERANCE in the approximate one. With unit targets this
    requires a square matrix: an m x n matrix with m != n cannot have all
    margins equal to 1.
    """
    if target is None and A.rows != A.cols:
        raise DimensionError(
            f"doubly stochastic check with unit targets needs a square matrix, got {A.rows}x{A.cols}"
        )
    r_t, c_t = _resolve_targets(A, target)
    tol = _resolve_tol(A, tol)
    return _margins_within(row_sums(A), r_t, tol) and _margins_within(col_sums(A), c_t, tol)
