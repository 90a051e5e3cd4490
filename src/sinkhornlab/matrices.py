"""Positive matrices, diagonal scalings, margin targets, and the
doubly stochastic predicate built on them.

Two numeric regimes share one representation: exact (Fraction entries,
ints are promoted) and approximate (float entries). A matrix is pinned to
a single regime at construction and operations never mix regimes. All
values are immutable once built, so everything here is safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import inf
from typing import Iterable, Union

from .numerics import format_rational, parse_rational

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
    first offending entry. Plain floats are kept as they are; every other
    entry is converted to the regime's type.
    """
    out = tuple(values)
    types = set(map(type, out))
    exact = not any(issubclass(t, float) for t in types)
    if not exact and any(issubclass(t, Fraction) for t in types):
        raise RegimeError(f"{what} mixes float and Fraction entries")
    if types == {float}:
        return out, False
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

    describe(k) gives the label and the shown value of value k for the
    error message. Exact values are only compared with 0, so no Fraction
    is ever compared with a float.
    """
    if exact:
        bad = [k for k, v in enumerate(flat) if v <= 0]
    elif 0 < min(flat) and sum(flat) < inf:
        return  # no NaN (it would make the sum NaN), so min is exact and inf is ruled out
    else:
        bad = [k for k, v in enumerate(flat) if not 0 < v < inf]
    if not bad:
        return
    label, shown = describe(bad[0])
    if flat[bad[0]] <= 0:
        raise NonPositiveEntryError(f"{label} is not positive: {shown}")
    raise NonFiniteEntryError(f"{label} is not finite: {shown}")


class PositiveMatrix:
    """Dense m x n matrix with strictly positive entries.

    Entries are all Fraction (exact regime; ints are promoted) or all
    float (approximate regime). Zero or negative entries are rejected
    with :class:`NonPositiveEntryError`, infinite or NaN floats with
    :class:`NonFiniteEntryError`, each naming the offending position.
    """

    __slots__ = ("entries", "exact")

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
        self.entries = tuple(flat[i * n:(i + 1) * n] for i in range(len(entries)))
        self.exact = exact

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PositiveMatrix):
            return NotImplemented
        return self.exact == other.exact and self.entries == other.entries

    def __hash__(self):
        return hash((self.exact, self.entries))

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
                    raise ValueError(f"matrix entry is not a number: {x!r}")
            parsed.append(out)
        return cls(parsed)


class DiagonalScaling:
    """Positive diagonal matrix stored as its diagonal vector."""

    __slots__ = ("diag", "exact")

    def __init__(self, diag: Iterable[Scalar]):
        flat, exact = _coerce(diag, "diagonal")
        if not flat:
            raise DimensionError("diagonal needs at least one coordinate")
        _require_positive(flat, exact, lambda k: (f"diagonal coordinate {k + 1}", flat[k]))
        self.diag = flat
        self.exact = exact

    def __len__(self) -> int:
        return len(self.diag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagonalScaling):
            return NotImplemented
        return self.exact == other.exact and self.diag == other.diag

    def __hash__(self):
        return hash((self.exact, self.diag))

    def __repr__(self) -> str:
        return f"diag({', '.join(_render(x, self.exact) for x in self.diag)})"


class MarginTarget:
    """Positive target row sums r and column sums c with equal totals."""

    __slots__ = ("row_targets", "col_targets", "exact")

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
                f"target totals differ: sum(r) = {r_total}, sum(c) = {c_total}"
            )
        self.row_targets = rt
        self.col_targets = ct
        self.exact = r_exact

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarginTarget):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.row_targets == other.row_targets
            and self.col_targets == other.col_targets
        )

    def __repr__(self) -> str:
        return f"MarginTarget(r={list(self.row_targets)}, c={list(self.col_targets)})"


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
    # NaN is never met and inf is met by any input, so both are rejected
    if not 0 <= tol < inf:
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
