"""Exact termination classification for positive 2x2 matrices.

Alternating scaling of a positive 2x2 matrix either reaches a doubly
stochastic matrix within two steps or never reaches one. The cases are
algebraic in the entries (a b; c d):

* already doubly stochastic: length 0;
* ab = cd: one column scaling suffices -- the matrix is (a ct; c at) and
  the limit swaps a/(a+c) and c/(a+c);
* ac = bd: one row scaling suffices -- the mirror form (a b; bt at);
* ad = bc (rank one) and not one of the above: exactly two steps, the
  first scaling equalizes the parallel lines, the second lands on the
  flat limit (1/2 1/2; 1/2 1/2);
* everything else: the iteration never terminates (its limit is only
  reached asymptotically).

Which one-step condition applies, and which rank-one parametrization is
extracted, depends on whether the iteration starts with column or row
scaling. The identities are tested exactly in integers, cross-multiplied
over the entries' numerators and denominators, so no Fraction arithmetic
is spent on an infinite verdict. Every verdict is cross-checked against
the exact engine before it is returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .closed_form import _alpha_beta_matrix
from .engine import StartSide, termination_length_2x2, _require_exact_2x2
from .matrices import PositiveMatrix

_FLAT_LIMIT = _alpha_beta_matrix(Fraction(1, 2), Fraction(1, 2))


def _swapped_limit(x: int, y: int) -> PositiveMatrix:
    """The one-step limit (p q; q p) with p = x/(x+y) and q = y/(x+y)."""
    return _alpha_beta_matrix(Fraction(x, x + y), Fraction(y, x + y))


class Termination(enum.Enum):
    ALREADY_DOUBLY_STOCHASTIC = "already-doubly-stochastic"
    ONE_STEP_COLUMN = "one-step-column"
    ONE_STEP_ROW = "one-step-row"
    TWO_STEP_COLUMN_LAST = "two-step-column-last"
    TWO_STEP_ROW_LAST = "two-step-row-last"
    INFINITE = "infinite"


_LENGTHS = {
    Termination.ALREADY_DOUBLY_STOCHASTIC: 0,
    Termination.ONE_STEP_COLUMN: 1,
    Termination.ONE_STEP_ROW: 1,
    Termination.TWO_STEP_COLUMN_LAST: 2,
    Termination.TWO_STEP_ROW_LAST: 2,
    Termination.INFINITE: None,
}


@dataclass(frozen=True)
class TerminationClass:
    """Verdict for one matrix under one start order.

    params carries the parametrization of the matching form:
    {a, c, t} for one-step-column (a ct; c at), {a, b, t} for
    one-step-row (a b; bt at), {p, q, t} for two-step-row-last
    (p q; pt qt), {p, r, t} for two-step-column-last (p pt; r rt).
    limit is the exact doubly stochastic matrix for finite verdicts and
    None for infinite ones.
    """

    variant: Termination
    start_side: StartSide
    params: dict[str, Fraction]
    limit: PositiveMatrix | None

    @property
    def length(self) -> int | None:
        return _LENGTHS[self.variant]


def classify_2x2(
    A: PositiveMatrix, start_side: StartSide = StartSide.COLUMN_FIRST
) -> TerminationClass:
    """Decide, exactly, how many scaling steps A needs: 0, 1, 2, or infinity.

    The conditions are tested in integers on the reduced numerators and
    denominators, cross-multiplied: with a = na/da and so on, ab = cd
    iff na*nb*dc*dd == nc*nd*da*db, and ac = bd and ad = bc likewise.
    Fractions are built only for the params and limit of a finite
    verdict. Overlapping conditions resolve toward the shorter length (a
    matrix with equal rows is both rank one and a one-step form; it
    terminates in one step). The verdict is validated against the exact
    engine run to 3 steps before being returned.
    """
    a, b, c, d = _require_exact_2x2(A)
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc, nd, dd = c.numerator, c.denominator, d.numerator, d.denominator
    if a == d and b == c and na * db + nb * da == da * db:
        verdict = TerminationClass(
            Termination.ALREADY_DOUBLY_STOCHASTIC, start_side, {}, A
        )
    elif start_side is StartSide.COLUMN_FIRST and na * nb * dc * dd == nc * nd * da * db:
        verdict = TerminationClass(
            Termination.ONE_STEP_COLUMN,
            start_side,
            {"a": a, "c": c, "t": Fraction(nb * dc, db * nc)},
            _swapped_limit(na * dc, nc * da),
        )
    elif start_side is StartSide.ROW_FIRST and na * nc * db * dd == nb * nd * da * dc:
        verdict = TerminationClass(
            Termination.ONE_STEP_ROW,
            start_side,
            {"a": a, "b": b, "t": Fraction(nc * db, dc * nb)},
            _swapped_limit(na * db, nb * da),
        )
    elif na * nd * db * dc == nb * nc * da * dd:
        if start_side is StartSide.COLUMN_FIRST:
            # proportional rows (p q; pt qt): the column step equalizes the
            # columns, the row step flattens them
            verdict = TerminationClass(
                Termination.TWO_STEP_ROW_LAST,
                start_side,
                {"p": a, "q": b, "t": Fraction(nc * da, dc * na)},
                _FLAT_LIMIT,
            )
        else:
            verdict = TerminationClass(
                Termination.TWO_STEP_COLUMN_LAST,
                start_side,
                {"p": a, "r": c, "t": Fraction(nb * da, db * na)},
                _FLAT_LIMIT,
            )
    else:
        verdict = TerminationClass(Termination.INFINITE, start_side, {}, None)

    engine_length = termination_length_2x2(A, start_side, max_steps=3)
    if engine_length != verdict.length:
        raise RuntimeError(
            f"classifier/engine disagreement on {A!r}: "
            f"classified L={verdict.length}, engine L={engine_length}"
        )
    return verdict


@dataclass(frozen=True)
class OrderComparison:
    """Verdicts under both start orders, for step-count comparison.

    N1 counts the row-scaling-first run, N2 the column-scaling-first
    one; step_difference is |N1 - N2| when both are finite.
    """

    column_first: TerminationClass
    row_first: TerminationClass

    @property
    def step_difference(self) -> int | None:
        n1 = self.row_first.length
        n2 = self.column_first.length
        if n1 is None or n2 is None:
            return None
        return abs(n1 - n2)


def classify_both_orders(A: PositiveMatrix) -> OrderComparison:
    """Classify A under both start orders."""
    return OrderComparison(
        column_first=classify_2x2(A, StartSide.COLUMN_FIRST),
        row_first=classify_2x2(A, StartSide.ROW_FIRST),
    )
