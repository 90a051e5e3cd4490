"""Exact termination classification for positive 2x2 matrices.

Alternating scaling of a positive 2x2 matrix either reaches a doubly
stochastic matrix within two steps or never reaches one. Starting with
column scaling, the cases are algebraic in the entries (a b; c d):

* already doubly stochastic: length 0;
* ab = cd: one column scaling suffices -- the matrix is (a ct; c at) and
  the limit swaps a/(a+c) and c/(a+c);
* ad = bc (rank one) and not one of the above: exactly two steps, the
  column step equalizes the columns of (p q; pt qt), the row step lands
  on the flat limit (1/2 1/2; 1/2 1/2);
* everything else: the iteration never terminates (its limit is only
  reached asymptotically).

A row step on A is a column step on its transpose, so a row-first
verdict is the column-first verdict of A^T, with the mirrored names: the
one-step form (a b; bt at) and the rank-one form (p pt; r rt). The
lengths come from the engine's closed rule, _two_step_length, which
`search` uses too, on A with its columns scaled to integers, so no
Fraction arithmetic is spent on an infinite verdict. Every verdict is
cross-checked against the exact engine before it is returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .closed_form import _alpha_beta_matrix
from .engine import StartSide, termination_length_2x2, _require_exact_2x2, _require_start_side, _two_step_length
from .matrices import PositiveMatrix

_FLAT_LIMIT = _alpha_beta_matrix(Fraction(1, 2), Fraction(1, 2))


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

# By start side, the one-step and the rank-one variant, each with the key of
# its second param: a row-first verdict mirrors the transpose's column-first one.
_NAMES = {
    StartSide.COLUMN_FIRST: (Termination.ONE_STEP_COLUMN, "c", Termination.TWO_STEP_ROW_LAST, "q"),
    StartSide.ROW_FIRST: (Termination.ONE_STEP_ROW, "b", Termination.TWO_STEP_COLUMN_LAST, "r"),
}


@dataclass(frozen=True)
class TerminationClass:
    """Verdict for one matrix under one start order.

    params carries the parametrization of the matching form:
    {a, c, t} for one-step-column (a ct; c at), {a, b, t} for
    one-step-row (a b; bt at), {p, q, t} for two-step-row-last
    (p q; pt qt), {p, r, t} for two-step-column-last (p pt; r rt).
    limit is the exact doubly stochastic matrix for finite verdicts and
    None for infinite ones. A verdict is compared by every field and
    hashed by all but params, a dict, so it can key a set or a cache.
    """

    variant: Termination
    start_side: StartSide
    params: dict[str, Fraction] = field(hash=False)
    limit: PositiveMatrix | None

    @property
    def length(self) -> int | None:
        return _LENGTHS[self.variant]


def classify_2x2(
    A: PositiveMatrix, start_side: StartSide = StartSide.COLUMN_FIRST
) -> TerminationClass:
    """Decide, exactly, how many scaling steps A needs: 0, 1, 2, or infinity.

    The length comes from the engine's closed rule, _two_step_length, on
    the integer matrix A diag(da*dc, db*dd), with a = na/da and so on: a
    column step absorbs any column scaling, so its iterates are A's from
    step 1 on. A row-first call uses A^T (b and c swapped) and the mirrored
    variant and param key. Where both identities hold, the rule says 1,
    and L = 0 is tested on that verdict only, since a doubly stochastic A
    has ab = cd. Fractions are built only for the params and limit of a
    finite verdict. The engine's verdict on A itself, run to 3 steps,
    validates the result before it is returned.
    """
    a, b, c, d = _require_exact_2x2(A)
    if start_side is StartSide.ROW_FIRST:
        b, c = c, b
    elif start_side is not StartSide.COLUMN_FIRST:
        _require_start_side(start_side)
    one_step, one_key, two_step, two_key = _NAMES[start_side]
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc, nd, dd = c.numerator, c.denominator, d.numerator, d.denominator
    x, y = na * dc, nc * da  # the integer matrix's first column
    steps = _two_step_length(((x, nb * dd), (y, nd * db)))
    if steps == 1 and a == d and b == c and na * db + nb * da == da * db:
        # A is symmetric here, so it is its own transpose
        verdict = TerminationClass(Termination.ALREADY_DOUBLY_STOCHASTIC, start_side, {}, A)
    elif steps == 1:
        params = {"a": a, one_key: c, "t": Fraction(nb * dc, db * nc)}
        limit = _alpha_beta_matrix(Fraction(x, x + y), Fraction(y, x + y))
        verdict = TerminationClass(one_step, start_side, params, limit)
    elif steps == 2:
        # proportional rows (p q; pt qt): the column step equalizes the
        # columns, the row step flattens them
        params = {"p": a, two_key: b, "t": Fraction(y, x)}
        verdict = TerminationClass(two_step, start_side, params, _FLAT_LIMIT)
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
