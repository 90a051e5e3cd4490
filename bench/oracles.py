"""Independent answers the benchmark checks the package against.

Nothing here imports sinkhornlab: each oracle recomputes the expected
answer from the inputs with different arithmetic (integers instead of
Fraction, math.fsum instead of running sums, the square-root closed form
instead of iteration). Each check returns None when the output is right
and a short description of the first disagreement otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

#: verdict names and lengths, as printed by the package
ALREADY = "already-doubly-stochastic"
ONE_COL = "one-step-column"
ONE_ROW = "one-step-row"
TWO_ROW_LAST = "two-step-row-last"
TWO_COL_LAST = "two-step-column-last"
INFINITE = "infinite"


def classify_2x2(a: Fraction, b: Fraction, c: Fraction, d: Fraction, side: str):
    """(verdict, length) for (a b; c d) started on `side` ("column" or "row").

    Cross-multiplied integer tests over a common denominator: the matrix
    is doubly stochastic when a+b = c+d = a+c = 1; one column step
    suffices when ab = cd, one row step when ac = bd; a rank-one matrix
    (ad = bc) needs two; anything else never terminates. Overlaps resolve
    toward the shorter length.
    """
    den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    A, B, C, D = (x.numerator * (den // x.denominator) for x in (a, b, c, d))
    if A + B == den and C + D == den and A + C == den:
        return ALREADY, 0
    if side == "column" and A * B == C * D:
        return ONE_COL, 1
    if side == "row" and A * C == B * D:
        return ONE_ROW, 1
    if A * D == B * C:
        return (TWO_ROW_LAST if side == "column" else TWO_COL_LAST), 2
    return INFINITE, None


def count_finite_2x2(bound: int, side: str) -> int:
    """Integer 2x2 matrices with entries 1..bound that terminate finitely."""
    return sum(
        classify_2x2(*(Fraction(v) for v in m), side)[1] is not None
        for m in product(range(1, bound + 1), repeat=4)
    )


def check_doubly_stochastic(rows) -> str | None:
    """Exact check that every row and column of a Fraction matrix sums to 1."""
    for i, row in enumerate(rows):
        if sum(row) != 1:
            return f"row {i + 1} of the limit sums to {sum(row)}"
    for j, col in enumerate(zip(*rows)):
        if sum(col) != 1:
            return f"column {j + 1} of the limit sums to {sum(col)}"
    return None


def check_cross_ratios(A, L) -> str | None:
    """L must keep every 2x2 cross-ratio of A, as any D1 A D2 does (exact)."""
    n, m = len(A), len(A[0])
    for i, k in combinations(range(n), 2):
        for j, l in combinations(range(m), 2):
            if A[i][j] * A[k][l] * L[i][l] * L[k][j] != L[i][j] * L[k][l] * A[i][l] * A[k][j]:
                return f"cross-ratio of rows {i + 1},{k + 1} / columns {j + 1},{l + 1} differs"
    return None


def check_exact_scaling(A, L, left, right) -> str | None:
    """Exact check that diag(left) A diag(right) == L."""
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if left[i] * x * right[j] != L[i][j]:
                return f"left*A*right differs from the limit at ({i + 1},{j + 1})"
    return None


def check_float_limit(A, L, left, right, row_targets, col_targets, tol) -> str | None:
    """Margins of L recomputed with fsum, and left*A*right ~= L entrywise.

    Margins may miss their targets by tol plus the rounding of summing a
    row (n ulps); the product agrees to a relative 1e-9, far above the
    rounding the accumulated diagonals pick up over 10,000 steps.
    """
    n = len(A)
    slack = tol + 4 * n * 2.0 ** -52 * max(max(row_targets), max(col_targets))
    for i, row in enumerate(L):
        err = abs(math.fsum(row) - row_targets[i])
        if not err <= slack:
            return f"row {i + 1} misses its target by {err:.3e}"
    for j, col in enumerate(zip(*L)):
        err = abs(math.fsum(col) - col_targets[j])
        if not err <= slack:
            return f"column {j + 1} misses its target by {err:.3e}"
    for i, row in enumerate(A):
        li, Li = left[i], L[i]
        for j, x in enumerate(row):
            if not abs(li * x * right[j] - Li[j]) <= 1e-9 * Li[j]:
                return f"left*A*right differs from the limit at ({i + 1},{j + 1})"
    return None


def alpha_2x2(a: float, b: float, c: float, d: float) -> float:
    """Diagonal entry of the doubly stochastic limit of (a b; c d).

    The limit is (alpha 1-alpha; 1-alpha alpha) and keeps the cross-ratio
    ad/bc, so alpha^2 / (1-alpha)^2 = ad/bc.
    """
    s, t = math.sqrt(a * d), math.sqrt(b * c)
    return s / (s + t)


def check_limit_2x2(L, alpha: float, tol: float) -> str | None:
    """The float limit of a 2x2 matrix matches the closed-form alpha."""
    want = ((alpha, 1 - alpha), (1 - alpha, alpha))
    for i in range(2):
        for j in range(2):
            if not abs(L[i][j] - want[i][j]) <= tol:
                return f"limit entry ({i + 1},{j + 1}) = {L[i][j]!r}, closed form {want[i][j]!r}"
    return None
