"""Reference checks built on the package's public API, for the tests."""

from fractions import Fraction
from math import gcd

from sinkhornlab import (
    DiagonalScaling,
    IterationConfig,
    MarginTarget,
    PositiveMatrix,
    StartSide,
    Termination,
    apply_left,
    apply_right,
    sinkhorn,
)


def scaling_invariance_check(
    A: PositiveMatrix,
    P: DiagonalScaling,
    Q: DiagonalScaling,
    cfg: IterationConfig | None = None,
) -> float:
    """Max-norm gap between the limits of A and of P @ A @ Q.

    The two limits agree in theory for any positive diagonals P and Q;
    two independent runs measure how closely the engine reproduces that.
    Expected <= 2 * tolerance for converged approximate runs.
    """
    first = sinkhorn(A, cfg)
    second = sinkhorn(apply_right(apply_left(P, A), Q), cfg)
    return float(
        max(
            abs(x - y)
            for xr, yr in zip(first.limit.entries, second.limit.entries)
            for x, y in zip(xr, yr)
        )
    )


def classify_2x2_reference(A: PositiveMatrix, start_side: StartSide):
    """(variant, params, limit) of A by the classifier's conditions in
    Fraction arithmetic, with no engine cross-check."""
    (a, b), (c, d) = A.entries
    half = Fraction(1, 2)
    flat = PositiveMatrix(((half, half), (half, half)))
    if a + b == 1 and c + d == 1 and a + c == 1:
        return Termination.ALREADY_DOUBLY_STOCHASTIC, {}, A
    if start_side is StartSide.COLUMN_FIRST and a * b == c * d:
        s = a + c
        limit = PositiveMatrix(((a / s, c / s), (c / s, a / s)))
        return Termination.ONE_STEP_COLUMN, {"a": a, "c": c, "t": b / c}, limit
    if start_side is StartSide.ROW_FIRST and a * c == b * d:
        s = a + b
        limit = PositiveMatrix(((a / s, b / s), (b / s, a / s)))
        return Termination.ONE_STEP_ROW, {"a": a, "b": b, "t": c / b}, limit
    if a * d == b * c:
        if start_side is StartSide.COLUMN_FIRST:
            return Termination.TWO_STEP_ROW_LAST, {"p": a, "q": b, "t": c / a}, flat
        return Termination.TWO_STEP_COLUMN_LAST, {"p": a, "r": c, "t": b / a}, flat
    return Termination.INFINITE, {}, None


def exact_sinkhorn_reference(
    A: PositiveMatrix,
    start_side: StartSide,
    max_steps: int,
    target: MarginTarget | None = None,
    bits_cap: int | None = None,
):
    """The exact alternating scaling loop, both margins recomputed every step.

    Returns (records, terminated, steps, limit, left, right). A record is
    (step, side, max_row_err, max_col_err, max_entry_bits), as in the
    engine's trace; limit is a list of rows, left and right are lists.
    bits_cap, when set, also stops the loop at the first record whose
    max_entry_bits exceeds it, which bounds a long non-terminating run
    as no step budget does.
    """
    m, n = A.rows, A.cols
    r_t = target.row_targets if target else (Fraction(1),) * m
    c_t = target.col_targets if target else (Fraction(1),) * n
    cur = [list(row) for row in A.entries]
    left, right = [Fraction(1)] * m, [Fraction(1)] * n
    odd, even = ("col", "row") if start_side is StartSide.COLUMN_FIRST else ("row", "col")
    records = []
    for step in range(max_steps + 1):
        rsums = [sum(row) for row in cur]
        csums = [sum(col) for col in zip(*cur)]
        row_err = max(abs(s - t) for s, t in zip(rsums, r_t))
        col_err = max(abs(s - t) for s, t in zip(csums, c_t))
        bits = max(
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for row in cur
            for x in row
        )
        side = "-" if step == 0 else odd if step % 2 else even
        records.append((step, side, row_err, col_err, bits))
        if row_err == 0 and col_err == 0:
            return records, True, step, cur, left, right
        if step == max_steps or (bits_cap is not None and bits > bits_cap):
            break
        if (even if step % 2 else odd) == "col":
            f = [t / s for t, s in zip(c_t, csums)]
            cur = [[x * fj for x, fj in zip(row, f)] for row in cur]
            right = [x * fj for x, fj in zip(right, f)]
        else:
            f = [t / s for t, s in zip(r_t, rsums)]
            cur = [[x * fi for x in row] for row, fi in zip(cur, f)]
            left = [x * fi for x, fi in zip(left, f)]
    return records, False, step, cur, left, right


def _reference_length(A, side, max_steps):
    """termination_length_2x2 by the iterate's first row (p, q), reduced
    by gcd every half-step: the oracle for the odds-coordinate fast path."""
    a, b, c, d = A.entries[0] + A.entries[1]
    if a + b == 1 and c + d == 1 and a + c == 1:
        return 0
    if side is StartSide.COLUMN_FIRST:
        p, q = a / (a + c), b / (b + d)
    else:
        p, q = a / (a + b), c / (c + d)
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    for taken in range(1, max_steps + 1):
        if pn * qd + qn * pd == pd * qd:
            return taken
        a, b = pn * qd, (pd - pn) * qd
        npd, nqd = a + qn * pd, b + (qd - qn) * pd
        g, h = gcd(a, npd), gcd(b, nqd)
        pn, pd, qn, qd = a // g, npd // g, b // h, nqd // h
    return None
