"""Alternating row/column scaling of positive matrices.

One step divides every column by its column sum (a column step) or every
row by its row sum (a row step); steps alternate, starting with either
side. Against arbitrary positive margin targets r and c with equal
totals, the dividers become col_j / c_j and row_i / r_i.

Two regimes:

* approximate (float entries): the loop stops once every row and column
  margin is within a tolerance of its target, or the step budget runs
  out. Convergence is linear for positive matrices, so the default
  budget of 10,000 steps is generous at desk scale.
* exact (Fraction entries): the loop stops only when the iterate hits
  its margins *exactly* -- the finite-termination event. Entry growth is
  unbounded by design; every trace record carries the largest
  numerator/denominator bit size so the blow-up is observable. The
  default exact budget is 64 steps.

Every run records a per-step trace of margin errors; matrix snapshots
are captured only on request since exact iterates can grow large.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter, sub
from typing import Optional

from .matrices import (
    DiagonalScaling,
    DimensionError,
    MarginTarget,
    NonFiniteEntryError,
    NonPositiveEntryError,
    PositiveMatrix,
    RegimeError,
    Scalar,
    _resolve_targets,
    _resolve_tol,
)

DEFAULT_MAX_STEPS_APPROX = 10_000
DEFAULT_MAX_STEPS_EXACT = 64

#: largest enumeration the search accepts, bound ** (n * n) candidates
DEFAULT_SEARCH_CANDIDATE_CAP = 10_000_000

_EXACT_ZERO = Fraction(0)


class StartSide(enum.Enum):
    COLUMN_FIRST = "column"
    ROW_FIRST = "row"


class Status(enum.Enum):
    #: exact regime: the iterate hit its margins exactly at step L
    TERMINATED_FINITE = "terminated-finite"
    #: approximate regime: all margins within tolerance
    CONVERGED = "converged-within-tolerance"
    #: step budget (or entry-size cap) exhausted first
    MAX_STEPS_REACHED = "max-steps-reached"


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for one scaling run.

    max_steps and tolerance default per regime when left as None:
    10,000 steps / 1e-12 in the approximate regime, 64 steps / exactly 0
    in the exact one. A nonzero tolerance in the exact regime is an
    error: exact termination means exact margins.
    """

    start_side: StartSide = StartSide.COLUMN_FIRST
    max_steps: int | None = None
    tolerance: float | None = None
    margin_target: MarginTarget | None = None


@dataclass(frozen=True)
class TraceRecord:
    step: int
    side: str  # "-" for the input row, else "row" or "col"
    max_row_err: Scalar
    max_col_err: Scalar
    max_entry_bits: int | None  # exact regime only
    matrix: PositiveMatrix | None  # captured on request


@dataclass(frozen=True)
class SinkhornResult:
    limit: PositiveMatrix
    left_accum: DiagonalScaling
    right_accum: DiagonalScaling
    steps_taken: int
    status: Status
    trace: tuple[TraceRecord, ...]


def _side_of_step(start_side: StartSide, step: int) -> str:
    if start_side is StartSide.COLUMN_FIRST:
        return "col" if step % 2 == 1 else "row"
    return "row" if step % 2 == 1 else "col"


def _max_entry_bits(entries) -> int:
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for row in entries
        for x in row
    )


def sinkhorn(
    A: PositiveMatrix,
    cfg: IterationConfig | None = None,
    *,
    capture_matrices: bool = False,
    entry_bits_cap: int | None = None,
) -> SinkhornResult:
    """Run the alternating scaling iteration on A.

    Stops at the first step whose iterate meets every margin (exactly in
    the exact regime, within cfg.tolerance otherwise), else after
    cfg.max_steps scalings. Margins default to all ones; set
    cfg.margin_target for (r, c) scaling. The accumulated left/right
    diagonals satisfy left @ A @ right == limit (exactly for Fraction
    entries, to rounding for floats).

    entry_bits_cap, when set, aborts an exact run whose entries exceed
    that bit size, reporting MAX_STEPS_REACHED.

    An exact step meets its own side's targets exactly, so the margin
    test after it computes only the other side's sums and records the
    side just scaled with error exactly 0. Step 0, and every float step,
    computes both sides.
    """
    cfg = cfg or IterationConfig()
    if cfg.margin_target is None and A.rows != A.cols:
        raise DimensionError(
            f"unit-margin scaling needs a square matrix, got {A.rows}x{A.cols};"
            " pass a MarginTarget for rectangular input"
        )
    exact = A.exact
    r_t, c_t = _resolve_targets(A, cfg.margin_target)
    tolerance = _resolve_tol(A, cfg.tolerance)
    max_steps = cfg.max_steps
    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS_EXACT if exact else DEFAULT_MAX_STEPS_APPROX
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")

    m, n = A.rows, A.cols
    cur = [list(row) for row in A.entries]
    one = Fraction(1) if exact else 1.0
    left = [one] * m
    right = [one] * n

    records: list[TraceRecord] = []
    status = Status.MAX_STEPS_REACHED
    steps_taken = 0
    # the side the last exact step scaled meets its targets exactly
    rows_met = cols_met = False

    for step in itertools.count():
        if rows_met:
            row_err = _EXACT_ZERO
        else:
            rsums = [sum(row) for row in cur]
            row_err = max(map(abs, map(sub, rsums, r_t)))
        if cols_met:
            col_err = _EXACT_ZERO
        else:
            csums = [sum(col) for col in zip(*cur)]
            col_err = max(map(abs, map(sub, csums, c_t)))
        bits = _max_entry_bits(cur) if exact else None
        records.append(
            TraceRecord(
                step=step,
                side="-" if step == 0 else _side_of_step(cfg.start_side, step),
                max_row_err=row_err,
                max_col_err=col_err,
                max_entry_bits=bits,
                matrix=PositiveMatrix(cur) if capture_matrices else None,
            )
        )
        stochastic = (
            row_err == 0 and col_err == 0
            if exact
            else row_err <= tolerance and col_err <= tolerance
        )
        if stochastic:
            status = Status.TERMINATED_FINITE if exact else Status.CONVERGED
            steps_taken = step
            break
        if step == max_steps or (
            entry_bits_cap is not None and bits is not None and bits > entry_bits_cap
        ):
            status = Status.MAX_STEPS_REACHED
            steps_taken = step
            break
        if not exact and step >= 64 and step & (step - 1) == 0:
            _validated(cur, left, right, step)
        side = _side_of_step(cfg.start_side, step + 1)
        try:
            if side == "col":
                factors = [c_t[j] / csums[j] for j in range(n)]
                for row in cur:
                    for j in range(n):
                        row[j] *= factors[j]
                right = [r * f for r, f in zip(right, factors)]
            else:
                factors = [r_t[i] / rsums[i] for i in range(m)]
                for i in range(m):
                    fi = factors[i]
                    cur[i] = [x * fi for x in cur[i]]
                left = [l * f for l, f in zip(left, factors)]
        except ZeroDivisionError:
            # only float sums reach 0: a whole column or row underflowed
            sums, name = (csums, "column") if side == "col" else (rsums, "row")
            raise NonPositiveEntryError(
                f"iteration left float range by step {step}: "
                f"{name} {sums.index(0) + 1} sums to 0.0"
            ) from None
        if exact:
            cols_met = side == "col"
            rows_met = not cols_met

    limit, left_accum, right_accum = _validated(cur, left, right, steps_taken)
    return SinkhornResult(
        limit=limit,
        left_accum=left_accum,
        right_accum=right_accum,
        steps_taken=steps_taken,
        status=status,
        trace=tuple(records),
    )


def _validated(cur, left, right, step: int):
    """The iterate and both diagonals as validated values.

    Float entries and diagonals can under- or overflow one at a time.
    Rather than check every entry every step, the loop runs this at
    float steps that are powers of two from 64 on, and once at the end:
    a zero or infinite entry never recovers, so a run that has one
    stops early with the same error it would reach at its budget.
    """
    try:
        return PositiveMatrix(cur), DiagonalScaling(left), DiagonalScaling(right)
    except (NonPositiveEntryError, NonFiniteEntryError) as exc:
        raise type(exc)(f"iteration left float range by step {step}: {exc}") from None


# --- 2x2 fast path -----------------------------------------------------------

def _require_exact_2x2(A: PositiveMatrix):
    if (A.rows, A.cols) != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got {A.rows}x{A.cols}")
    if not A.exact:
        raise RegimeError("exact rational entries required")
    return A.entries[0] + A.entries[1]


@lru_cache(maxsize=1 << 18)
def _steps_until_doubly_stochastic(X: int, Y: int, k: int, kd: int, budget: int):
    """Additional half-steps until the scaled 2x2 iterate is doubly stochastic.

    After any scaling step a positive 2x2 matrix is margin-normalized on
    one side, so it is exactly [[p, q], [1-p, 1-q]] up to transposition,
    with p, q in (0, 1). Diagonal scaling keeps the cross ratio
    kappa = ad/bc = k/kd, here p(1-q) / (q(1-p)). In the odds
    x = p/(1-p) = X/Y of the first column, and so q/(1-q) = x/kappa:

    * one half-step maps x -> (x + kappa) / (x + 1), the odds p/q of
      the next iterate's first column, for both orientations;
    * the iterate is doubly stochastic iff p + q = 1, that is iff
      x**2 == kappa.

    X/Y is held as an unreduced integer pair, since both the step
    (X, Y) -> (kd*X + k*Y, kd*(X + Y)) and the test X*X*kd == k*Y*Y are
    homogeneous in it: no gcd is taken, and X and Y grow by about the
    bit size of kappa per step. Every step up to the budget is tested,
    with no early exit: the at-most-two-steps theorem is checked against
    this loop, not used by it. Returns the number of further steps
    needed (0 if already doubly stochastic), or None if more than
    `budget` would be required.
    """
    if X * X * kd == k * Y * Y:
        return 0
    for taken in range(1, budget + 1):
        X, Y = kd * X + k * Y, kd * (X + Y)
        if X * X * kd == k * Y * Y:
            return taken
    return None


def termination_length_2x2(
    A: PositiveMatrix,
    start_side: StartSide = StartSide.COLUMN_FIRST,
    max_steps: int = DEFAULT_MAX_STEPS_EXACT,
) -> Optional[int]:
    """Steps after which the exact 2x2 iteration is doubly stochastic.

    Returns None when that does not happen within max_steps. Integer
    fast path equivalent to sinkhorn() in the exact regime (the tests
    pin the two against each other); it exists because exhaustive sweeps
    call this hundreds of thousands of times.

    The first step makes A = [[a, b], [c, d]] column stochastic, with
    first-column odds x = a/c, or row stochastic, whose transpose has
    x = a/b. From there _steps_until_doubly_stochastic iterates x with
    the cross ratio kappa = ad/bc, which scaling keeps. Its cache key
    holds x and kappa in lowest terms, so scaled copies of A that agree
    after the first step share an entry.
    """
    a, b, c, d = _require_exact_2x2(A)
    # doubly stochastic iff d == a, c == b and a + b == 1
    if a == d and b == c and a + b == 1:
        return 0
    if max_steps < 1:
        return None
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc, nd, dd = c.numerator, c.denominator, d.numerator, d.denominator
    if start_side is StartSide.COLUMN_FIRST:
        X, Y = na * dc, da * nc
    else:
        X, Y = na * db, da * nb
    k, kd = na * nd * db * dc, da * dd * nb * nc
    g, h = gcd(X, Y), gcd(k, kd)
    rest = _steps_until_doubly_stochastic(X // g, Y // g, k // h, kd // h, max_steps - 1)
    return None if rest is None else 1 + rest


# --- exhaustive search for finite termination --------------------------------

@dataclass(frozen=True)
class SearchHit:
    matrix: PositiveMatrix
    length: int
    limit: PositiveMatrix


def finite_termination_search(
    n: int,
    bound: int,
    *,
    start_side: StartSide = StartSide.COLUMN_FIRST,
    normalize_rows: bool = False,
    candidate_cap: int = DEFAULT_SEARCH_CANDIDATE_CAP,
) -> list[SearchHit]:
    """Catalog the n x n integer matrices (entries 1..bound) whose exact
    scaling iteration terminates.

    With normalize_rows each candidate's rows are first divided by their
    sums, making it row stochastic. That is a row-first run's first
    step, so the hits are the row-first search's, normalized, with each
    L one less from the column side and L = 1 read as 0 from the row
    side. Raises ValueError when the
    enumeration would exceed candidate_cap matrices.

    Every run stops after at most two exact steps, because a terminating
    unit-margin run has terminated by then. Proof: let a positive A
    first reach a doubly stochastic iterate S at step L >= 3, and say
    step L scales columns (a row step is the transpose). The iterate
    before it is row stochastic and equals S diag(s), where s > 0 holds
    its column sums; so S s = 1 = S 1, and k = s - 1 lies in ker S with
    1 + k > 0. k != 0, since s = 1 would make that iterate S. Step L - 2 >= 1 scaled columns too,
    so diag(rho) S diag(s) is column stochastic for some rho, that is
    S^T rho = 1/s entrywise. Both 1 = S^T 1 and 1/s then lie in
    range(S^T), which is orthogonal to ker S: sum(k_j) = 0 and
    sum(k_j / (1 + k_j)) = 0. Their difference is
    sum(k_j**2 / (1 + k_j)) = 0, which forces k = 0, a contradiction.
    So L <= 2, and the same argument at L = 2 (k in ker S, k != 0)
    shows that S is singular; each verdict asserts that.

    Row and column scalings commute with row and column permutations,
    and so does row normalization: P @ A @ Q takes the same steps, with
    the same entry bit sizes, as A, and its limit is P @ limit(A) @ Q.
    So the exact run happens once per orbit of row and column
    permutations, on the orbit's least member in enumeration order,
    which is also the least in the lexicographic order of its rows. Its
    rows are sorted, or sorting them would give a smaller member, so the
    walk visits only the matrices with sorted rows (each a multiset of
    n rows) and skips one whenever some column order, followed by a row
    sort, gives a smaller matrix. Every orbit keeps exactly one form.
    A hit form's orbit is then expanded, each distinct member P @ F @ Q
    with the limit P @ L @ Q, and candidates of the other orbits cost
    nothing. Hits come in enumeration order.
    """
    if n < 2:
        raise ValueError(f"search needs n >= 2, got {n}")
    if bound < 1:
        raise ValueError(f"search needs bound >= 1, got {bound}")
    total = bound ** (n * n)
    if total > candidate_cap:
        raise ValueError(
            f"enumeration of {total} candidates exceeds the cap of {candidate_cap}"
        )
    # no run first terminates after step 2 (the proof above)
    cfg = IterationConfig(start_side=start_side, max_steps=2)
    # one getter per order permutes a row's entries, or a matrix's rows
    orders = [itemgetter(*p) for p in itertools.permutations(range(n))]
    found = []
    row_values = itertools.product(range(1, bound + 1), repeat=n)
    for form in itertools.combinations_with_replacement(row_values, n):
        rows = list(form)
        if any(sorted(map(q, rows)) < rows for q in orders[1:]):
            continue  # another column order gives this orbit a smaller form
        verdict = _verdict(_candidate(form, normalize_rows), cfg)
        if verdict is None:
            continue
        steps, limit = verdict
        orbit = {}
        for q in orders:
            q_rows, q_limit = list(map(q, form)), list(map(q, limit))
            for p in orders:
                orbit[p(q_rows)] = p(q_limit)
        found += ((member, steps, member_limit) for member, member_limit in orbit.items())
    # entry order is enumeration order, and no two hits share entries
    found.sort(key=itemgetter(0))
    return [
        SearchHit(_candidate(member, normalize_rows), steps, PositiveMatrix(limit))
        for member, steps, limit in found
    ]


def _candidate(rows, normalize_rows: bool) -> PositiveMatrix:
    rows = [[Fraction(v) for v in row] for row in rows]
    if normalize_rows:
        rows = [[x / s for x in row] for row, s in ((r, sum(r)) for r in rows)]
    return PositiveMatrix(rows)


def _verdict(A: PositiveMatrix, cfg: IterationConfig):
    """(steps, limit entries) when the exact run of A terminates, else None."""
    # the 2x2 fast path only prefilters: most 2x2 candidates never
    # terminate, and its cached integer test is cheaper than the two
    # exact steps the engine would spend on each
    if A.rows == 2:
        length = termination_length_2x2(A, cfg.start_side, cfg.max_steps)
        if length is None:
            return None
    result = sinkhorn(A, cfg)
    if result.status is not Status.TERMINATED_FINITE:
        return None
    assert A.rows > 2 or result.steps_taken == length  # fast path agrees
    # a run that first terminates at step 2 ends on a singular limit
    assert result.steps_taken < 2 or _determinant(result.limit.entries) == 0
    return result.steps_taken, result.limit.entries


def _determinant(rows) -> Fraction:
    """Exact determinant of a square Fraction matrix, by elimination."""
    rows = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        det *= rows[k][k] if pivot == k else -rows[k][k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], rows[k][k:])]
    return det
