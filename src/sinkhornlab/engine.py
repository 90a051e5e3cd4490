"""Alternating row/column scaling of positive matrices.

One step divides every column by its column sum (a column step) or every
row by its row sum (a row step); steps alternate, starting with either
side. Against arbitrary positive margin targets r and c with equal
totals, the dividers become col_j / c_j and row_i / r_i.

Two regimes:

* approximate (float entries): the loop stops once every row and column
  margin is within a tolerance of its target, or the step budget runs
  out. Convergence is linear but can be slow: `scale '2,1e-3;1e-3,1'`
  needs 14,143 steps, past the default budget of 10,000.
* exact (Fraction entries): the loop stops only when the iterate hits
  its margins *exactly* -- the finite-termination event. It computes on
  reduced (numerator, denominator) pairs of ints, on the paper's odds
  map for a 2x2 with unit margins, and builds Fractions only for what
  it returns. Entry growth is unbounded by design; every trace record
  carries the largest numerator/denominator bit size so the blow-up is
  observable. The default exact budget is 64 steps.

Both regimes run under one driver, `sinkhorn`, which keeps every
step's raw values, takes both exits and holds the step budget; each
regime only yields its steps (_float_steps, _exact_run). A float 2x2
runs on _float_steps_2x2, which holds the iterate as four floats and
gives the same floats as _float_steps: each sum there is the builtin sum
of two terms, and sum([x, y]) is x + y on every Python. A float step of
any other shape takes the sums of the side it just scaled only when the
other side is within tolerance and the run may stop. Every run has a
per-step trace of margin errors, whose records are built on the first
read of the result's `trace`; for a float run of any shape but 2x2 that
read replays the run with every sum taken, for the errors it skipped.
Matrix snapshots are captured only on request since exact iterates can
grow large.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, inf, lcm, prod
from operator import itemgetter, mul, sub
from typing import Callable, Optional

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

#: largest enumeration the search accepts: bound ** (n * n) candidates, or n!
#: permutation orders
DEFAULT_SEARCH_CANDIDATE_CAP = 10_000_000


class StartSide(enum.Enum):
    COLUMN_FIRST = "column"
    ROW_FIRST = "row"


class Status(enum.Enum):
    #: exact regime: the iterate hit its margins exactly at step L
    TERMINATED_FINITE = "terminated-finite"
    #: approximate regime: all margins within tolerance
    CONVERGED = "converged-within-tolerance"
    #: step budget exhausted first
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


@dataclass(frozen=True, eq=False, repr=False)
class SinkhornResult:
    """One run's limit, diagonals, step count, status and trace.

    sinkhorn keeps each step's raw values in `_entries`; `_records` makes
    them the TraceRecords. `trace` builds every record on its first read
    and returns that same tuple after, so a run whose trace is never read
    builds none. A float run of any shape but 2x2 kept no error for a
    side a step had just scaled while the other side was above tolerance,
    so that read runs it again with every sum taken (_float_replay), at
    the cost of a second run. Equality, hashing and repr cover the trace, as the fields
    of a frozen dataclass with a `trace` field would.
    """

    limit: PositiveMatrix
    left_accum: DiagonalScaling
    right_accum: DiagonalScaling
    steps_taken: int
    status: Status
    _entries: list
    _records: Callable

    @cached_property
    def trace(self) -> tuple[TraceRecord, ...]:
        return self._records(self._entries)

    _NAMES = ("limit", "left_accum", "right_accum", "steps_taken", "status", "trace")

    def _values(self):
        return self.limit, self.left_accum, self.right_accum, self.steps_taken, self.status, self.trace

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._NAMES, self._values()))
        return f"{type(self).__qualname__}({fields})"


def sinkhorn(
    A: PositiveMatrix,
    cfg: IterationConfig | None = None,
    *,
    capture_matrices: bool = False,
) -> SinkhornResult:
    """Run the alternating scaling iteration on A.

    One driver runs both regimes, over the steps of _float_steps (of
    _float_steps_2x2 on 2x2 input: the same floats, on four scalars) or
    of _exact_run: it keeps every step's raw values and holds the loop's
    two exits, the first step whose iterate meets every margin (exactly
    in the exact regime, TERMINATED_FINITE; within cfg.tolerance
    otherwise, CONVERGED), and cfg.max_steps scalings
    (MAX_STEPS_REACHED), an int >= 1. Margins default to all ones; set
    cfg.margin_target for (r, c) scaling. The accumulated left/right
    diagonals satisfy left @ A @ right == limit (exactly for Fraction
    entries, to rounding for floats). The TraceRecords are built from
    the kept values on the first read of the result's `trace`, not at
    their steps. A float run of any shape but 2x2 skips the sums of the
    side a step just scaled while the other side is above cfg.tolerance,
    and that read replays it with every sum taken. Snapshots are built,
    and validated, at their steps.

    An exact run that terminates does so by step 2, for any targets
    (r, c) and any shape: one that has not by then never does. Proof:
    let the run first meet its margins at step L >= 3, with iterate S,
    and say step L scales columns (a row step is the transpose, with r
    and c swapped). The iterate before it has row sums r and equals
    S diag(s), where s > 0 holds its column sums divided by c; so
    S s = r = S 1, and k = s - 1 lies in ker S with 1 + k > 0. k != 0,
    since s = 1 would make that iterate S. Step L - 2 >= 1 scaled
    columns too, so diag(rho) S diag(s) has column sums c for some
    rho > 0, that is S^T rho = c / s entrywise. Both c = S^T 1 and c / s
    then lie in range(S^T), which is orthogonal to ker S:
    sum(c_j k_j) = 0 and sum(c_j k_j / (1 + k_j)) = 0. Their difference
    is sum(c_j k_j**2 / (1 + k_j)) = 0, and every c_j > 0 and
    1 + k_j > 0, so k = 0, a contradiction. So L <= 2, and the same
    argument at L = 2 (k in ker S, k != 0) shows that the columns of S
    are linearly dependent: a square S is singular.

    An exact run computes on reduced integer pairs, not Fractions (see
    _exact_run); its records, limit and diagonals are the Fractions the
    same loop in Fraction arithmetic would give.
    """
    cfg = cfg or IterationConfig()
    if cfg.margin_target is None and A.rows != A.cols:
        raise DimensionError(
            f"unit-margin scaling needs a square matrix, got {A.rows}x{A.cols};"
            " pass a MarginTarget for rectangular input"
        )
    r_t, c_t = _resolve_targets(A, cfg.margin_target)
    tolerance = _resolve_tol(A, cfg.tolerance)
    max_steps = cfg.max_steps
    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS_EXACT if A.exact else DEFAULT_MAX_STEPS_APPROX
    # a budget the step count cannot equal would never be met, and a bool
    # is a flag, not a count
    if isinstance(max_steps, bool) or not isinstance(max_steps, int):
        raise ValueError(f"max_steps must be an int, got {max_steps!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    first = "col" if cfg.start_side is StartSide.COLUMN_FIRST else "row"
    if A.exact:
        run = _exact_run(A, first, r_t, c_t, capture_matrices)
        records, met = partial(_records, _exact_record), Status.TERMINATED_FINITE
    elif (A.rows, A.cols) == (2, 2):
        run = _float_steps_2x2(A, first, r_t, c_t, capture_matrices)
        records, met = partial(_records, _float_record), Status.CONVERGED
    else:
        run = _float_steps(A, first, r_t, c_t, capture_matrices, tolerance)
        records, met = partial(_float_replay, A, first, r_t, c_t), Status.CONVERGED

    entries = []
    for step, (entry, row_met, col_met, finish) in enumerate(run):
        entries.append(entry)
        if row_met <= tolerance and col_met <= tolerance:
            status = met
            break
        if step == max_steps:
            status = Status.MAX_STEPS_REACHED
            break

    limit, left_accum, right_accum = finish()
    return SinkhornResult(
        limit=limit,
        left_accum=left_accum,
        right_accum=right_accum,
        steps_taken=step,
        status=status,
        _entries=entries,
        _records=records,
    )


# Each regime's steps, as sinkhorn's loop reads them: at step 0 and after
# each step, without end, a raw entry, the two values its met test reads
# and one callable that builds the validated limit and both diagonals
# from the current step. The entry holds the side just scaled ("-" at
# step 0), the largest row and column margin errors as the regime holds
# them (None for one _float_steps skipped), what the entry bit size is
# taken from (exact only) and the iterate when snapshots are captured;
# the regime's _*_record, or _float_replay, makes it a TraceRecord.

_OTHER_SIDE = {"row": "col", "col": "row"}


def _records(record, entries) -> tuple[TraceRecord, ...]:
    """Each entry made a TraceRecord by `record`, the regime's own."""
    return tuple(itertools.starmap(record, enumerate(entries)))


def _float_record(step: int, entry) -> TraceRecord:
    """A float 2x2 step's record: its entry holds the errors as floats."""
    return TraceRecord(step, *entry)


_ZERO = Fraction(0)


def _exact_record(step: int, entry) -> TraceRecord:
    """An exact step's record: each gap, an unreduced (num, den) pair, as
    a reduced Fraction (one shared 0 for a met side), and the bit size of
    the largest numerator or denominator in the lines."""
    side, row_gap, col_gap, lines, matrix = entry
    return TraceRecord(
        step,
        side,
        Fraction(*row_gap) if row_gap[0] else _ZERO,
        Fraction(*col_gap) if col_gap[0] else _ZERO,
        max(map(max, itertools.chain.from_iterable(lines))).bit_length(),
        matrix,
    )


def _float_steps(A, side: str, r_t, c_t, capture_matrices, tolerance=inf):
    """The float steps from A, the first scaling `side`: each step takes
    the sums of the side the next step scales, then scales the iterate
    and one diagonal by their factors.

    A step leaves the side it scaled on its targets up to rounding, so
    that side's sums can change the run only when the other side's error
    is not above `tolerance` (NaN included) and the met test may pass;
    only then are they taken. Otherwise its met value is inf and the
    entry keeps None for its error, which _float_replay fills in by
    running these steps again at the default tolerance, inf, under which
    every sum is taken. Step 0 takes both sides' sums.
    """
    m, n = A.rows, A.cols
    cur = [list(row) for row in A.entries]
    left = [1.0] * m
    right = [1.0] * n

    def finish():
        return _validated(step, cur, left, right)

    scaled = "-"
    for step in itertools.count():
        if side == "col":
            sums = list(map(sum, zip(*cur)))
            col_err = col_met = max(map(abs, map(sub, sums, c_t)))
            row_err, row_met = None, inf
            if scaled == "-" or not col_err > tolerance:
                row_err = row_met = max(map(abs, map(sub, map(sum, cur), r_t)))
        else:
            sums = list(map(sum, cur))
            row_err = row_met = max(map(abs, map(sub, sums, r_t)))
            col_err, col_met = None, inf
            if scaled == "-" or not row_err > tolerance:
                col_err = col_met = max(map(abs, map(sub, map(sum, zip(*cur)), c_t)))
        snapshot = _validated(step, cur)[0] if capture_matrices else None
        yield (scaled, row_err, col_err, None, snapshot), row_met, col_met, finish
        if step >= 64 and step & (step - 1) == 0:
            finish()
        try:
            if side == "col":
                factors = [c_t[j] / sums[j] for j in range(n)]
                for row in cur:
                    for j in range(n):
                        row[j] *= factors[j]
                right = [r * f for r, f in zip(right, factors)]
            else:
                factors = [r_t[i] / sums[i] for i in range(m)]
                for i in range(m):
                    fi = factors[i]
                    cur[i] = [x * fi for x in cur[i]]
                left = [l * f for l, f in zip(left, factors)]
        except ZeroDivisionError:
            # only float sums reach 0: a whole line underflowed, so finish() raises
            finish()
            raise
        scaled, side = side, _OTHER_SIDE[side]


def _float_replay(A, side: str, r_t, c_t, entries) -> tuple[TraceRecord, ...]:
    """The records of a run of _float_steps, from its kept entries: the
    errors of a second run of the same steps with every sum taken, equal
    bit for bit to those the run took, and each entry's own side and
    snapshot. zip stops at the last entry before it asks the second run
    for another step, so that run takes no step the first did not."""
    replay = _float_steps(A, side, r_t, c_t, False)
    return tuple(
        TraceRecord(step, scaled, row_err, col_err, None, snapshot)
        for step, ((scaled, *_, snapshot), ((_, row_err, col_err, _, _), *_)) in enumerate(
            zip(entries, replay)
        )
    )


def _float_steps_2x2(A, side: str, r_t, c_t, capture_matrices):
    """_float_steps on 2x2 input, with the iterate held as four floats
    and each diagonal as two: every sum, error, factor, product and
    validation is the same operation on the same operands, so every
    record, snapshot, limit, diagonal and error is the same.

    A two-term builtin sum, sum([x, y]), is x + y on every Python: up to
    3.11 sum adds each float to 0.0 in turn, and from 3.12 on it adds
    back a Neumaier compensation, which for two terms is exactly the
    rounding error of x + y, so x + y plus it rounds to x + y again (an
    infinite or NaN compensation is not added).
    """
    (a, b), (c, d) = A.entries
    (rt0, rt1), (ct0, ct1) = r_t, c_t
    left0 = left1 = right0 = right1 = 1.0

    def finish():
        return _validated(step, ((a, b), (c, d)), (left0, left1), (right0, right1))

    scaled = "-"
    for step in itertools.count():
        row0, row1, col0, col1 = a + b, c + d, a + c, b + d
        e0, e1, g0, g1 = abs(row0 - rt0), abs(row1 - rt1), abs(col0 - ct0), abs(col1 - ct1)
        snapshot = _validated(step, ((a, b), (c, d)))[0] if capture_matrices else None
        # as max(x, y) does, take y only when y > x, NaN included
        row_err, col_err = e1 if e1 > e0 else e0, g1 if g1 > g0 else g0
        yield (scaled, row_err, col_err, None, snapshot), row_err, col_err, finish
        if step >= 64 and step & (step - 1) == 0:
            finish()
        try:
            if side == "col":
                f0, f1 = ct0 / col0, ct1 / col1
                a, b, c, d = a * f0, b * f1, c * f0, d * f1
                right0, right1 = right0 * f0, right1 * f1
            else:
                f0, f1 = rt0 / row0, rt1 / row1
                a, b, c, d = a * f0, b * f0, c * f1, d * f1
                left0, left1 = left0 * f0, left1 * f1
        except ZeroDivisionError:
            finish()
            raise
        scaled, side = side, _OTHER_SIDE[side]


def _validated(step: int, cur, *diagonals):
    """The iterate, and each diagonal given, as validated values.

    Float entries and diagonals can under- or overflow one at a time.
    Rather than check every entry every step, the loop runs this at
    float steps that are powers of two from 64 on, and once at the end:
    a zero or infinite entry never recovers, so a run that has one
    stops early with the same error it would reach at its budget.
    It also names a zero margin: a float sum of positive entries is 0.0
    only when every entry of its line underflowed. A snapshot is the
    iterate alone, validated here so that its error names the step too.
    """
    try:
        return PositiveMatrix(cur), *map(DiagonalScaling, diagonals)
    except (NonPositiveEntryError, NonFiniteEntryError) as exc:
        raise type(exc)(f"iteration left float range by step {step}: {exc}") from None


def _exact_run(A, first: str, r_t, c_t, capture_matrices):
    """The exact steps from A, on those of _exact_steps, or of
    _odds_steps at 2x2 with unit targets. Fractions are built only for
    what the run returns: each snapshot, the limit and both diagonals
    here, and each record's errors when _exact_record builds it. An
    entry keeps the unreduced gaps and the lines, and the met test reads
    each gap's numerator, 0 exactly when the side meets its targets.

    An exact step meets its own side's targets exactly, so the margin
    test after it computes only the other side's sums and records the
    side just scaled with error exactly 0; step 0 computes both.

    The run keeps only the first column coordinate r_0's step factors and
    multiplies them out once, with a single gcd. The exact limit
    S = diag(l) A diag(r) gives the rest: l_i = S_i0 / (A_i0 r_0) and
    r_j = S_0j / (A_0j l_0), equal as reduced Fractions to the products
    of their own factors, whose gcds on thousands of bits this skips.
    """
    targets = {"row": _pairs(r_t), "col": _pairs(c_t)}
    # the factors of r_0, after a 1 that keeps it at 1 when no step scaled columns
    r0_factors = [(1, 1)]
    rows = list(map(_pairs, A.entries))
    run = _odds_steps(rows, first) if targets == _UNIT_2X2 else _exact_steps(rows, first, targets)

    def finish():
        limit = _fraction_rows(lines, side)
        r0 = Fraction(*map(prod, zip(*r0_factors)))
        left = [s[0] / (a[0] * r0) for s, a in zip(limit, A.entries)]
        right = [s / (a * left[0]) for s, a in zip(limit[0], A.entries[0])]
        return PositiveMatrix(limit), DiagonalScaling(left), DiagonalScaling(right)

    for lines, side, row_gap, col_gap, factors in run:
        if factors and side == "row":  # the step just taken scaled columns
            r0_factors.append(factors[0])
        snapshot = PositiveMatrix(_fraction_rows(lines, side)) if capture_matrices else None
        entry = _OTHER_SIDE[side] if factors else "-", row_gap, col_gap, lines, snapshot
        yield entry, row_gap[0], col_gap[0], finish


def _exact_steps(rows, side: str, targets):
    """The exact steps from `rows`, the first scaling `side`, against
    targets {"row": r, "col": c}. Entries, sums, targets and factors are
    (numerator, denominator) pairs of ints in lowest terms, reduced with
    math.gcd after each sum and product as Fraction reduces them. Yields,
    at step 0 and after each step, without end: the lines, the side the
    next step scales, the row and column gaps as unreduced pairs, and the
    factors of the step just taken (None at step 0).

    The iterate is held as lines along the side the next step scales. A
    step multiplies each line by its factor target / sum and transposes,
    so the new lines run along the other side, whose sums are the only
    margins the step moved off their targets.
    """
    lines = list(zip(*rows)) if side == "col" else rows
    sums = list(map(_pair_sum, lines))
    gaps = {
        side: _max_gap(sums, targets[side]),
        _OTHER_SIDE[side]: _max_gap(map(_pair_sum, zip(*lines)), targets[_OTHER_SIDE[side]]),
    }
    factors = None
    while True:
        yield lines, side, gaps["row"], gaps["col"], factors
        factors = [_product(t, s[::-1]) for t, s in zip(targets[side], sums)]
        lines = [[_product(x, f) for x in line] for line, f in zip(lines, factors)]
        gaps[side] = (0, 1)
        side = _OTHER_SIDE[side]
        lines = list(zip(*lines))
        sums = list(map(_pair_sum, lines))
        gaps[side] = _max_gap(sums, targets[side])


_UNIT_2X2 = {"row": [(1, 1)] * 2, "col": [(1, 1)] * 2}


def _odds_steps(rows, side: str):
    """_exact_steps(rows, side, _UNIT_2X2) on 2x2 rows: the same lines
    (the same container at step 0), sides and factors, and gaps equal as
    Fractions, on the paper's odds map from step 2 on, for five gcds a
    step in place of about 18.

    Step 1 divides each line by its sum (the sum's pair reversed). After
    any step the lines are [(p, q), (1-p, 1-q)] along either side,
    p = X/(X + Y) = X/S and q = U/(U + V) = U/T in lowest terms, with
    odds x = X/Y and U/V = x/kappa for the cross ratio kappa = k/kd that
    scaling keeps. A step maps x to p/q = (x + kappa)/(x + 1). Its
    factors 1/(p + q) = ST/N and ST/(2ST - N), N = XT + US, share one
    gcd, and it leaves the other side the gap |p + q - 1| = |XU - YV|/(ST).
    """
    lines = list(zip(*rows)) if side == "col" else rows
    sums = list(map(_pair_sum, lines))
    gap, other_gap = (_max_gap(s, _UNIT_2X2[side]) for s in (sums, map(_pair_sum, zip(*lines))))
    yield (lines, side, other_gap, gap, None) if side == "col" else (lines, side, gap, other_gap, None)
    factors = [s[::-1] for s in sums]
    ((X, S), (Y, _)), ((U, T), (V, _)) = ([_product(x, f) for x in line] for line, f in zip(lines, factors))
    k, kd = _product((X, Y), (V, U))
    while True:
        side = _OTHER_SIDE[side]
        gap, lines = (abs(X * U - Y * V), S * T), [((X, S), (U, T)), ((Y, S), (V, T))]
        yield (lines, side, gap, (0, 1), factors) if side == "row" else (lines, side, (0, 1), gap, factors)
        D, N = S * T, X * T + U * S
        g = gcd(N, D)
        factors = [(D // g, N // g), (D // g, (2 * D - N) // g)]
        X, Y = _product((X, S), (T, U))
        U, V = _product((X, Y), (kd, k))
        S, T = X + Y, U + V


def _pairs(values):
    return [(x.numerator, x.denominator) for x in values]


def _fractions(pairs):
    return [Fraction(a, b) for a, b in pairs]


def _fraction_rows(lines, side: str):
    """The iterate's rows as Fractions, from lines along `side`."""
    return list(map(_fractions, lines if side == "row" else zip(*lines)))


def _product(x, y):
    """x * y, reduced: a factor common to a numerator and the other
    pair's denominator is the only one a product of reduced pairs has."""
    (a, b), (c, d) = x, y
    g, h = gcd(a, d), gcd(c, b)
    return a // g * (c // h), b // h * (d // g)


def _pair_sum(pairs):
    """The sum of reduced pairs, reduced: over g = gcd(b, d), a/b + c/d
    is t / (b/g * d) with t = a * d/g + c * b/g, and t can share a
    factor with g only."""
    it = iter(pairs)
    a, b = next(it)
    for c, d in it:
        g = gcd(b, d)
        s = b // g
        t = a * (d // g) + c * s
        h = gcd(t, g)
        a, b = t // h, s * (d // h)
    return a, b


def _max_gap(sums, targets):
    """max |s - t| over paired sums and targets, as an unreduced pair."""
    best_num, best_den = 0, 1
    for (a, b), (c, d) in zip(sums, targets):
        num, den = abs(a * d - c * b), b * d
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


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
    with no early exit: the loop checks the at-most-two-steps theorem
    that far. Returns the number of further steps needed (0 if already
    doubly stochastic), or None if more than `budget` would be required.
    """
    for taken in range(budget + 1):
        if X * X * kd == k * Y * Y:
            return taken
        X, Y = kd * X + k * Y, kd * (X + Y)
    return None


def termination_length_2x2(
    A: PositiveMatrix,
    start_side: StartSide = StartSide.COLUMN_FIRST,
    max_steps: int = DEFAULT_MAX_STEPS_EXACT,
) -> Optional[int]:
    """Steps after which the exact 2x2 iteration is doubly stochastic.

    Returns None when that does not happen within max_steps, and answers
    a budget past 64 as 64, since no run first terminates after step 2.
    Integer fast path equivalent to sinkhorn() in the exact regime (the
    tests pin the two against each other); it exists because exhaustive
    sweeps call this hundreds of thousands of times.

    A row-first call swaps b and c: a row-first run is the column-first
    run of A^T. The first step makes A = [[a, b], [c, d]] column
    stochastic, with first-column odds x = a/c. From there
    _steps_until_doubly_stochastic iterates x with the cross ratio
    kappa = ad/bc, which scaling keeps. Its cache key holds x and kappa
    in lowest terms, so scaled copies of A that agree after the first
    step share an entry.
    """
    a, b, c, d = _require_exact_2x2(A)
    if start_side is StartSide.ROW_FIRST:
        b, c = c, b
    # doubly stochastic iff d == a, c == b and a + b == 1
    if a == d and b == c and a + b == 1:
        return 0
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc, nd, dd = c.numerator, c.denominator, d.numerator, d.denominator
    X, Y = na * dc, da * nc
    k, kd = na * nd * db * dc, da * dd * nb * nc
    g, h = gcd(X, Y), gcd(k, kd)
    budget = min(max_steps, DEFAULT_MAX_STEPS_EXACT) - 1
    rest = _steps_until_doubly_stochastic(X // g, Y // g, k // h, kd // h, budget)
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
    candidate_cap: int = DEFAULT_SEARCH_CANDIDATE_CAP,
) -> list[SearchHit]:
    """Catalog the n x n integer matrices (entries 1..bound) whose exact
    scaling iteration terminates.

    Raises ValueError when the enumeration would exceed candidate_cap
    matrices, or the n! permutation orders that the walk applies to each
    form would; neither count is built in full to be compared.

    A terminating run has terminated by step 2, and one that first
    terminates at step 2 ends on a singular limit (the proof in
    sinkhorn's docstring, with unit margins r = c = 1). So every form is
    decided column-first, before any Fraction is built, by an integer
    identity on its entries: _two_step_length, the paper's closed rule
    at n = 2 and the general integer test at larger n. Only a hit form
    runs sinkhorn's exact step loop, column-first, up to step 2 and
    without records or diagonals, at n = 2 on the odds run sinkhorn
    takes for exact 2x2 unit-margin input (_odds_steps). The run gives
    the limit, must terminate at the step the test named, and at L = 2
    must end on a singular limit, a determinant taken in integers
    (_integer_row, _determinant), or an AssertionError names the form.
    F^T's row-first run is F's column-first run transposed, and
    transposition maps orbits onto orbits, so a row-first search
    transposes each hit form and its limit.

    Row and column scalings commute with row and column permutations:
    P @ A @ Q takes the same steps, with the same entry bit sizes, as A,
    and its limit is P @ limit(A) @ Q. So the verdict is taken once per
    orbit of row and column permutations, on the orbit's least member in
    enumeration order, which is also the least in the lexicographic
    order of its rows. Its rows are sorted, or sorting them would give a
    smaller member, so the walk visits only the matrices with sorted
    rows (each a multiset of n rows) and skips one whenever some column
    order, followed by a row sort, gives a smaller matrix. Every orbit
    keeps exactly one form. At n = 2 the walk visits only the forms the
    closed rule accepts (_two_by_two_forms), so its work grows with
    bound^2 and the hits, not bound^4. A hit form's orbit is then
    expanded: first its distinct column orders F @ Q, each with the
    limit L @ Q (equal forms have equal limits, by the argument above),
    then every row order of each, P @ F @ Q with P @ L @ Q. Candidates
    of the other orbits cost nothing. Limits stay integer pairs until
    the end, where each distinct limit is built once and shared; each
    hit's matrix is built once, unchecked, from the search's own table
    of positive Fractions. Hits come in enumeration order.
    """
    if n < 2:
        raise ValueError(f"search needs n >= 2, got {n}")
    if bound < 1:
        raise ValueError(f"search needs bound >= 1, got {bound}")
    # past the cap's bit length 2 ** (n * n) alone exceeds it: the power is
    # built only while it is small
    if bound > 1 and n * n >= candidate_cap.bit_length() or bound ** (n * n) > candidate_cap:
        raise ValueError(
            f"enumeration of {bound}^{n * n} candidates exceeds the cap of {candidate_cap}"
        )
    if any(f > candidate_cap for f in itertools.accumulate(range(1, n + 1), mul)):
        raise ValueError(f"the {n}! permutation orders exceed the cap of {candidate_cap}")
    units = {"row": [(1, 1)] * n, "col": [(1, 1)] * n}
    # one getter per order permutes a row's entries, or a matrix's rows
    orders = [itemgetter(*p) for p in itertools.permutations(range(n))]
    # fractions[v] == v, built once: a hit's entries, plain positive Fractions
    # from fractions[1..bound], need none of PositiveMatrix's checks
    fractions = list(map(Fraction, range(bound + 1)))

    def hit_matrix(rows):
        return PositiveMatrix._unchecked(tuple([tuple(map(fractions.__getitem__, row)) for row in rows]))

    def orbit_hits(form, steps):
        rows = [[(v, 1) for v in row] for row in form]
        run = _odds_steps(rows, "col") if n == 2 else _exact_steps(rows, "col", units)
        # no run first terminates after step 2 (the proof in sinkhorn's docstring)
        for step, (lines, side, row_gap, col_gap, _) in zip(range(3), run):
            if not row_gap[0] and not col_gap[0]:
                break
        if row_gap[0] or col_gap[0] or step != steps:
            raise AssertionError(f"the exact run of {form} does not terminate at step {steps}")
        limit = tuple(lines) if side == "row" else tuple(zip(*lines))
        # a run that first terminates at step 2 ends on a singular limit
        if steps == 2 and _determinant(map(_integer_row, limit)) != 0:
            raise AssertionError(f"the exact run of {form} ends on a regular limit")
        if start_side is StartSide.ROW_FIRST:
            form, limit = tuple(zip(*form)), tuple(zip(*limit))
        column_forms = {}
        for q in orders:
            column_forms.setdefault(tuple(map(q, form)), tuple(map(q, limit)))
        orbit = {p(q_rows): p(q_limit) for q_rows, q_limit in column_forms.items() for p in orders}
        return ((member, steps, member_limit) for member, member_limit in orbit.items())

    found = []
    other_orders = orders[1:]
    if n == 2:
        forms = _two_by_two_forms(bound)
    else:
        row_values = itertools.product(range(1, bound + 1), repeat=n)
        forms = itertools.combinations_with_replacement(row_values, n)
    for form in forms:
        rows = list(form)
        for q in other_orders:
            if sorted(map(q, rows)) < rows:
                break  # another column order gives this orbit a smaller form
        else:
            steps = _two_step_length(form)
            if steps is not None:
                found += orbit_hits(form, steps)
    # entry order is enumeration order, and no two hits share entries
    found.sort(key=itemgetter(0))
    # one matrix per distinct limit, from one Fraction per distinct entry
    limits = dict.fromkeys(limit for *_, limit in found)
    values = {x: Fraction(*x) for x in {e for limit in limits for row in limit for e in row}}
    for limit in limits:
        limits[limit] = PositiveMatrix([list(map(values.__getitem__, row)) for row in limit])
    return [SearchHit(hit_matrix(member), steps, limits[limit]) for member, steps, limit in found]


def _two_by_two_forms(bound):
    """The sorted-row 2x2 forms, entries 1..bound, that the closed rule
    accepts, once each, in enumeration order: the rows of a hit share a
    product (L = 1) or a reduced ratio (L = 2), and only equal rows both."""
    classes = {}
    for a, b in itertools.product(range(1, bound + 1), repeat=2):
        g = gcd(a, b)
        for key in (a * b, (a // g, b // g)):
            classes.setdefault(key, []).append((a, b))
    pairs = (itertools.combinations_with_replacement(rows, 2) for rows in classes.values())
    return sorted(set(itertools.chain.from_iterable(pairs)))


def _two_step_length(rows):
    """The step at which the exact unit-margin run of a positive integer
    n x n matrix (n >= 2), column-first, first terminates: 1, 2, or None
    for never. A row-first run is the column-first run of the transpose.

    At n = 2 this is the paper's closed rule, the one copy that `search`
    and classify_2x2 use: a column-first run on (a b; c d) terminates at
    step 1 iff ab = cd, at step 2 iff ad = bc, and never otherwise.

    At larger n, integers only, with no gcd. Let c_j be the column sums,
    C = prod(c_j) and P_i = sum_j a_ij * (C / c_j), so that P_i / C is
    row i's sum after the column step: L = 1 iff every P_i = C.
    Otherwise, with Q = prod(P_i), the row step leaves column j with sum
    C * sum_i a_ij * (Q / P_i) / (c_j * Q), so L = 2 iff that is 1 for
    every j.

    L = 0 cannot occur, since each row sums to at least n, and a run
    that has not terminated by step 2 never does (the two-step proof in
    sinkhorn's docstring).
    """
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return 1 if a * b == c * d else 2 if a * d == b * c else None
    cols = list(zip(*rows))
    c = [sum(col) for col in cols]
    C = prod(c)
    w = [C // cj for cj in c]
    P = [sum(map(mul, row, w)) for row in rows]
    if P.count(C) == len(P):
        return 1
    Q = prod(P)
    v = [Q // p for p in P]
    if all(C * sum(map(mul, col, v)) == cj * Q for col, cj in zip(cols, c)):
        return 2
    return None


def _integer_row(pairs):
    """A row of reduced pairs times the lcm of its denominators: integers,
    and a row of a singular matrix scaled so keeps it singular."""
    m = lcm(*(b for _, b in pairs))
    return [a * (m // b) for a, b in pairs]


def _determinant(rows) -> int:
    """Exact determinant of a square int matrix, by fraction-free (Bareiss)
    elimination: each entry stays a minor of the input, so every division
    is exact."""
    rows = [list(row) for row in rows]
    sign, previous = 1, 1
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        rows[k], rows[pivot] = rows[pivot], rows[k]
        sign = sign if pivot == k else -sign
        top, p = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * p - f * y) // previous for x, y in zip(row[k + 1:], top[k + 1:])]
        previous = p
    return sign * previous
