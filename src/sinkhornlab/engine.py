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
  its margins *exactly* -- the finite-termination event. It computes on
  reduced (numerator, denominator) pairs of ints and builds Fractions
  only for what it returns. Entry growth is unbounded by design; every
  trace record carries the largest numerator/denominator bit size so
  the blow-up is observable. The default exact budget is 64 steps.

Every run records a per-step trace of margin errors; matrix snapshots
are captured only on request since exact iterates can grow large.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import itemgetter, mul, sub
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


def sinkhorn(
    A: PositiveMatrix,
    cfg: IterationConfig | None = None,
    *,
    capture_matrices: bool = False,
) -> SinkhornResult:
    """Run the alternating scaling iteration on A.

    The loop has two exits: the first step whose iterate meets every
    margin (exactly in the exact regime, TERMINATED_FINITE; within
    cfg.tolerance otherwise, CONVERGED), and cfg.max_steps scalings
    (MAX_STEPS_REACHED). Margins default to all ones; set
    cfg.margin_target for (r, c) scaling. The accumulated left/right
    diagonals satisfy left @ A @ right == limit (exactly for Fraction
    entries, to rounding for floats).

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
    _exact_steps); its records, limit and diagonals are the Fractions
    the same loop in Fraction arithmetic would give. Its diagonals are
    the products of the step factors, formed once, when the run returns,
    not reduced step by step. An exact step meets its own side's targets
    exactly, so the margin test after it computes only the other side's
    sums and records the side just scaled with error exactly 0. Step 0,
    and every float step, computes both sides.
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
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if A.exact:
        return _exact_sinkhorn(A, cfg.start_side, max_steps, r_t, c_t, capture_matrices)

    m, n = A.rows, A.cols
    cur = [list(row) for row in A.entries]
    left = [1.0] * m
    right = [1.0] * n

    records: list[TraceRecord] = []
    for step in itertools.count():
        rsums = [sum(row) for row in cur]
        row_err = max(map(abs, map(sub, rsums, r_t)))
        csums = [sum(col) for col in zip(*cur)]
        col_err = max(map(abs, map(sub, csums, c_t)))
        records.append(
            TraceRecord(
                step=step,
                side="-" if step == 0 else _side_of_step(cfg.start_side, step),
                max_row_err=row_err,
                max_col_err=col_err,
                max_entry_bits=None,
                matrix=PositiveMatrix(cur) if capture_matrices else None,
            )
        )
        if row_err <= tolerance and col_err <= tolerance:
            status = Status.CONVERGED
            break
        if step == max_steps:
            status = Status.MAX_STEPS_REACHED
            break
        if step >= 64 and step & (step - 1) == 0:
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
            # only float sums reach 0: a whole line underflowed, so _validated raises
            _validated(cur, left, right, step)
            raise

    limit, left_accum, right_accum = _validated(cur, left, right, step)
    return SinkhornResult(
        limit=limit,
        left_accum=left_accum,
        right_accum=right_accum,
        steps_taken=step,
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
    It also names a zero margin: a float sum of positive entries is 0.0
    only when every entry of its line underflowed.
    """
    try:
        return PositiveMatrix(cur), DiagonalScaling(left), DiagonalScaling(right)
    except (NonPositiveEntryError, NonFiniteEntryError) as exc:
        raise type(exc)(f"iteration left float range by step {step}: {exc}") from None


# --- the exact loop, on reduced integer pairs ---------------------------------

_OTHER_SIDE = {"row": "col", "col": "row"}


def _exact_sinkhorn(A, start_side, max_steps, r_t, c_t, capture_matrices):
    """sinkhorn's exact regime, on the steps of _exact_steps. Fractions
    are built only for what the run returns: each record's errors and
    snapshot, the limit and both diagonals.

    Nothing reads a diagonal before the run returns, so the run keeps
    each step's factors and forms the diagonals once, at the end: reduced
    every step, they would cost two gcds per entry on operands of
    thousands of bits.
    """
    targets = {"row": _pairs(r_t), "col": _pairs(c_t)}
    # each step's factors by side, after an all-ones step that keeps a
    # diagonal no step scaled at 1
    factor_steps = {"row": [[(1, 1)] * A.rows], "col": [[(1, 1)] * A.cols]}
    run = _exact_steps(list(map(_pairs, A.entries)), _side_of_step(start_side, 1), targets)
    records: list[TraceRecord] = []
    for step, (lines, side, row_gap, col_gap, factors) in enumerate(run):
        if step:
            factor_steps[_OTHER_SIDE[side]].append(factors)
        # the bit size of the largest numerator or denominator
        bits = max(map(max, itertools.chain.from_iterable(lines))).bit_length()
        records.append(
            TraceRecord(
                step=step,
                side="-" if step == 0 else _side_of_step(start_side, step),
                max_row_err=Fraction(*row_gap),
                max_col_err=Fraction(*col_gap),
                max_entry_bits=bits,
                matrix=PositiveMatrix(_fraction_rows(lines, side)) if capture_matrices else None,
            )
        )
        if not row_gap[0] and not col_gap[0]:
            status = Status.TERMINATED_FINITE
            break
        if step == max_steps:
            status = Status.MAX_STEPS_REACHED
            break

    return SinkhornResult(
        limit=PositiveMatrix(_fraction_rows(lines, side)),
        left_accum=DiagonalScaling(_diagonal(factor_steps["row"])),
        right_accum=DiagonalScaling(_diagonal(factor_steps["col"])),
        steps_taken=step,
        status=status,
        trace=tuple(records),
    )


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


def _pairs(values):
    return [(x.numerator, x.denominator) for x in values]


def _fractions(pairs):
    return [Fraction(a, b) for a, b in pairs]


def _diagonal(factor_steps):
    """Each line's product of its step factors, as one Fraction, which
    reduces it with a single gcd."""
    return [Fraction(*map(prod, zip(*factors))) for factors in zip(*factor_steps)]


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
    candidate_cap: int = DEFAULT_SEARCH_CANDIDATE_CAP,
) -> list[SearchHit]:
    """Catalog the n x n integer matrices (entries 1..bound) whose exact
    scaling iteration terminates.

    Raises ValueError when the enumeration would exceed candidate_cap
    matrices, or the n! permutation orders that the walk applies to each
    form would; neither count is built in full to be compared.

    A terminating run has terminated by step 2, and one that first
    terminates at step 2 ends on a singular limit (the proof in
    sinkhorn's docstring, with unit margins r = c = 1).

    So whether a form terminates, and at which step, is an integer
    identity on its entries: _two_step_length decides every form before
    any Fraction is built, by the paper's closed rule at n = 2 and by
    the general integer test at larger n. Only a hit form runs sinkhorn's
    exact step loop, up to step 2 and without records or diagonals, which
    gives its limit, must terminate at the step the integer test named,
    and at L = 2 must end on a singular limit (AssertionError otherwise).

    Row and column scalings commute with row and column permutations:
    P @ A @ Q takes the same steps, with the same entry bit sizes, as A,
    and its limit is P @ limit(A) @ Q. So the verdict is taken once per
    orbit of row and column permutations, on the orbit's least member in
    enumeration order, which is also the least in the lexicographic
    order of its rows. Its rows are sorted, or sorting them would give a
    smaller member, so the walk visits only the matrices with sorted
    rows (each a multiset of n rows) and skips one whenever some column
    order, followed by a row sort, gives a smaller matrix. Every orbit
    keeps exactly one form. A hit form's orbit is then expanded: first
    its distinct column orders F @ Q, each with the limit L @ Q (equal
    forms have equal limits, by the argument above), then every row
    order of each, P @ F @ Q with P @ L @ Q. Candidates of the other
    orbits cost nothing. Hits come in enumeration order.
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
    first_side = _side_of_step(start_side, 1)
    units = {"row": [(1, 1)] * n, "col": [(1, 1)] * n}
    # one getter per order permutes a row's entries, or a matrix's rows
    orders = [itemgetter(*p) for p in itertools.permutations(range(n))]
    # fractions[v] == v, built once: PositiveMatrix keeps all-Fraction rows as
    # they are, where it would convert every int entry
    fractions = list(map(Fraction, range(bound + 1)))

    def exact(rows):
        return [list(map(fractions.__getitem__, row)) for row in rows]

    def orbit_hits(form, steps):
        run = _exact_steps([[(v, 1) for v in row] for row in form], first_side, units)
        # no run first terminates after step 2 (the proof in sinkhorn's docstring)
        for step, (lines, side, row_gap, col_gap, _) in zip(range(3), run):
            if not row_gap[0] and not col_gap[0]:
                break
        if row_gap[0] or col_gap[0] or step != steps:
            raise AssertionError(f"the exact run of {form} does not terminate at step {steps}")
        limit = _fraction_rows(lines, side)
        # a run that first terminates at step 2 ends on a singular limit
        if steps == 2 and _determinant(limit) != 0:
            raise AssertionError(f"the exact run of {form} ends on a regular limit")
        column_forms = {}
        for q in orders:
            column_forms.setdefault(tuple(map(q, form)), tuple(map(q, limit)))
        orbit = {p(q_rows): p(q_limit) for q_rows, q_limit in column_forms.items() for p in orders}
        return ((member, steps, member_limit) for member, member_limit in orbit.items())

    found = []
    other_orders = orders[1:]
    row_values = itertools.product(range(1, bound + 1), repeat=n)
    for form in itertools.combinations_with_replacement(row_values, n):
        rows = list(form)
        for q in other_orders:
            if sorted(map(q, rows)) < rows:
                break  # another column order gives this orbit a smaller form
        else:
            steps = _two_step_length(form, start_side)
            if steps is not None:
                found += orbit_hits(form, steps)
    # entry order is enumeration order, and no two hits share entries
    found.sort(key=itemgetter(0))
    return [
        SearchHit(PositiveMatrix(exact(member)), steps, PositiveMatrix(limit))
        for member, steps, limit in found
    ]


def _two_step_length(rows, start_side: StartSide):
    """The step at which the exact unit-margin run of a positive integer
    n x n matrix (n >= 2) first terminates: 1, 2, or None for never.

    At n = 2 this is the paper's closed rule: a column-first run on
    (a b; c d) terminates at step 1 iff ab = cd, at step 2 iff ad = bc,
    and never otherwise.

    At larger n, integers only, with no gcd. For a column-first run let
    c_j be the column sums, C = prod(c_j) and P_i = sum_j a_ij * (C / c_j),
    so that P_i / C is row i's sum after the column step: L = 1 iff every
    P_i = C. Otherwise, with Q = prod(P_i), the row step leaves column j
    with sum C * sum_i a_ij * (Q / P_i) / (c_j * Q), so L = 2 iff that is
    1 for every j.

    L = 0 cannot occur, since each row sums to at least n, and a run
    that has not terminated by step 2 never does (the two-step proof in
    sinkhorn's docstring). A row-first run is the transposed column-first
    run, which at n = 2 swaps b and c.
    """
    if len(rows) == 2:
        (a, b), (c, d) = rows
        if start_side is StartSide.ROW_FIRST:
            b, c = c, b
        return 1 if a * b == c * d else 2 if a * d == b * c else None
    cols = list(zip(*rows))
    if start_side is StartSide.ROW_FIRST:
        rows, cols = cols, rows
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
