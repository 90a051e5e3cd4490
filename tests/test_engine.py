import ast
import builtins
import importlib.util
import itertools
import random
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import inf, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sinkhornlab import (
    DEFAULT_MAX_STEPS_EXACT,
    DiagonalScaling,
    DimensionError,
    IterationConfig,
    MarginTarget,
    NonFiniteEntryError,
    NonPositiveEntryError,
    PositiveMatrix,
    StartSide,
    Status,
    apply_left,
    apply_right,
    classify_2x2,
    col_sums,
    finite_termination_search,
    is_doubly_stochastic,
    row_sums,
    sinkhorn,
    termination_length_2x2,
    transpose,
)
from sinkhornlab import engine
from sinkhornlab.classify import _LENGTHS
from sinkhornlab.cli import trace_csv
from sinkhornlab.engine import (
    _determinant,
    _integer_row,
    _pairs,
    _steps_until_doubly_stochastic,
    _two_by_two_forms,
    _two_step_length,
)

from .reference import (
    _reference_length,
    classify_2x2_reference,
    determinant_reference,
    exact_sinkhorn_reference,
    float_sinkhorn_reference,
    scaling_invariance_check,
)
from .strategies import (
    approx_matrices,
    exact_matrices,
    exact_matrices_2x2,
    integer_matrices_with_dependent_rows,
    square_matrices_often_singular,
    two_step_matrices,
)

F = Fraction


def M(*rows):
    return PositiveMatrix(rows)


A_SLOW = ((1, 3), (3, 4))  # rational limit (2/5 3/5; 3/5 2/5), never terminates finitely

FIRST_THREE_ITERATES = (
    M((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7))),
    M((F(7, 19), F(12, 19)), (F(21, 37), F(16, 37))),
    M((F(37, 94), F(111, 187)), (F(57, 94), F(76, 187))),
)


class TestExactIteration:
    def test_worked_trace(self):
        res = sinkhorn(M(*A_SLOW), IterationConfig(max_steps=3), capture_matrices=True)
        assert res.status is Status.MAX_STEPS_REACHED
        assert [rec.side for rec in res.trace] == ["-", "col", "row", "col"]
        assert res.trace[0].matrix == M(*A_SLOW)
        for rec, expected in zip(res.trace[1:], FIRST_THREE_ITERATES):
            assert rec.matrix == expected
        assert res.limit == FIRST_THREE_ITERATES[-1]

    def test_doubly_stochastic_input_terminates_at_zero(self):
        A = M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5)))
        res = sinkhorn(A)
        assert res.status is Status.TERMINATED_FINITE
        assert res.steps_taken == 0
        assert res.limit == A
        assert res.left_accum.diag == (1, 1) and res.right_accum.diag == (1, 1)

    def test_one_step_termination(self):
        res = sinkhorn(M((1, 12), (3, 4)))
        assert res.status is Status.TERMINATED_FINITE
        assert res.steps_taken == 1
        assert res.limit == M((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)))

    def test_two_step_termination(self):
        res = sinkhorn(M((2, 6), (5, 15)), IterationConfig(start_side=StartSide.ROW_FIRST))
        assert res.status is Status.TERMINATED_FINITE
        assert res.steps_taken == 2
        assert res.limit == M((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_nonterminating_hits_budget(self):
        res = sinkhorn(M(*A_SLOW), IterationConfig(max_steps=16))
        assert res.status is Status.MAX_STEPS_REACHED
        assert res.steps_taken == 16

    def test_exact_regime_rejects_nonzero_tolerance(self):
        with pytest.raises(ValueError):
            sinkhorn(M(*A_SLOW), IterationConfig(tolerance=1e-9))

    def test_max_entry_bits_recorded_and_growing(self):
        res = sinkhorn(M(*A_SLOW), IterationConfig(max_steps=10))
        bits = [rec.max_entry_bits for rec in res.trace]
        assert all(isinstance(b, int) for b in bits)
        assert bits == sorted(bits)

    @given(exact_matrices(min_dim=2, max_dim=4, square=True), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_accumulated_scalings_reproduce_the_iterate(self, A, steps):
        res = sinkhorn(A, IterationConfig(max_steps=steps))
        rebuilt = apply_right(apply_left(res.left_accum, A), res.right_accum)
        assert rebuilt == res.limit

    def test_termination_soundness_in_trace(self):
        res = sinkhorn(M((2, 6), (5, 15)), IterationConfig(start_side=StartSide.ROW_FIRST))
        for rec in res.trace[:-1]:
            assert rec.max_row_err != 0 or rec.max_col_err != 0
        last = res.trace[-1]
        assert last.max_row_err == 0 and last.max_col_err == 0


class TestApproximateIteration:
    def test_converges_to_closed_form(self):
        res = sinkhorn(M((1.0, 3.0), (3.0, 4.0)))
        assert res.status is Status.CONVERGED
        assert res.steps_taken <= 10_000
        expected = ((0.4, 0.6), (0.6, 0.4))
        for row, erow in zip(res.limit.entries, expected):
            for x, e in zip(row, erow):
                assert abs(x - e) <= 1e-10

    def test_tolerance_controls_stopping(self):
        tight = sinkhorn(M((1.0, 3.0), (3.0, 4.0)), IterationConfig(tolerance=1e-13))
        loose = sinkhorn(M((1.0, 3.0), (3.0, 4.0)), IterationConfig(tolerance=1e-3))
        assert loose.steps_taken < tight.steps_taken

    def test_budget_exhaustion_reports_max_steps(self):
        res = sinkhorn(M((1.0, 3.0), (3.0, 4.0)), IterationConfig(max_steps=2, tolerance=1e-15))
        assert res.status is Status.MAX_STEPS_REACHED
        assert res.steps_taken == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nan_tolerance_rejected(self, tol):
        # inf would accept the unscaled input as converged after 0 steps
        with pytest.raises(ValueError, match="nonnegative"):
            sinkhorn(M((1.0, 3.0), (3.0, 4.0)), IterationConfig(tolerance=float(tol)))

    @pytest.mark.parametrize(
        "rows,message",
        [
            # row 1 sums to 0.0: its first entry is named, as for any other underflow
            (((1e-300, 1e-300), (1e300, 1e300)), "by step 1: entry (1,1) is not positive: 0.0"),
            (((1e-300, 1e300), (1e300, 1e-300)), "by step 1: entry (1,1) is not positive: 0.0"),
            # (2,1) underflows at step 1 and never recovers: caught at the first check
            (((1e300, 1e-300), (1e-300, 1e-300)), "by step 64: entry (2,1) is not positive: 0.0"),
        ],
    )
    def test_leaving_float_range_is_a_named_error(self, rows, message):
        with pytest.raises(NonPositiveEntryError, match=r"^iteration left float range ") as err:
            sinkhorn(M(*rows))
        assert str(err.value).endswith(message)

    def test_late_entry_of_large_matrix_leaving_float_range_is_named(self):
        # column 128 sums to about 1.27e302, so (128,128) underflows at step 1
        rows = [[1.0] * 127 + [1e300] for _ in range(127)] + [[1.0] * 127 + [1e-300]]
        with pytest.raises(NonPositiveEntryError, match=r"^iteration left float range by step \d+: ") as err:
            sinkhorn(PositiveMatrix(rows))
        assert str(err.value).endswith("entry (128,128) is not positive: 0.0")

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize(
        "rows",
        [
            ((1e-300, 1e300), (1e300, 1e-300)),
            ((1e-300, 1e300, 1e300), (1e300, 1e-300, 1e300), (1e300, 1e300, 1e-300)),
        ],
        ids=["2x2", "3x3"],
    )
    def test_snapshot_leaving_float_range_is_a_named_error(self, rows, side):
        # the snapshot of step 1 is the first iterate with a zero entry; the
        # run without snapshots converges there and fails on its limit
        cfg = IterationConfig(start_side=side)
        with pytest.raises(NonPositiveEntryError) as plain:
            sinkhorn(M(*rows), cfg)
        with pytest.raises(NonPositiveEntryError) as captured:
            sinkhorn(M(*rows), cfg, capture_matrices=True)
        message = "iteration left float range by step 1: entry (1,1) is not positive: 0.0"
        assert str(captured.value) == str(plain.value) == message

    def test_no_entry_bits_in_approximate_trace(self):
        res = sinkhorn(M((1.0, 3.0), (3.0, 4.0)))
        assert all(rec.max_entry_bits is None for rec in res.trace)

    @given(approx_matrices(min_dim=2, max_dim=3, square=True))
    @settings(max_examples=40, deadline=None)
    def test_start_orders_agree_within_twice_tolerance(self, A):
        col = sinkhorn(A, IterationConfig(start_side=StartSide.COLUMN_FIRST))
        row = sinkhorn(A, IterationConfig(start_side=StartSide.ROW_FIRST))
        assert col.status is Status.CONVERGED and row.status is Status.CONVERGED
        gap = max(
            abs(x - y)
            for xr, yr in zip(col.limit.entries, row.limit.entries)
            for x, y in zip(xr, yr)
        )
        assert gap <= 2e-12

    @given(approx_matrices(min_dim=2, max_dim=4, square=True))
    @settings(max_examples=40, deadline=None)
    def test_converged_runs_are_doubly_stochastic_within_tolerance(self, A):
        res = sinkhorn(A)
        assert res.status is Status.CONVERGED
        assert is_doubly_stochastic(res.limit, tol=1e-12)


@pytest.mark.parametrize("A", [M(*A_SLOW), M((1.0, 3.0), (3.0, 4.0))], ids=["exact", "approx"])
def test_zero_step_budget_is_rejected(A):
    with pytest.raises(ValueError, match=r"^max_steps must be >= 1, got 0$"):
        sinkhorn(A, IterationConfig(max_steps=0))


@pytest.mark.parametrize(
    "A", [M((1, 2), (3, 4)), M((2.0, 1e-3), (1e-3, 1.0))], ids=["exact", "approx"]
)
def test_non_integer_step_budget_is_rejected(A):
    # no step count equals 2.5: the exact run never returned, the float one
    # ran on to convergence at step 14,143
    with pytest.raises(ValueError, match=r"^max_steps must be an int, got 2\.5$"):
        sinkhorn(A, IterationConfig(max_steps=2.5))


@pytest.mark.parametrize("A", [M((1, 2), (3, 4)), M((1.0, 2.0), (3.0, 4.0))], ids=["exact", "approx"])
def test_bool_step_budget_is_rejected(A):
    # a bool is an int: max_steps=True ran one step
    with pytest.raises(ValueError, match=r"^max_steps must be an int, got True$"):
        sinkhorn(A, IterationConfig(max_steps=True))


@pytest.mark.parametrize("A", [M((2, 2), (1, 1)), M((2.0, 2.0), (1.0, 1.0))], ids=["exact", "approx"])
@pytest.mark.parametrize("side", ["column", "row", None])
def test_a_start_side_that_is_not_a_start_side_is_rejected(A, side):
    # "column" ran row-first
    with pytest.raises(ValueError, match=rf"^start_side must be a StartSide, got {side!r}$"):
        sinkhorn(A, IterationConfig(start_side=side))


@pytest.mark.parametrize(
    "tol,shown", [(True, "True"), (False, "False"), ("x", "'x'"), (1j, "1j")], ids=repr
)
def test_non_real_tolerance_is_rejected(tol, shown):
    # tolerance=True converged at tolerance 1.0, and 'x' raised a bare TypeError
    A = M((1.0, 2.0), (3.0, 4.0))
    message = rf"^tolerance must be a real number, got {shown}$"
    with pytest.raises(ValueError, match=message):
        sinkhorn(A, IterationConfig(tolerance=tol))
    with pytest.raises(ValueError, match=message):
        is_doubly_stochastic(A, tol=tol)


class TestFloatReference:
    """The float loop against float_sinkhorn_reference, the same loop as
    one plain function: equal records, snapshots, limit, diagonals, step
    count and status, and the same error where the iterate leaves float
    range. Both sum in the same order, so they agree on every Python."""

    @staticmethod
    def _assert_matches(A, side, budget, target=None, tolerance=1e-12, capture=False):
        cfg = IterationConfig(start_side=side, max_steps=budget, tolerance=tolerance, margin_target=target)
        res = sinkhorn(A, cfg, capture_matrices=capture)
        records, converged, steps, limit, left, right = float_sinkhorn_reference(
            A, side, budget, target, tolerance, capture
        )
        assert [(r.step, r.side, r.max_row_err, r.max_col_err, r.matrix) for r in res.trace] == records
        assert all(r.max_entry_bits is None for r in res.trace)
        assert res.status is (Status.CONVERGED if converged else Status.MAX_STEPS_REACHED)
        assert (res.steps_taken, res.limit, res.left_accum, res.right_accum) == (steps, limit, left, right)
        return res

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_seeded_square_inputs(self, n, side):
        rng = random.Random(f"float-reference-{n}-{side.value}")
        for k in range(6):
            rows = [[10 ** rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            res = self._assert_matches(M(*rows), side, 10_000, capture=k == 0)
            assert res.status is Status.CONVERGED

    @pytest.mark.parametrize("side", list(StartSide))
    def test_seeded_targets(self, side):
        rng = random.Random(f"float-reference-targets-{side.value}")
        for k in range(12):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[10 ** rng.uniform(-1, 1) for _ in range(n)] for _ in range(m)]
            r = [float(rng.randint(1, 4)) for _ in range(m)]
            c = [float(rng.randint(1, 4)) for _ in range(n)]
            # equal totals: move the difference onto the smaller side's first target
            gap = sum(r) - sum(c)
            (c if gap > 0 else r)[0] += abs(gap)
            self._assert_matches(M(*rows), side, 500, MarginTarget(r, c), capture=k % 3 == 0)

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize(
        "budget,tolerance,capture", [(65, 1e-12, True), (129, 1e-12, False), (300, 0.0, False)]
    )
    def test_budgets_past_the_periodic_checks(self, budget, tolerance, capture, side):
        # 14,143 steps to converge: every budget here is spent, past the
        # iterate's validation at step 64, at 128 for 129 and 300, and at
        # 256 for 300
        res = self._assert_matches(M((2.0, 1e-3), (1e-3, 1.0)), side, budget, None, tolerance, capture)
        assert (res.status, res.steps_taken) == (Status.MAX_STEPS_REACHED, budget)

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize(
        "rows",
        [
            ((1e-300, 1e-300), (1e300, 1e300)),
            ((1e-300, 1e300), (1e300, 1e-300)),
            ((1e300, 1e-300), (1e-300, 1e-300)),
            ((1e-300, 1e300, 1.0), (1e300, 1e-300, 1.0), (1.0, 1.0, 1e-300)),
        ],
    )
    def test_leaving_float_range(self, rows, side, capture):
        try:
            float_sinkhorn_reference(M(*rows), side, 10_000, capture_matrices=capture)
        except NonPositiveEntryError as want:
            with pytest.raises(NonPositiveEntryError) as got:
                sinkhorn(M(*rows), IterationConfig(start_side=side), capture_matrices=capture)
            assert (type(got.value), str(got.value)) == (type(want), str(want))
            assert str(want).startswith("iteration left float range by step ")
        else:
            # row-first, the first input's row step leaves every entry 1/2
            assert (rows, side) == (((1e-300, 1e-300), (1e300, 1e300)), StartSide.ROW_FIRST)
            self._assert_matches(M(*rows), side, 10_000, capture=capture)


@st.composite
def _float_range_rows(draw):
    n = draw(st.integers(2, 4))
    entries = st.one_of(
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
        st.sampled_from([1e-300, 1e300]),
    )
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


class TestFloatRangeEntries:
    """Float entries anywhere in 1e-300..1e300 give a result, with its
    trace, or the named error of an iterate that left float range; never
    another exception."""

    @given(_float_range_rows(), st.sampled_from(list(StartSide)), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_a_result_or_a_named_error(self, rows, side, budget):
        try:
            res = sinkhorn(M(*rows), IterationConfig(start_side=side, max_steps=budget))
            trace = res.trace
        except (NonPositiveEntryError, NonFiniteEntryError) as exc:
            assert str(exc).startswith("iteration left float range by step ")
            return
        assert res.status in (Status.CONVERGED, Status.MAX_STEPS_REACHED)
        assert res.steps_taken <= budget and len(trace) == res.steps_taken + 1
        last = trace[-1]
        met = last.max_row_err <= 1e-12 and last.max_col_err <= 1e-12
        assert met is (res.status is Status.CONVERGED)


def _float_bits(x):
    return struct.pack("<d", x)


def _finished(finish):
    try:
        return finish()
    except (NonPositiveEntryError, NonFiniteEntryError) as exc:
        return type(exc), str(exc)


class TestFloatSteps2x2:
    """The 2x2 float steps on four scalars against the general float
    steps with every sum taken, step by step: equal raw entries (side,
    errors, entry bits and snapshot), met-test values and finish()
    results, and the same exception, for 300 steps from either side, past
    the iterate's validation at steps 64, 128 and 256."""

    def _assert_same_steps(self, rows, side, r_t=(1.0, 1.0), c_t=(1.0, 1.0)):
        A = M(*rows)
        for capture in (False, True):
            got = engine._float_steps_2x2(A, side, r_t, c_t, capture)
            expected = engine._float_steps(A, side, r_t, c_t, capture)
            for step in range(301):
                try:
                    want = next(expected)
                except (NonPositiveEntryError, NonFiniteEntryError) as exc:
                    with pytest.raises(type(exc)) as raised:
                        next(got)
                    assert str(raised.value) == str(exc), (rows, side, step)
                    break
                entry, row_met, col_met, finish = next(got)
                want_entry, want_row_met, want_col_met, want_finish = want
                # errors and met-test values compared bit for bit, so that NaN matches NaN
                assert [entry[0], *map(_float_bits, entry[1:3]), *entry[3:5]] == [
                    want_entry[0], *map(_float_bits, want_entry[1:3]), *want_entry[3:5]
                ], (rows, side, step)
                assert len(entry) == len(want_entry) == 5
                assert list(map(_float_bits, (row_met, col_met))) == list(
                    map(_float_bits, (want_row_met, want_col_met))
                ), (rows, side, step)
                assert _finished(finish) == _finished(want_finish), (rows, side, step)

    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize(
        "rows",
        [
            ((2.0, 1e-3), (1e-3, 1.0)),  # 14,143 steps to converge
            ((2.391, 0.26), (0.19, 9.172)),  # converges at step 259
            ((1e-300, 1e-300), (1e300, 1e300)),  # a row sum of 0.0 row-first
            ((1e-300, 1e300), (1e300, 1e-300)),  # underflows at step 1
            ((1e300, 1e-300), (1e-300, 1e-300)),  # a zero entry, found at step 64
            ((1.7976931348623157e308, 1.0), (1.0, 1.7976931348623157e308)),  # the largest float
            ((1e308, 1e308), (1e308, 1e308)),  # sums overflow to inf, so every factor is 0.0
        ],
    )
    def test_fixed_inputs(self, rows, side):
        self._assert_same_steps(rows, side)

    @pytest.mark.parametrize("targets", [False, True], ids=["unit", "rc"])
    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize("span", [6, 300])
    def test_seeded_inputs(self, span, side, targets):
        rng = random.Random(f"float-2x2-{span}-{side}-{targets}")
        for _ in range(12):
            rows = [[10 ** rng.uniform(-span, span) for _ in range(2)] for _ in range(2)]
            if targets:
                r_t = [10 ** rng.uniform(-3, 3) for _ in range(2)]
                c_t = [10 ** rng.uniform(-3, 3) for _ in range(2)]
                c_t = [x * (sum(r_t) / sum(c_t)) for x in c_t]
                self._assert_same_steps(rows, side, tuple(r_t), tuple(c_t))
            else:
                self._assert_same_steps(rows, side)

    @given(
        st.one_of(st.floats(min_value=0.0), st.just(float("nan"))),
        st.one_of(st.floats(min_value=0.0), st.just(float("nan"))),
    )
    @settings(max_examples=500, deadline=None)
    def test_two_term_sum_is_one_addition(self, x, y):
        # the generator adds where _float_steps takes sum(); from Python
        # 3.12 on sum() adds a compensation, which rounds away for two terms
        assert _float_bits(x + y) == _float_bits(sum([x, y]))


class TestFloatStepsSkippedSums:
    """_float_steps at a finite tolerance against the same steps with every
    sum taken, the default infinite tolerance, step by step for 300 steps
    from either side: each error both took has the same bits, a step skips
    the error of the side it just scaled exactly when the other side's
    error is above the tolerance (NaN is not), and then yields inf as its
    met value, finish() gives the same result, and the same exception is
    raised at the same step."""

    @staticmethod
    def _assert_same_steps(rows, side, tolerance, r_t=None, c_t=None, capture=False):
        A = M(*rows)
        r_t = r_t or (1.0,) * A.rows
        c_t = c_t or (1.0,) * A.cols
        got = engine._float_steps(A, side, r_t, c_t, capture, tolerance)
        full = engine._float_steps(A, side, r_t, c_t, capture)
        skipped = nan_kept = 0
        for step in range(301):
            try:
                want = next(full)
            except (NonPositiveEntryError, NonFiniteEntryError) as exc:
                with pytest.raises(type(exc)) as raised:
                    next(got)
                assert str(raised.value) == str(exc), (rows, side, step)
                break
            entry, *met, finish = next(got)
            want_entry, *want_met, want_finish = want
            assert (entry[0], *entry[3:]) == (want_entry[0], *want_entry[3:]), (rows, side, step)
            assert len(entry) == len(want_entry) == 5
            scaled = entry[0]
            for k, name in enumerate(("row", "col")):
                other = want_entry[2 - k]
                if step > 0 and name == scaled and other > tolerance:
                    assert (entry[1 + k], _float_bits(met[k])) == (None, _float_bits(inf)), (rows, side, step)
                    skipped += 1
                else:
                    # compared bit for bit, so that NaN matches NaN
                    assert _float_bits(entry[1 + k]) == _float_bits(want_entry[1 + k]), (rows, side, step)
                    assert _float_bits(met[k]) == _float_bits(want_met[k]), (rows, side, step)
                    nan_kept += step > 0 and name == scaled and other != other
            assert _finished(finish) == _finished(want_finish), (rows, side, step)
        return skipped, nan_kept

    @pytest.mark.parametrize("tolerance", [0.0, 1e-12, 1e-3])
    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_seeded_square_inputs(self, n, side, tolerance):
        rng = random.Random(f"float-skipped-{n}-{side}-{tolerance}")
        skipped = 0
        for k in range(3):
            rows = [[10 ** rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            skipped += self._assert_same_steps(rows, side, tolerance, capture=k == 0)[0]
        # a 1x1 input meets its margins after one step
        assert skipped > 0 or n == 1

    @pytest.mark.parametrize("tolerance", [0.0, 1e-12, 1e-3])
    @pytest.mark.parametrize("side", ["col", "row"])
    def test_seeded_targets(self, side, tolerance):
        rng = random.Random(f"float-skipped-targets-{side}-{tolerance}")
        for k in range(12):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[10 ** rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)]
            r_t = [10 ** rng.uniform(-2, 2) for _ in range(m)]
            c_t = [10 ** rng.uniform(-2, 2) for _ in range(n)]
            c_t = [x * (sum(r_t) / sum(c_t)) for x in c_t]
            self._assert_same_steps(rows, side, tolerance, tuple(r_t), tuple(c_t), capture=k % 4 == 0)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-12, 1e-3])
    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize(
        "rows",
        [
            ((1e-300, 1e-300), (1e300, 1e300)),  # a row sum of 0.0 row-first
            ((1e-300, 1e300), (1e300, 1e-300)),  # underflows at step 1
            ((1e300, 1e-300), (1e-300, 1e-300)),  # a zero entry, found at step 64
            ((1e-300, 1e300, 1.0), (1e300, 1e-300, 1.0), (1.0, 1.0, 1e-300)),
            ((1e-300, 1e300, 1e300), (1e300, 1e-300, 1e300), (1e300, 1e300, 1e-300)),
            ((1.7976931348623157e308, 1.0, 1.0), (1.0, 1.7976931348623157e308, 1.0), (1.0, 1.0, 1.0)),
            ((1e308, 1e308, 1e308), (1e308, 1e308, 1e308), (1e308, 1e308, 1e308)),  # sums overflow
        ],
    )
    def test_float_range_inputs(self, rows, side, tolerance):
        for capture in (False, True):
            self._assert_same_steps(rows, side, tolerance, capture=capture)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-12, 1e-3])
    def test_a_nan_error_keeps_the_other_sides_sums(self, tolerance):
        # column-first, the other side's error is NaN at steps 2 to 64, so
        # each of those 63 steps takes both sides' sums, until the iterate's
        # check at step 64 raises
        skipped, nan_kept = self._assert_same_steps(((1e300, 1e16), (1e-50, 1e-300)), "col", tolerance)
        assert (skipped, nan_kept) == (1, 63)

_LAZY_CASES = {
    "float-2x2": (((2.391, 0.26), (0.19, 9.172)), None, None),
    "float-2x2-budget": (((2.0, 1e-3), (1e-3, 1.0)), 70, None),
    "float-3x3": (((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 10.0)), None, None),
    "float-3x3-rc": (
        ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 10.0)),
        None,
        MarginTarget((1.0, 2.0, 3.0), (2.0, 2.0, 2.0)),
    ),
    "float-3x5-rc": (
        ((0.5, 2.0, 3.0, 0.25, 1.0), (4.0, 0.5, 6.0, 2.0, 3.5), (7.0, 8.0, 0.1, 9.0, 1.5)),
        None,
        MarginTarget((1.0, 1.5, 2.5), (1.0, 1.0, 1.0, 1.0, 1.0)),
    ),
    "float-5x5": (
        (
            (1.0, 2.0, 3.0, 4.0, 5.0),
            (2.5, 1.0, 0.5, 3.0, 4.0),
            (9.0, 0.25, 1.0, 2.0, 0.5),
            (0.1, 6.0, 2.0, 1.0, 3.0),
            (4.0, 3.0, 7.0, 0.75, 1.0),
        ),
        None,
        None,
    ),
    "exact-2x2-odds": (A_SLOW, None, None),
    "exact-2x2-odds-terminating": (((1, 12), (3, 4)), None, None),
    "exact-3x3": (((1, 2, 3), (4, 5, 6), (7, 8, 10)), 5, None),
    "exact-3x3-terminating": (((1, 1, 1), (1, 1, 1), (2, 2, 2)), None, None),
}


class TestLazyTrace:
    """sinkhorn keeps each step's raw values and builds its TraceRecords
    on the first read of `trace`: none before, all of them once, and
    records that agree with the exits the run took at their steps."""

    @staticmethod
    def _run(name, side, capture):
        rows, budget, target = _LAZY_CASES[name]
        cfg = IterationConfig(start_side=side, max_steps=budget, margin_target=target)
        return sinkhorn(M(*rows), cfg, capture_matrices=capture)

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("name", list(_LAZY_CASES))
    def test_records_built_on_first_read(self, name, side, capture, monkeypatch):
        built, record = [], engine.TraceRecord

        def counted(*fields):
            built.append(fields[0])
            return record(*fields)

        monkeypatch.setattr(engine, "TraceRecord", counted)
        res = self._run(name, side, capture)
        assert built == []
        trace = res.trace
        assert built == list(range(res.steps_taken + 1))
        assert res.trace is trace
        assert len(built) == len(trace)

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("name", list(_LAZY_CASES))
    def test_records_agree_with_the_exits(self, name, side, capture):
        res = self._run(name, side, capture)
        exact = name.startswith("exact")
        tolerance = 0 if exact else 1e-12
        assert [r.step for r in res.trace] == list(range(res.steps_taken + 1))
        order = ("col", "row") if side is StartSide.COLUMN_FIRST else ("row", "col")
        assert [r.side for r in res.trace] == ["-"] + [order[k % 2] for k in range(res.steps_taken)]
        met = [r.max_row_err <= tolerance and r.max_col_err <= tolerance for r in res.trace]
        assert met[:-1] == [False] * res.steps_taken
        assert met[-1] is (res.status is not Status.MAX_STEPS_REACHED)
        if exact:
            assert all(r.max_entry_bits > 0 for r in res.trace)
            # an exact step meets its own side's targets: error exactly 0
            for r in res.trace[1:]:
                assert (r.max_col_err if r.side == "col" else r.max_row_err) == 0
        else:
            assert all(r.max_entry_bits is None for r in res.trace)
        if capture:
            assert res.trace[0].matrix == M(*_LAZY_CASES[name][0])
            assert res.trace[-1].matrix == res.limit
        else:
            assert all(r.matrix is None for r in res.trace)

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("name", list(_LAZY_CASES))
    def test_equality_hash_and_repr_cover_the_trace(self, name, side):
        res, again = self._run(name, side, False), self._run(name, side, False)
        assert res == again and hash(res) == hash(again)
        captured = self._run(name, side, True)
        # the same run with snapshots differs in its trace alone
        assert (captured.limit, captured.left_accum, captured.right_accum) == (
            res.limit, res.left_accum, res.right_accum
        )
        assert (captured.steps_taken, captured.status) == (res.steps_taken, res.status)
        assert captured != res
        assert res != object()
        fields = (
            f"limit={res.limit!r}, left_accum={res.left_accum!r}, right_accum={res.right_accum!r},"
            f" steps_taken={res.steps_taken!r}, status={res.status!r}, trace={res.trace!r}"
        )
        assert repr(res) == f"SinkhornResult({fields})"


    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("name", ["float-3x3", "float-3x3-rc", "float-3x5-rc", "float-5x5"])
    def test_general_float_trace_is_the_full_steps(self, name, side, capture):
        # the run skipped the sums of the side a step just scaled; the first
        # read of its trace replays the run, with every sum taken
        res = self._run(name, side, capture)
        assert any(None in entry[1:3] for entry in res._entries)
        rows, _, target = _LAZY_CASES[name]
        A = M(*rows)
        first = "col" if side is StartSide.COLUMN_FIRST else "row"
        full = engine._float_steps(A, first, *engine._resolve_targets(A, target), capture)
        expected = tuple(
            engine.TraceRecord(step, *entry) for step, (entry, *_) in zip(range(res.steps_taken + 1), full)
        )
        trace = res.trace
        assert trace == expected
        errors = [_float_bits(e) for r in trace for e in (r.max_row_err, r.max_col_err)]
        assert errors == [_float_bits(e) for r in expected for e in (r.max_row_err, r.max_col_err)]
        assert res.trace is trace
        values = (res.limit, res.left_accum, res.right_accum, res.steps_taken, res.status)
        assert hash(res) == hash((*values, expected))
        fields = (
            f"limit={res.limit!r}, left_accum={res.left_accum!r}, right_accum={res.right_accum!r},"
            f" steps_taken={res.steps_taken!r}, status={res.status!r}, trace={expected!r}"
        )
        assert repr(res) == f"SinkhornResult({fields})"
        assert res == self._run(name, side, capture)

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("name", ["float-3x3", "float-3x3-rc", "float-3x5-rc", "float-5x5"])
    def test_a_general_float_run_sums_one_side_per_step(self, name, side, monkeypatch):
        calls = []

        def counted(line):
            calls.append(line)
            return builtins.sum(line)

        monkeypatch.setattr(engine, "sum", counted, raising=False)
        res = self._run(name, side, False)
        taken = len(calls)
        m, n = len(_LAZY_CASES[name][0]), len(_LAZY_CASES[name][0][0])
        trace = res.trace
        lines = {"row": m, "col": n}
        # step 0 sums both sides, and every later step the side the next
        # step scales; the side it just scaled only at the last step, where
        # the other side is within tolerance
        order = ("col", "row") if side is StartSide.COLUMN_FIRST else ("row", "col")
        expected = m + n + sum(lines[order[k % 2]] for k in range(1, res.steps_taken + 1))
        assert res.status is Status.CONVERGED and res.steps_taken > 10
        assert taken == expected + lines[trace[-1].side]
        # the first read of the trace replays the run with every sum taken,
        # and a second read takes none
        assert res.trace is trace and len(calls) - taken == (m + n) * len(trace)

class TestRcScaling:
    def test_unit_targets_reproduce_plain_run_step_for_step(self):
        A = M(*A_SLOW)
        cfg = IterationConfig(max_steps=5)
        plain = sinkhorn(A, cfg, capture_matrices=True)
        rc_cfg = IterationConfig(max_steps=5, margin_target=MarginTarget((1, 1), (1, 1)))
        rc = sinkhorn(A, rc_cfg, capture_matrices=True)
        assert rc.trace == plain.trace
        assert rc.limit == plain.limit
        assert rc.status == plain.status

    def test_flat_matrix_with_uneven_row_targets(self):
        res = sinkhorn(M((1, 1), (1, 1)), IterationConfig(margin_target=MarginTarget((1, 3), (2, 2))))
        assert res.status is Status.TERMINATED_FINITE
        assert res.limit == M((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))
        assert row_sums(res.limit) == (1, 3)
        assert col_sums(res.limit) == (2, 2)

    def test_already_rc_stochastic_terminates_at_zero(self):
        res = sinkhorn(M((1, 2), (3, 4)), IterationConfig(margin_target=MarginTarget((3, 7), (4, 6))))
        assert res.status is Status.TERMINATED_FINITE
        assert res.steps_taken == 0

    def test_rectangular_targets(self):
        A = M((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        res = sinkhorn(A, IterationConfig(margin_target=MarginTarget((1.0, 2.0), (1.0, 1.0, 1.0))))
        assert res.status is Status.CONVERGED
        assert all(abs(s - t) <= 1e-12 for s, t in zip(row_sums(res.limit), (1.0, 2.0)))
        assert all(abs(s - 1) <= 1e-12 for s in col_sums(res.limit))

    def test_unit_margins_need_square_matrix(self):
        with pytest.raises(DimensionError):
            sinkhorn(M((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))

    def test_target_shape_must_fit(self):
        with pytest.raises(DimensionError):
            sinkhorn(M((1, 2), (3, 4)), IterationConfig(margin_target=MarginTarget((1, 1, 1), (1, 1, 1))))


def _matches_two_sided_reference(A, side, budget, target=None):
    """Run sinkhorn and assert it agrees with the two-sided reference loop
    on every trace record, the status, the step count, the limit and
    both diagonals, which satisfy left @ A @ right == limit. The same run
    with snapshots captured must capture left @ A @ right of each step."""
    cfg = IterationConfig(start_side=side, max_steps=budget, margin_target=target)
    res = sinkhorn(A, cfg)
    _assert_matches(res, exact_sinkhorn_reference(A, side, budget, target))
    assert apply_right(apply_left(res.left_accum, A), res.right_accum) == res.limit

    captured = sinkhorn(A, cfg, capture_matrices=True)
    assert [replace(r, matrix=None) for r in captured.trace] == list(res.trace)
    assert (captured.limit, captured.left_accum, captured.right_accum) == (
        res.limit, res.left_accum, res.right_accum
    )
    for record in captured.trace:
        *_, left, right = exact_sinkhorn_reference(A, side, record.step, target)
        expected = apply_right(apply_left(DiagonalScaling(left), A), DiagonalScaling(right))
        assert record.matrix == expected
        assert all(type(x) is Fraction for row in record.matrix.entries for x in row)
    return res


def _assert_matches(res, reference):
    records, terminated, steps, limit, left, right = reference
    trace = [(r.step, r.side, r.max_row_err, r.max_col_err, r.max_entry_bits) for r in res.trace]
    assert trace == records
    # the side each step scaled meets its targets exactly, by recomputed sums
    for _, side, row_err, col_err, _ in records[1:]:
        assert (col_err if side == "col" else row_err) == 0
    assert all(type(r.max_row_err) is type(r.max_col_err) is Fraction for r in res.trace)
    assert res.status is (Status.TERMINATED_FINITE if terminated else Status.MAX_STEPS_REACHED)
    assert res.steps_taken == steps
    assert res.limit == PositiveMatrix(limit)
    assert res.left_accum == DiagonalScaling(left)
    assert res.right_accum == DiagonalScaling(right)
    values = itertools.chain(*res.limit.entries, res.left_accum.diag, res.right_accum.diag)
    assert all(type(x) is Fraction for x in values)


class TestTwoSidedReference:
    """The exact loop computes only the unscaled side's margins after a
    step; the reference recomputes both every step."""

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize(
        "rows,budget,target",
        [
            (A_SLOW, 8, None),
            (((1, 12), (3, 4)), 8, None),
            (((1, 3), (12, 4)), 8, None),
            (((2, 6), (5, 15)), 8, None),
            (((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))), 8, None),
            (((1, 2, 3), (4, 5, 6), (7, 8, 10)), 5, None),
            (((1, 2, 3), (4, 5, 6)), 6, MarginTarget((1, 2), (1, 1, 1))),
            (((1, 1), (1, 1)), 4, MarginTarget((1, 3), (2, 2))),
            (A_SLOW, 64, None),
            (((F(1, 2**1074), 10**300), (1, 1)), 6, None),
            (((1, F(1, 2)), (F(3, 4), 2)), 8, None),
            (((F(1, 3), 2, F(5, 7)), (4, F(9, 2), 1)), 6, MarginTarget((F(1, 2), 2), (1, F(1, 2), 1))),
            # a margin sum whose reduction cancels a factor of its terms' common denominator
            (((F(1, 3), 1, F(1, 3)), (1, 1, 3), (F(2, 3), F(3, 2), F(1, 6))), 4, None),
            # tall, with targets: the derived diagonals index A's first row and column
            (((1, 2), (3, 4), (5, 7)), 6, MarginTarget((1, 2, 3), (2, 4))),
        ],
    )
    def test_fixed_inputs(self, rows, budget, target, side):
        _matches_two_sided_reference(PositiveMatrix(rows), side, budget, target)

    @pytest.mark.parametrize(
        "rows,side,last",
        [(((1, 12), (3, 4)), StartSide.COLUMN_FIRST, "col"), (((1, 3), (12, 4)), StartSide.ROW_FIRST, "row")],
    )
    def test_one_step_form_terminates_on_the_skipped_side(self, rows, side, last):
        res = _matches_two_sided_reference(PositiveMatrix(rows), side, 8)
        assert res.status is Status.TERMINATED_FINITE
        assert (res.steps_taken, res.trace[-1].side) == (1, last)
        # the side no step scaled keeps its diagonal at 1
        unscaled = res.left_accum if last == "col" else res.right_accum
        assert all(type(x) is Fraction and x == 1 for x in unscaled.diag)

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("budget", [1, 2, 5, 9])
    @pytest.mark.parametrize(
        "rows,target",
        [
            (((F(3, 7),),), MarginTarget((F(5, 2),), (F(5, 2),))),
            (((1, F(2, 3), 5),), MarginTarget((3,), (F(1, 2), 2, F(1, 2)))),
            (((2,), (F(1, 3),), (7,)), MarginTarget((1, F(3, 4), F(5, 4)), (3,))),
        ],
        ids=["1x1", "1x3", "3x1"],
    )
    def test_degenerate_shapes_with_targets(self, rows, target, budget, side):
        # a diagonal derived from the limit indexes A's first row and column
        _matches_two_sided_reference(PositiveMatrix(rows), side, budget, target)

    @given(
        exact_matrices(min_dim=2, max_dim=4, square=True),
        st.sampled_from(list(StartSide)),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_square_inputs(self, A, side, budget):
        _matches_two_sided_reference(A, side, budget)

    @given(exact_matrices(min_dim=2, max_dim=3), st.sampled_from(list(StartSide)), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_margin_target_inputs(self, A, side, budget):
        r = tuple(F(i + 1) for i in range(A.rows))
        c = (sum(r) - A.cols + 1,) + (F(1),) * (A.cols - 1)
        _matches_two_sided_reference(A, side, budget, MarginTarget(r, c))

    def test_bits_cap_stops_the_reference_at_the_first_record_past_it(self):
        # the guard of the reference search and the two-step bound test
        A = M((1, 2, 3), (2, 1, 1), (1, 5, 2))
        capped = exact_sinkhorn_reference(A, StartSide.COLUMN_FIRST, 64, bits_cap=2000)
        records, terminated, steps, *_ = capped
        assert not terminated and steps < 64
        assert records[-1][4] > 2000 >= records[-2][4]
        _assert_matches(sinkhorn(A, IterationConfig(max_steps=steps)), capped)


def _matches_reference_and_rebuilds_limit(A, side, budget, target=None):
    """_assert_matches on one run, which must also satisfy
    left @ A @ right == limit exactly. Budget None is the default budget.
    Snapshots are not checked: that reruns the reference to every step."""
    res = sinkhorn(A, IterationConfig(start_side=side, max_steps=budget, margin_target=target))
    reference = exact_sinkhorn_reference(A, side, budget or DEFAULT_MAX_STEPS_EXACT, target)
    _assert_matches(res, reference)
    assert apply_right(apply_left(res.left_accum, A), res.right_accum) == res.limit
    return res


class TestLongExactRuns:
    """Runs long enough that the diagonals reach thousands of bits, where
    the engine derives them from the limit and one accumulated coordinate
    and the reference multiplies them step by step."""

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize(
        "rows",
        [  # the 2x2 inputs of the golden `scale --exact` cases
            ((1, 12), (3, 4)),
            ((F(3, 2), 5), (F(3, 4), F(1, 4))),
            ((4, F(1, 6)), (5, F(5, 3))),
            ((F(1, 5), F(5, 2)), (F(2, 5), F(1, 4))),
            ((F(3, 4), F(3, 4)), (F(4, 3), 2)),
            ((F(5, 4), F(1, 4)), (F(2, 3), F(3, 2))),
            ((F(3, 2), F(2, 5)), (1, F(5, 4))),
            ((F(1, 3), 6), (F(3, 4), F(1, 4))),
            ((F(3, 2), F(1, 3)), (F(4, 3), F(6, 5))),
        ],
    )
    def test_golden_inputs_at_the_default_budget(self, rows, side):
        _matches_reference_and_rebuilds_limit(M(*rows), side, None)

    def test_two_hundred_steps(self):
        res = _matches_reference_and_rebuilds_limit(
            M((4, F(3, 4)), (F(1, 5), F(5, 3))), StartSide.COLUMN_FIRST, 200
        )
        assert (res.status, res.steps_taken) == (Status.MAX_STEPS_REACHED, 200)
        assert max(x.denominator.bit_length() for x in res.left_accum.diag) > 50_000

    def test_doubly_stochastic_input_keeps_unit_fraction_diagonals(self):
        q, h = F(1, 4), F(1, 2)
        res = _matches_reference_and_rebuilds_limit(
            M((h, q, q), (q, h, q), (q, q, h)), StartSide.ROW_FIRST, None
        )
        assert res.steps_taken == 0
        for x in res.left_accum.diag + res.right_accum.diag:
            assert type(x) is Fraction and x == 1

    @pytest.mark.parametrize("side", list(StartSide))
    def test_rectangular_targets(self, side):
        # entry bits about double every step under these targets
        res = _matches_reference_and_rebuilds_limit(
            M((1, 2, 3), (4, 5, 6)), side, 16, MarginTarget((1, 2), (1, 1, 1))
        )
        assert res.status is Status.MAX_STEPS_REACHED

    @pytest.mark.parametrize("side", list(StartSide))
    def test_tall_rectangular_targets(self, side):
        res = _matches_reference_and_rebuilds_limit(
            M((1, 2), (3, 4), (5, 7)), side, 16, MarginTarget((1, 2, 3), (2, 4))
        )
        assert res.status is Status.MAX_STEPS_REACHED


#: the acceptance sweep's 23 rationals p/q, with p and q in 1..6
SWEEP_RATIONALS = sorted({F(p, q) for p in range(1, 7) for q in range(1, 7)})


class TestOddsSteps:
    """The 2x2 unit-margin steps on the odds map against the general exact
    steps, step by step: the same lines, sides and factors, and gaps equal
    as Fractions, for 100 steps from either side. Both start at step 1,
    from the lines and sums of step 0, which _exact_run takes for both."""

    @staticmethod
    def _assert_same_steps(rows, side):
        A = PositiveMatrix(rows)
        pairs = [_pairs(row) for row in A.entries]
        ones = [F(1), F(1)]
        (scaled, row_gap, col_gap, lines, _), *_ = next(engine._exact_run(A, side, ones, ones, False))
        assert scaled == "-" and lines == (list(zip(*pairs)) if side == "col" else pairs)
        assert F(*row_gap) == max(abs(sum(row) - 1) for row in A.entries), (rows, side)
        assert F(*col_gap) == max(abs(sum(col) - 1) for col in zip(*A.entries)), (rows, side)
        sums = list(map(engine._pair_sum, lines))
        expected = engine._exact_steps(lines, side, sums, engine._UNIT_2X2)
        for step, got, want in zip(range(1, 101), engine._odds_steps(lines, side, sums), expected):
            assert (got[0], got[1], got[4]) == (want[0], want[1], want[4]), (rows, side, step)
            assert [F(*gap) for gap in got[2:4]] == [F(*gap) for gap in want[2:4]], (rows, side, step)

    @staticmethod
    def _assert_search_run(form, side):
        # the search's run of an integer form: the generator driven from step 1
        # on pairs (v, 1), against sinkhorn's exact run of the form from step 1
        # on, whose factors are each line's target 1 over its sum the step before
        n = len(form)
        lines = [[(v, 1) for v in line] for line in (zip(*form) if side == "col" else form)]
        sums = [(sum(v for v, _ in line), 1) for line in lines]
        units = {"row": [(1, 1)] * n, "col": [(1, 1)] * n}
        got = engine._odds_steps(lines, side, sums) if n == 2 else engine._exact_steps(lines, side, sums, units)
        ones = [F(1)] * n
        run = engine._exact_run(PositiveMatrix(form), side, ones, ones, False)
        before = next(run)[0][3]
        for step, (lines, next_side, *gaps, factors), ((scaled, *want_gaps, want_lines, _), *_) in zip(
            range(1, 5), got, run
        ):
            assert scaled == (side if step % 2 else engine._OTHER_SIDE[side]), (form, side, step)
            assert (lines, next_side) == (want_lines, engine._OTHER_SIDE[scaled]), (form, side, step)
            want_factors = [1 / sum(F(*x) for x in line) for line in before]
            assert factors == [(f.numerator, f.denominator) for f in want_factors], (form, side, step)
            assert [F(*gap) for gap in gaps] == [F(*gap) for gap in want_gaps], (form, side, step)
            before = want_lines

    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize(
        "rows",
        [
            ((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))),  # L = 0
            ((1, 12), (3, 4)),  # L = 1 column-first: ab = cd
            ((2, 3), (6, 4)),  # L = 1 row-first: ac = bd
            ((2, 6), (5, 15)),  # L = 2: kappa = 1
            ((1, 1), (1, 1)),  # L = 1 and kappa = 1
            A_SLOW,  # never terminates
        ],
    )
    def test_finite_forms(self, rows, side):
        self._assert_same_steps([list(map(F, row)) for row in rows], side)

    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize(
        "values",
        [SWEEP_RATIONALS, [F(p, q) for p in range(1, 65) for q in range(1, 65)]],
        ids=["sweep", "1..64/1..64"],
    )
    def test_seeded_inputs(self, values, side):
        rng = random.Random(f"odds-{len(values)}-{side}")
        for _ in range(30):
            a, b, c, d = (rng.choice(values) for _ in range(4))
            p = a / (1 + a)
            # a free form, the three finite forms on a, b, c, and a doubly stochastic one
            for last in (d, b * c / a, a * b / c, a * c / b):
                self._assert_same_steps([[a, b], [c, last]], side)
            self._assert_same_steps([[p, 1 - p], [1 - p, p]], side)

    @pytest.mark.parametrize("side", ["col", "row"])
    def test_search_forms(self, side):
        # every 2x2 form the search confirms, as the integer pairs (v, 1) it runs on
        for form in _two_by_two_forms(12):
            self._assert_same_steps([list(map(F, row)) for row in form], side)

    @pytest.mark.parametrize("side", ["col", "row"])
    def test_search_runs_from_step_one(self, side):
        # every 2x2 form the search confirms at bound 12, and every sorted-row
        # 3x3 form it walks at bound 2
        forms_3x3 = itertools.combinations_with_replacement(itertools.product((1, 2), repeat=3), 3)
        for form in itertools.chain(_two_by_two_forms(12), forms_3x3):
            self._assert_search_run(form, side)


class TestInvariance:
    def test_identity_scalings_give_zero_deviation(self):
        A = M((1.0, 3.0), (3.0, 4.0))
        P = DiagonalScaling((1.0, 1.0))
        assert scaling_invariance_check(A, P, P) == 0.0

    def test_reference_example_invariance(self):
        A = M((1.0, 3.0), (3.0, 4.0))
        dev = scaling_invariance_check(A, DiagonalScaling((2.0, 1.0)), DiagonalScaling((1.0, 5.0)))
        assert dev <= 2e-12

    def test_row_scaling_does_not_change_the_limit(self):
        A = M((1.0, 2.0), (3.0, 4.0))
        dev = scaling_invariance_check(A, DiagonalScaling((3.0, 7.0)), DiagonalScaling((1.0, 1.0)))
        assert dev <= 2e-12
        dev = scaling_invariance_check(
            A, DiagonalScaling((1 / 3, 1 / 7)), DiagonalScaling((1.0, 1.0))
        )
        assert dev <= 2e-12


_wide_rationals = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def _wide_2x2_forms(draw):
    """2x2 matrices of wide rationals, each finite form as often as a free one."""
    a, b, c = draw(_wide_rationals), draw(_wide_rationals), draw(_wide_rationals)
    form = draw(st.sampled_from(["free", "doubly-stochastic", "rank-one", "ab=cd", "ac=bd"]))
    if form == "free":
        return M((a, b), (c, draw(_wide_rationals)))
    if form == "doubly-stochastic":
        p = F(a.numerator, a.numerator + a.denominator)
        return M((p, 1 - p), (1 - p, p))
    d = {"rank-one": b * c / a, "ab=cd": a * b / c, "ac=bd": a * c / b}[form]
    return M((a, b), (c, d))


class TestTerminationLength2x2:
    def test_known_lengths(self):
        assert termination_length_2x2(M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5)))) == 0
        assert termination_length_2x2(M((1, 12), (3, 4))) == 1
        assert termination_length_2x2(M((2, 6), (5, 15)), StartSide.ROW_FIRST) == 2
        assert termination_length_2x2(M(*A_SLOW), max_steps=64) is None

    def test_zero_budget_decides_only_step_zero(self):
        assert termination_length_2x2(M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))), max_steps=0) == 0
        assert termination_length_2x2(M((1, 12), (3, 4)), max_steps=0) is None

    @given(exact_matrices_2x2(), st.sampled_from(list(StartSide)))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_general_engine(self, A, side):
        length = termination_length_2x2(A, side, max_steps=8)
        res = sinkhorn(A, IterationConfig(start_side=side, max_steps=8))
        if length is None:
            assert res.status is Status.MAX_STEPS_REACHED
        else:
            assert res.status is Status.TERMINATED_FINITE
            assert res.steps_taken == length

    def test_requires_exact_2x2(self):
        with pytest.raises(DimensionError):
            termination_length_2x2(M((1, 2, 3), (4, 5, 6), (7, 8, 9)))

    @pytest.mark.parametrize("side", ["row", "column", None])
    def test_a_start_side_that_is_not_a_start_side_is_rejected(self, side):
        # "row" answered 2, the column-first length; row-first is 1
        assert termination_length_2x2(M((2, 2), (1, 1)), StartSide.ROW_FIRST) == 1
        with pytest.raises(ValueError, match=rf"^start_side must be a StartSide, got {side!r}$"):
            termination_length_2x2(M((2, 2), (1, 1)), side)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_matches_the_reduced_pair_loop_on_small_rationals(self, side):
        values = sorted({F(p, q) for p in range(1, 4) for q in range(1, 4)})
        for entries in itertools.product(values, repeat=4):
            A = M(entries[:2], entries[2:])
            assert termination_length_2x2(A, side, max_steps=64) == _reference_length(A, side, 64)

    @given(
        st.lists(st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)), min_size=4, max_size=4),
        st.sampled_from(list(StartSide)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reduced_pair_loop_on_wide_rationals(self, entries, side):
        A = M(entries[:2], entries[2:])
        assert termination_length_2x2(A, side, max_steps=64) == _reference_length(A, side, 64)

    @given(_wide_rationals, _wide_rationals)
    @settings(max_examples=200, deadline=None)
    def test_odds_step_identity(self, x, kappa):
        # one half-step maps the odds x to M(x); x**2 == kappa is the
        # doubly stochastic test, so for kappa != 1 a step reaches it only
        # from an iterate that had already reached it
        step = (x + kappa) / (x + 1)
        assert step * step - kappa == (1 - kappa) * (x * x - kappa) / (x + 1) ** 2

    @given(_wide_2x2_forms(), st.sampled_from(list(StartSide)))
    @settings(max_examples=100, deadline=None)
    def test_every_budget_gives_the_closed_rule(self, A, side):
        (a, b), (c, d) = A.entries
        kappa = a * d / (b * c)
        x = a / c if side is StartSide.COLUMN_FIRST else a / b  # odds after step 1
        for budget in range(1, 65):
            if a == d and b == c and a + b == 1:
                rule = 0
            elif x * x == kappa:
                rule = 1
            elif kappa == 1 and budget >= 2:
                rule = 2
            else:
                rule = None
            assert termination_length_2x2(A, side, budget) == rule

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("rows", [((1, 2), (2, 1)), ((2, 6), (5, 15)), ((1, 2), (3, 4))])
    def test_a_budget_past_the_default_answers_as_the_default(self, monkeypatch, rows, side):
        # no run first terminates after step 2, so a budget of 10**9 runs
        # the loop no further than the default budget does
        def loop(*key):
            assert key[-1] == DEFAULT_MAX_STEPS_EXACT - 1  # before a loop of 10**9 steps
            return _steps_until_doubly_stochastic(*key)

        A = M(*rows)
        expected = termination_length_2x2(A, side)
        monkeypatch.setattr(engine, "_steps_until_doubly_stochastic", loop)
        assert termination_length_2x2(A, side, max_steps=10**9) == expected

    def test_column_scaled_copy_is_a_cache_hit(self):
        A = M((F(7, 11), F(13, 5)), (F(3, 17), F(19, 2)))
        scaled = M((F(7, 11) * 23, F(13, 5) / 29), (F(3, 17) * 23, F(19, 2) / 29))
        length = termination_length_2x2(A, max_steps=64)
        hits = _steps_until_doubly_stochastic.cache_info().hits
        assert termination_length_2x2(scaled, max_steps=64) == length
        assert _steps_until_doubly_stochastic.cache_info().hits == hits + 1


def _permute(A, row_order, col_order):
    """P @ A @ Q: row i of the result is row row_order[i] of A, and so for columns."""
    return PositiveMatrix([[A.entries[i][j] for j in col_order] for i in row_order])


class TestPermutationEquivariance:
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(
                exact_matrices(min_dim=n, max_dim=n, square=True),
                st.permutations(range(n)),
                st.permutations(range(n)),
            )
        ),
        st.sampled_from(list(StartSide)),
    )
    @settings(max_examples=60, deadline=None)
    def test_permuted_run_is_the_permuted_run(self, case, side):
        A, rows, cols = case
        cfg = IterationConfig(start_side=side, max_steps=6)
        base = sinkhorn(A, cfg)
        permuted = sinkhorn(_permute(A, rows, cols), cfg)
        assert permuted.status is base.status
        assert permuted.steps_taken == base.steps_taken
        assert [r.max_entry_bits for r in permuted.trace] == [r.max_entry_bits for r in base.trace]
        assert permuted.limit == _permute(base.limit, rows, cols)


def _reference_search(n, bound, start_side=StartSide.COLUMN_FIRST, max_steps=64):
    """One run of the reference loop per candidate, in enumeration order,
    until it terminates, takes max_steps steps or passes 4,096-bit
    entries: the oracle for the search, which runs once per permutation
    orbit and stops every run at step 2."""
    hits = []
    for combo in itertools.product(range(1, bound + 1), repeat=n * n):
        A = PositiveMatrix([[F(v) for v in combo[i * n:(i + 1) * n]] for i in range(n)])
        if n == 2 and termination_length_2x2(A, start_side, max_steps) is None:
            continue
        _, terminated, steps, limit, *_ = exact_sinkhorn_reference(
            A, start_side, max_steps, bits_cap=4096
        )
        if terminated:
            hits.append((A, steps, PositiveMatrix(limit)))
    return hits


class TestSearch:
    @pytest.mark.parametrize(
        "n,bound,kwargs",
        [
            (2, 5, {}),
            (2, 5, {"start_side": StartSide.ROW_FIRST}),
            (2, 3, {}),
            (2, 1, {}),
            (2, 1, {"start_side": StartSide.ROW_FIRST}),
            (2, 2, {}),
            (2, 2, {"start_side": StartSide.ROW_FIRST}),
            # the search stops every run by step 2, the reference runs
            # each candidate to 64 steps or the bits cap; a cap equal to
            # the candidate count accepts the search
            (3, 2, {"candidate_cap": 2 ** 9}),
            (3, 2, {}),
            (3, 2, {"start_side": StartSide.ROW_FIRST}),
            (2, 6, {}),
            (2, 6, {"start_side": StartSide.ROW_FIRST}),
        ],
    )
    def test_orbit_search_matches_per_candidate_runs(self, n, bound, kwargs):
        hits = finite_termination_search(n, bound, **kwargs)
        side = kwargs.get("start_side", StartSide.COLUMN_FIRST)
        assert [(h.matrix, h.length, h.limit) for h in hits] == _reference_search(n, bound, side)

    def test_two_by_two_candidates_are_the_forms_the_rule_accepts(self):
        # the 2x2 walk's candidates, against the rule over every sorted-row form
        for bound in range(1, 21):
            forms = _two_by_two_forms(bound)
            assert len(set(forms)) == len(forms)
            row_values = itertools.product(range(1, bound + 1), repeat=2)
            accepted = [f for f in itertools.combinations_with_replacement(row_values, 2) if _two_step_length(f)]
            assert forms == accepted

    @pytest.mark.parametrize("side", list(StartSide))
    def test_one_step_hits_are_the_one_step_catalog(self, side):
        # a one-step reference run finds exactly the search's L = 1 hits
        hits = finite_termination_search(3, 2, start_side=side)
        one_step = [(h.matrix, h.length, h.limit) for h in hits if h.length == 1]
        assert one_step == _reference_search(3, 2, start_side=side, max_steps=1)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_three_by_three_bound_three_catalog(self, side):
        # the counts of a full 64-step search at the 4096-bit cap
        hits = finite_termination_search(3, 3, start_side=side)
        assert len(hits) == 270
        assert Counter(h.length for h in hits) == {1: 156, 2: 114}

    @pytest.mark.parametrize("side", list(StartSide))
    def test_two_by_two_bound_ten_catalog(self, side):
        # every form is decided by the closed rule; the classifier agrees
        hits = finite_termination_search(2, 10, start_side=side)
        assert len(hits) == 456
        assert Counter(h.length for h in hits) == {1: 278, 2: 178}
        keys = [h.matrix.entries for h in hits]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # enumeration order, no repeats
        assert all(h.length == classify_2x2(h.matrix, side).length for h in hits)
        # the classifier asks _two_step_length too, so also check the Fraction reference
        assert all(h.length == _LENGTHS[classify_2x2_reference(h.matrix, side)[0]] for h in hits)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_four_by_four_bound_two_catalog(self, side):
        # the counts of a per-candidate, full 64-step search at the 4096-bit cap
        hits = finite_termination_search(4, 2, start_side=side)
        assert len(hits) == 456
        assert Counter(h.length for h in hits) == {1: 298, 2: 158}
        keys = [h.matrix.entries for h in hits]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # enumeration order, no repeats
        cfg = IterationConfig(start_side=side)
        for h in hits:
            res = sinkhorn(h.matrix, cfg)
            assert (res.status, res.steps_taken, res.limit) == (Status.TERMINATED_FINITE, h.length, h.limit)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_four_by_four_bound_two_misses_no_terminating_candidate(self, side):
        hits = {h.matrix for h in finite_termination_search(4, 2, start_side=side)}
        rng = random.Random(4242)
        cfg = IterationConfig(start_side=side, max_steps=2)
        sampled_hits = 0
        for _ in range(1500):
            A = PositiveMatrix([[rng.randint(1, 2) for _ in range(4)] for _ in range(4)])
            terminated = sinkhorn(A, cfg).status is Status.TERMINATED_FINITE
            assert (A in hits) == terminated, A
            sampled_hits += terminated
        assert sampled_hits > 0  # the sample checks both directions

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("n,bound", [(2, 10), (3, 3)])
    def test_shared_limits_are_each_hits_own(self, n, bound, side):
        # each distinct limit is built once and shared: every hit's limit is
        # its own two-step run's, and equal limits are the one shared matrix
        hits = finite_termination_search(n, bound, start_side=side)
        cfg = IterationConfig(start_side=side, max_steps=2)
        for h in hits:
            res = sinkhorn(h.matrix, cfg)
            assert (res.status, res.steps_taken, res.limit) == (Status.TERMINATED_FINITE, h.length, h.limit)
        by_value = {}
        for h in hits:
            assert by_value.setdefault(h.limit, h.limit) is h.limit
        assert len(by_value) < len(hits)

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("n,bound", [(2, b) for b in range(1, 13)] + [(3, 2), (3, 3), (4, 2)])
    def test_every_hit_is_a_valid_exact_matrix(self, n, bound, side):
        # hit matrices skip PositiveMatrix's checks: each must pass them
        for h in finite_termination_search(n, bound, start_side=side):
            for A in (h.matrix, h.limit):
                assert A == PositiveMatrix(A.entries) and A.exact is True
                assert type(A.entries) is tuple and all(type(row) is tuple for row in A.entries)
                assert all(type(x) is F and x > 0 for row in A.entries for x in row)

    def test_only_the_search_builds_unchecked_matrices(self):
        # PositiveMatrix._unchecked skips every check of __init__: in the
        # package only the search calls it, for the hit matrices it built from
        # its own Fractions and for the limits, whose integer pairs it checks
        users = set()
        for path in sorted(Path(engine.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if "_unchecked" in (getattr(node, "attr", None), getattr(node, "id", None)):
                        users.add((path.name, getattr(top, "name", None)))
        assert users == {("engine.py", "finite_termination_search")}

    def test_small_catalog_contents(self):
        hits = finite_termination_search(2, 4, start_side=StartSide.ROW_FIRST)
        by_matrix = {h.matrix: h for h in hits}
        rank_one = M((1, 2), (2, 4))
        assert rank_one in by_matrix and by_matrix[rank_one].length == 2
        equal_columns = M((2, 2), (1, 1))
        assert equal_columns in by_matrix and by_matrix[equal_columns].length == 1
        assert M(*A_SLOW) not in by_matrix
        assert all(h.length <= 2 for h in hits)
        assert all(is_doubly_stochastic(h.limit, tol=0) for h in hits)

    def test_bound_one_is_the_flat_matrix(self):
        hits = finite_termination_search(2, 1)
        assert len(hits) == 1
        assert hits[0].matrix == M((1, 1), (1, 1))
        assert hits[0].length == 1

    def test_three_by_three_all_ones(self):
        # n = 8 expands its one hit over 8! column orders and 8! row orders
        for n in (3, 8):
            hits = finite_termination_search(n, 1)
            assert len(hits) == 1
            assert hits[0].length == 1
            assert hits[0].limit == PositiveMatrix([[F(1, n)] * n] * n)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_three_by_three_bound_two_within_two_steps(self, side):
        # proportional rows take two steps from a column step, and one from
        # a row step; the transposed matrix the other way round
        proportional_rows = M((2, 2, 2), (1, 1, 1), (2, 2, 2))
        two_steps = {StartSide.COLUMN_FIRST: proportional_rows, StartSide.ROW_FIRST: transpose(proportional_rows)}
        hits = finite_termination_search(3, 2, start_side=side)
        assert len(hits) == 26
        assert all(h.length <= 2 for h in hits)
        assert all(is_doubly_stochastic(h.limit, tol=0) for h in hits)
        assert any(h.matrix == two_steps[side] and h.length == 2 for h in hits)

    def test_three_by_three_bound_two_catalog(self):
        # a row step on A is a column step on its transpose: the row-first
        # catalog is the column-first one transposed. The search builds the
        # row-first catalog that way, so this compares the code with itself;
        # the independent row-first checks are the per-candidate
        # _reference_search cases and the per-hit row-first sinkhorn runs above
        by_column = finite_termination_search(3, 2, start_side=StartSide.COLUMN_FIRST)
        by_row = finite_termination_search(3, 2, start_side=StartSide.ROW_FIRST)
        assert {(transpose(h.matrix), h.length, transpose(h.limit)) for h in by_column} == {
            (h.matrix, h.length, h.limit) for h in by_row
        }

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_one_step_hit_named_two_raises(self, monkeypatch, n, side):
        # each hit's exact run must terminate at the step the integer test named
        monkeypatch.setattr(engine, "_two_step_length", lambda rows: {1: 2}.get(_two_step_length(rows)))
        with pytest.raises(AssertionError) as info:
            finite_termination_search(n, 2, start_side=side)
        assert str(info.value) == f"the exact run of {((1,) * n,) * n} does not terminate at step 2"

    @pytest.mark.parametrize("side", list(StartSide))
    def test_a_two_step_hit_named_one_raises(self, monkeypatch, side):
        # both sides decide and confirm the same column-first forms
        def one_for_two(rows):
            steps = _two_step_length(rows)
            return 1 if steps == 2 else steps

        monkeypatch.setattr(engine, "_two_step_length", one_for_two)
        with pytest.raises(AssertionError) as info:
            finite_termination_search(2, 2, start_side=side)
        assert str(info.value) == "the exact run of ((1, 1), (2, 2)) does not terminate at step 1"

    def test_a_miss_named_a_hit_raises(self, monkeypatch):
        # a 2x2 miss is never a candidate; the n >= 3 walk hands misses to the test
        monkeypatch.setattr(engine, "_two_step_length", lambda rows: _two_step_length(rows) or 2)
        with pytest.raises(AssertionError) as info:
            finite_termination_search(3, 2)
        assert str(info.value) == "the exact run of ((1, 1, 1), (1, 1, 1), (1, 1, 2)) does not terminate at step 2"

    @pytest.mark.parametrize("side", list(StartSide))
    def test_a_shared_run_still_checks_every_orbit(self, monkeypatch, side):
        # ((2, 2), (2, 2)) shares its column-step class, and so its run, with
        # the earlier ((1, 1), (1, 1)) and ((1, 2), (1, 2)): its own named
        # length is still compared with that run's terminating step
        def two_for_twos(rows):
            return 2 if rows == ((2, 2), (2, 2)) else _two_step_length(rows)

        monkeypatch.setattr(engine, "_two_step_length", two_for_twos)
        with pytest.raises(AssertionError) as info:
            finite_termination_search(2, 2, start_side=side)
        assert str(info.value) == "the exact run of ((2, 2), (2, 2)) does not terminate at step 2"

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("bound,runs", [(10, 63), (40, 979)])
    def test_one_exact_run_per_column_step_class(self, monkeypatch, bound, runs, side):
        # 189 and 4,152 hit orbits reach 63 and 979 distinct step-1 iterates
        calls = []
        odds_steps = engine._odds_steps

        def counted(*args):
            calls.append(args)
            return odds_steps(*args)

        monkeypatch.setattr(engine, "_odds_steps", counted)
        finite_termination_search(2, bound, start_side=side)
        assert len(calls) == runs

    def test_a_regular_two_step_limit_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_determinant", lambda rows: F(1))
        assert finite_termination_search(2, 1)  # a one-step hit takes no determinant
        with pytest.raises(AssertionError) as info:
            finite_termination_search(2, 2)
        assert str(info.value) == "the exact run of ((1, 1), (2, 2)) ends on a regular limit"

    def test_the_checks_hold_under_python_O(self):
        # every form named 2, then only ((2, 2), (2, 2)), whose class ran before
        probes = [("2", "((1, 1), (1, 1))"), ("2 if rows == ((2, 2), (2, 2)) else length(rows)", "((2, 2), (2, 2))")]
        for named, form in probes:
            probe = (
                "import sinkhornlab.engine as e\n"
                "length = e._two_step_length\n"
                f"e._two_step_length = lambda rows: {named}\n"
                "e.finite_termination_search(2, 2)\n"
            )
            run = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True)
            assert run.returncode == 1
            assert run.stderr.splitlines()[-1] == f"AssertionError: the exact run of {form} does not terminate at step 2"

    @pytest.mark.parametrize("pair", [(0, 1), (-1, 2), (1, -2)])
    def test_a_non_positive_limit_entry_raises(self, monkeypatch, pair):
        # the limits skip PositiveMatrix's checks: the search checks their pairs
        odds_steps = engine._odds_steps

        def first_entry_replaced(lines, side, sums):
            for lines, *rest in odds_steps(lines, side, sums):
                yield ((pair, *lines[0][1:]), *lines[1:]), *rest

        monkeypatch.setattr(engine, "_odds_steps", first_entry_replaced)
        with pytest.raises(NonPositiveEntryError) as info:
            finite_termination_search(2, 1)
        assert str(info.value) == f"a search limit holds the non-positive pair {pair}"

    def test_the_limit_check_holds_under_python_O(self):
        probe = (
            "import sinkhornlab.engine as e\n"
            "steps = e._odds_steps\n"
            "e._odds_steps = lambda *args: (((((0, 1), *l[0][1:]), *l[1:]), *rest) for l, *rest in steps(*args))\n"
            "e.finite_termination_search(2, 1)\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == (
            "sinkhornlab.matrices.NonPositiveEntryError: a search limit holds the non-positive pair (0, 1)"
        )

    @pytest.mark.parametrize("side", ["row", "column", None, 0])
    def test_a_start_side_that_is_not_a_start_side_is_rejected(self, side):
        # "row" returned the column-first catalog
        with pytest.raises(ValueError, match=rf"^start_side must be a StartSide, got {side!r}$"):
            finite_termination_search(2, 3, start_side=side)

    @pytest.mark.parametrize("cap", [1e7, None, True, "10"])
    def test_a_candidate_cap_that_is_not_an_int_is_rejected(self, cap):
        # 1e7 and None raised AttributeError, and True was a cap of 1
        with pytest.raises(ValueError, match=rf"^candidate_cap must be an int, got {cap!r}$"):
            finite_termination_search(2, 1, candidate_cap=cap)

    def test_candidate_cap(self):
        with pytest.raises(ValueError):
            finite_termination_search(3, 10, candidate_cap=1000)

    @pytest.mark.parametrize(
        "n,bound,bad",
        [(2, True, "bound"), (2, 2.5, "bound"), (2.0, 3, "n"), (2, 3.0, "bound"), ("2", 3, "n"), (True, 2, "n")],
    )
    def test_a_size_or_bound_that_is_not_an_int_is_rejected(self, n, bound, bad):
        # (2, True) searched bound 1, (True, 2) asked for n >= 2, and the
        # others raised a bare TypeError
        value = {"n": n, "bound": bound}[bad]
        with pytest.raises(ValueError, match=rf"^{bad} must be an int, got {value!r}$"):
            finite_termination_search(n, bound)

    def test_rejects_size_below_two_and_bound_below_one(self):
        with pytest.raises(ValueError, match=r"^search needs n >= 2, got 1$"):
            finite_termination_search(1, 2)
        with pytest.raises(ValueError, match=r"^search needs bound >= 1, got 0$"):
            finite_termination_search(2, 0)

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_candidate_cap_never_builds_the_count(self, n):
        # 3 ** (10_000 ** 2) takes minutes to build; the guard answers at once
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^enumeration of 3\^{n * n} candidates exceeds the cap"):
            finite_termination_search(n, 3)
        assert time.perf_counter() - start < 1.0

    def test_candidate_cap_boundary(self):
        # 2^16 candidates: the shortcut refuses a 16-bit cap, and the power
        # decides a 17-bit one
        with pytest.raises(ValueError, match=r"2\^16 candidates"):
            finite_termination_search(4, 2, candidate_cap=2 ** 16 - 1)
        assert len(finite_termination_search(4, 2, candidate_cap=2 ** 16)) == 456

    def test_permutation_orders_are_capped(self):
        # one candidate, but a walk over 11! = 39,916,800 orders
        with pytest.raises(ValueError, match=r"^the 11! permutation orders exceed the cap of 10000000$"):
            finite_termination_search(11, 1)
        with pytest.raises(ValueError, match=r"the 4! permutation orders"):
            finite_termination_search(4, 1, candidate_cap=23)
        assert len(finite_termination_search(4, 1, candidate_cap=24)) == 1


class TestTwoStepBound:
    """An exact run that terminates does so by step 2, at any n and with
    any (r, c) targets (the proof is in sinkhorn's docstring)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_backward_construction_terminates_at_step_two(self, n, data):
        A, S = data.draw(two_step_matrices(n))
        res = sinkhorn(A)
        assert (res.status, res.steps_taken, res.limit) == (Status.TERMINATED_FINITE, 2, S)
        # the transposed run, started on rows, is the same run transposed
        res = sinkhorn(transpose(A), IterationConfig(start_side=StartSide.ROW_FIRST))
        assert (res.status, res.steps_taken, res.limit) == (
            Status.TERMINATED_FINITE, 2, transpose(S),
        )

    @pytest.mark.parametrize(
        "rows,det",
        [
            (((1, 2), (3, 4)), -2),
            (((0, 1, 2), (1, 0, 3), (4, -3, 8)), -2),  # needs a row swap
            # rational rows, scaled to ints as the search scales its limits
            ([_integer_row(_pairs(row)) for row in ((F(1, 2), F(1, 3)), (F(3, 4), F(1, 2)))], 0),
            (((2, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 0), (0, 0, 0, 5)), -30),
            (((2, 1, 1), (1, 2, 1), (3, 3, 2)), 0),
            (((1, 1, 1), (2, 2, 2), (3, 1, 4)), 0),
        ],
    )
    def test_determinant(self, rows, det):
        # int rows in, an int out: no Fraction, and every division exact
        assert all(type(x) is int for row in rows for x in row)
        result = _determinant(rows)
        assert type(result) is int and result == det

    @settings(max_examples=300, deadline=None)
    @given(rows=square_matrices_often_singular(st.integers(-3, 3)))
    def test_determinant_matches_fraction_elimination(self, rows):
        assert _determinant(rows) == determinant_reference(rows)

    @settings(max_examples=150, deadline=None)
    @given(rows=square_matrices_often_singular(st.fractions(-3, 3, max_denominator=4)))
    def test_scaled_rows_keep_the_determinant_up_to_a_positive_factor(self, rows):
        # scaling row i by m_i > 0 multiplies the determinant by their product,
        # so a zero determinant stays zero and a sign is kept
        pairs = [_pairs(row) for row in rows]
        scale = prod(lcm(*(b for _, b in row)) for row in pairs)
        assert _determinant(map(_integer_row, pairs)) == determinant_reference(rows) * scale

    @pytest.mark.parametrize("n", [3, 4])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), side=st.sampled_from(list(StartSide)))
    def test_no_run_first_terminates_after_step_two(self, n, data, side):
        A = data.draw(integer_matrices_with_dependent_rows(n))
        # no step budget stands in for the bits cap: 4x4 entries reach
        # about 100,000 bits by step 10
        _, terminated, steps, *_ = exact_sinkhorn_reference(A, side, 64, bits_cap=4096)
        assert not terminated or steps <= 2

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(2, 3).flatmap(
            lambda m: st.integers(2, 3).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(1, 3), min_size=n, max_size=n), min_size=m, max_size=m
                )
            )
        ),
        data=st.data(),
        side=st.sampled_from(list(StartSide)),
    )
    def test_no_run_with_targets_first_terminates_after_step_two(self, rows, data, side):
        # the proof's last identity: sum(c_j k_j**2 / (1 + k_j)) = 0
        m, n = len(rows), len(rows[0])
        r = data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        c = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        target = MarginTarget([x * sum(c) for x in r], [x * sum(r) for x in c])
        cfg = IterationConfig(start_side=side, max_steps=5, margin_target=target)
        res = sinkhorn(PositiveMatrix([[F(x) for x in row] for row in rows]), cfg)
        assert res.status is not Status.TERMINATED_FINITE or res.steps_taken <= 2


def _engine_length(A, side):
    """The step at which a two-step exact run of A terminates, or None."""
    res = sinkhorn(A, IterationConfig(start_side=side, max_steps=2))
    return res.steps_taken if res.status is Status.TERMINATED_FINITE else None


def _verdicts_checked_against_the_engine(rows):
    """The integer verdicts on rows from both sides, each checked against
    a two-step exact run: the row-first verdict is the rule's on the
    transpose."""
    A = PositiveMatrix([[F(x) for x in row] for row in rows])
    verdicts = {
        StartSide.COLUMN_FIRST: _two_step_length(rows),
        StartSide.ROW_FIRST: _two_step_length(list(zip(*rows))),
    }
    for side in StartSide:
        assert verdicts[side] == _engine_length(A, side), (rows, side)
    return verdicts


class TestTwoStepLength:
    """The search's integer verdict against the exact engine."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_backward_construction_takes_two_steps(self, n, data):
        A, _ = data.draw(two_step_matrices(n))
        # a positive multiple of A takes the same steps: each step ignores
        # a common scale, and neither is doubly stochastic at step 0
        scale = lcm(*(x.denominator for row in A.entries for x in row))
        rows = [[int(x * scale) for x in row] for row in A.entries]
        assert _verdicts_checked_against_the_engine(rows)[StartSide.COLUMN_FIRST] == 2
        transposed = PositiveMatrix([[F(x) for x in col] for col in zip(*rows)])
        assert _engine_length(transposed, StartSide.ROW_FIRST) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_seeded_integer_matrices(self, n):
        rng = random.Random(1600 + n)
        lengths = Counter()
        for k in range(60):
            if k % 3:
                rows = [[rng.randint(1, 3) for _ in range(n)] for _ in range(n)]
            else:  # rank one, the shape that terminates: equal rows when k is odd
                u = [1] * n if k % 2 else [rng.randint(1, 3) for _ in range(n)]
                v = [rng.randint(1, 3) for _ in range(n)]
                rows = [[x * y for y in v] for x in u]
            lengths.update(_verdicts_checked_against_the_engine(rows).values())
        # hits of both lengths, and runs that never terminate; L = 0 cannot
        # occur, since a positive integer row sums to at least n
        assert all(lengths[L] > 0 for L in (None, 1, 2)), lengths

    def test_every_two_by_two_with_entries_up_to_eight(self):
        # the closed rule against a two-step engine run, 8,192 runs; both
        # identities hold at once from a column step on equal rows, and
        # from a row step on equal columns: the step-1 identity wins
        lengths = Counter()
        for a, b, c, d in itertools.product(range(1, 9), repeat=4):
            verdicts = _verdicts_checked_against_the_engine([[a, b], [c, d]])
            lengths.update(verdicts.values())
            if (a, b) == (c, d):
                assert verdicts[StartSide.COLUMN_FIRST] == 1
            if (a, c) == (b, d):
                assert verdicts[StartSide.ROW_FIRST] == 1
        assert lengths == {None: 7680, 1: 320, 2: 192}


class TestTraceCsv:
    def test_exact_csv_layout(self):
        res = sinkhorn(M(*A_SLOW), IterationConfig(max_steps=3))
        text = trace_csv(res.trace)
        lines = text.strip().split("\n")
        assert lines[0] == "step,side,max_row_err,max_col_err,max_entry_bits"
        assert len(lines) == 5
        assert lines[1].startswith("0,-,")
        assert lines[2].split(",")[1] == "col"
        assert lines[2].split(",")[3] == "0"

    def test_approx_csv_layout(self):
        res = sinkhorn(M((1.0, 3.0), (3.0, 4.0)))
        text = trace_csv(res.trace)
        lines = text.strip().split("\n")
        assert lines[0] == "step,side,max_row_err,max_col_err"
        err = lines[1].split(",")[2]
        assert "e" in err
        mantissa = err.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 17


def test_entry_growth_script(capsys, monkeypatch):
    """scripts/entry_growth.py prints one row per step; for 1,3;3,4 the
    error ratio settles at |alpha - beta| = 1/5, alpha = 2/5."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "entry_growth.py"
    spec = importlib.util.spec_from_file_location("entry_growth", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--steps", "24", "1,3;3,4"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# matrix 1,3;3,4  (status: max-steps-reached)"
    assert len(lines) == 2 + 25 + 1 and lines[-1] == ""
    step, bits, err, ratio = lines[-2].split()
    assert (step, ratio) == ("24", "0.200000")
