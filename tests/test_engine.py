import importlib.util
import itertools
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sinkhornlab import (
    DEFAULT_MAX_STEPS_EXACT,
    DiagonalScaling,
    DimensionError,
    IterationConfig,
    MarginTarget,
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
from sinkhornlab.cli import trace_csv
from sinkhornlab.engine import _determinant, _steps_until_doubly_stochastic, _two_step_length

from .reference import _reference_length, exact_sinkhorn_reference, scaling_invariance_check
from .strategies import (
    approx_matrices,
    exact_matrices,
    exact_matrices_2x2,
    integer_matrices_with_dependent_rows,
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
    both diagonals. The same run with snapshots captured must capture
    left @ A @ right of each step."""
    cfg = IterationConfig(start_side=side, max_steps=budget, margin_target=target)
    res = sinkhorn(A, cfg)
    _assert_matches(res, exact_sinkhorn_reference(A, side, budget, target))

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
    the engine forms them once from the step factors and the reference
    multiplies them step by step."""

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
        # catalog is the column-first one transposed
        by_column = finite_termination_search(3, 2, start_side=StartSide.COLUMN_FIRST)
        by_row = finite_termination_search(3, 2, start_side=StartSide.ROW_FIRST)
        assert {(transpose(h.matrix), h.length, transpose(h.limit)) for h in by_column} == {
            (h.matrix, h.length, h.limit) for h in by_row
        }

    @pytest.mark.parametrize("side", list(StartSide))
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_one_step_hit_named_two_raises(self, monkeypatch, n, side):
        # each hit's exact run must terminate at the step the integer test named
        monkeypatch.setattr(engine, "_two_step_length", lambda rows, s: {1: 2}.get(_two_step_length(rows, s)))
        with pytest.raises(AssertionError) as info:
            finite_termination_search(n, 2, start_side=side)
        assert str(info.value) == f"the exact run of {((1,) * n,) * n} does not terminate at step 2"

    def test_a_two_step_hit_named_one_raises(self, monkeypatch):
        def one_for_two(rows, side):
            steps = _two_step_length(rows, side)
            return 1 if steps == 2 else steps

        monkeypatch.setattr(engine, "_two_step_length", one_for_two)
        with pytest.raises(AssertionError) as info:
            finite_termination_search(2, 2)
        assert str(info.value) == "the exact run of ((1, 1), (2, 2)) does not terminate at step 1"

    def test_a_miss_named_a_hit_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_two_step_length", lambda rows, side: _two_step_length(rows, side) or 2)
        with pytest.raises(AssertionError) as info:
            finite_termination_search(2, 2)
        assert str(info.value) == "the exact run of ((1, 1), (1, 2)) does not terminate at step 2"

    def test_a_regular_two_step_limit_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_determinant", lambda rows: F(1))
        assert finite_termination_search(2, 1)  # a one-step hit takes no determinant
        with pytest.raises(AssertionError) as info:
            finite_termination_search(2, 2)
        assert str(info.value) == "the exact run of ((1, 1), (2, 2)) ends on a regular limit"

    def test_the_checks_hold_under_python_O(self):
        probe = (
            "import sinkhornlab.engine as e\n"
            "e._two_step_length = lambda rows, side: 2\n"
            "e.finite_termination_search(2, 2)\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == (
            "AssertionError: the exact run of ((1, 1), (1, 1)) does not terminate at step 2"
        )

    def test_candidate_cap(self):
        with pytest.raises(ValueError):
            finite_termination_search(3, 10, candidate_cap=1000)

    def test_rejects_size_below_two_and_bound_below_one(self):
        with pytest.raises(ValueError, match=r"^search needs n >= 2, got 1$"):
            finite_termination_search(1, 2)
        with pytest.raises(ValueError, match=r"^search needs bound >= 1, got 0$"):
            finite_termination_search(2, 0)

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_candidate_cap_never_builds_the_count(self, n):
        with pytest.raises(ValueError, match=rf"^enumeration of 3\^{n * n} candidates exceeds the cap"):
            finite_termination_search(n, 3)

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
            (((F(1, 2), F(1, 3)), (F(3, 4), F(1, 2))), 0),
            (((2, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 0), (0, 0, 0, 5)), -30),
            (((2, 1, 1), (1, 2, 1), (3, 3, 2)), 0),
            (((1, 1, 1), (2, 2, 2), (3, 1, 4)), 0),
        ],
    )
    def test_determinant(self, rows, det):
        assert _determinant([[F(x) for x in row] for row in rows]) == det

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
    a two-step exact run."""
    A = PositiveMatrix([[F(x) for x in row] for row in rows])
    verdicts = {}
    for side in StartSide:
        verdicts[side] = _two_step_length(rows, side)
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
        assert _two_step_length(list(zip(*rows)), StartSide.ROW_FIRST) == 2

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
