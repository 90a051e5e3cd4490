import importlib.util
import itertools
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sinkhornlab import (
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
    col_sums,
    finite_termination_search,
    is_doubly_stochastic,
    row_sums,
    sinkhorn,
    termination_length_2x2,
    trace_csv,
)
from sinkhornlab.engine import _steps_until_doubly_stochastic

from .reference import scaling_invariance_check
from .strategies import approx_matrices, exact_matrices, exact_matrices_2x2

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

    @given(exact_matrices(min_dim=2, max_dim=4, square=True))
    @settings(max_examples=60, deadline=None)
    def test_alternation_normalizes_the_scaled_side_exactly(self, A):
        res = sinkhorn(A, IterationConfig(max_steps=6))
        for rec in res.trace:
            if rec.side == "col":
                assert rec.max_col_err == 0
            elif rec.side == "row":
                assert rec.max_row_err == 0

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
            (((1e-300, 1e-300), (1e300, 1e300)), "by step 1: row 1 sums to 0.0"),
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

    @given(exact_matrices(min_dim=2, max_dim=3))
    @settings(max_examples=50, deadline=None)
    def test_rc_margins_exact_after_each_scaling(self, A):
        r = tuple(F(i + 1) for i in range(A.rows))
        total = sum(r)
        c = (total - A.cols + 1,) + (F(1),) * (A.cols - 1)
        res = sinkhorn(A, IterationConfig(max_steps=4, margin_target=MarginTarget(r, c)))
        for rec in res.trace:
            if rec.side == "row":
                assert rec.max_row_err == 0
            elif rec.side == "col":
                assert rec.max_col_err == 0


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


class TestTerminationLength2x2:
    def test_known_lengths(self):
        assert termination_length_2x2(M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5)))) == 0
        assert termination_length_2x2(M((1, 12), (3, 4))) == 1
        assert termination_length_2x2(M((2, 6), (5, 15)), StartSide.ROW_FIRST) == 2
        assert termination_length_2x2(M(*A_SLOW), max_steps=64) is None

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

    def test_column_scaled_copy_is_a_cache_hit(self):
        A = M((F(7, 11), F(13, 5)), (F(3, 17), F(19, 2)))
        scaled = M((F(7, 11) * 23, F(13, 5) / 29), (F(3, 17) * 23, F(19, 2) / 29))
        length = termination_length_2x2(A, max_steps=64)
        hits = _steps_until_doubly_stochastic.cache_info().hits
        assert termination_length_2x2(scaled, max_steps=64) == length
        assert _steps_until_doubly_stochastic.cache_info().hits == hits + 1


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


def _reference_search(n, bound, start_side=StartSide.COLUMN_FIRST, max_steps=64, normalize_rows=False):
    """One exact run per candidate, in enumeration order: the oracle for
    the search, which runs once per permutation orbit."""
    cfg = IterationConfig(start_side=start_side, max_steps=max_steps)
    hits = []
    for combo in itertools.product(range(1, bound + 1), repeat=n * n):
        rows = [[F(v) for v in combo[i * n:(i + 1) * n]] for i in range(n)]
        if normalize_rows:
            rows = [[x / sum(row) for x in row] for row in rows]
        A = PositiveMatrix(rows)
        if n == 2 and termination_length_2x2(A, start_side, max_steps) is None:
            continue
        res = sinkhorn(A, cfg, entry_bits_cap=4096)
        if res.status is Status.TERMINATED_FINITE:
            hits.append((A, res.steps_taken, res.limit))
    return hits


class TestSearch:
    @pytest.mark.parametrize(
        "n,bound,kwargs",
        [
            (2, 5, {}),
            (2, 5, {"start_side": StartSide.ROW_FIRST}),
            (2, 3, {"normalize_rows": True}),
            (3, 2, {"max_steps": 4}),
        ],
    )
    def test_orbit_search_matches_per_candidate_runs(self, n, bound, kwargs):
        hits = finite_termination_search(n, bound, **kwargs)
        assert [(h.matrix, h.length, h.limit) for h in hits] == _reference_search(n, bound, **kwargs)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_three_by_three_bound_two_at_the_default_bits_cap(self, side):
        hits = finite_termination_search(3, 2, start_side=side)
        assert len(hits) == 26
        assert all(is_doubly_stochastic(h.limit, tol=0) for h in hits)

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

    def test_normalized_rows_variant(self):
        hits = finite_termination_search(2, 3, normalize_rows=True)
        assert all(row_sums(h.matrix) == (1, 1) for h in hits)
        assert all(h.length <= 2 for h in hits)

    def test_three_by_three_all_ones(self):
        hits = finite_termination_search(3, 1)
        assert len(hits) == 1
        assert hits[0].length == 1
        assert hits[0].limit == PositiveMatrix([[F(1, 3)] * 3] * 3)

    def test_three_by_three_bound_two_catalog(self):
        hits = finite_termination_search(3, 2, entry_bits_cap=512)
        assert len(hits) == 26
        assert all(h.length <= 2 for h in hits)
        assert all(is_doubly_stochastic(h.limit, tol=0) for h in hits)
        proportional_rows = M((2, 2, 2), (1, 1, 1), (2, 2, 2))
        assert any(h.matrix == proportional_rows and h.length == 2 for h in hits)

    def test_candidate_cap(self):
        with pytest.raises(ValueError):
            finite_termination_search(3, 10, candidate_cap=1000)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"max_steps": 0}, "max_steps >= 1, got 0"),
            ({"max_steps": -5}, "max_steps >= 1, got -5"),
            ({"entry_bits_cap": 0}, "entry_bits_cap >= 1, got 0"),
            ({"entry_bits_cap": -1}, "entry_bits_cap >= 1, got -1"),
        ],
    )
    def test_empty_budgets_are_rejected(self, kwargs, message):
        # an empty budget would drop every candidate: 0 hits where 21 are due
        with pytest.raises(ValueError, match=message):
            finite_termination_search(2, 3, **kwargs)

    def test_bits_cap_can_be_switched_off(self):
        assert len(finite_termination_search(2, 3, entry_bits_cap=None)) == 21

    def test_bits_cap_guards_nonterminating_exact_runs(self):
        A = M((1, 2, 3), (2, 1, 1), (1, 5, 2))
        res = sinkhorn(A, IterationConfig(max_steps=64), entry_bits_cap=2000)
        assert res.status is Status.MAX_STEPS_REACHED
        assert res.steps_taken < 64


class TestTraceCsv:
    def test_exact_csv_layout(self):
        res = sinkhorn(M(*A_SLOW), IterationConfig(max_steps=3))
        text = trace_csv(res.trace, exact=True)
        lines = text.strip().split("\n")
        assert lines[0] == "step,side,max_row_err,max_col_err,max_entry_bits"
        assert len(lines) == 5
        assert lines[1].startswith("0,-,")
        assert lines[2].split(",")[1] == "col"
        assert lines[2].split(",")[3] == "0"

    def test_approx_csv_layout(self):
        res = sinkhorn(M((1.0, 3.0), (3.0, 4.0)))
        text = trace_csv(res.trace, exact=False)
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
