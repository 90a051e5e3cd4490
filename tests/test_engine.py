import importlib.util
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
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
    transpose,
)
from sinkhornlab.cli import trace_csv
from sinkhornlab.engine import _determinant, _steps_until_doubly_stochastic

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


def _matches_two_sided_reference(A, side, budget, target=None):
    """Run sinkhorn and assert it agrees with the two-sided reference loop
    on every trace record, the status, the step count, the limit and
    both diagonals."""
    res = sinkhorn(A, IterationConfig(start_side=side, max_steps=budget, margin_target=target))
    records, terminated, steps, limit, left, right = exact_sinkhorn_reference(A, side, budget, target)
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
    return res


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


def _row_normalized(A):
    return PositiveMatrix([[x / sum(row) for x in row] for row in A.entries])


class TestSearch:
    @pytest.mark.parametrize(
        "n,bound,kwargs",
        [
            (2, 5, {}),
            (2, 5, {"start_side": StartSide.ROW_FIRST}),
            (2, 3, {"normalize_rows": True}),
            # the search stops every run by step 2, the reference runs
            # each candidate to 64 steps or the bits cap
            (3, 2, {"normalize_rows": True}),
            (3, 2, {}),
            (3, 2, {"start_side": StartSide.ROW_FIRST, "normalize_rows": True}),
            (2, 6, {"normalize_rows": True}),
            (2, 6, {"start_side": StartSide.ROW_FIRST}),
        ],
    )
    def test_orbit_search_matches_per_candidate_runs(self, n, bound, kwargs):
        hits = finite_termination_search(n, bound, **kwargs)
        assert [(h.matrix, h.length, h.limit) for h in hits] == _reference_search(n, bound, **kwargs)

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

    def test_normalized_rows_variant(self):
        hits = finite_termination_search(2, 3, normalize_rows=True)
        assert all(row_sums(h.matrix) == (1, 1) for h in hits)
        assert all(h.length <= 2 for h in hits)

    @pytest.mark.parametrize("n,bound", [(2, 6), (3, 2), (3, 3)])
    def test_normalized_rows_are_the_row_first_search_one_step_in(self, n, bound):
        # dividing rows by their sums is the row-first run's first step
        row_first = finite_termination_search(n, bound, start_side=StartSide.ROW_FIRST)
        normalized = [_row_normalized(h.matrix) for h in row_first]
        by_column = finite_termination_search(n, bound, normalize_rows=True)
        assert [(h.matrix, h.length, h.limit) for h in by_column] == [
            (A, h.length - 1, h.limit) for A, h in zip(normalized, row_first)
        ]
        # a row step on a row stochastic matrix changes nothing
        by_row = finite_termination_search(n, bound, start_side=StartSide.ROW_FIRST, normalize_rows=True)
        assert [(h.matrix, h.length, h.limit) for h in by_row] == [
            (A, {1: 0, 2: 2}[h.length], h.limit) for A, h in zip(normalized, row_first)
        ]

    def test_three_by_three_all_ones(self):
        hits = finite_termination_search(3, 1)
        assert len(hits) == 1
        assert hits[0].length == 1
        assert hits[0].limit == PositiveMatrix([[F(1, 3)] * 3] * 3)

    @pytest.mark.parametrize("side", list(StartSide))
    def test_three_by_three_bound_two_at_the_default_bits_cap(self, side):
        # the search has no bits cap: every run stops by step 2, so this is
        # the default call. Proportional rows take two steps from a column
        # step, and one from a row step; the transposed matrix the other way round
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

    def test_candidate_cap(self):
        with pytest.raises(ValueError):
            finite_termination_search(3, 10, candidate_cap=1000)

    def test_bits_cap_guards_nonterminating_exact_runs(self):
        A = M((1, 2, 3), (2, 1, 1), (1, 5, 2))
        res = sinkhorn(A, IterationConfig(max_steps=64), entry_bits_cap=2000)
        assert res.status is Status.MAX_STEPS_REACHED
        assert res.steps_taken < 64


class TestTwoStepBound:
    """A unit-margin exact run that terminates does so by step 2, at any
    n (the proof is in finite_termination_search's docstring)."""

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
        res = sinkhorn(A, IterationConfig(start_side=side, max_steps=64), entry_bits_cap=4096)
        assert res.status is not Status.TERMINATED_FINITE or res.steps_taken <= 2


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
