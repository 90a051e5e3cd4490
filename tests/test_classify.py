import importlib.util
import itertools
import re
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
    PositiveMatrix,
    RegimeError,
    StartSide,
    Status,
    Termination,
    apply_left,
    apply_right,
    classify_2x2,
    classify_both_orders,
    sinkhorn,
    termination_length_2x2,
)
from sinkhornlab import classify

from .reference import classify_2x2_reference
from .strategies import exact_matrices_2x2, positive_fractions

F = Fraction


def M(*rows):
    return PositiveMatrix(rows)


FLAT = M((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

one_step_column_forms = st.tuples(
    positive_fractions, positive_fractions, positive_fractions
).map(lambda act: M((act[0], act[1] * act[2]), (act[1], act[0] * act[2])))

rank_one_forms = st.tuples(
    positive_fractions, positive_fractions, positive_fractions
).map(lambda pqt: M((pqt[0], pqt[1]), (pqt[0] * pqt[2], pqt[1] * pqt[2])))

wide_fractions = st.builds(F, st.integers(1, 2**64), st.integers(1, 2**64))


@st.composite
def wide_classifier_inputs(draw):
    """A 2x2 matrix with numerators and denominators up to 2**64: generic,
    or one of the parametrized forms the benchmark sweep draws."""
    form = draw(st.sampled_from(
        ("generic", "already", "one-step-column", "one-step-row", "rank-one-rows", "rank-one-cols")
    ))
    if form == "generic":
        a, b, c, d = (draw(wide_fractions) for _ in range(4))
    elif form == "already":
        p, q = draw(st.integers(1, 2**64)), draw(st.integers(1, 2**64))
        a = d = F(p, p + q)
        b = c = 1 - a
    else:
        x, y, t = (draw(wide_fractions) for _ in range(3))
        a, b, c, d = {
            "one-step-column": (x, y * t, y, x * t),
            "one-step-row": (x, y, y * t, x * t),
            "rank-one-rows": (x, y, x * t, y * t),
            "rank-one-cols": (x, x * t, y, y * t),
        }[form]
    return M((a, b), (c, d))


class TestVerdicts:
    def test_one_step_column_example(self):
        v = classify_2x2(M((1, 12), (3, 4)), StartSide.COLUMN_FIRST)
        assert v.variant is Termination.ONE_STEP_COLUMN
        assert v.length == 1
        assert v.limit == M((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)))
        assert v.params == {"a": 1, "c": 3, "t": 4}

    def test_one_step_row_example(self):
        v = classify_2x2(M((1, 3), (12, 4)), StartSide.ROW_FIRST)
        assert v.variant is Termination.ONE_STEP_ROW
        assert v.limit == M((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)))
        assert v.params == {"a": 1, "b": 3, "t": 4}

    def test_two_step_example(self):
        v = classify_2x2(M((2, 6), (5, 15)), StartSide.ROW_FIRST)
        assert v.variant is Termination.TWO_STEP_COLUMN_LAST
        assert v.params == {"p": 2, "r": 5, "t": 3}
        assert v.limit == FLAT

    def test_infinite_example(self):
        for side in StartSide:
            v = classify_2x2(M((1, 3), (3, 4)), side)
            assert v.variant is Termination.INFINITE
            assert v.length is None and v.limit is None

    def test_already_doubly_stochastic(self):
        A = M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5)))
        v = classify_2x2(A)
        assert v.variant is Termination.ALREADY_DOUBLY_STOCHASTIC
        assert v.length == 0 and v.limit == A

    def test_equal_rows_prefer_the_shorter_length(self):
        # equal rows are simultaneously rank one and a one-step form;
        # column-first must classify them as one step, row-first as two
        A = M((2, 3), (2, 3))
        assert classify_2x2(A, StartSide.COLUMN_FIRST).length == 1
        assert classify_2x2(A, StartSide.ROW_FIRST).length == 2

    def test_rejects_non_2x2(self):
        with pytest.raises(DimensionError):
            classify_2x2(M((1, 2, 3), (4, 5, 6), (7, 8, 9)))

    def test_rejects_approximate_entries(self):
        with pytest.raises(RegimeError):
            classify_2x2(M((1.0, 2.0), (3.0, 4.0)))


class TestSoundness:
    def test_disagreement_with_the_engine_is_an_error(self, monkeypatch):
        # the classifier cross-checks every verdict against the engine's length
        monkeypatch.setattr(classify, "termination_length_2x2", lambda A, side, max_steps: 2)
        with pytest.raises(RuntimeError, match=r"^classifier/engine disagreement on .*: classified L=1, engine L=2$"):
            classify_2x2(M((1, 12), (3, 4)), StartSide.COLUMN_FIRST)

    def test_a_wrong_closed_rule_is_an_error(self, monkeypatch):
        # the engine's cross-check also guards the length the closed rule gives
        monkeypatch.setattr(classify, "_two_step_length", lambda rows: 2)
        with pytest.raises(RuntimeError, match=r"^classifier/engine disagreement on .*: classified L=2, engine L=1$"):
            classify_2x2(M((1, 12), (3, 4)), StartSide.COLUMN_FIRST)

    @given(exact_matrices_2x2(), st.sampled_from(list(StartSide)))
    @settings(max_examples=200, deadline=None)
    def test_finite_verdicts_match_the_engine_exactly(self, A, side):
        v = classify_2x2(A, side)
        if v.length is None:
            assert termination_length_2x2(A, side, max_steps=64) is None
            return
        res = sinkhorn(A, IterationConfig(start_side=side))
        assert res.status is Status.TERMINATED_FINITE
        assert res.steps_taken == v.length
        assert res.limit == v.limit

    @given(one_step_column_forms)
    @settings(max_examples=150)
    def test_one_step_forms_terminate_in_at_most_one(self, A):
        v = classify_2x2(A, StartSide.COLUMN_FIRST)
        assert v.length is not None and v.length <= 1

    @given(rank_one_forms)
    @settings(max_examples=150)
    def test_rank_one_forms_terminate_in_at_most_two(self, A):
        v = classify_2x2(A, StartSide.COLUMN_FIRST)
        assert v.length is not None and v.length <= 2
        if v.length == 2:
            assert v.variant is Termination.TWO_STEP_ROW_LAST
            assert v.limit == FLAT

    @given(rank_one_forms)
    @settings(max_examples=100)
    def test_two_step_limits_are_flat_under_both_orders(self, A):
        for side in StartSide:
            v = classify_2x2(A, side)
            if v.length == 2:
                assert v.limit == FLAT

    @given(wide_classifier_inputs())
    @settings(max_examples=300, deadline=None)
    def test_integer_tests_match_the_fraction_reference(self, A):
        for side in StartSide:
            v = classify_2x2(A, side)
            assert (v.variant, v.params, v.limit) == classify_2x2_reference(A, side)

    def test_small_exhaustive_agreement(self):
        # every matrix from both sides: the length against the 64-step fast
        # path, and the variant, the params in key order and the limit
        # against the Fraction reference
        values = [
            F(p, q) for p in range(1, 4) for q in range(1, 4) if gcd(p, q) == 1
        ]
        for a, b, c, d in itertools.product(values, repeat=4):
            A = M((a, b), (c, d))
            for side in StartSide:
                v = classify_2x2(A, side)
                assert v.length == termination_length_2x2(A, side, max_steps=64)
                variant, params, limit = classify_2x2_reference(A, side)
                assert v.variant is variant and v.limit == limit
                assert list(v.params.items()) == list(params.items())


def reconstruct(verdict):
    """Rebuild the classified matrix from the extracted parameters.

    Returns None for infinite verdicts (they carry no parametrization).
    """
    p = verdict.params
    v = verdict.variant
    if v is Termination.ALREADY_DOUBLY_STOCHASTIC:
        return verdict.limit
    if v is Termination.ONE_STEP_COLUMN:
        a, c, t = p["a"], p["c"], p["t"]
        return PositiveMatrix(((a, c * t), (c, a * t)))
    if v is Termination.ONE_STEP_ROW:
        a, b, t = p["a"], p["b"], p["t"]
        return PositiveMatrix(((a, b), (b * t, a * t)))
    if v is Termination.TWO_STEP_COLUMN_LAST:
        pp, r, t = p["p"], p["r"], p["t"]
        return PositiveMatrix(((pp, pp * t), (r, r * t)))
    if v is Termination.TWO_STEP_ROW_LAST:
        pp, q, t = p["p"], p["q"], p["t"]
        return PositiveMatrix(((pp, q), (pp * t, q * t)))
    return None


class TestRoundTrip:
    @given(exact_matrices_2x2(), st.sampled_from(list(StartSide)))
    @settings(max_examples=200)
    def test_parameters_reconstruct_the_input(self, A, side):
        v = classify_2x2(A, side)
        rebuilt = reconstruct(v)
        if v.length is None:
            assert rebuilt is None
        else:
            assert rebuilt == A


class TestScaleInvariance:
    @given(
        rank_one_forms,
        positive_fractions,
        positive_fractions,
        positive_fractions,
        positive_fractions,
    )
    @settings(max_examples=100)
    def test_rank_one_limits_survive_diagonal_scaling(self, A, p1, p2, q1, q2):
        scaled = apply_right(apply_left(DiagonalScaling((p1, p2)), A), DiagonalScaling((q1, q2)))
        v1 = classify_2x2(A)
        v2 = classify_2x2(scaled)
        assert v1.length is not None and v2.length is not None
        if v1.length > 0 and v2.length > 0:
            assert v1.limit == v2.limit == FLAT

    @given(one_step_column_forms, positive_fractions)
    @settings(max_examples=100)
    def test_global_scaling_preserves_one_step_limits(self, A, lam):
        scaled = apply_left(DiagonalScaling((lam, lam)), A)
        v1 = classify_2x2(A)
        v2 = classify_2x2(scaled)
        assert v1.limit == v2.limit


class TestBothOrders:
    def test_rank_one_under_both_orders(self):
        comparison = classify_both_orders(M((1, 2), (2, 4)))
        assert comparison.column_first.length <= 2
        assert comparison.row_first.length <= 2
        assert comparison.step_difference <= 1

    def test_one_sided_termination(self):
        comparison = classify_both_orders(M((1, 12), (3, 4)))
        assert comparison.column_first.length == 1
        assert comparison.row_first.length is None
        assert comparison.step_difference is None

    def test_doubly_stochastic_input(self):
        comparison = classify_both_orders(M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))))
        assert comparison.column_first.length == 0
        assert comparison.row_first.length == 0
        assert comparison.step_difference == 0

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 12), (3, 4)),
            ((1, 3), (12, 4)),
            ((1, 2), (2, 4)),
            ((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))),
            ((1, 3), (3, 4)),
        ],
    )
    def test_verdicts_of_both_orders_go_into_a_set(self, rows):
        A = M(*rows)
        comparison = classify_both_orders(A)
        verdicts = {comparison.column_first, comparison.row_first}
        assert len(verdicts) == 2
        # a recomputed verdict is equal, hashes equal and is found
        for side in StartSide:
            again = classify_2x2(A, side)
            assert again in verdicts
            assert hash(again) == hash(classify_2x2(A, side))
        assert classify_both_orders(A) in {comparison}


class TestStochasticOneStepForms:
    """A matrix stochastic on one side but not doubly stochastic is a
    one-step verdict with the flat limit when the other side is scaled
    first: equal rows (a 1-a; a 1-a) under column-first, equal columns
    (a a; 1-a 1-a) under row-first."""

    def test_row_stochastic_shape(self):
        v = classify_2x2(M((F(1, 3), F(2, 3)), (F(1, 3), F(2, 3))), StartSide.COLUMN_FIRST)
        assert v.variant is Termination.ONE_STEP_COLUMN
        assert v.params["a"] == F(1, 3)
        assert v.limit == FLAT

    def test_column_stochastic_shape(self):
        v = classify_2x2(M((F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))), StartSide.ROW_FIRST)
        assert v.variant is Termination.ONE_STEP_ROW
        assert v.params["a"] == F(1, 4)
        assert v.limit == FLAT

    def test_flat_matrix_is_excluded(self):
        for side in StartSide:
            assert classify_2x2(FLAT, side).variant is Termination.ALREADY_DOUBLY_STOCHASTIC

    def test_generic_matrix_has_no_form(self):
        for side in StartSide:
            assert classify_2x2(M((1, 3), (3, 4)), side).variant is Termination.INFINITE

    @given(positive_fractions.filter(lambda a: 0 < a < 1 and a != F(1, 2)))
    @settings(max_examples=80)
    def test_detected_forms_flatten_in_one_scaling(self, a):
        A = M((a, 1 - a), (a, 1 - a))
        v = classify_2x2(A, StartSide.COLUMN_FIRST)
        assert v.variant is Termination.ONE_STEP_COLUMN and v.params["a"] == a
        res = sinkhorn(A)
        assert res.steps_taken == 1 and res.limit == FLAT
        transposed = classify_2x2(M((a, a), (1 - a, 1 - a)), StartSide.ROW_FIRST)
        assert transposed.variant is Termination.ONE_STEP_ROW and transposed.limit == FLAT


def test_start_order_comparison_script(capsys, monkeypatch):
    """scripts/start_order_comparison.py tabulates (N1, N2) over all 81
    matrices with entries in {1/2, 1, 2}."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "start_order_comparison.py"
    spec = importlib.util.spec_from_file_location("start_order_comparison", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--bound", "2"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "81 matrices with entries over 3 reduced rationals (bound 2)"
    rows = [line.split() for line in lines[2:-1]]
    assert all(re.fullmatch(r"(\d+|inf) (\d+|inf) \d+", " ".join(row)) for row in rows)
    assert sum(int(count) for _, _, count in rows) == 81
    assert lines[-1] == "max |N1 - N2| over doubly finite matrices: 1"
