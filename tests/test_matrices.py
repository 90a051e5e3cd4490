import json
import sys
from fractions import Fraction
from math import inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from sinkhornlab import (
    DiagonalScaling,
    DimensionError,
    MarginTarget,
    NonFiniteEntryError,
    NonPositiveEntryError,
    PositiveMatrix,
    RegimeError,
    apply_left,
    apply_right,
    col_scaling,
    col_sums,
    is_doubly_stochastic,
    row_scaling,
    row_sums,
    transpose,
)
from sinkhornlab.matrices import _coerce, _require_positive

from .strategies import approx_matrices, exact_matrices

EPS = sys.float_info.epsilon

F = Fraction


def M(*rows):
    return PositiveMatrix(rows)


def _coerce_reference(values, what):
    """The per-entry _coerce that the per-type one replaced."""
    out = list(values)
    has_float = any(isinstance(x, float) for x in out)
    has_exact = any(isinstance(x, Fraction) for x in out)
    if has_float and has_exact:
        raise RegimeError(f"{what} mixes float and Fraction entries")
    exact = not has_float
    conv = Fraction if exact else float
    coerced = []
    for k, x in enumerate(out):
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
            raise TypeError(f"{what} entry {k + 1} is not a scalar: {x!r}")
        coerced.append(conv(x))
    return tuple(coerced), exact


def _require_positive_reference(flat, exact, describe):
    """The float check before its min/sum screen."""
    if exact:
        bad = [k for k, v in enumerate(flat) if v <= 0]
    else:
        bad = [k for k, v in enumerate(flat) if not 0 < v < inf]
    if not bad:
        return
    label, shown = describe(bad[0])
    if flat[bad[0]] <= 0:
        raise NonPositiveEntryError(f"{label} is not positive: {shown}")
    raise NonFiniteEntryError(f"{label} is not finite: {shown}")


class _Float(float):
    pass


_SCALAR_KINDS = (
    st.floats(),
    st.floats().map(_Float),
    st.integers(),
    st.integers(2**1024, 2**1030),  # past float range: float() overflows
    st.booleans(),
    st.fractions(),
    st.sampled_from([nan, inf, -inf, 0.0, -0.0]),
    st.text(max_size=2),
    st.none(),
)


@st.composite
def scalar_lists(draw):
    """Lists mixing a few kinds of value, so each kind of fault shows alone too."""
    kinds = draw(st.lists(st.sampled_from(_SCALAR_KINDS), min_size=1, max_size=4, unique=True))
    return draw(st.lists(st.one_of(kinds), max_size=8))


def _outcome(fn, *args):
    """What fn returns, or the class and message of what it raises."""
    try:
        return "returns", fn(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


class TestConstruction:
    def test_rejects_zero_entry_naming_position(self):
        with pytest.raises(NonPositiveEntryError, match=r"\(2,1\)"):
            M((1, 2), (0, 4))
        # 1e400 is what json reads for a float literal beyond range
        for bad in (float("nan"), float("inf"), float("1e400")):
            with pytest.raises(NonFiniteEntryError, match=r"\(2,1\)"):
                M((1.0, 2.0), (bad, 4.0))
            with pytest.raises(NonFiniteEntryError):
                DiagonalScaling((1.0, bad))
        for text in ("NaN", "Infinity", "1e400", "1" + "0" * 400):
            with pytest.raises(NonFiniteEntryError):
                PositiveMatrix.from_json_obj(json.loads('{"rows": [[1, 2], [%s, 4]]}' % text))

    @pytest.mark.parametrize("bad", [0.0, -1.0, nan, inf])
    @pytest.mark.parametrize("i,j", [(128, 128), (128, 1), (127, 128)])
    def test_late_bad_entry_of_large_float_matrix_is_named(self, bad, i, j):
        rows = [[1.0] * 128 for _ in range(128)]
        rows[i - 1][j - 1] = bad
        error = NonFiniteEntryError if bad == inf or bad != bad else NonPositiveEntryError
        with pytest.raises(error, match=rf"^entry \({i},{j}\) is not"):
            PositiveMatrix(rows)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        A = PositiveMatrix([[1e308] * 128 for _ in range(128)])
        assert A.entries[127][127] == 1e308

    @given(scalar_lists())
    @settings(max_examples=500)
    def test_coerce_matches_the_per_entry_reference(self, values):
        got = _outcome(_coerce, iter(values), "matrix")
        want = _outcome(_coerce_reference, iter(values), "matrix")
        if want[0] != "returns":
            assert got == want
            return
        assert got[0] == "returns"
        (flat, exact), (ref_flat, ref_exact) = got[1], want[1]
        assert exact == ref_exact
        plain = Fraction if exact else float
        assert [(type(x), repr(x)) for x in flat] == [(plain, repr(x)) for x in ref_flat]
        assert all(type(x) is plain for x in ref_flat)

    @given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e308]), min_size=1))
    @settings(max_examples=500)
    def test_float_positivity_check_matches_the_reference(self, values):
        flat = tuple(values)

        def describe(k):
            return f"entry {k + 1}", flat[k]

        assert _outcome(_require_positive, flat, False, describe) == _outcome(
            _require_positive_reference, flat, False, describe
        )

    def test_rejects_negative_entry(self):
        with pytest.raises(NonPositiveEntryError):
            M((1, 2), (3, -4))

    def test_rejects_mixed_regimes(self):
        with pytest.raises(RegimeError):
            M((F(1, 2), 0.5), (1, 1))

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionError):
            M((1, 2), (3,))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            PositiveMatrix(())

    def test_int_entries_are_exact(self):
        A = M((1, 3), (3, 4))
        assert A.exact
        assert A.entries[0][0] == F(1)

    def test_float_entries_are_approximate(self):
        A = M((1.0, 3.0), (3, 4))
        assert not A.exact
        assert isinstance(A.entries[1][0], float)

    def test_structural_equality_distinguishes_regimes(self):
        assert M((1, 2), (3, 4)) == M((1, 2), (3, 4))
        assert M((1, 2), (3, 4)) != M((1.0, 2.0), (3.0, 4.0))


class TestMargins:
    def test_row_sums_reference_example(self):
        assert row_sums(M((1, 3), (3, 4))) == (4, 7)

    def test_row_sums_doubly_stochastic(self):
        assert row_sums(M((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))) == (1, 1)

    def test_row_sums_direct(self):
        assert row_sums(M((1, 2), (3, 4))) == (3, 7)

    def test_col_sums_reference_example(self):
        assert col_sums(M((1, 3), (3, 4))) == (4, 7)

    def test_col_sums_identity_like(self):
        assert col_sums(M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5)))) == (1, 1)

    def test_col_sums_direct(self):
        assert col_sums(M((1, 2), (3, 4))) == (4, 6)

    @given(exact_matrices())
    def test_transpose_swaps_margins(self, A):
        assert row_sums(transpose(A)) == col_sums(A)
        assert col_sums(transpose(A)) == row_sums(A)


class TestScalings:
    def test_row_scaling_equal_column_pairs(self):
        # rows (u, u) and (1-u, 1-u) scale by 1/(2u) and 1/(2-2u)
        u = F(1, 3)
        D = row_scaling(M((u, u), (1 - u, 1 - u)))
        assert D.diag == (F(3, 2), F(3, 4))

    def test_row_scaling_of_row_stochastic_is_identity(self):
        A = M((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)))
        assert row_scaling(A).diag == (1, 1)
        assert apply_left(row_scaling(A), A) == A

    def test_row_scaling_with_targets(self):
        target = MarginTarget((2, 2), (1, 3))
        D = row_scaling(M((1, 2), (3, 4)), target)
        assert D.diag == (F(2, 3), F(2, 7))

    def test_col_scaling_reciprocal_column_sums(self):
        a, b, c, d = F(2), F(5), F(3), F(7)
        D = col_scaling(M((a, b), (c, d)))
        assert D.diag == (1 / (a + c), 1 / (b + d))

    def test_col_scaling_of_column_stochastic_is_identity(self):
        A = M((F(1, 4), F(2, 3)), (F(3, 4), F(1, 3)))
        assert col_scaling(A).diag == (1, 1)

    def test_col_scaling_reference_example(self):
        assert col_scaling(M((1, 3), (3, 4))).diag == (F(1, 4), F(1, 7))

    def test_target_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            row_scaling(M((1, 2), (3, 4)), MarginTarget((1, 1, 2), (2, 2)))


class TestApply:
    def test_apply_left_reproduces_second_iterate(self):
        A1 = M((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7)))
        A2 = apply_left(row_scaling(A1), A1)
        assert A2 == M((F(7, 19), F(12, 19)), (F(21, 37), F(16, 37)))

    def test_apply_left_identity(self):
        A = M((1, 2), (3, 4))
        assert apply_left(DiagonalScaling((1, 1)), A) == A

    def test_apply_left_direct(self):
        assert apply_left(DiagonalScaling((2, 3)), M((1, 1), (1, 1))) == M((2, 2), (3, 3))

    def test_apply_right_reproduces_first_iterate(self):
        A = M((1, 3), (3, 4))
        assert apply_right(A, col_scaling(A)) == M((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7)))

    def test_apply_right_identity(self):
        A = M((1, 2), (3, 4))
        assert apply_right(A, DiagonalScaling((1, 1))) == A

    def test_apply_right_direct(self):
        assert apply_right(M((1, 1), (1, 1)), DiagonalScaling((2, 3))) == M((2, 3), (2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_left(DiagonalScaling((1, 2, 3)), M((1, 2), (3, 4)))

    def test_regime_mismatch(self):
        with pytest.raises(RegimeError):
            apply_left(DiagonalScaling((1.0, 2.0)), M((1, 2), (3, 4)))


class TestTranspose:
    def test_transpose(self):
        assert transpose(M((1, 2), (3, 4))) == M((1, 3), (2, 4))

    def test_symmetric_fixed_point(self):
        A = M((1, 2), (2, 4))
        assert transpose(A) == A

    @given(exact_matrices())
    @settings(max_examples=150)
    def test_column_scaling_is_transposed_row_scaling(self, A):
        At = transpose(A)
        lhs = apply_right(A, col_scaling(A))
        rhs = transpose(apply_left(row_scaling(At), At))
        assert lhs == rhs

    @given(exact_matrices())
    @settings(max_examples=150)
    def test_row_scaling_is_transposed_column_scaling(self, A):
        At = transpose(A)
        lhs = apply_left(row_scaling(A), A)
        rhs = transpose(apply_right(At, col_scaling(At)))
        assert lhs == rhs


class TestStochasticity:
    def test_row_stochastic_exact(self):
        assert row_sums(M((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)))) == (1, 1)

    def test_unscaled_matrix_is_not_stochastic(self):
        assert row_sums(M((1, 3), (3, 4))) != (1, 1)
        assert not is_doubly_stochastic(M((1, 3), (3, 4)), tol=0)

    def test_first_iterate_is_column_but_not_row_stochastic(self):
        A1 = M((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7)))
        assert col_sums(A1) == (1, 1)
        assert row_sums(A1) != (1, 1)
        assert not is_doubly_stochastic(A1, tol=0)
        assert not is_doubly_stochastic(transpose(A1), tol=0)

    def test_doubly_stochastic_examples(self):
        assert is_doubly_stochastic(M((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))), tol=0)
        assert not is_doubly_stochastic(M((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7))), tol=0)
        assert is_doubly_stochastic(M((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), tol=0)

    def test_exact_regime_requires_zero_tolerance(self):
        with pytest.raises(ValueError):
            is_doubly_stochastic(M((1, 2), (3, 4)), tol=1e-9)

    def test_unit_target_double_stochasticity_needs_square(self):
        with pytest.raises(DimensionError):
            is_doubly_stochastic(M((1, 2, 3), (3, 2, 1)))

    def test_rectangular_with_explicit_target(self):
        A = M((F(1, 2), F(1, 2), F(1)), (F(3, 2), F(3, 2), F(1)))
        target = MarginTarget((2, 4), (2, 2, 2))
        assert is_doubly_stochastic(A, target, tol=0)

    @given(exact_matrices())
    @settings(max_examples=150)
    def test_row_scaled_matrix_is_row_stochastic_exactly(self, A):
        assert all(s == 1 for s in row_sums(apply_left(row_scaling(A), A)))

    @given(approx_matrices())
    @settings(max_examples=150)
    def test_row_scaled_matrix_is_row_stochastic_approximately(self, A):
        scaled = apply_left(row_scaling(A), A)
        assert all(abs(s - 1) <= 4 * EPS * A.cols for s in row_sums(scaled))

    @given(exact_matrices())
    @settings(max_examples=100)
    def test_positivity_closure(self, A):
        scaled = apply_right(apply_left(row_scaling(A), A), col_scaling(A))
        assert all(x > 0 for row in scaled.entries for x in row)


class TestMarginTarget:
    def test_rejects_unequal_totals_exact(self):
        with pytest.raises(ValueError):
            MarginTarget((1, 2), (2, 2))

    def test_rejects_unequal_totals_approx(self):
        with pytest.raises(ValueError):
            MarginTarget((1.0, 2.0), (2.0, 2.0))

    def test_accepts_matching_float_totals(self):
        t = MarginTarget((1.0, 3.0), (2.0, 2.0))
        assert t.row_targets == (1.0, 3.0)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(NonPositiveEntryError):
            MarginTarget((1, 0), (1, 0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteEntryError):
                MarginTarget((1.0, bad), (1.0, 1.0))

    def test_unit(self):
        t = MarginTarget((1, 1), (1, 1))
        assert t.row_targets == (1, 1) and t.exact


class TestJson:
    def test_exact_round_trip(self):
        A = M((F(1, 4), F(3, 7)), (F(3, 4), F(4, 7)))
        assert PositiveMatrix.from_json_obj(json.loads(json.dumps(A.to_json_obj()))) == A

    def test_approx_round_trip_is_bitwise(self):
        A = M((0.1, 0.2 + 1e-16), (1 / 3, 2.5))
        B = PositiveMatrix.from_json_obj(json.loads(json.dumps(A.to_json_obj())))
        assert B == A

    def test_numbers_mean_approximate(self):
        A = PositiveMatrix.from_json_obj(json.loads('{"rows": [[1, 3], [3, 4]]}'))
        assert not A.exact

    def test_strings_mean_exact(self):
        A = PositiveMatrix.from_json_obj(json.loads('{"rows": [["1/4", "3/7"], ["3/4", "4/7"]]}'))
        assert A.exact
        assert A.entries[0][1] == F(3, 7)

    def test_mixed_entries_rejected(self):
        with pytest.raises(RegimeError):
            PositiveMatrix.from_json_obj(json.loads('{"rows": [["1/4", 0.75], ["3/4", 0.25]]}'))

    def test_missing_rows_field_rejected(self):
        with pytest.raises(ValueError):
            PositiveMatrix.from_json_obj(json.loads('[[1, 2], [3, 4]]'))
