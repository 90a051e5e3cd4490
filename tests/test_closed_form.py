import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sinkhornlab import (
    FloatRangeError,
    IterationConfig,
    PositiveMatrix,
    Status,
    apply_left,
    apply_right,
    bordered_limit,
    bordered_limit_triangular,
    bordered_matrix,
    is_doubly_stochastic,
    is_rational_square,
    limit_2x2,
    limit_2x2_exact,
    limit_2x2_symmetric,
    sinkhorn,
)

from .strategies import positive_fractions

EPS = sys.float_info.epsilon
F = Fraction

floats_01_10 = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestLimit2x2:
    def test_rational_example(self):
        lim = limit_2x2(1, 3, 3, 4)
        assert abs(lim.alpha - 0.4) <= 1e-15
        assert abs(lim.beta - 0.6) <= 1e-15

    def test_irrational_example(self):
        lim = limit_2x2(1, 2, 3, 4)
        assert abs(lim.alpha - (math.sqrt(6) - 2)) <= 1e-15
        assert abs(lim.beta - (3 - math.sqrt(6))) <= 1e-15

    def test_doubly_stochastic_fixed_point(self):
        a0 = 0.3
        lim = limit_2x2(a0, 1 - a0, 1 - a0, a0)
        assert abs(lim.alpha - a0) <= 4 * EPS

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            limit_2x2(1, 0, 3, 4)

    @given(floats_01_10, floats_01_10, floats_01_10, floats_01_10)
    @settings(max_examples=200)
    def test_limit_matrix_is_doubly_stochastic(self, a, b, c, d):
        lim = limit_2x2(a, b, c, d)
        assert abs(lim.alpha + lim.beta - 1) <= 4 * EPS
        assert 0 < lim.alpha < 1

    @given(floats_01_10, floats_01_10, floats_01_10, floats_01_10)
    @settings(max_examples=200)
    def test_scalings_realize_the_limit(self, a, b, c, d):
        lim = limit_2x2(a, b, c, d)
        A = PositiveMatrix(((a, b), (c, d)))
        realized = apply_right(apply_left(lim.left, A), lim.right)
        expected = ((lim.alpha, lim.beta), (lim.beta, lim.alpha))
        for row, erow in zip(realized.entries, expected):
            for x, e in zip(row, erow):
                assert abs(x - e) <= 4 * EPS

    @given(floats_01_10, floats_01_10, floats_01_10, floats_01_10)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_iteration(self, a, b, c, d):
        lim = limit_2x2(a, b, c, d)
        res = sinkhorn(PositiveMatrix(((a, b), (c, d))), IterationConfig(tolerance=1e-13))
        assert res.status is Status.CONVERGED
        assert abs(lim.alpha - res.limit.entries[0][0]) <= 1e-10


class TestLimit2x2Exact:
    def test_rational_case(self):
        lim = limit_2x2_exact(F(1), F(3), F(3), F(4))
        assert lim.is_rational
        assert lim.ratio == F(4, 9)
        assert lim.alpha == F(2, 5)
        assert lim.beta == F(3, 5)
        assert is_doubly_stochastic(lim.matrix(), tol=0)

    def test_irrational_case(self):
        lim = limit_2x2_exact(F(1), F(2), F(3), F(4))
        assert not lim.is_rational
        assert lim.ratio == F(2, 3)
        assert lim.alpha is None and lim.matrix() is None

    def test_flat_case(self):
        lim = limit_2x2_exact(F(1), F(1), F(1), F(1))
        assert lim.alpha == lim.beta == F(1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            limit_2x2_exact(F(1), F(-2), F(3), F(4))

    def test_rejected_huge_entry_is_named_and_clipped(self):
        # str() of either value fails past the int-to-str digit limit
        with pytest.raises(ValueError, match=rf"^entry a must be positive, got -1/1{'0' * 53}\.\.\.$"):
            limit_2x2_exact(F(-1, 10**5000), 1, 1, 1)
        with pytest.raises(ValueError, match=rf"^entry d must be positive, got -1{'0' * 55}\.\.\.$"):
            limit_2x2_exact(1, 1, 1, -(10**5000))
        with pytest.raises(ValueError, match=r"^entry b must be positive, got -2\.0$"):
            limit_2x2(1.0, -2.0, 1.0, 1.0)

    @given(positive_fractions, positive_fractions, positive_fractions, positive_fractions)
    @settings(max_examples=300)
    def test_coherent_with_square_predicate(self, a, b, c, d):
        lim = limit_2x2_exact(a, b, c, d)
        assert lim.is_rational == is_rational_square(a * d / (b * c))
        if lim.is_rational:
            assert lim.alpha + lim.beta == 1
            # alpha/beta squared recovers ad/bc
            assert (lim.alpha / lim.beta) ** 2 == lim.ratio

    @given(positive_fractions, positive_fractions, positive_fractions, positive_fractions)
    @settings(max_examples=150)
    def test_constructed_squares_are_rational(self, a, b, c, s):
        d = s * s * b * c / a  # forces ad/bc = s^2
        lim = limit_2x2_exact(a, b, c, d)
        assert lim.is_rational
        assert lim.alpha == s / (s + 1)


class TestSymmetric:
    def test_example_with_scaler_root_two(self):
        lim = limit_2x2_symmetric(1, 2, 4)
        assert abs(lim.scaler.diag[0] - math.sqrt(2) / 2) <= 1e-15
        assert abs(lim.scaler.diag[1] - math.sqrt(2) / 4) <= 1e-15
        assert abs(lim.alpha - 0.5) <= 1e-15
        assert abs(lim.lam - 0.25) <= 1e-15

    def test_flat_example(self):
        lim = limit_2x2_symmetric(1, 1, 1)
        assert abs(lim.scaler.diag[0] - 1 / math.sqrt(2)) <= 1e-15
        assert abs(lim.scaler.diag[1] - 1 / math.sqrt(2)) <= 1e-15
        assert abs(lim.alpha - 0.5) <= 1e-15

    def test_geometric_mean_equals_off_diagonal(self):
        # sqrt(ad) = 2 = b forces the flat limit; cross-check vs iteration
        lim = limit_2x2_symmetric(4, 2, 1)
        assert abs(lim.alpha - 0.5) <= 1e-15
        res = sinkhorn(PositiveMatrix(((4.0, 2.0), (2.0, 1.0))))
        assert abs(res.limit.entries[0][0] - lim.alpha) <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            limit_2x2_symmetric(1, -2, 4)

    @given(floats_01_10, floats_01_10, floats_01_10)
    @settings(max_examples=200)
    def test_conjugation_is_doubly_stochastic(self, a, b, d):
        lim = limit_2x2_symmetric(a, b, d)
        A = PositiveMatrix(((a, b), (b, d)))
        S = apply_right(apply_left(lim.scaler, A), lim.scaler)
        for s in (sum(row) for row in S.entries):
            assert abs(s - 1) <= 1e-12
        for s in (sum(col) for col in zip(*S.entries)):
            assert abs(s - 1) <= 1e-12

    @given(floats_01_10, floats_01_10, floats_01_10)
    @settings(max_examples=200)
    def test_matches_general_form(self, a, b, d):
        sym = limit_2x2_symmetric(a, b, d)
        gen = limit_2x2(a, b, b, d)
        assert math.isclose(sym.alpha, gen.alpha, rel_tol=8 * EPS)

    def test_matches_general_form_exactly_on_integer_entries(self):
        assert limit_2x2_symmetric(1, 2, 4).alpha == limit_2x2(1, 2, 2, 4).alpha


BORDERED_CASES = [
    # (n, K, alpha, beta, gamma)
    (3, 2.0, (5 - math.sqrt(17)) / 2, (-3 + math.sqrt(17)) / 4, (7 - math.sqrt(17)) / 8),
    (3, 3.0, 0.5, 0.25, 0.375),
    (4, 5.0, 0.5, 1 / 6, 5 / 18),
    (4, 2.0, 3 - math.sqrt(7), (-2 + math.sqrt(7)) / 3, (5 - math.sqrt(7)) / 9),
]


class TestBordered:
    @pytest.mark.parametrize("n,K,alpha,beta,gamma", BORDERED_CASES)
    def test_reference_values(self, n, K, alpha, beta, gamma):
        lim = bordered_limit(n, K)
        assert abs(lim.alpha - alpha) <= 1e-12
        assert abs(lim.beta - beta) <= 1e-12
        assert abs(lim.gamma - gamma) <= 1e-12

    def test_flat_corner(self):
        lim = bordered_limit(3, 1.0)
        assert lim.alpha == lim.beta == lim.gamma == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("n,K,floor,shown", [
        (10**200, 2.0, 664, "2.0"), (10**400, 2.0, 1328, "2.0"), (10**400, 1.0, 1328, "1.0"),
        (10**5000, 2.0, 16609, "2.0"),  # past the int-to-str limit: n has no repr
        (1e200, 2.0, 664, "2.0"),
        # an exact K is rendered as p/q, and clipped: K's denominator has no repr
        (10**400, F(3, 2), 1328, "3/2"),
        (10**400, F(1, 10**5000), 1328, "1/1" + "0" * 54 + "..."),
    ], ids=["1e200-int", "1e400-int", "1e400-int-flat", "1e5000-int", "1e200-float",
            "1e400-int-exact-K", "1e400-int-exact-K-past-the-digit-limit"])
    def test_n_past_float_range_raises_a_float_range_error(self, n, K, floor, shown):
        # (n - 2)**2, and at 10**400 n itself, is too large for a float
        assert 2**floor <= n < 2 ** (floor + 1)
        message = rf"^bordered limit of n >= 2\*\*{floor}, K = {re.escape(shown)} leaves float range: n is too large$"
        with pytest.raises(FloatRangeError, match=message):
            bordered_limit(n, K)

    @pytest.mark.parametrize("K", [F(10**400), 10**400, F(10**5000, 3)], ids=["exact", "int", "past-the-digit-limit"])
    def test_exact_k_past_float_range_is_named(self, K):
        # float(K) overflows: K leaves float range, not n
        message = rf"^bordered limit of n, K = \(3, 1{'0' * 56}\.\.\.\) leaves float range: K = inf$"
        with pytest.raises(FloatRangeError, match=message):
            bordered_limit(3, K)

    def test_an_exact_k_past_the_digit_limit_is_rendered_the_same_on_every_call(self):
        # reprlib named each Fraction past the digit limit by its address
        messages = set()
        for _ in range(2):
            with pytest.raises(FloatRangeError) as raised:
                bordered_limit(3, F(1, 10**5000))
            messages.add(str(raised.value))
        assert messages == {f"bordered limit of n, K = (3, 1/1{'0' * 54}...) leaves float range: alpha = 0.0"}

    def test_n_of_a_hundred_and_one_digits_is_in_range(self):
        lim = bordered_limit(10**100, 2.0)
        assert (lim.alpha, lim.beta, lim.gamma) == pytest.approx((2e-100, 1e-100, 1e-100), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bordered_limit(2, 5.0)
        with pytest.raises(ValueError):
            bordered_limit(3, 0.0)

    def test_scaler_identities(self):
        for n, K, *_ in BORDERED_CASES:
            lim = bordered_limit(n, K)
            assert abs(K * lim.x1**2 - lim.alpha) <= 1e-14
            assert abs(lim.x1 * lim.x2 - lim.beta) <= 1e-14
            assert abs(lim.x2**2 - lim.gamma) <= 1e-14

    def test_corner_scaler_reference_value(self):
        lim = bordered_limit(3, 2.0)
        assert abs(lim.x1 - math.sqrt((5 - math.sqrt(17)) / 4)) <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 7, 25, 50])
    @pytest.mark.parametrize("K", [0.1, 0.5, 0.9, 1.0, 1.1, 3.0, 20.0, 100.0])
    def test_quadratic_residual_and_margins(self, n, K):
        lim = bordered_limit(n, K)
        residual = (K - 1) * lim.alpha**2 - (2 * K + n - 2) * lim.alpha + K
        assert abs(residual) <= 1e-10
        assembled = lim.limit_matrix()
        for s in (sum(row) for row in assembled.entries):
            assert abs(s - 1) <= 4 * EPS * n
        for s in (sum(col) for col in zip(*assembled.entries)):
            assert abs(s - 1) <= 4 * EPS * n

    @pytest.mark.parametrize("n,K", [(3, 2.0), (5, 7.0), (10, 20.0), (4, 0.5)])
    def test_iteration_reaches_the_closed_form(self, n, K):
        res = sinkhorn(bordered_matrix(n, K))
        assert res.status is Status.CONVERGED
        expected = bordered_limit(n, K).limit_matrix()
        for row, erow in zip(res.limit.entries, expected.entries):
            for x, e in zip(row, erow):
                assert abs(x - e) <= 1e-8


class TestTriangularFamily:
    @pytest.mark.parametrize(
        "k,alpha,beta,gamma",
        [
            (2, F(1, 2), F(1, 4), F(3, 8)),
            (3, F(3, 5), F(1, 5), F(2, 5)),
            (4, F(2, 3), F(1, 6), F(5, 12)),
        ],
    )
    def test_reference_values(self, k, alpha, beta, gamma):
        lim = bordered_limit_triangular(k)
        assert (lim.alpha, lim.beta, lim.gamma) == (alpha, beta, gamma)
        assert lim.K == F(k * k + k, 2)

    def test_values_are_exact_rationals(self):
        lim = bordered_limit_triangular(5)
        assert isinstance(lim.alpha, F) and isinstance(lim.gamma, F)
        assert is_doubly_stochastic(lim.limit_matrix(), tol=0)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            bordered_limit_triangular(1)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_matches_float_evaluation(self, k):
        exact = bordered_limit_triangular(k)
        approx = bordered_limit(3, (k * k + k) / 2)
        assert abs(float(exact.alpha) - approx.alpha) <= 1e-12
        assert abs(float(exact.beta) - approx.beta) <= 1e-12
        assert abs(float(exact.gamma) - approx.gamma) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_exact_iteration_terminates_nowhere_but_limit_matches(self, k):
        # the bordered matrix itself never terminates finitely, but the
        # approximate iteration must approach the exact rational limit
        K = (k * k + k) / 2
        res = sinkhorn(bordered_matrix(3, K))
        expected = bordered_limit_triangular(k).limit_matrix()
        for row, erow in zip(res.limit.entries, expected.entries):
            for x, e in zip(row, erow):
                assert abs(x - float(e)) <= 1e-8


class TestBorderedMatrix:
    def test_exact_when_corner_is_integral(self):
        A = bordered_matrix(3, 2)
        assert A.exact
        assert A.entries[0][0] == 2
        assert all(A.entries[i][j] == 1 for i in range(3) for j in range(3) if (i, j) != (0, 0))

    def test_approximate_when_corner_is_float(self):
        A = bordered_matrix(4, 2.5)
        assert not A.exact
        assert A.entries[0][0] == 2.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bordered_matrix(1, 2)
        with pytest.raises(ValueError):
            bordered_matrix(3, 0)
        with pytest.raises(TypeError, match="not a scalar: True"):
            bordered_matrix(3, True)

    @pytest.mark.parametrize("build", [bordered_matrix, bordered_limit])
    def test_rejected_corner_is_named_and_clipped(self, build):
        # str() of the Fraction fails past the int-to-str digit limit
        with pytest.raises(ValueError, match=rf"^corner entry must be positive, got -1/1{'0' * 53}\.\.\.$"):
            build(3, F(-1, 10**5000))
        with pytest.raises(ValueError, match=r"^corner entry must be positive, got -2\.5$"):
            build(3, -2.5)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (bordered_limit, (3, 1e300), "n, K = (3, 1e+300) leaves float range: beta = 0.0"),
        (bordered_limit, (10, 5e-324), "n, K = (10, 5e-324) leaves float range: alpha = 0.0"),
        (bordered_limit, (3, sys.float_info.max), "leaves float range: alpha = nan"),
        (limit_2x2, (1e-300, 0.5, 1e-300, 1.0), "leaves float range: denominator = 0.0"),
        (limit_2x2, (1e300, 1.0, 1.0, 1e300), "leaves float range: alpha = nan"),
        (limit_2x2_symmetric, (1e-200, 1e-200, 1e-200), "leaves float range: denominator = 0.0"),
        # an int is rendered as format_rational renders it, cut to 60 characters
        (bordered_limit, (10**150, 1e300), f"n, K = (1{'0' * 56}..., 1e+300) leaves float range: alpha = 0.0"),
        # an exact K below float range: alpha and float(K) are both 0.0
        (bordered_limit, (3, F(1, 10**400)), "leaves float range: alpha = 0.0"),
    ],
)
def test_float_closed_forms_outside_float_range_raise_a_value_error(call, args, message):
    """An underflow, overflow or NaN in a float closed form is an input
    error naming the arguments, not an ArithmeticError."""
    with pytest.raises(FloatRangeError, match=re.escape(message)):
        call(*args)
