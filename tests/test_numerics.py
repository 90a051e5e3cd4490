import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from sinkhornlab import (
    format_rational,
    is_perfect_square,
    is_rational_square,
    is_triangular_number,
    parse_rational,
    rational_sqrt,
)

from .strategies import positive_fractions


class TestRationalSquare:
    def test_four_ninths_is_square(self):
        assert is_rational_square(Fraction(4, 9))

    def test_two_thirds_is_not_square(self):
        assert not is_rational_square(Fraction(2, 3))

    def test_one_is_square(self):
        assert is_rational_square(Fraction(1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_rational_square(Fraction(0))
        with pytest.raises(ValueError):
            is_rational_square(Fraction(-4, 9))


class TestRationalSqrt:
    def test_four_ninths(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)

    def test_two_thirds_absent(self):
        # integer square-root oracle on numerator and denominator
        assert isqrt(2) ** 2 != 2
        assert rational_sqrt(Fraction(2, 3)) is None

    def test_perfect_square_integer(self):
        assert rational_sqrt(Fraction(49)) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rational_sqrt(Fraction(-1, 4))

    @given(positive_fractions)
    def test_coherent_with_predicate(self, q):
        s = rational_sqrt(q)
        assert is_rational_square(q) == (s is not None)
        if s is not None:
            assert s > 0
            assert s * s == q

    @given(positive_fractions)
    def test_squares_round_trip(self, s):
        assert is_rational_square(s * s)
        assert rational_sqrt(s * s) == s


class TestTriangularNumbers:
    def test_three(self):
        assert is_triangular_number(3) == 2

    def test_one(self):
        assert is_triangular_number(1) == 1

    def test_four_absent(self):
        # exhaustive oracle: no k in 1..3 has k(k+1)/2 = 4
        assert all((k * k + k) // 2 != 4 for k in range(1, 4))
        assert is_triangular_number(4) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_triangular_number(0)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_round_trip(self, k):
        assert is_triangular_number((k * k + k) // 2) == k

    def test_exhaustive_small_range(self):
        triangulars = {(k * k + k) // 2: k for k in range(1, 40)}
        for K in range(1, 500):
            assert is_triangular_number(K) == triangulars.get(K)


class TestSerialization:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2/3", Fraction(2, 3)),
            ("7", Fraction(7)),
            ("-1/3", Fraction(-1, 3)),
            ("0.25", Fraction(1, 4)),
            (" 4/6 ", Fraction(2, 3)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format_is_reduced_with_positive_denominator(self):
        assert format_rational(Fraction(4, 6)) == "2/3"
        assert format_rational(Fraction(-4, 6)) == "-2/3"
        assert format_rational(Fraction(14, 7)) == "2"

    def test_format_past_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        big = 7 * 10**5000 + 3
        assert format_rational(Fraction(big)) == "7" + "0" * 4999 + "3"
        assert format_rational(Fraction(-big, 10**4400 + 1)) == (
            "-7" + "0" * 4999 + "3/1" + "0" * 4399 + "1"
        )
        assert format_rational(Fraction(10**1000, 3)) == "1" + "0" * 1000 + "/3"
        assert sys.get_int_max_str_digits() == limit


def test_perfect_square_edge_cases():
    assert is_perfect_square(0)
    assert is_perfect_square(1)
    assert not is_perfect_square(-4)
    big = (10**30 + 7) ** 2
    assert is_perfect_square(big)
    assert not is_perfect_square(big + 1)
