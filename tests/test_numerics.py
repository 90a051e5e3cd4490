import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from sinkhornlab import (
    format_rational,
    is_rational_square,
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
        for q in (Fraction(0), Fraction(-4, 9)):
            with pytest.raises(ValueError, match=f"expected a positive rational, got {q}"):
                is_rational_square(q)


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
    # rational_sqrt holds the package's only perfect-square test
    assert rational_sqrt(Fraction(1)) == 1
    for q in (Fraction(0), Fraction(-4)):
        with pytest.raises(ValueError, match="expected a positive rational"):
            rational_sqrt(q)
    root = 10**30 + 7
    assert rational_sqrt(Fraction(root * root)) == root
    assert rational_sqrt(Fraction(1, root * root)) == Fraction(1, root)
    assert rational_sqrt(Fraction(root * root + 1)) is None
    assert rational_sqrt(Fraction(root * root, root * root + 1)) is None
