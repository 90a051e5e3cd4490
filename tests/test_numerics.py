import sys
import time
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

    def test_parse_rejection_clips_its_echo(self):
        with pytest.raises(ValueError, match=r"^not a rational number: 'x{56}\.\.\.$"):
            parse_rational("x" * 3001)
        with pytest.raises(ValueError, match=r"^not a rational number: ' x'$"):
            parse_rational(" x")

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


class TestExponentLimit:
    """Fraction builds 10**exp in full: parse_rational refuses an exponent
    past the interpreter's int-to-str digit limit before building it."""

    def test_exponents_up_to_the_limit_parse(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f"2.5E-{limit}") == Fraction(5, 2 * 10**limit)

    # Fraction('1e10000000') alone takes over 10 s
    @pytest.mark.parametrize("exponent", ["+4301", "-4301", "10000000", "-10000000", "000010000000"])
    def test_larger_exponents_are_refused_at_once(self, exponent):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^exponent beyond 4300 in magnitude: '1e"):
            parse_rational(f"1e{exponent}")
        assert time.perf_counter() - start < 1

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="Fraction reads underscores from 3.11 on")
    def test_underscored_exponents_as_fraction_reads_them(self):
        assert parse_rational("1e0_1") == 10
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^exponent beyond 4300 in magnitude: '1e1_000_000'$"):
            parse_rational("1e1_000_000")
        assert time.perf_counter() - start < 1

    @pytest.mark.skipif(sys.version_info >= (3, 11), reason="Fraction reads underscores from 3.11 on")
    def test_underscored_exponents_are_not_numbers_before_3_11(self):
        for text in ("1e0_1", "1e1_000_000"):
            with pytest.raises(ValueError, match=rf"^not a rational number: '{text}'$"):
                parse_rational(text)

    def test_an_exponent_longer_than_the_limit_is_not_a_number(self):
        # int() refuses the digits before any power is built
        with pytest.raises(ValueError, match=r"^not a rational number: '1e000"):
            parse_rational("1e" + "0" * 5000 + "1")

    def test_follows_the_interpreter_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5000)
        assert parse_rational("1e-5000") == Fraction(1, 10**5000)
        with pytest.raises(ValueError, match=r"^exponent beyond 5000 in magnitude: "):
            parse_rational("1e5001")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        assert parse_rational("1e5001") == 10**5001


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
