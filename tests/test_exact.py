from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lacuna.exact import format_rational


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(3, 2), "3/2"),
        (Fraction(-7, 8), "-7/8"),
        (Fraction(5), "5"),
        (Fraction(0), "0"),
        (Fraction(1495, 8), "1495/8"),
    ],
)
def test_format_rational(value, text):
    assert format_rational(value) == text
    assert Fraction(text) == value


@given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**12))
def test_serialization_round_trip_is_canonical(num, den):
    value = Fraction(num, den)
    back = Fraction(format_rational(value))
    assert back == value
    assert gcd(abs(back.numerator), back.denominator) == 1
    assert back.denominator >= 1
