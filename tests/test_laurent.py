from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.laurent import laurent_mul
from oracles import (
    laurent_from_terms,
    laurent_pow,
    laurent_power_const_term,
    laurent_power_const_term_full,
)

COSINE_PAIR = {1: 1, -1: 1}  # x + 1/x


def brute_force_zero_sum_count(terms, m):
    """Exhaustive count over all (2n)^m signed index tuples."""
    total = 0
    choices = [(i, s) for i in range(len(terms)) for s in (1, -1)]
    for combo in product(choices, repeat=m):
        if sum(s * terms[i] for i, s in combo) == 0:
            total += 1
    return total


small_laurent = st.dictionaries(
    st.integers(-6, 6), st.integers(-4, 4).filter(bool), max_size=5
)


def test_mul_square_of_cosine_pair():
    assert laurent_mul(COSINE_PAIR, COSINE_PAIR) == {2: 1, 0: 2, -2: 1}


def test_mul_cancels_exponents():
    a = 2**60  # exponents are full big integers
    assert laurent_mul({a: 1}, {-a: 1}) == {0: 1}


def test_mul_hand_convolution():
    left = {3: 1, -3: 1}
    right = {5: 1, -5: 1}
    assert laurent_mul(left, right) == {8: 1, 2: 1, -2: 1, -8: 1}


def test_mul_removes_cancelled_coefficients():
    assert laurent_mul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}


def test_pow_zero_is_one():
    assert laurent_pow(COSINE_PAIR, 0) == {0: 1}


@pytest.mark.parametrize("m,expected", [(2, 2), (4, 6)])
def test_const_term_of_cosine_pair(m, expected):
    assert laurent_power_const_term(COSINE_PAIR, m) == expected


def test_const_term_pow2plus1_order_four():
    poly = laurent_from_terms([2**k + 1 for k in range(1, 5)])
    assert laurent_power_const_term(poly, 4) == 224


def test_const_term_rejects_bad_power():
    with pytest.raises(ValueError):
        laurent_power_const_term(COSINE_PAIR, 0)


@pytest.mark.parametrize("seq", ["fibonacci", "pow2plus1"])
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_const_term_matches_exhaustive_tuple_count(seq, n, m):
    from lacuna.sequences import SequenceSpec, generate_terms

    spec = SequenceSpec(kind=seq)
    terms = generate_terms(spec, n)
    poly = laurent_from_terms(terms)
    assert laurent_power_const_term(poly, m) == brute_force_zero_sum_count(terms, m)


@given(poly=small_laurent, m=st.integers(1, 4))
@settings(max_examples=60)
def test_meet_in_middle_equals_full_expansion(poly, m):
    assert laurent_power_const_term(poly, m) == laurent_power_const_term_full(poly, m)


@given(poly=small_laurent, m=st.integers(1, 4))
@settings(max_examples=60)
def test_const_term_invariant_under_inversion(poly, m):
    flipped = {-e: c for e, c in poly.items()}
    assert laurent_power_const_term(poly, m) == laurent_power_const_term(flipped, m)


@given(a=small_laurent, b=small_laurent)
@settings(max_examples=60)
def test_mul_commutes(a, b):
    assert laurent_mul(a, b) == laurent_mul(b, a)
