from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.errors import TooLarge
from lacuna.multiplicity import MAX_PROFILE_MASKS, atoms, mult_from_profile, zero_sum_profile
from lacuna.partitions import all_partitions
from lacuna.sequences import generate_terms, parse_sequence
from oracles import from_blocks, mult_crosscut, mult_moebius, mult_of_values, profile_from_values, top

# The alternating values (1, -1, 1, -1): the canonical case where the
# multiplicity is neither 0 nor 1.
ALTERNATING = [1, -1, 1, -1]
CONNECTED = [1, 1, -2]  # a_1 + a_2 - a_3 over fibonacci
FIB = generate_terms(parse_sequence("fibonacci"), 8)
POW2 = generate_terms(parse_sequence("pow2plus1"), 8)


def signed_tuples(terms, m):
    """The signed values of every tuple of m entries over the terms, repeats allowed."""
    for picked in product(terms, repeat=m):
        for signs in product((1, -1), repeat=m):
            yield [s * a for s, a in zip(signs, picked)]


def profile(values):
    return zero_sum_profile(values[: len(values) // 2], values[len(values) // 2 :])


def test_zero_sum_profile_worked_example():
    # {1,2}, {2,3}, {1,4}, {3,4} and {1,2,3,4}: position r is bit r - 1.
    assert profile(ALTERNATING) == {0b0011, 0b0110, 0b1001, 0b1100, 0b1111}


def test_atoms_are_the_minimal_zero_sum_subsets():
    assert sorted(atoms(profile(ALTERNATING))) == [0b0011, 0b0110, 0b1001, 0b1100]
    assert atoms(profile(CONNECTED)) == {0b111}


def test_zero_sum_profile_empty_when_nothing_cancels():
    assert profile(POW2[:2]) == frozenset()


def test_zero_sum_profile_connected_triple():
    assert profile(CONNECTED) == {0b111}


@given(
    data=st.lists(
        st.tuples(st.integers(1, 8), st.sampled_from((1, -1))), min_size=1, max_size=10
    )
)
@settings(max_examples=150, deadline=None)
def test_zero_sum_profile_closed_under_disjoint_union(data):
    # Merging disjoint zero-sum blocks stays zero-sum; FIB's small repeated values cancel often.
    masks = profile([s * FIB[i - 1] for i, s in data])
    assert all(a | b in masks for a in masks for b in masks if not a & b)


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=12).flatmap(
        lambda values: st.tuples(st.just(values), st.integers(0, len(values)))
    )
)
@settings(max_examples=200, deadline=None)
def test_zero_sum_profile_matches_the_full_scan(split):
    # Small values collide often, so many subsets cancel across the split at k; every k gives one profile.
    values, k = split
    assert zero_sum_profile(values[:k], values[k:]) == profile_from_values(values)


def test_zero_sum_profile_guard():
    # The limit is on both halves together, whichever split the caller chose.
    for k in (0, 10, 21):
        with pytest.raises(TooLarge, match=r"^zero-sum profile of 21 entries refused before it is built"):
            zero_sum_profile([1] * k, [1] * (21 - k))


def test_upset_partitions_worked_example():
    masks = profile(ALTERNATING)
    assert all_partitions(masks, 4) == [
        top(4),
        from_blocks([[1, 2], [3, 4]]),
        from_blocks([[1, 4], [2, 3]]),
    ]
    assert all_partitions(atoms(masks), 4) == [
        from_blocks([[1, 2], [3, 4]]),
        from_blocks([[1, 4], [2, 3]]),
    ]


def test_upset_partitions_edge_profiles():
    assert all_partitions(profile(POW2[:2]), 2) == []
    assert all_partitions(profile(CONNECTED), 3) == [top(3)]


@pytest.mark.parametrize("route", [mult_moebius, mult_crosscut])
def test_multiplicity_examples(route):
    assert route(ALTERNATING) == -1
    assert route(POW2[:2]) == 0
    assert route(CONNECTED) == 1


@pytest.mark.parametrize("terms", [FIB, POW2], ids=["fibonacci", "pow2plus1"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_moebius_equals_crosscut_exhaustively(terms, m):
    for values in signed_tuples(terms[:5], m):
        assert mult_moebius(values) == mult_crosscut(values)


def test_mult_vanishes_unless_total_cancels():
    for values in signed_tuples(FIB[:4], 3):
        if sum(values) != 0:
            assert mult_moebius(values) == 0


@given(
    data=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), min_size=1, max_size=5
    ),
    seed=st.randoms(),
)
@settings(max_examples=80, deadline=None)
def test_mult_invariant_under_permutation(data, seed):
    values = [s * FIB[i - 1] for i, s in data]
    baseline = mult_moebius(values)
    seed.shuffle(values)
    assert mult_moebius(values) == baseline


@given(
    data=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), min_size=1, max_size=5
    )
)
@settings(max_examples=80, deadline=None)
def test_mult_invariant_under_global_sign_flip(data):
    values = [s * FIB[i - 1] for i, s in data]
    assert mult_moebius(values) == mult_moebius([-v for v in values])


def test_mult_zero_when_every_cancellation_splits():
    # Two widely separated scales: every zero-sum subset decomposes into
    # a low part and a high part, so the minimal partitions never join
    # to the top and the multiplicity collapses to zero.
    values = [1, -1, 10**9, -(10**9)]
    assert mult_moebius(values) == 0
    assert mult_crosscut(values) == 0
    # Same sign pattern without the scale split keeps multiplicity -1.
    assert mult_moebius(ALTERNATING) == -1


def test_mult_of_values_matches_tuple_route():
    for values in signed_tuples(POW2[:4], 3):
        assert mult_of_values(values) == mult_moebius(values)


@given(
    st.lists(st.integers(-3, 3), min_size=0, max_size=7).map(lambda v: v + [-sum(v)])
)
@settings(max_examples=150, deadline=None)
def test_profile_recursion_matches_lattice(values):
    # Small values make many zero-sum subsets, so the profiles are rich.
    assert mult_of_values(values) == mult_moebius(values)


def test_profile_recursion_large_order():
    # m = 12 is beyond what the lattice oracle finishes quickly.
    assert mult_of_values([1, -1] * 6) == -9460
    assert mult_of_values([0] * 12) == 0


def test_multiplicity_guards_refuse_large_inputs():
    with pytest.raises(TooLarge):
        mult_of_values([1, -1] * 11)
    with pytest.raises(TooLarge):
        mult_from_profile(frozenset(range(1, MAX_PROFILE_MASKS + 2)), 13)


def test_crosscut_oracle_refuses_many_subfamilies():
    eight = [5, -5] * 4  # 24 minimal partitions
    with pytest.raises(TooLarge, match="2\\*\\*24 subfamilies"):
        mult_crosscut(eight)


def test_mult_handles_duplicate_indices():
    # a_1 = a_2 = 1 for fibonacci: (1, 2; +, -) is a zero-sum pair.
    assert mult_moebius([FIB[0], -FIB[1]]) == 1
