from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.errors import IndexOutOfRange, TooLarge
from lacuna.multiplicity import (
    MAX_PROFILE_MASKS,
    SignedTuple,
    atoms,
    mult_from_profile,
    signed_values,
    zero_sum_profile,
)
from lacuna.partitions import all_partitions
from lacuna.sequences import generate_terms, parse_sequence
from oracles import from_blocks, mult_crosscut, mult_moebius, mult_of_values, profile_from_values, top

# The alternating tuple with values (1, -1, 1, -1): the canonical case
# where the multiplicity is neither 0 nor 1.
ALTERNATING = SignedTuple((1, 1, 1, 1), (1, -1, 1, -1))
FIB = generate_terms(parse_sequence("fibonacci"), 8)
POW2 = generate_terms(parse_sequence("pow2plus1"), 8)


def all_tuples(n, m):
    for indices in product(range(1, n + 1), repeat=m):
        for signs in product((1, -1), repeat=m):
            yield SignedTuple(indices, signs)


def test_signed_tuple_validation():
    with pytest.raises(ValueError):
        SignedTuple((1, 2), (1,))
    with pytest.raises(ValueError):
        SignedTuple((1,), (2,))
    with pytest.raises(ValueError):
        SignedTuple((), ())
    with pytest.raises(ValueError):
        SignedTuple((0,), (1,))


def test_signed_tuple_is_an_immutable_value():
    tup = SignedTuple((1, 2), (1, -1))
    with pytest.raises(AttributeError):
        tup.signs = (1, 1)
    with pytest.raises(AttributeError):
        del tup.indices
    assert tup == SignedTuple((1, 2), (1, -1)) != SignedTuple((1, 2), (1, 1))
    assert len({tup, SignedTuple((1, 2), (1, -1))}) == 1


def test_signed_values_checks_range():
    with pytest.raises(IndexOutOfRange):
        signed_values(SignedTuple((3,), (1,)), [1, 2])


def test_zero_sum_profile_worked_example():
    # {1,2}, {2,3}, {1,4}, {3,4} and {1,2,3,4}: position r is bit r - 1.
    assert zero_sum_profile(ALTERNATING, [1]) == {0b0011, 0b0110, 0b1001, 0b1100, 0b1111}


def test_atoms_are_the_minimal_zero_sum_subsets():
    assert sorted(atoms(zero_sum_profile(ALTERNATING, [1]))) == [0b0011, 0b0110, 0b1001, 0b1100]
    assert atoms(zero_sum_profile(SignedTuple((1, 2, 3), (1, 1, -1)), FIB)) == {0b111}


def test_zero_sum_profile_empty_when_nothing_cancels():
    tup = SignedTuple((1, 2), (1, 1))
    assert zero_sum_profile(tup, POW2) == frozenset()


def test_zero_sum_profile_connected_triple():
    tup = SignedTuple((1, 2, 3), (1, 1, -1))  # 1 + 1 - 2 over fibonacci
    assert zero_sum_profile(tup, FIB) == {0b111}


@given(
    data=st.lists(
        st.tuples(st.integers(1, 8), st.sampled_from((1, -1))), min_size=1, max_size=10
    )
)
@settings(max_examples=150, deadline=None)
def test_zero_sum_profile_closed_under_disjoint_union(data):
    # Merging disjoint zero-sum blocks stays zero-sum; FIB's small repeated values cancel often.
    tup = SignedTuple(tuple(i for i, _ in data), tuple(s for _, s in data))
    masks = zero_sum_profile(tup, FIB)
    assert all(a | b in masks for a in masks for b in masks if not a & b)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_zero_sum_profile_matches_the_full_scan(values):
    # Small values collide often, so many subsets cancel across the split at m // 2.
    tup = SignedTuple(tuple(range(1, len(values) + 1)), (1,) * len(values))
    assert zero_sum_profile(tup, values) == profile_from_values(values)


def test_zero_sum_profile_guard():
    big = SignedTuple(tuple([1] * 21), tuple([1] * 21))
    with pytest.raises(TooLarge):
        zero_sum_profile(big, [1])


def test_upset_partitions_worked_example():
    masks = zero_sum_profile(ALTERNATING, [1])
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
    none = zero_sum_profile(SignedTuple((1, 2), (1, 1)), POW2)
    assert all_partitions(none, 2) == []
    connected = zero_sum_profile(SignedTuple((1, 2, 3), (1, 1, -1)), FIB)
    assert all_partitions(connected, 3) == [top(3)]


@pytest.mark.parametrize("route", [mult_moebius, mult_crosscut])
def test_multiplicity_examples(route):
    assert route(ALTERNATING, [1]) == -1
    assert route(SignedTuple((1, 2), (1, 1)), POW2) == 0
    assert route(SignedTuple((1, 2, 3), (1, 1, -1)), FIB) == 1


@pytest.mark.parametrize("terms", [FIB, POW2], ids=["fibonacci", "pow2plus1"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_moebius_equals_crosscut_exhaustively(terms, m):
    for tup in all_tuples(5, m):
        assert mult_moebius(tup, terms) == mult_crosscut(tup, terms)


def test_mult_vanishes_unless_total_cancels():
    for tup in all_tuples(4, 3):
        if sum(signed_values(tup, FIB)) != 0:
            assert mult_moebius(tup, FIB) == 0


@given(
    data=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), min_size=1, max_size=5
    ),
    seed=st.randoms(),
)
@settings(max_examples=80, deadline=None)
def test_mult_invariant_under_permutation(data, seed):
    indices = tuple(i for i, _ in data)
    signs = tuple(s for _, s in data)
    baseline = mult_moebius(SignedTuple(indices, signs), FIB)
    shuffled = list(range(len(data)))
    seed.shuffle(shuffled)
    tup = SignedTuple(
        tuple(indices[p] for p in shuffled), tuple(signs[p] for p in shuffled)
    )
    assert mult_moebius(tup, FIB) == baseline


@given(
    data=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), min_size=1, max_size=5
    )
)
@settings(max_examples=80, deadline=None)
def test_mult_invariant_under_global_sign_flip(data):
    indices = tuple(i for i, _ in data)
    signs = tuple(s for _, s in data)
    flipped = tuple(-s for s in signs)
    assert mult_moebius(SignedTuple(indices, signs), FIB) == mult_moebius(
        SignedTuple(indices, flipped), FIB
    )


def test_mult_zero_when_every_cancellation_splits():
    # Two widely separated scales: every zero-sum subset decomposes into
    # a low part and a high part, so the minimal partitions never join
    # to the top and the multiplicity collapses to zero.
    terms = [1, 10**9]
    tup = SignedTuple((1, 1, 2, 2), (1, -1, 1, -1))
    assert mult_moebius(tup, terms) == 0
    assert mult_crosscut(tup, terms) == 0
    # Same sign pattern without the scale split keeps multiplicity -1.
    assert mult_moebius(ALTERNATING, [1]) == -1


def test_mult_of_values_matches_tuple_route():
    for tup in all_tuples(4, 3):
        vals = signed_values(tup, POW2)
        assert mult_of_values(vals) == mult_moebius(tup, POW2)


@given(
    st.lists(st.integers(-3, 3), min_size=0, max_size=7).map(lambda v: v + [-sum(v)])
)
@settings(max_examples=150, deadline=None)
def test_profile_recursion_matches_lattice(values):
    # Small values make many zero-sum subsets, so the profiles are rich.
    terms = sorted({abs(v) for v in values})
    tup = SignedTuple(
        tuple(terms.index(abs(v)) + 1 for v in values),
        tuple(1 if v >= 0 else -1 for v in values),
    )
    assert mult_of_values(values) == mult_moebius(tup, terms)


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
    eight = SignedTuple((1,) * 8, (1, -1) * 4)  # 24 minimal partitions
    with pytest.raises(TooLarge, match="2\\*\\*24 subfamilies"):
        mult_crosscut(eight, [5])


def test_mult_handles_duplicate_indices():
    # a_1 = a_2 = 1 for fibonacci: (1, 2; +, -) is a zero-sum pair.
    tup = SignedTuple((1, 2), (1, -1))
    assert mult_moebius(tup, FIB) == 1
