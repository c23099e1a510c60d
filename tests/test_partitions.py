import pytest

from lacuna.errors import GroundSetMismatch, TooLarge
from lacuna.partitions import (
    SetPartition,
    all_partitions,
    is_refinement,
    join,
    minimal_members,
    moebius_to_top,
    top,
)
from oracles import bottom

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


@pytest.mark.parametrize("m,count", sorted(BELL.items()))
def test_partition_counts(m, count):
    parts = all_partitions(m)
    assert len(parts) == count
    assert len(set(parts)) == count


def test_enumeration_order_is_restricted_growth():
    listing = [str(p) for p in all_partitions(3)]
    assert listing == ["{1,2,3}", "{1,2}|{3}", "{1,3}|{2}", "{1}|{2,3}", "{1}|{2}|{3}"]


def test_size_guard():
    with pytest.raises(TooLarge):
        all_partitions(13)
    with pytest.raises(TooLarge):
        all_partitions(0)


def test_from_blocks_canonicalizes():
    pi = SetPartition.from_blocks([[4, 3], [2, 1]])
    assert pi.blocks == ((1, 2), (3, 4))
    assert str(pi) == "{1,2}|{3,4}"


def test_from_blocks_validates():
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[1], [3]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[1], []])


def test_refinement_basics():
    sigma = SetPartition.from_blocks([[1, 2], [3, 4]])
    for pi in all_partitions(4):
        assert is_refinement(bottom(4), pi)
    assert is_refinement(sigma, top(4))
    crossing = SetPartition.from_blocks([[1, 3], [2], [4]])
    assert not is_refinement(SetPartition.from_blocks([[1, 2], [3], [4]]), crossing)


def test_refinement_rejects_mismatched_ground_sets():
    with pytest.raises(GroundSetMismatch):
        is_refinement(top(3), top(4))


def test_join_of_crossing_pair_is_top():
    left = SetPartition.from_blocks([[1, 2], [3, 4]])
    right = SetPartition.from_blocks([[1, 4], [2, 3]])
    assert join(left, right) == top(4)


def test_join_unit_laws():
    for pi in all_partitions(4):
        assert join(pi, pi) == pi
        assert join(bottom(4), pi) == pi


@pytest.mark.parametrize("m,expected", [(1, 1), (2, -1), (4, -6)])
def test_moebius_to_top_by_block_count(m, expected):
    assert moebius_to_top(bottom(m)) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_moebius_row_sum_identity(m):
    total = sum(moebius_to_top(pi) for pi in all_partitions(m))
    assert total == (1 if m == 1 else 0)


def test_minimal_members_examples():
    pi1 = SetPartition.from_blocks([[1, 2], [3, 4]])
    pi2 = SetPartition.from_blocks([[1, 4], [2, 3]])
    assert minimal_members([pi1, pi2, top(4)]) == [pi1, pi2]
    assert minimal_members([top(4)]) == [top(4)]
    assert minimal_members([]) == []


def test_join_laws_exhaustively_m5():
    parts = all_partitions(5)
    for a in parts:
        for b in parts:
            ab = join(a, b)
            assert ab == join(b, a)
            assert is_refinement(a, ab) and is_refinement(b, ab)


def test_join_associative_m5():
    # Precompute the join table once; associativity is then index lookups.
    parts = all_partitions(5)
    index = {p: i for i, p in enumerate(parts)}
    table = [[index[join(a, b)] for b in parts] for a in parts]
    size = len(parts)
    for i in range(size):
        for j in range(size):
            ij = table[i][j]
            for k in range(size):
                assert table[ij][k] == table[i][table[j][k]]


def test_refinement_is_partial_order_m5():
    parts = all_partitions(5)
    table = {
        (i, j): is_refinement(a, b)
        for i, a in enumerate(parts)
        for j, b in enumerate(parts)
    }
    for i, a in enumerate(parts):
        assert table[i, i]
        for j, b in enumerate(parts):
            if i != j and table[i, j]:
                assert not table[j, i]
            if table[i, j]:
                for k in range(len(parts)):
                    if table[j, k]:
                        assert table[i, k]


def test_join_is_least_upper_bound_m4():
    parts = all_partitions(4)
    for a in parts:
        for b in parts:
            ab = join(a, b)
            for c in parts:
                if is_refinement(a, c) and is_refinement(b, c):
                    assert is_refinement(ab, c)
