import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import partitions
from lacuna.errors import TooLarge
from lacuna.partitions import all_partitions
from oracles import (
    GroundSetMismatch,
    block_masks,
    bottom,
    from_blocks,
    is_refinement,
    join,
    minimal_members,
    moebius_to_top,
    rgs_partitions,
    top,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def every_block(m):
    return range(1, 1 << m)


@pytest.mark.parametrize("m,count", sorted(BELL.items()))
def test_partition_counts(m, count):
    parts = all_partitions(every_block(m), m)
    assert len(parts) == count
    assert len(set(parts)) == count


def test_enumeration_order_is_restricted_growth():
    # {1,2,3}, {1,2}|{3}, {1,3}|{2}, {1}|{2,3}, {1}|{2}|{3}
    listing = all_partitions(every_block(3), 3)
    assert listing == [(0b111,), (0b011, 0b100), (0b101, 0b010), (0b001, 0b110), (0b001, 0b010, 0b100)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 7))
def test_listing_matches_the_filtered_lattice(data, m):
    # Random families are rarely closed under difference, so the listing
    # meets blocks whose rest cannot be partitioned.
    blocks = data.draw(st.sets(st.integers(1, (1 << m) - 1), max_size=40))
    expected = [masks for masks in map(block_masks, rgs_partitions(m)) if all(b in blocks for b in masks)]
    assert all_partitions(blocks, m) == expected


def test_size_guard():
    with pytest.raises(TooLarge, match="678570 partitions of \\[11\\]"):
        all_partitions(every_block(11), 11)
    with pytest.raises(TooLarge):
        rgs_partitions(13)
    with pytest.raises(TooLarge):
        rgs_partitions(0)


def test_partition_cap_is_the_exact_count(monkeypatch):
    # The guard fires before any partition is built: refusing the 678,570
    # partitions of [11] peaks near 0.5 MiB traced, listing them near 95 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="678570 partitions of \\[11\\] refused"):
            all_partitions(every_block(11), 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # {1,2}, {3,4}, {1,2,3,4} and the dead end {1,3}: two partitions.
    blocks = [0b0011, 0b1100, 0b1111, 0b0101]
    monkeypatch.setattr(partitions, "MAX_PARTITIONS", 202)
    with pytest.raises(TooLarge, match="203 partitions of \\[6\\] refused"):
        all_partitions(every_block(6), 6)
    monkeypatch.setattr(partitions, "MAX_PARTITIONS", 1)
    with pytest.raises(TooLarge, match="2 partitions of \\[4\\] refused"):
        all_partitions(blocks, 4)
    monkeypatch.undo()
    monkeypatch.setattr(partitions, "MAX_PARTITIONS", 203)
    assert len(all_partitions(every_block(6), 6)) == 203
    monkeypatch.setattr(partitions, "MAX_PARTITIONS", 2)
    assert all_partitions(blocks, 4) == [(0b1111,), (0b0011, 0b1100)]


def test_from_blocks_canonicalizes():
    pi = from_blocks([[4, 3], [2, 1]])
    assert pi.blocks == ((1, 2), (3, 4))


def test_from_blocks_validates():
    with pytest.raises(ValueError):
        from_blocks([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        from_blocks([[1], [3]])
    with pytest.raises(ValueError):
        from_blocks([[1], []])


def test_refinement_basics():
    sigma = from_blocks([[1, 2], [3, 4]])
    for pi in rgs_partitions(4):
        assert is_refinement(bottom(4), pi)
    assert is_refinement(sigma, top(4))
    crossing = from_blocks([[1, 3], [2], [4]])
    assert not is_refinement(from_blocks([[1, 2], [3], [4]]), crossing)


def test_refinement_rejects_mismatched_ground_sets():
    with pytest.raises(GroundSetMismatch):
        is_refinement(top(3), top(4))


def test_join_of_crossing_pair_is_top():
    left = from_blocks([[1, 2], [3, 4]])
    right = from_blocks([[1, 4], [2, 3]])
    assert join(left, right) == top(4)


def test_join_unit_laws():
    for pi in rgs_partitions(4):
        assert join(pi, pi) == pi
        assert join(bottom(4), pi) == pi


@pytest.mark.parametrize("m,expected", [(1, 1), (2, -1), (4, -6)])
def test_moebius_to_top_by_block_count(m, expected):
    assert moebius_to_top(bottom(m)) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_moebius_row_sum_identity(m):
    total = sum(moebius_to_top(pi) for pi in rgs_partitions(m))
    assert total == (1 if m == 1 else 0)


def test_minimal_members_examples():
    pi1 = from_blocks([[1, 2], [3, 4]])
    pi2 = from_blocks([[1, 4], [2, 3]])
    assert minimal_members([pi1, pi2, top(4)]) == [pi1, pi2]
    assert minimal_members([top(4)]) == [top(4)]
    assert minimal_members([]) == []


def test_join_laws_exhaustively_m5():
    parts = rgs_partitions(5)
    for a in parts:
        for b in parts:
            ab = join(a, b)
            assert ab == join(b, a)
            assert is_refinement(a, ab) and is_refinement(b, ab)


def test_join_associative_m5():
    # Precompute the join table once; associativity is then index lookups.
    parts = rgs_partitions(5)
    index = {p: i for i, p in enumerate(parts)}
    table = [[index[join(a, b)] for b in parts] for a in parts]
    size = len(parts)
    for i in range(size):
        for j in range(size):
            ij = table[i][j]
            for k in range(size):
                assert table[ij][k] == table[i][table[j][k]]


def test_refinement_is_partial_order_m5():
    parts = rgs_partitions(5)
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
    parts = rgs_partitions(4)
    for a in parts:
        for b in parts:
            ab = join(a, b)
            for c in parts:
                if is_refinement(a, c) and is_refinement(b, c):
                    assert is_refinement(ab, c)
