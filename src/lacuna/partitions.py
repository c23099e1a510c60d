"""The lattice of set partitions of {1..m}.

Partitions are stored canonically (blocks sorted, ordered by least
element) so equality is structural and enumeration order is
reproducible.  Enumeration follows restricted-growth-string order.
The only Moebius values needed anywhere are those against the top
element, where mu(pi, top) = (-1)**(|pi|-1) * (|pi|-1)!.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

from .errors import GroundSetMismatch, TooLarge

# Bell numbers blow up fast.  This one limit bounds every lattice walk,
# here and in ``multiplicity``, and the offset-pattern order in ``recurrence``.
MAX_GROUND_SIZE = 12


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..m} into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Canonicalize and validate a collection of blocks."""
        cleaned = [tuple(sorted(b)) for b in blocks]
        if any(not block for block in cleaned):
            raise ValueError("empty block")
        canon = tuple(sorted(cleaned, key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canon:
            for e in block:
                if e in seen:
                    raise ValueError(f"element {e} appears in two blocks")
                seen.add(e)
        if not seen or seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover exactly {1..m}")
        return SetPartition(canon)

    @property
    def size(self) -> int:
        """Size m of the ground set."""
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_masks(self) -> tuple[int, ...]:
        """Each block as a bitmask (element e is bit e-1)."""
        return tuple(sum(1 << (e - 1) for e in block) for block in self.blocks)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


def top(m: int) -> SetPartition:
    """The one-block partition."""
    return SetPartition((tuple(range(1, m + 1)),))


def all_partitions(m: int) -> list[SetPartition]:
    """Every partition of {1..m}, in restricted-growth-string order."""
    if m < 1:
        raise TooLarge(f"ground set size must be >= 1, got {m}")
    if m > MAX_GROUND_SIZE:
        raise TooLarge(f"refusing to enumerate partitions of [{m}] (Bell-number guard)")
    out: list[SetPartition] = []
    rgs = [0] * m

    def descend(i: int, kmax: int) -> None:
        if i == m:
            blocks: list[list[int]] = [[] for _ in range(kmax + 1)]
            for pos, label in enumerate(rgs):
                blocks[label].append(pos + 1)
            out.append(SetPartition(tuple(tuple(b) for b in blocks)))
            return
        for label in range(kmax + 2):
            rgs[i] = label
            descend(i + 1, max(kmax, label))

    descend(1, 0)
    return out


def _check_same_ground(pi: SetPartition, sigma: SetPartition) -> int:
    if pi.size != sigma.size:
        raise GroundSetMismatch(f"ground sets [{pi.size}] and [{sigma.size}] differ")
    return pi.size


def is_refinement(pi: SetPartition, sigma: SetPartition) -> bool:
    """True when every block of ``pi`` lies inside some block of ``sigma``."""
    m = _check_same_ground(pi, sigma)
    owner = [0] * (m + 1)
    for idx, block in enumerate(sigma.blocks):
        for e in block:
            owner[e] = idx
    for block in pi.blocks:
        idx = owner[block[0]]
        if any(owner[e] != idx for e in block[1:]):
            return False
    return True


def join(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Least upper bound: connected components of the block-overlap relation."""
    m = _check_same_ground(pi, sigma)
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (pi, sigma):
        for block in part.blocks:
            for e in block[1:]:
                union(block[0], e)
    groups: dict[int, list[int]] = {}
    for e in range(1, m + 1):
        groups.setdefault(find(e), []).append(e)
    return SetPartition(tuple(sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])))


def moebius_to_top(pi: SetPartition) -> int:
    """mu(pi, top) = (-1)**(k-1) * (k-1)! with k the number of blocks."""
    k = pi.block_count
    return (-1) ** (k - 1) * factorial(k - 1)


def minimal_members(family: Sequence[SetPartition]) -> list[SetPartition]:
    """Members with no strictly finer member in the family (order preserved)."""
    out = []
    for cand in family:
        dominated = any(
            other != cand and is_refinement(other, cand) for other in family
        )
        if not dominated:
            out.append(cand)
    return out
