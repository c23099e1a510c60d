"""Set partitions of {1..m}, enumerated for ``mult-inspect``.

Partitions are stored canonically (blocks sorted, ordered by least
element) so equality is structural and enumeration order is
reproducible.  Enumeration follows restricted-growth-string order and
is refused a priori when the Bell number of partitions is over the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import TooLarge

# End to end on a 2-core host, mult-inspect took 1.3 s and 65 MB at Bell(10) = 115,975
# and 8-10 s and 315 MB at Bell(11) = 678,570 partitions; Bell(12) = 4,213,597 is refused.
MAX_PARTITIONS = 10**6


@dataclass(frozen=True, slots=True)
class SetPartition:
    """A partition of {1..m} into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def block_masks(self) -> tuple[int, ...]:
        """Each block as a bitmask (element e is bit e-1)."""
        return tuple(sum(1 << (e - 1) for e in block) for block in self.blocks)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


def all_partitions(m: int) -> list[SetPartition]:
    """Every partition of {1..m}, in restricted-growth-string order."""
    if m < 1:
        raise TooLarge(f"ground set size must be >= 1, got {m}")
    bell = [1]  # Bell(0), Bell(1), ...: Bell(j + 1) = sum_k C(j, k) Bell(k)
    while len(bell) <= m and bell[-1] <= MAX_PARTITIONS:
        bell.append(sum(comb(len(bell) - 1, k) * b for k, b in enumerate(bell)))
    if bell[-1] > MAX_PARTITIONS:
        raise TooLarge(f"[{m}] has at least {bell[-1]} partitions, over the cap {MAX_PARTITIONS}")
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
