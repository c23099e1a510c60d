"""Set partitions of {1..m} whose blocks come from a given family, for ``mult-inspect``.

A ``SetPartition`` is plain data: its blocks are sorted tuples, ordered
by least element, and only the CLI prints it.  Partitions are listed in
restricted-growth-string order.  Their exact number is counted first, so
the cap is checked before any is built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import TooLarge

# End to end on a 2-core host, mult-inspect lists 426,833 partitions (14 entries) in 5-6 s and
# 196 MB and 498,180 (18 entries) in 8-9 s and 240 MB, within the 9-10 s and 315 MB of filtering
# all Bell(11) = 678,570 partitions of an 11-entry tuple; 697,999 (20 entries) took 339 MB.
MAX_PARTITIONS = 5 * 10**5


SetPartition = namedtuple("SetPartition", "blocks")


def all_partitions(blocks: Iterable[int], m: int) -> list[SetPartition]:
    """The partitions of {1..m} whose blocks all lie in ``blocks``, in restricted-growth-string order.

    Blocks are bitmasks (element e is bit e-1).  Each step places a block
    holding the lowest unplaced element: ``live[s]`` keeps the blocks that
    leave a rest of the unplaced set s that can still be partitioned, and
    ``count[s]`` counts the partitions of s, so the listing meets no dead end.
    """
    by_low: dict[int, list[int]] = {}
    for b in blocks:
        by_low.setdefault(b & -b, []).append(b)
    count = {0: 1}
    live: dict[int, list[int]] = {}

    def tally(s: int) -> int:
        if s not in count:
            live[s] = [b for b in by_low.get(s & -s, ()) if b & s == b and tally(s ^ b)]
            count[s] = sum(count[s ^ b] for b in live[s])
        return count[s]

    full = (1 << m) - 1
    if tally(full) > MAX_PARTITIONS:
        raise TooLarge(f"{count[full]} partitions of [{m}] refused (limit {MAX_PARTITIONS})")
    elements = {b: tuple(e + 1 for e in range(m) if b >> e & 1) for used in live.values() for b in used}
    # The k-th block of a partition holds label k in its growth string, read here as a base-m number.
    digits = {block: sum(m ** (m - e) for e in block) for block in elements.values()}
    out: list[SetPartition] = []

    def place(s: int, placed: tuple[int, ...]) -> None:
        if not s:
            out.append(SetPartition(tuple(elements[b] for b in placed)))
            return
        for b in live[s]:
            place(s ^ b, placed + (b,))

    place(full, ())
    return sorted(out, key=lambda pi: sum(k * digits[block] for k, block in enumerate(pi.blocks)))
