"""Set partitions of {1..m} whose blocks come from a given family, for ``mult-inspect``.

A partition is the tuple of its block bitmasks (element e is bit e-1),
ordered by least element; only the CLI numbers elements and prints it.
Partitions are listed in restricted-growth-string order.  Their exact
number is counted first, so the cap is checked before any is built.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import TooLarge

# End to end on a 2-core host, mult-inspect lists 426,833 partitions (14 entries) in 2-3 s and
# 174 MB and 498,180 (18 entries) in 2-3 s and 215 MB; with the cap raised, 605,215 (16 entries)
# took 4.3 s and 243 MB.  Filtering all Bell(11) = 678,570 partitions once took 9-10 s and 315 MB.
MAX_PARTITIONS = 5 * 10**5


def all_partitions(blocks: Iterable[int], m: int) -> list[tuple[int, ...]]:
    """The partitions of {1..m} whose blocks all lie in ``blocks``, in restricted-growth-string order.

    Blocks are bitmasks (element e is bit e-1) and a partition is the
    tuple of its blocks.  Each step places a block holding the lowest
    unplaced element: ``live[s]`` keeps the blocks that leave a rest of
    the unplaced set s that can still be partitioned, and ``count[s]``
    counts the partitions of s, so the listing meets no dead end.
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
    # The k-th block of a partition holds label k in its growth string, read here as a base-m number.
    digits = {b: sum(m ** (m - 1 - e) for e in range(m) if b >> e & 1) for used in live.values() for b in used}
    out: list[tuple[int, ...]] = []

    def place(s: int, placed: tuple[int, ...]) -> None:
        if not s:
            out.append(placed)
            return
        for b in live[s]:
            place(s ^ b, placed + (b,))

    place(full, ())
    return sorted(out, key=lambda pi: sum(k * digits[b] for k, b in enumerate(pi)))
