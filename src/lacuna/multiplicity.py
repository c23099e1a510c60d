"""Zero-sum structure and multiplicity of signed values.

A tuple picks m indices into the term list and m signs; its signed
values e_r * a_{i_r} are all that matters here.  Its zero-sum subsets
are the positions whose values cancel, and its multiplicity is the
Moebius-weighted count over the upset of partitions all of whose blocks
cancel.  Multiplicities are what cumulants sum:
kappa_m(S_n) = 2**-m * sum over all tuples of mult(T).

The one route is ``mult_from_profile``: the set-partition
moment-cumulant recursion over the zero-sum profile alone, each subset
scanning only the earlier subsets that share its lowest element.  Every
profile is built by ``join_profile``, which joins a left half's
``closing_table`` with a right half's ``subset_sums`` by value.
``zero_sum_profile`` builds both tables for ``mult-inspect``, split at
position m // 2; the offset-pattern sweep of
``recurrence.structural_slope`` keeps each left half's table and each
right prefix's sums, and joins them where a pattern's halves meet.  A
profile is a frozenset of bitmasks; ``mult-inspect`` lists the zero-sum
partitions by ``partitions.all_partitions`` from its masks and the
minimal ones from its ``atoms``, and prints them.  The lattice routes
and the quadratic recursion that the tests hold it against live in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import TooLarge

MAX_GROUND_SIZE = 12  # largest offset-pattern order, see ``recurrence``
MAX_PROFILE_SIZE = 20  # a profile holds up to 2**m masks, built before MAX_PROFILE_MASKS can be checked
MAX_PROFILE_MASKS = 2**MAX_GROUND_SIZE  # the recursion tests up to len(masks)**2 / 2 pairs


def subset_sums(values: Sequence[int], sums: Sequence[int] = (0,)) -> list[int]:
    """Extend the subset sums ``sums`` of earlier values by the values; bit i of an index marks value i."""
    sums = list(sums)
    for value in values:
        sums += [x + value for x in sums]
    return sums


def closing_table(values: Sequence[int]) -> dict[int, list[int]]:
    """Minus each subset sum of the values -> the bitmasks of the subsets with that sum."""
    table: dict[int, list[int]] = {}
    for mask, value in enumerate(subset_sums(values)):
        table.setdefault(-value, []).append(mask)
    return table


def join_profile(table: dict[int, list[int]], sums: Sequence[int], shift: int) -> frozenset[int]:
    """The nonempty zero-sum subsets of a left half of ``shift`` values and a right half, by ``table`` and ``sums``."""
    return frozenset(i | j << shift for j, value in enumerate(sums) for i in table.get(value, ()) if i | j)


def zero_sum_profile(left: Sequence[int], right: Sequence[int]) -> frozenset[int]:
    """All nonempty zero-sum position subsets of left + right, as bitmasks (position r is bit r-1).

    Every split of the values gives the same profile: the halves' subset sums are joined by value.
    """
    m = len(left) + len(right)
    if m > MAX_PROFILE_SIZE:
        raise TooLarge(f"zero-sum profile of {m} entries refused before it is built (limit m <= {MAX_PROFILE_SIZE})")
    return join_profile(closing_table(left), subset_sums(right), len(left))


def atoms(masks: frozenset[int]) -> frozenset[int]:
    """The minimal zero-sum subsets: no other zero-sum subset lies inside one.

    A zero-sum partition is minimal in the upset exactly when all its
    blocks are atoms: a block B with a zero-sum proper subset C splits
    into C and B ^ C, which is zero-sum too.
    """
    return frozenset(s for s in masks if not any(b != s and b & s == b for b in masks))


def mult_from_profile(masks: frozenset[int], m: int) -> int:
    """Multiplicity of a tuple of order m from its zero-sum profile.

    Set-partition moment-cumulant recursion (Rota 1964; Speed 1983) with
    the profile's indicator as the moments: visiting the masks by size,
    kappa(S) = 1 - sum kappa(B) over profile masks B, strictly inside S,
    that hold the lowest element of S and leave S ^ B in the profile.
    Such a B has that element as its own lowest, so only the earlier
    masks of that element's group are scanned.  Equals the Moebius sum
    over the zero-sum partition upset.
    """
    if len(masks) > MAX_PROFILE_MASKS:
        raise TooLarge(f"zero-sum profile of {len(masks)} subsets refused (limit {MAX_PROFILE_MASKS})")
    full = (1 << m) - 1
    if full not in masks:
        return 0
    by_low: dict[int, list[tuple[int, int]]] = {}  # lowest bit -> the visited masks holding it, with their kappa
    for s in sorted(masks, key=int.bit_count):
        group = by_low.setdefault(s & -s, [])
        kappa = 1 - sum(k for b, k in group if b & s == b and s ^ b in masks)
        group.append((s, kappa))
    return kappa  # the full mask is the largest, so visited last
