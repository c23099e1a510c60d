"""Zero-sum structure and multiplicity of signed index tuples.

A tuple picks m indices into the term list and m signs.  Its zero-sum
subsets are the positions whose signed terms cancel, and its
multiplicity is the Moebius-weighted count over the upset of partitions
all of whose blocks cancel.  Multiplicities are what cumulants sum:
kappa_m(S_n) = 2**-m * sum over all tuples of mult(T).

The one route is ``mult_from_profile``: the set-partition
moment-cumulant recursion over the zero-sum profile alone, at a cost
quadratic in the number of zero-sum subsets.  Every profile is built by
``_split_profile``, which joins the subset sums of two halves by value:
the offset-pattern sweep of ``recurrence.structural_slope`` splits each
pattern where its halves meet, and ``zero_sum_profile`` splits a tuple
at position m // 2.  A profile is a frozenset of bitmasks; ``mult-inspect``
lists the zero-sum partitions by ``partitions.all_partitions`` from its
masks and the minimal ones from its ``atoms``, and prints them.  The
lattice routes that the tests hold it against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import LacunaError, TooLarge

MAX_GROUND_SIZE = 12  # largest offset-pattern order, see ``recurrence``
MAX_PROFILE_SIZE = 20  # a profile holds up to 2**m masks, built before MAX_PROFILE_MASKS can be checked
MAX_PROFILE_MASKS = 2**MAX_GROUND_SIZE  # the recursion tests up to len(masks)**2 / 2 pairs


class SignedTuple(namedtuple("SignedTuple", "indices signs")):
    """Indices i_1..i_m (1-based, repeats allowed) with signs e_1..e_m."""

    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...], signs: tuple[int, ...]) -> SignedTuple:
        if len(indices) != len(signs):
            raise ValueError("indices and signs must have equal length")
        if not indices:
            raise ValueError("tuple must have at least one entry")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if any(i < 1 for i in indices):
            raise ValueError(f"indices are 1-based, got {min(indices)}")
        return super().__new__(cls, indices, signs)

    @property
    def order(self) -> int:
        return len(self.indices)


def signed_values(t: SignedTuple, terms: Sequence[int]) -> list[int]:
    """The m signed terms e_r * a_{i_r}; validates index range."""
    n = len(terms)
    for i in t.indices:
        if not 1 <= i <= n:
            raise LacunaError(f"index {i} outside 1..{n}")
    return [s * terms[i - 1] for i, s in zip(t.indices, t.signs)]


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Sum of every subset of the values, at the index whose bit i marks value i."""
    sums = [0]
    for value in values:
        sums += [x + value for x in sums]
    return sums


def _split_profile(left: Sequence[int], right: Sequence[int]) -> frozenset[int]:
    """Zero-sum profile of left + right, joining the two halves' subset sums by value."""
    by_value: dict[int, list[int]] = {}
    for j, value in enumerate(_subset_sums(right)):
        by_value.setdefault(value, []).append(j << len(left))
    return frozenset(i | j for i, value in enumerate(_subset_sums(left)) for j in by_value.get(-value, ()) if i | j)


def zero_sum_profile(t: SignedTuple, terms: Sequence[int]) -> frozenset[int]:
    """All nonempty zero-sum position subsets of the tuple, as bitmasks (position r is bit r-1)."""
    m = t.order
    if m > MAX_PROFILE_SIZE:
        raise TooLarge(f"zero-sum profile of {m} entries refused before it is built (limit m <= {MAX_PROFILE_SIZE})")
    values = signed_values(t, terms)
    return _split_profile(values[: m // 2], values[m // 2 :])


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
    Equals the Moebius sum over the zero-sum partition upset.
    """
    if len(masks) > MAX_PROFILE_MASKS:
        raise TooLarge(f"zero-sum profile of {len(masks)} subsets refused (limit {MAX_PROFILE_MASKS})")
    full = (1 << m) - 1
    if full not in masks:
        return 0
    kappa: dict[int, int] = {}
    for s in sorted(masks, key=int.bit_count):
        low = s & -s
        kappa[s] = 1 - sum(k for b, k in kappa.items() if b & low and b & s == b and s ^ b in kappa)
    return kappa[full]
