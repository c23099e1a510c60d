"""Zero-sum structure and multiplicity of signed index tuples.

A tuple picks m indices into the term list and m signs.  Its zero-sum
subsets are the positions whose signed terms cancel, and its
multiplicity is the Moebius-weighted count over the upset of partitions
all of whose blocks cancel.  Multiplicities are what cumulants sum:
kappa_m(S_n) = 2**-m * sum over all tuples of mult(T).

The one route is ``mult_from_profile``: the set-partition
moment-cumulant recursion over the zero-sum profile alone, at a cost
quadratic in the number of zero-sum subsets.  The offset-pattern sweep
of ``recurrence.structural_slope`` builds each pattern's profile from
the subset sums of its two halves, and ``mult-inspect`` prints one
tuple's profile, with the zero-sum partitions listed by
``partitions.all_partitions`` from the profile's masks and the minimal
ones from ``ZeroSumProfile.atoms``.  The lattice routes that the tests
hold it against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import IndexOutOfRange, TooLarge
from .record import Record

MAX_GROUND_SIZE = 12  # largest offset-pattern order, see ``recurrence``
MAX_PROFILE_SIZE = 20  # 2**m subset scan guard
MAX_PROFILE_MASKS = 2**MAX_GROUND_SIZE  # the recursion tests up to len(masks)**2 / 2 pairs


class SignedTuple(Record):
    """Indices i_1..i_m (1-based, repeats allowed) with signs e_1..e_m."""

    __slots__ = ("indices", "signs")

    def __init__(self, indices: tuple[int, ...], signs: tuple[int, ...]) -> None:
        if len(indices) != len(signs):
            raise ValueError("indices and signs must have equal length")
        if not indices:
            raise ValueError("tuple must have at least one entry")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if any(i < 1 for i in indices):
            raise ValueError(f"indices are 1-based, got {min(indices)}")
        super().__init__(indices, signs)

    @property
    def order(self) -> int:
        return len(self.indices)


class ZeroSumProfile(Record):
    """All nonempty position subsets (as bitmasks) whose signed sum is zero."""

    __slots__ = ("m", "masks")

    def __init__(self, m: int, masks: frozenset[int]) -> None:
        super().__init__(m, masks)

    def subsets(self) -> list[tuple[int, ...]]:
        """Human view: sorted 1-based position subsets."""
        out = [
            tuple(p + 1 for p in range(self.m) if mask >> p & 1)
            for mask in sorted(self.masks)
        ]
        return out

    def atoms(self) -> frozenset[int]:
        """The minimal zero-sum subsets: no other zero-sum subset lies inside one.

        A zero-sum partition is minimal in the upset exactly when all its
        blocks are atoms: a block B with a zero-sum proper subset C splits
        into C and B ^ C, which is zero-sum too.
        """
        return frozenset(s for s in self.masks if not any(b != s and b & s == b for b in self.masks))


def signed_values(t: SignedTuple, terms: Sequence[int]) -> list[int]:
    """The m signed terms e_r * a_{i_r}; validates index range."""
    n = len(terms)
    for i in t.indices:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    return [s * terms[i - 1] for i, s in zip(t.indices, t.signs)]


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Sum of every subset of the values, at the index whose bit i marks value i."""
    sums = [0]
    for value in values:
        sums += [x + value for x in sums]
    return sums


def _profile_from_values(values: Sequence[int]) -> frozenset[int]:
    sums = _subset_sums(values)
    return frozenset(mask for mask in range(1, len(sums)) if sums[mask] == 0)


def zero_sum_profile(t: SignedTuple, terms: Sequence[int]) -> ZeroSumProfile:
    """All nonempty zero-sum position subsets of the tuple."""
    m = t.order
    if m > MAX_PROFILE_SIZE:
        raise TooLarge(f"2**{m} subset scan refused (limit m <= {MAX_PROFILE_SIZE})")
    return ZeroSumProfile(m, _profile_from_values(signed_values(t, terms)))


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
