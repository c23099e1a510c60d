"""Zero-sum structure and multiplicity of signed index tuples.

A tuple picks m indices into the term list and m signs.  Its zero-sum
subsets are the positions whose signed terms cancel, and its
multiplicity is the Moebius-weighted count over the upset of partitions
all of whose blocks cancel.  Multiplicities are what cumulants sum:
kappa_m(S_n) = 2**-m * sum over all tuples of mult(T).

The production route is ``mult_of_values``: it reads the zero-sum
profile off the signed values and runs the set-partition
moment-cumulant recursion over the profile alone (``mult_from_profile``),
at a cost quadratic in the number of zero-sum subsets.

Two independently coded lattice routes stay as correctness oracles:

* ``mult_moebius``   - the defining Moebius sum over zero-sum partitions;
* ``mult_crosscut``  - the alternating count of subfamilies of minimal
  zero-sum partitions whose join is the top partition.

Both are exhaustive over the partition lattice and guarded to small m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import IndexOutOfRange, TooLarge
from .partitions import (
    MAX_GROUND_SIZE,
    SetPartition,
    all_partitions,
    join,
    minimal_members,
    moebius_to_top,
    top,
)

MAX_PROFILE_SIZE = 20  # 2**m subset scan guard
MAX_PROFILE_MASKS = 2**MAX_GROUND_SIZE  # the recursion tests up to len(masks)**2 / 2 pairs
MAX_CROSSCUT_SUBFAMILIES = 2**14  # each costs up to len(mins) joins of ~15 us
_PROFILE_CLOSURE_CHECK_LIMIT = 128


@dataclass(frozen=True)
class SignedTuple:
    """Indices i_1..i_m (1-based, repeats allowed) with signs e_1..e_m."""

    indices: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.signs):
            raise ValueError("indices and signs must have equal length")
        if not self.indices:
            raise ValueError("tuple must have at least one entry")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if any(i < 1 for i in self.indices):
            raise ValueError(f"indices are 1-based, got {min(self.indices)}")

    @property
    def order(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ZeroSumProfile:
    """All nonempty position subsets (as bitmasks) whose signed sum is zero."""

    m: int
    masks: frozenset[int]

    def subsets(self) -> list[tuple[int, ...]]:
        """Human view: sorted 1-based position subsets."""
        out = [
            tuple(p + 1 for p in range(self.m) if mask >> p & 1)
            for mask in sorted(self.masks)
        ]
        return out


def signed_values(t: SignedTuple, terms: Sequence[int]) -> list[int]:
    """The m signed terms e_r * a_{i_r}; validates index range."""
    n = len(terms)
    for i in t.indices:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    return [s * terms[i - 1] for i, s in zip(t.indices, t.signs)]


def _subset_sums(values: Sequence[int]) -> list[int]:
    m = len(values)
    sums = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def _profile_from_values(values: Sequence[int]) -> frozenset[int]:
    sums = _subset_sums(values)
    return frozenset(mask for mask in range(1, len(sums)) if sums[mask] == 0)


def _assert_disjoint_union_closed(masks: frozenset[int]) -> None:
    # Merging disjoint zero-sum blocks stays zero-sum; cheap self-check,
    # skipped for very large profiles.
    if len(masks) > _PROFILE_CLOSURE_CHECK_LIMIT:
        return
    for a in masks:
        for b in masks:
            if a & b == 0 and (a | b) not in masks:
                raise AssertionError("zero-sum profile not closed under disjoint union")


def zero_sum_profile(t: SignedTuple, terms: Sequence[int]) -> ZeroSumProfile:
    """All nonempty zero-sum position subsets of the tuple."""
    m = t.order
    if m > MAX_PROFILE_SIZE:
        raise TooLarge(f"2**{m} subset scan refused (limit m <= {MAX_PROFILE_SIZE})")
    masks = _profile_from_values(signed_values(t, terms))
    _assert_disjoint_union_closed(masks)
    return ZeroSumProfile(m, masks)


def upset_partitions(profile: ZeroSumProfile, m: int) -> list[SetPartition]:
    """Partitions of {1..m} whose every block is a zero-sum subset."""
    if m != profile.m:
        raise ValueError("profile was computed for a different tuple order")
    if m > MAX_GROUND_SIZE:
        raise TooLarge(f"partition lattice of [{m}] refused (limit m <= {MAX_GROUND_SIZE})")
    out = []
    for pi in all_partitions(m):
        if all(mask in profile.masks for mask in pi.block_masks()):
            out.append(pi)
    return out


def mult_moebius(t: SignedTuple, terms: Sequence[int]) -> int:
    """Multiplicity as the Moebius sum over the zero-sum partition upset."""
    profile = zero_sum_profile(t, terms)
    return sum(moebius_to_top(pi) for pi in upset_partitions(profile, t.order))


def mult_crosscut(t: SignedTuple, terms: Sequence[int]) -> int:
    """Multiplicity as an alternating count over minimal zero-sum partitions.

    Sums (-1)**(|J|+1) over nonempty subfamilies J of the minimal
    zero-sum partitions whose join is the top partition.  Equals
    ``mult_moebius`` for every tuple; coded independently as a check.
    """
    m = t.order
    profile = zero_sum_profile(t, terms)
    upset = upset_partitions(profile, m)
    if not upset:
        return 0
    mins = minimal_members(upset)
    if 2 ** len(mins) > MAX_CROSSCUT_SUBFAMILIES:
        raise TooLarge(
            f"{len(mins)} minimal partitions give 2**{len(mins)} subfamilies; crosscut "
            f"sweep refused (limit {MAX_CROSSCUT_SUBFAMILIES})"
        )
    one = top(m)
    total = 0
    for pick in range(1, 1 << len(mins)):
        joined = None
        for j, pi in enumerate(mins):
            if pick >> j & 1:
                joined = pi if joined is None else join(joined, pi)
        if joined == one:
            total += -1 if pick.bit_count() % 2 == 0 else 1
    return total


# ---------------------------------------------------------------------------
# Production route shared by the cumulant and offset-pattern sweeps.


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


def mult_of_values(values: Sequence[int]) -> int:
    """Multiplicity of a tuple given directly by its signed values.

    Any injective integer encoding of the summands works here, which is
    what lets the recurrence module reuse this for offset patterns.
    Returns 0 immediately unless the full sum vanishes.
    """
    if len(values) > MAX_PROFILE_SIZE:
        raise TooLarge(f"2**{len(values)} subset scan refused (limit m <= {MAX_PROFILE_SIZE})")
    if sum(values) != 0:
        return 0
    return mult_from_profile(_profile_from_values(values), len(values))
