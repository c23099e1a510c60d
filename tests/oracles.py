"""Independently coded reference routes that the tests hold production against.

None of these ships in ``lacuna``: each recomputes a quantity that the
package computes one way, by a different route, so that agreement is
evidence for both.

* Laurent powers by repeated multiplication and their constant terms,
  by full expansion or meet-in-the-middle, against ``prefix_moments``.
* ``moment_dfs``: a pruned depth-first count of signed zero-sum tuples.
* ``quadrature_full_table``: the quadrature oracle on a full cosine table
  and all node sums at once, against the streamed half-table oracle.
* ``cumulant_via_multiplicity``: cumulants as summed tuple
  multiplicities, against the moment route.
* ``cumulants_to_moments``: the inverse of ``moments_to_cumulants``.
* ``unscale``: the package's integer counts N_m and K_m as the exact
  values 2**-m N_m and 2**-m K_m that the tests state.
* ``rounded_powers_fraction``: ``roundpow`` terms on reduced fractions,
  against the integer loop of ``generate_terms``.
* Offset patterns with subset cancellation read off the recurrence
  modulus (``pattern_multiplicity``, ``eta_relation_holds``), and
  ``slope_walk``, a depth-first walk over sorted offset patterns, against
  the meet-in-the-middle ``structural_slope``; both score patterns with
  ``mult_of_values``, a tuple's multiplicity from its signed values, on
  the full 2**m subset scan ``profile_from_values``, which
  ``zero_sum_profile`` is also held against at every split of the values.
* ``poly_reduce_mod``, division with remainder over the rationals,
  against the integer pseudo-division behind ``_encoded_powers``,
  ``rational_roots_fraction``, the p/q test evaluated on fractions,
  against the integer ``has_rational_root``, and
  ``minimal_polynomial_fraction``, Berlekamp-Massey over the rationals,
  against the fraction-free ``minimal_polynomial``.
* Tuple multiplicities over the partition lattice, against the profile
  recursion ``mult_from_profile``: ``mult_moebius`` (the defining
  Moebius sum over zero-sum partitions) and ``mult_crosscut`` (the
  alternating count of subfamilies of minimal zero-sum partitions whose
  join is the top partition), with the lattice operations they use and
  the restricted-growth enumeration of every partition of ``{1..m}``
  (``rgs_partitions``), which ``all_partitions`` is also held against
  through ``block_masks``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from math import comb, factorial, floor, gcd, isqrt, lcm
from typing import Iterable, Sequence

from lacuna import moments
from lacuna.errors import LacunaError, TooLarge
from lacuna.laurent import SparseLaurent, laurent_mul
from lacuna.moments import independent_cumulants, moment_vector, moments_to_cumulants
from lacuna.multiplicity import (
    MAX_GROUND_SIZE,
    MAX_PROFILE_SIZE,
    mult_from_profile,
    zero_sum_profile,
)
from lacuna.recurrence import _encoded_powers, _validate_pattern_modulus
from lacuna.sequences import HALF_INTEGER_GUARD

MAX_SWEEP_ORDER = 6
MAX_SWEEP_TERMS = 12
MAX_CROSSCUT_SUBFAMILIES = 2**14  # each costs up to len(mins) joins of ~15 us
MAX_LATTICE_PARTITIONS = 10**6  # admits Bell(11) = 678,570, refuses Bell(12)


# --- Laurent polynomials ---------------------------------------------------


def laurent_from_terms(terms: Iterable[int]) -> SparseLaurent:
    """Build sum_k (x**a_k + x**-a_k); duplicate terms stack coefficients."""
    poly: SparseLaurent = {}
    for a in terms:
        poly[a] = poly.get(a, 0) + 1
        poly[-a] = poly.get(-a, 0) + 1
    return poly


def laurent_pow(p: SparseLaurent, k: int) -> SparseLaurent:
    """p**k by repeated multiplication; k = 0 gives the constant 1."""
    if k < 0:
        raise ValueError("negative power of a Laurent polynomial")
    out: SparseLaurent = {0: 1}
    for _ in range(k):
        out = laurent_mul(out, p)
    return out


def laurent_power_const_term(p: SparseLaurent, m: int) -> int:
    """[x^0] p**m by meet-in-the-middle.

    Forms A = p**ceil(m/2) and B = p**floor(m/2) and returns
    sum_e A[e] * B[-e].  The two half-powers stay tractable where the
    full m-th power would not.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    hi = (m + 1) // 2
    a = laurent_pow(p, hi)
    b = a if m % 2 == 0 else laurent_pow(p, m // 2)
    if len(b) < len(a):
        a, b = b, a
    return sum(c * b.get(-e, 0) for e, c in a.items())


def laurent_power_const_term_full(p: SparseLaurent, m: int) -> int:
    """[x^0] p**m by full expansion.  Fallback for tiny inputs and tests."""
    if m < 1:
        raise ValueError("power must be >= 1")
    return laurent_pow(p, m).get(0, 0)


# --- moments and cumulants -------------------------------------------------


def moment_dfs(terms: Sequence[int], m: int) -> Fraction:
    """E[S_n**m] by pruned depth-first search; independent of the Laurent route.

    Walks multisets of (term, sign) picks with terms taken in
    non-increasing order, pruning once |partial sum| exceeds
    (slots left) * (largest remaining term), which no completion can
    cancel.  Each multiset is weighted by its number of orderings.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    values = sorted(terms, reverse=True)
    n = len(values)
    fact = [factorial(i) for i in range(m + 1)]
    total = 0

    def descend(symbol: int, left: int, partial: int, weight_denom: int) -> None:
        nonlocal total
        if left == 0:
            if partial == 0:
                total += fact[m] // weight_denom
            return
        if symbol == 2 * n:
            return
        value = values[symbol // 2]
        if abs(partial) > left * value:
            return  # every remaining symbol is <= value in magnitude
        contribution = value if symbol % 2 == 0 else -value
        for copies in range(left + 1):
            descend(
                symbol + 1,
                left - copies,
                partial + copies * contribution,
                weight_denom * fact[copies],
            )

    descend(0, m, 0, 1)
    return Fraction(total, 2**m)


def quadrature_full_table(terms: Sequence[int], m: int) -> float:
    """``moment_oracle_quadrature`` on a table of all N cosines and a sum for every node j <= N//2.

    The pipeline the streamed oracle replaced: table[N - r] mirrors table[r], cosines come in slabs of
    ~2**15, and the blocks are cut from the full sums.  It reads ``_ORACLE_BLOCK`` at call time, so a
    test can patch both sides.  The two must agree bit for bit.
    """
    np = moments.load_numpy()
    samples, scale, block = m * max(map(abs, terms)) + 1, 63 - len(terms).bit_length(), moments._ORACLE_BLOCK
    half = samples // 2 + 1
    width = isqrt(half - 1) + 1
    step = np.longdouble("6.28318530717958647692528676655900576839") / samples
    t = step * np.arange(width).astype(np.longdouble)
    u = step * np.arange(0, half, width).astype(np.longdouble)[:, None]
    cos_t, sin_t, rows = np.cos(t), np.sin(t), max(1, (1 << 15) // width)
    table = np.empty(samples, dtype=np.int64)
    for row in range(0, u.size, rows):
        slab = (np.cos(u[row : row + rows]) * cos_t - np.sin(u[row : row + rows]) * sin_t).ravel()
        table[row * width : min(half, (row + rows) * width)] = np.rint(np.ldexp(slab[: half - row * width], scale))
    table[half:] = table[samples - half : 0 : -1]
    sums = np.zeros(half, dtype=np.int64)
    for a in terms:
        sums += table.take(np.arange(half, dtype=np.int64) * (a % samples) % samples)

    def power_sum(values) -> np.longdouble:
        x = np.ldexp(values.astype(np.longdouble), -scale)
        power = x.copy()
        for bit in bin(m)[3:]:
            power *= power
            if bit == "1":
                power *= x
        return power.sum(dtype=np.longdouble)

    total = sum(power_sum(sums[lo : lo + block]) for lo in range(0, half, block))
    ends = power_sum(sums[[0, -1]] if samples % 2 == 0 else sums[:1])
    return float((2 * total - ends) / samples)


def cumulants_to_moments(cumulants: Sequence[Fraction]) -> list[Fraction]:
    """Raw moments from cumulants; inverse of ``moments_to_cumulants``."""
    out: list[Fraction] = []
    for m in range(1, len(cumulants) + 1):
        acc = Fraction(cumulants[m - 1])
        for j in range(1, m):
            acc += comb(m - 1, j - 1) * Fraction(cumulants[j - 1]) * out[m - j - 1]
        out.append(acc)
    return out


def cumulant(terms: Sequence[int], m: int) -> Fraction:
    """kappa_m(S_n) exactly, through the moment route."""
    return cumulant_vector(terms, m)[m - 1]


def cumulant_vector(terms: Sequence[int], m_max: int) -> list[Fraction]:
    """kappa_1..kappa_{m_max}, sharing the moment computation."""
    return unscale(moments_to_cumulants(moment_vector(terms, m_max)))


def unscale(counts: Sequence[int]) -> list[Fraction]:
    """2**-m times the m-th count, m = 1, 2, ..., as exact rationals."""
    return [Fraction(count, 2**m) for m, count in enumerate(counts, start=1)]


def cumulant_via_multiplicity(terms: Sequence[int], n: int, m: int) -> Fraction:
    """kappa_m(S_n) as 2**-m times the sum of tuple multiplicities.

    Exhaustive over sorted representatives of (index, sign) multisets
    with multinomial weights; guarded to small m and n.  Must agree
    with ``cumulant`` on every input; kept as an independently coded
    route through the partition calculus.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > MAX_SWEEP_ORDER or n > MAX_SWEEP_TERMS:
        raise TooLarge(
            f"tuple sweep refused for m={m}, n={n} "
            f"(limits m <= {MAX_SWEEP_ORDER}, n <= {MAX_SWEEP_TERMS})"
        )
    if n < 1 or n > len(terms):
        raise LacunaError(f"n={n} outside the materialized {len(terms)} terms")
    signed = []
    for i in range(n):
        signed.append(terms[i])
        signed.append(-terms[i])
    fact = [factorial(i) for i in range(m + 1)]
    total = 0
    for combo in combinations_with_replacement(range(2 * n), m):
        partial = 0
        for s in combo:
            partial += signed[s]
        if partial:
            continue
        mult = mult_of_values([signed[s] for s in combo])
        if not mult:
            continue
        weight = fact[m]
        run = 1
        for prev, cur in zip(combo, combo[1:]):
            if prev == cur:
                run += 1
            else:
                weight //= fact[run]
                run = 1
        weight //= fact[run]
        total += weight * mult
    return Fraction(total, 2**m)


def independent_cumulant(m: int) -> Fraction:
    """Cumulant of a single arcsine summand; zero for odd m."""
    return Fraction(independent_cumulants(m)[m - 1], 2**m)


# --- rounded powers --------------------------------------------------------


def rounded_powers_fraction(eta_decimal: str, prec: int, n: int) -> list[int]:
    """round(eta**k), k = 1..n, on reduced fractions, with the production route's guard and messages.

    The power eta**k and its upper end (eta + 2**-prec)**k are Fractions;
    the distance to the nearest half-integer less the propagated error
    must clear the Fraction of ``HALF_INTEGER_GUARD``, else LacunaError.
    """
    guard = Fraction(*HALF_INTEGER_GUARD)
    ratio = Fraction(eta_decimal)
    slack = ratio + Fraction(1, 2**prec)
    power = power_hi = Fraction(1)
    terms = []
    for k in range(1, n + 1):
        power *= ratio
        power_hi *= slack
        nearest = floor(power + Fraction(1, 2))
        distance_to_half = Fraction(1, 2) - abs(power - nearest)
        if distance_to_half - (power_hi - power) < guard:
            raise LacunaError(
                f"eta**{k} is {float(distance_to_half):.3g} from a half-integer, "
                f"which its error at {prec} bits plus the guard {float(guard):.3g} covers"
            )
        if nearest < 1:
            raise LacunaError(f"round(eta**{k}) = {nearest} is not positive")
        terms.append(nearest)
    return terms


# --- offset patterns -------------------------------------------------------


def profile_from_values(values: Sequence[int]) -> frozenset[int]:
    """Zero-sum profile by the full scan: every nonempty mask whose subset sum is zero."""
    sums = [0]
    for value in values:
        sums += [x + value for x in sums]
    return frozenset(mask for mask in range(1, len(sums)) if sums[mask] == 0)


def mult_of_values(values: Sequence[int]) -> int:
    """Multiplicity of a tuple given directly by its signed values.

    Any injective integer encoding of the summands works here, which is
    what lets ``pattern_multiplicity`` and ``slope_walk`` score offset
    patterns.  Returns 0 immediately unless the full sum vanishes.
    """
    if len(values) > MAX_PROFILE_SIZE:
        raise TooLarge(f"2**{len(values)} subset scan refused (limit m <= {MAX_PROFILE_SIZE})")
    if sum(values) != 0:
        return 0
    return mult_from_profile(profile_from_values(values), len(values))


def slope_walk(m: int, p: Sequence[int], gap_bound: int) -> int:
    """``structural_slope(m, p, gap_bound)[-1]``, the slope at ``gap_bound``, by a depth-first walk.

    Entries are placed one position at a time, carrying the partial sum
    of the packed encodings; within a run of equal offsets ``+`` comes
    before ``-``.  The last entry is not enumerated: it is looked up as
    the signed encoding that closes the partial sum to zero.  Each
    zero-sum pattern is scored by ``mult_of_values`` and weighted by m!
    over the factorials of its runs of equal entries.  Unguarded: it
    visits (gap_bound + 1)**(m - 2) * 2**(m - 1) prefixes.
    """
    encoded = _encoded_powers(_validate_pattern_modulus(p), (m - 1) * gap_bound, m)
    closers: dict[int, list[tuple[int, int]]] = {}  # signed encoding -> its entries
    for off, value in enumerate(encoded):
        for sign in (1, -1):
            closers.setdefault(sign * value, []).append((off, sign))
    entries: list[tuple[int, int]] = []
    total = 0

    def closed_contribution(pattern: list[tuple[int, int]]) -> int:
        weight = factorial(m)
        for _, run in groupby(pattern):
            weight //= factorial(len(list(run)))
        return weight * mult_of_values([sign * encoded[off] for off, sign in pattern])

    def walk(partial: int, last_off: int, last_sign: int, reach: int) -> None:
        nonlocal total
        if len(entries) == m - 1:
            for off, sign in closers.get(-partial, ()):
                if last_off < off <= last_off + reach or (off == last_off and sign <= last_sign):
                    total += closed_contribution(entries + [(off, sign)])
            return
        for off in range(last_off, last_off + reach + 1):
            for sign in (1, -1) if off > last_off or last_sign == 1 else (-1,):
                entries.append((off, sign))
                walk(partial + sign * encoded[off], off, sign, gap_bound)
                entries.pop()

    # The first entry sits at offset 0; a virtual (0, +) before it allows either sign.
    walk(0, 0, 1, 0)
    return total



@dataclass(frozen=True)
class OffsetPattern:
    """Offsets of a tuple's indices from their minimum, plus signs.

    The minimum offset is 0 by construction; repeats are allowed and
    mean repeated indices.
    """

    offsets: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.signs):
            raise ValueError("offsets and signs must have equal length")
        if not self.offsets:
            raise ValueError("pattern must have at least one entry")
        if min(self.offsets) != 0:
            raise ValueError("smallest offset must be 0")
        if any(o < 0 for o in self.offsets):
            raise ValueError("offsets must be nonnegative")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def order(self) -> int:
        return len(self.offsets)

    def gap(self) -> int:
        """Largest difference between consecutive sorted offsets."""
        ordered = sorted(self.offsets)
        return max((b - a for a, b in zip(ordered, ordered[1:])), default=0)


def _fraction_strip(coeffs: Sequence[int | Fraction]) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def minimal_polynomial_fraction(terms: Sequence[int]) -> tuple[int, ...]:
    """Shortest recurrence polynomial of the terms by Berlekamp-Massey over the rationals.

    The connection polynomial C = 1 + c_1 x + ... + c_L x**L keeps its
    constant term 1, each update divides by the last discrepancy, and the
    result z**L * C(1/z) is cleared of denominators and made primitive.
    """
    c, b = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for k in range(len(terms)):
        delta = sum(x * terms[k - i] for i, x in enumerate(c))
        if delta == 0:
            shift += 1
            continue
        factor = delta / last
        updated = c + [Fraction(0)] * (len(b) + shift - len(c))
        for i, x in enumerate(b):
            updated[i + shift] -= factor * x
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, c, delta, 1
        else:
            shift += 1
        c = updated
    c += [Fraction(0)] * (length + 1 - len(c))
    scale = lcm(*(x.denominator for x in c))
    coeffs = [int(x * scale) for x in reversed(c)]
    common = gcd(*coeffs)
    return tuple(x // common for x in coeffs)


def poly_reduce_mod(q: Sequence[int | Fraction], p: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Remainder of q on division by p over the rationals.

    Coefficients are low-to-high; the result is trimmed, so divisibility
    is ``poly_reduce_mod(q, p) == ()``.
    """
    divisor = _fraction_strip(p)
    if not divisor:
        raise LacunaError("reduction modulo the zero polynomial")
    rem = _fraction_strip(q)
    d = len(divisor) - 1
    lead = divisor[-1]
    while len(rem) - 1 >= d and rem:
        shift = len(rem) - 1 - d
        factor = rem[-1] / lead
        for i in range(d + 1):
            rem[shift + i] -= factor * divisor[i]
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def _divisors(value: int) -> list[int]:
    value = abs(value)
    small = [i for i in range(1, isqrt(value) + 1) if value % i == 0]
    return sorted(set(small + [value // i for i in small]))


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots_fraction(p: Sequence[int]) -> list[Fraction]:
    """All rational roots of an integer polynomial, by the p/q test on fractions; unguarded."""
    coeffs = _fraction_strip(p)
    if not coeffs:
        raise LacunaError("rational roots of the zero polynomial")
    roots: list[Fraction] = []
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return roots
    for num in _divisors(int(coeffs[0])):
        for den in _divisors(int(coeffs[-1])):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and _poly_eval(coeffs, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def eta_relation_holds(pattern: OffsetPattern, p: Sequence[int]) -> bool:
    """Whether the signed power sum of the dominant root vanishes.

    For irreducible p this holds exactly when p divides
    sum_j sign_j * z**offset_j, by conjugating the root relation through
    the Galois action.  Irreducibility is the caller's assertion;
    ``lacuna.recurrence.has_rational_root`` flags rational factors.
    """
    modulus = _validate_pattern_modulus(p)
    coeffs = [0] * (max(pattern.offsets) + 1)
    for off, sign in zip(pattern.offsets, pattern.signs):
        coeffs[off] += sign
    return poly_reduce_mod(coeffs, modulus) == ()


def pattern_multiplicity(pattern: OffsetPattern, p: Sequence[int]) -> int:
    """Multiplicity of a pattern with cancellation read off the modulus.

    Same Moebius calculus as for concrete tuples, but a subset counts as
    zero-sum when p divides its signed power sum.  The packed encodings
    make the subset sums single integers, so the tuple machinery is
    reused unchanged.
    """
    if pattern.order > MAX_GROUND_SIZE:
        raise TooLarge(f"pattern order {pattern.order} exceeds {MAX_GROUND_SIZE}")
    modulus = _validate_pattern_modulus(p)
    encoded = _encoded_powers(modulus, max(pattern.offsets), pattern.order)
    values = [sign * encoded[off] for off, sign in zip(pattern.offsets, pattern.signs)]
    return mult_of_values(values)


# --- partitions ------------------------------------------------------------


class GroundSetMismatch(LacunaError):
    """Partition operands live on different ground sets."""


# A partition of {1..m} as sorted 1-based element tuples, ordered by least element.
SetPartition = namedtuple("SetPartition", "blocks")


def block_masks(pi: SetPartition) -> tuple[int, ...]:
    """The partition as ``all_partitions`` lists it: one bitmask per block (element e is bit e-1)."""
    return tuple(sum(1 << (e - 1) for e in b) for b in pi.blocks)


def rgs_partitions(m: int) -> list[SetPartition]:
    """Every partition of {1..m}, in restricted-growth-string order."""
    if m < 1:
        raise TooLarge(f"ground set size must be >= 1, got {m}")
    bell = [1]  # Bell(0), Bell(1), ...: Bell(j + 1) = sum_k C(j, k) Bell(k)
    while len(bell) <= m and bell[-1] <= MAX_LATTICE_PARTITIONS:
        bell.append(sum(comb(len(bell) - 1, k) * b for k, b in enumerate(bell)))
    if bell[-1] > MAX_LATTICE_PARTITIONS:
        raise TooLarge(f"[{m}] has at least {bell[-1]} partitions, over the cap {MAX_LATTICE_PARTITIONS}")
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


def lattice_upset(masks: frozenset[int], m: int) -> list[SetPartition]:
    """Partitions of {1..m} whose every block is a zero-sum subset, filtered from the whole lattice."""
    if (1 << m) - 1 not in masks:  # zero-sum blocks sum to a zero-sum whole
        return []
    return [pi for pi in rgs_partitions(m) if all(sum(1 << (e - 1) for e in b) in masks for b in pi.blocks)]


def from_blocks(blocks: Iterable[Iterable[int]]) -> SetPartition:
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


def bottom(m: int) -> SetPartition:
    """The all-singletons partition."""
    return SetPartition(tuple((i,) for i in range(1, m + 1)))


def top(m: int) -> SetPartition:
    """The one-block partition."""
    return SetPartition((tuple(range(1, m + 1)),))


def _check_same_ground(pi: SetPartition, sigma: SetPartition) -> int:
    m, other = (sum(map(len, p.blocks)) for p in (pi, sigma))
    if m != other:
        raise GroundSetMismatch(f"ground sets [{m}] and [{other}] differ")
    return m


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
    k = len(pi.blocks)
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


# --- tuple multiplicities over the lattice ----------------------------------


def mult_moebius(values: Sequence[int]) -> int:
    """Multiplicity of the signed values as the Moebius sum over the zero-sum partition upset."""
    m = len(values)
    masks = zero_sum_profile(values[: m // 2], values[m // 2 :])
    return sum(moebius_to_top(pi) for pi in lattice_upset(masks, m))


def mult_crosscut(values: Sequence[int]) -> int:
    """Multiplicity as an alternating count over minimal zero-sum partitions.

    Sums (-1)**(|J|+1) over nonempty subfamilies J of the minimal
    zero-sum partitions whose join is the top partition.  Equals
    ``mult_moebius`` for every tuple; coded independently as a check.
    """
    m = len(values)
    upset = lattice_upset(zero_sum_profile(values[: m // 2], values[m // 2 :]), m)
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
