"""Algebra of linear-recurrence frequency sequences.

For terms a_k = c_1 L_1**k + ... + c_d L_d**k whose L_j are the roots of
an irreducible integer polynomial P with a dominant real root eta > 1,
the cancellation pattern of large-index tuples depends only on the
offsets of the indices from their minimum and on the signs: a subset
cancels exactly when P divides the corresponding power sum of z.  That
reduces tail behavior to a finite sum over bounded-gap offset patterns,
and one ``structural_slope`` sweep gives that sum at every gap bound up
to its own: the per-unit growth of 2**m * kappa_m, without any concrete
term.  ``minimal_polynomial`` recovers the shortest P from the terms, so
a spec with a redundant factor is walked on the polynomial they satisfy.

Everything here works with coefficient tuples low-to-high, so z**2-z-1
is (-1, -1, 1).  Divisibility is tested exactly, through packed
integer encodings of the powers of z reduced mod P.  The reduction is
pseudo-division (Knuth, TAOCP Vol. 2, 4.6.1): lead(P)**K * (z**k mod P)
has integer coordinates for every k <= K, so z**0 .. z**K are reduced
from lead(P)**K with exact integer quotients and no fraction is formed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, groupby
from math import factorial, gcd, prod

from .errors import LacunaError, TooLarge
from .multiplicity import MAX_GROUND_SIZE, mult_from_profile, zero_sum_profile

Poly = tuple[int, ...]

# The slope's halves and joins, timed on a 2-core host with Fibonacci.  Left halves are held, ~230 bytes
# each: m = 12, g = 4 held 152,975 (estimate 200,000) in 35 MB.  Right halves are streamed, ~0.6 us each:
# m = 8, g = 20 probed 12,002,256 in 7.3 s.  A join costs ~2**m * 50-150 ns, so at most MAX_JOIN_WORK >> m
# are made: m = 10, g = 5 joined 59,610 in 3.7 s; m = 12, g = 2 reached the cap, 24,414, after 13-15 s.
MAX_LEFT_HALVES = 200_000
MAX_RIGHT_HALVES = 15_000_000
MAX_JOIN_WORK = 10**8
# Scaled reduced powers of z up to K = (m-1)*gap_bound: K = 10,000 took 0.4 s for z^2 - z - 1, 2.4 s for 3z^2 - z - 1.
MAX_PATTERN_OFFSET = 5_000
# On a 2-core host a divisor scan up to 10**12 takes ~0.18 s, and a coprime p/q candidate pair ~4 us at
# degree 2 and ~13 us at degree 9, so the pair cap holds the p/q loop to about a second.  Unguarded, the
# 6,720 x 6,720 divisor pairs of |c_0| = |c_d| = 963761198400 took ~20 s.
_RATIONAL_ROOT_SCAN_DIGITS = 12  # |coefficient| <= 10**12
_RATIONAL_ROOT_PAIR_LIMIT = 10**5


# Detected eventual law 2**-m * (w*n + b) for n >= n1.
AffineFit = namedtuple("AffineFit", "w b n1 valid")


def _strip(coeffs: Sequence[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def minimal_polynomial(terms: Sequence[int]) -> Poly:
    """Shortest recurrence polynomial of the terms, primitive and low-to-high.

    Berlekamp-Massey (Berlekamp 1968; Massey 1969), fraction-free: the
    connection polynomial C = c_0 + c_1 x + ... + c_L x**L it builds has
    c_0 s_k + c_1 s_{k-1} + ... + c_L s_{k-L} = 0 for every k >= L, and
    the recurrence polynomial is z**L * C(1/z).  Each update scales C by
    the last discrepancy instead of dividing by it, then divides out C's
    content, so C stays the primitive integer multiple of the rational
    one and its coefficients grow no faster than the rational ones do.
    The first 2d terms of a sequence of recurrence order d determine it.
    """
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for k in range(len(terms)):
        delta = sum(x * terms[k - i] for i, x in enumerate(c))
        if delta == 0:
            shift += 1
            continue
        updated = [last * x for x in c] + [0] * (len(b) + shift - len(c))
        for i, x in enumerate(b):
            updated[i + shift] -= delta * x
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, c, delta, 1
        else:
            shift += 1
        content = gcd(*updated)
        c = [x // content for x in updated]
    coeffs = (c + [0] * (length + 1 - len(c)))[::-1]
    common = gcd(*coeffs) if coeffs[-1] > 0 else -gcd(*coeffs)  # primitive, with a positive leading coefficient
    return tuple(x // common for x in coeffs)


def _divisors(value: int) -> list[int]:
    value = abs(value)
    if value > 10**_RATIONAL_ROOT_SCAN_DIGITS:  # named by its bits, since a huge value's decimal string is long
        raise TooLarge(f"rational-root scan refused for a {value.bit_length()}-bit coefficient, over 10**{_RATIONAL_ROOT_SCAN_DIGITS}")
    out = []
    i = 1
    while i * i <= value:
        if value % i == 0:
            out.append(i)
            if i != value // i:
                out.append(value // i)
        i += 1
    return sorted(out)


def has_rational_root(p: Sequence[int]) -> bool:
    """Whether an integer polynomial has a rational root, by the p/q test.

    0 is a root exactly when the constant term is 0; else a reduced x/den
    is a root exactly when sum c_i * x**i * den**(d - i) is 0.
    """
    coeffs = _strip(p)
    if not coeffs:
        raise LacunaError("rational roots of the zero polynomial")
    if len(coeffs) == 1 or not coeffs[0]:  # a nonzero constant has no root; c_0 = 0 has the root 0
        return not coeffs[0]
    d = len(coeffs) - 1
    nums, dens = _divisors(coeffs[0]), _divisors(coeffs[-1])
    if len(nums) * len(dens) > _RATIONAL_ROOT_PAIR_LIMIT:
        raise TooLarge(f"{len(nums)} x {len(dens)} rational-root candidates refused (limit {_RATIONAL_ROOT_PAIR_LIMIT})")
    return any(gcd(num, den) == 1 and sum(c * x**i * den ** (d - i) for i, c in enumerate(coeffs)) == 0
               for num in nums for den in dens for x in (num, -num))


def _validate_pattern_modulus(p: Sequence[int]) -> Poly:
    coeffs = _strip(p)
    if not coeffs:
        raise LacunaError("zero polynomial")
    if len(coeffs) == 1:
        raise ValueError("modulus must have degree >= 1")
    return tuple(coeffs)


def _encoded_powers(p: Poly, max_offset: int, order: int) -> list[int]:
    """Injective integer encodings of lead(p)**max_offset * (z**k mod p), k = 0 .. max_offset.

    Each scaled reduced power is an integer vector of length deg(p), and
    each step's quotient is an exact integer division by the leading
    coefficient.  The vectors are packed into single integers in a
    balanced base large enough that any signed sum of up to ``order``
    encodings is zero exactly when the vector sum is.
    """
    lead = p[-1]
    vec = [lead**max_offset] + [0] * (len(p) - 2)
    vectors = [vec]
    for _ in range(max_offset):
        quotient = vec[-1] // lead
        vec = [x - quotient * c for x, c in zip([0] + vec[:-1], p)]
        vectors.append(vec)
    base = 2 * order * max(abs(x) for vec in vectors for x in vec) + 1
    weights = [base**i for i in range(len(p) - 1)]
    return [sum(x * w for x, w in zip(vec, weights)) for vec in vectors]


def _half_sizes(m: int, gap_bound: int) -> tuple[int, int]:
    """Bounds on the left halves (h = ceil(m/2) entries from offset 0) and the right halves, m >= 2."""
    h, successors = (m + 1) // 2, 2 * (gap_bound + 1)  # each entry has at most 2g + 2 successors
    return 2 * successors ** (h - 1), 2 * (h * gap_bound + 1) * successors ** (m - h - 1)


def _successors(entry: tuple[int, int], gap_bound: int) -> list[tuple[int, int]]:
    """Entries that may follow ``entry`` in a sorted pattern; + comes before - at one offset."""
    off, sign = entry
    return [(nxt, s) for nxt in range(off, off + gap_bound + 1) for s in (1, -1) if nxt > off or s <= sign]


def _halves(first: tuple[int, int], length: int, gap_bound: int, signed: dict) -> list[tuple[tuple, int]]:
    """The sorted runs of ``length`` entries from ``first``, with their sums of ``signed`` encodings."""
    runs = [((first,), signed[first])] if length else [((), 0)]
    for _ in range(length - 1):
        runs = [(run + (e,), total + signed[e]) for run, total in runs for e in _successors(run[-1], gap_bound)]
    return runs


def structural_slope(m: int, p: Sequence[int], gap_bound: int) -> list[int]:
    """Per-unit growth w(b) of 2**m * kappa_m for modulus p, as the list [w(0), ..., w(gap_bound)].

    w(b) sums pattern multiplicities over the offset patterns whose sorted
    consecutive gaps stay within b, weighted by the number of index
    orderings: each one with a nonzero multiplicity contributes one tuple
    per admissible base index, hence w per unit n.  One sweep gives every
    w(b), as each pattern's weight goes to the bucket of its largest gap.
    A bound is a working cutoff, not a proven one: the CLI compares w(g) with w(2g).

    Patterns are sorted (offset, sign) entries, ``+`` before ``-`` at one
    offset, so each multiset is met once.  Only zero-sum ones are built,
    by meet in the middle (Horowitz & Sahni 1974): left halves of
    h = ceil(m/2) entries from offset 0 are indexed by packed sum, and the
    right halves, streamed one first entry at a time (Schroeppel & Shamir
    1981), look up the left halves that close them and may precede them.
    The halves' subset sums give the profile, ``mult_from_profile`` runs
    once per distinct profile, and the weight is m! over the factorials
    of the runs of equal entries.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    if gap_bound < 0:
        raise ValueError("gap bound must be >= 0")
    if m > MAX_GROUND_SIZE:
        raise TooLarge(f"order {m} exceeds {MAX_GROUND_SIZE}")
    if max(m - 1, 1) * gap_bound > MAX_PATTERN_OFFSET:  # at m = 1 it bounds the list returned
        raise TooLarge(f"{max(m - 1, 1) * gap_bound} pattern offsets refused (limit {MAX_PATTERN_OFFSET})")
    modulus = _validate_pattern_modulus(p)
    if m == 1:
        return [0] * (gap_bound + 1)  # one power of z is never divisible by p
    for side, size, cap in zip(("left", "right"), _half_sizes(m, gap_bound), (MAX_LEFT_HALVES, MAX_RIGHT_HALVES)):
        if size > cap:
            raise TooLarge(f"{size} {side} half patterns refused (limit {cap})")
    h = (m + 1) // 2
    encoded = _encoded_powers(modulus, (m - 1) * gap_bound, m)
    signed = {(off, sign): sign * value for off, value in enumerate(encoded) for sign in (1, -1)}
    closing: dict[int, list[tuple[tuple[int, int], ...]]] = {}  # minus a left half's sum -> the halves
    for first in ((0, 1), (0, -1)):
        for left, left_sum in _halves(first, h, gap_bound, signed):
            closing.setdefault(-left_sum, []).append(left)
    mults: dict[frozenset[int], int] = {}
    joins, max_joins = 0, MAX_JOIN_WORK >> m
    by_gap = [0] * (gap_bound + 1)  # the patterns' weight by their largest gap
    for f in range(h * gap_bound + 1):
        for first in ((f, 1), (f, -1)):
            # A right half's last entry is probed, not stored: only a join builds its tuple.
            for prefix, prefix_sum in _halves(first, m - h - 1, gap_bound, signed):
                for last in _successors(prefix[-1], gap_bound) if prefix else (first,):
                    for left in closing.get(prefix_sum + signed[last], ()):
                        last_off, last_sign = left[-1]  # ``first`` must be among its _successors
                        if not (last_off < f <= last_off + gap_bound or (f == last_off and first[1] <= last_sign)):
                            continue
                        right = prefix + (last,)
                        joins += 1
                        if joins > max_joins:
                            raise TooLarge(f"over {max_joins} zero-sum patterns of order {m} refused")
                        profile = zero_sum_profile([signed[e] for e in left], [signed[e] for e in right])
                        if profile not in mults:
                            mults[profile] = mult_from_profile(profile, m)
                        pattern = left + right
                        repeats = prod(factorial(len(list(equal))) for _, equal in groupby(pattern))
                        gap = max(b[0] - a[0] for a, b in zip(pattern, pattern[1:]))
                        by_gap[gap] += factorial(m) // repeats * mults[profile]
    return list(accumulate(by_gap))


def detect_affine_tail(points: Sequence[tuple[int, int]]) -> AffineFit:
    """Find the earliest n1 from which K_n = 2**m * kappa_m(S_n) is affine in n.

    ``points`` are (n, K_n) pairs over consecutive n.  The values must be
    exactly affine on the whole tail, and the tail must cover at least
    three points; otherwise the fit is reported invalid.
    """
    if len(points) < 4:
        raise LacunaError("need at least 4 consecutive points")
    ns, values = zip(*points)
    if any(b - a != 1 for a, b in zip(ns, ns[1:])):
        raise ValueError("points must cover consecutive n")
    w = values[-1] - values[-2]
    start = len(values) - 2
    while start > 0 and values[start] - values[start - 1] == w:
        start -= 1
    if len(values) - start < 3:
        return AffineFit(0, 0, 0, False)
    return AffineFit(w, values[-1] - w * ns[-1], ns[start], True)
