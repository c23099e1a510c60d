"""Algebra of linear-recurrence frequency sequences.

For terms a_k = c_1 L_1**k + ... + c_d L_d**k whose L_j are the roots of
an irreducible integer polynomial P with a dominant real root eta > 1,
the cancellation pattern of large-index tuples depends only on the
offsets of the indices from their minimum and on the signs: a subset
cancels exactly when P divides the corresponding power sum of z.  That
reduces tail behavior to a finite walk over offset patterns
(``structural_slope``) and makes the per-unit growth of 2**m * kappa_m
computable without touching any concrete term.  ``minimal_polynomial``
recovers the shortest P from the terms themselves, so a spec with a
redundant factor is walked on the polynomial its terms satisfy.

Everything here works with coefficient tuples low-to-high, so z**2-z-1
is (-1, -1, 1).  Divisibility is tested exactly, through packed
integer encodings of the powers of z reduced mod P; numeric root
finding appears only in the dominant-root diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, gcd, isfinite, lcm
from typing import Sequence

from .errors import RootFindingFailed, TooFewPoints, TooLarge, ZeroModulus
from .multiplicity import MAX_GROUND_SIZE, mult_of_values

Poly = tuple[int, ...]

# Prefixes the slope walk visits; about 0.35 us each on a 2-core host, ~10 s at the cap.
MAX_PATTERN_SWEEP = 30_000_000
# Reduced powers z**0..z**((m-1)*gap_bound) mod p: 10,000 took 1.0 s for z^2 - z - 1, 10 s for 3z^2 - z - 1.
MAX_PATTERN_OFFSET = 5_000
_RATIONAL_ROOT_SCAN_LIMIT = 10**12
_PERRON_MARGIN = 1e-9  # the dominant root must beat every other modulus by this much


@dataclass(frozen=True)
class AffineFit:
    """Detected eventual law 2**-m * (w*n + b) for n >= n1."""

    w: int
    b: int
    n1: int
    valid: bool


def _strip(coeffs: Sequence[int | Fraction]) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def minimal_polynomial(terms: Sequence[int]) -> Poly:
    """Shortest recurrence polynomial of the terms, primitive and low-to-high.

    Berlekamp-Massey over the rationals (Berlekamp 1968; Massey 1969):
    the connection polynomial C = 1 + c_1 x + ... + c_L x**L it builds
    has s_k + c_1 s_{k-1} + ... + c_L s_{k-L} = 0 for every k >= L, and
    the recurrence polynomial is z**L * C(1/z).  The first 2d terms of a
    sequence of recurrence order d determine it.
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


def _divisors(value: int) -> list[int]:
    value = abs(value)
    if value > _RATIONAL_ROOT_SCAN_LIMIT:
        raise TooLarge(f"rational-root scan refused for |coefficient| = {value}")
    out = []
    i = 1
    while i * i <= value:
        if value % i == 0:
            out.append(i)
            if i != value // i:
                out.append(value // i)
        i += 1
    return sorted(out)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots(p: Sequence[int]) -> list[Fraction]:
    """All rational roots of an integer polynomial, by the p/q test."""
    coeffs = _strip(p)
    if not coeffs:
        raise ZeroModulus("rational roots of the zero polynomial")
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


def _validate_pattern_modulus(p: Sequence[int]) -> Poly:
    coeffs = _strip(p)
    if not coeffs:
        raise ZeroModulus("zero polynomial")
    if len(coeffs) == 1:
        raise ValueError("modulus must have degree >= 1")
    return tuple(int(c) for c in coeffs)


@lru_cache(maxsize=None)
def _encoded_powers(p: Poly, max_offset: int, order: int) -> tuple[int, ...]:
    """Injective integer encodings of z**0 .. z**max_offset reduced mod p.

    Each reduced power is a rational vector of length deg(p); after
    clearing denominators the vectors are packed into single integers in
    a balanced base large enough that any signed sum of up to ``order``
    encodings is zero exactly when the vector sum is.
    """
    d = len(p) - 1
    lead = Fraction(p[-1])
    cur = [Fraction(0)] * d
    cur[0] = Fraction(1)
    vectors = [tuple(cur)]
    for _ in range(max_offset):
        shifted = [Fraction(0)] + cur
        overflow = shifted[d]
        if overflow:
            factor = overflow / lead
            shifted = [shifted[i] - factor * p[i] for i in range(d)]
        else:
            shifted = shifted[:d]
        cur = shifted
        vectors.append(tuple(cur))
    scale = 1
    for vec in vectors:
        for x in vec:
            scale = lcm(scale, x.denominator)
    ints = [[int(x * scale) for x in vec] for vec in vectors]
    largest = max((abs(x) for vec in ints for x in vec), default=0) or 1
    base = 2 * order * largest + 1
    encoded = []
    for vec in ints:
        packed = 0
        weight = 1
        for x in vec:
            packed += x * weight
            weight *= base
        encoded.append(packed)
    return tuple(encoded)


def structural_slope(m: int, p: Sequence[int], gap_bound: int) -> int:
    """Per-unit growth w of 2**m * kappa_m for the sequence of modulus p.

    Sums pattern multiplicities over all offset patterns whose sorted
    consecutive gaps stay within ``gap_bound``, weighted by the number
    of index orderings.  Every pattern with a nonzero multiplicity
    contributes one tuple per admissible base index, hence w per unit n.
    The bound is a working cutoff, not a proven one: recompute at twice
    the bound and compare (``gap_bound_stable`` in the CLI).

    Patterns are walked as sorted (offset, sign) entries, one position at
    a time, carrying the partial sum of the packed encodings; within a
    run of equal offsets ``+`` comes before ``-``, so each multiset is
    visited once.  The last entry is not enumerated: it is looked up as
    the signed encoding that closes the partial sum to zero.  Only these
    zero-sum patterns reach ``mult_of_values``, each weighted by m!
    over the factorials of its runs of equal entries.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    if gap_bound < 0:
        raise ValueError("gap bound must be >= 0")
    if m > MAX_GROUND_SIZE:
        raise TooLarge(f"order {m} exceeds {MAX_GROUND_SIZE}")
    # Depth-(m-1) prefixes: first entry at offset 0, each later one within gap_bound.
    sweep = (gap_bound + 1) ** max(m - 2, 0) * 2 ** (m - 1)
    if sweep > MAX_PATTERN_SWEEP:
        raise TooLarge(f"pattern walk over {sweep} prefixes refused (limit {MAX_PATTERN_SWEEP})")
    if (m - 1) * gap_bound > MAX_PATTERN_OFFSET:
        raise TooLarge(f"{(m - 1) * gap_bound} pattern offsets refused (limit {MAX_PATTERN_OFFSET})")
    modulus = _validate_pattern_modulus(p)
    encoded = _encoded_powers(modulus, (m - 1) * gap_bound, m)
    closers: dict[int, list[tuple[int, int]]] = {}  # signed encoding -> its entries
    for off, value in enumerate(encoded):
        for sign in (1, -1):
            closers.setdefault(sign * value, []).append((off, sign))
    entries: list[tuple[int, int]] = []
    total = 0

    def walk(partial: int, last_off: int, last_sign: int, reach: int) -> None:
        nonlocal total
        if len(entries) == m - 1:
            for off, sign in closers.get(-partial, ()):
                if last_off < off <= last_off + reach or (off == last_off and sign <= last_sign):
                    total += _closed_contribution(entries + [(off, sign)], encoded)
            return
        for off in range(last_off, last_off + reach + 1):
            for sign in (1, -1) if off > last_off or last_sign == 1 else (-1,):
                entries.append((off, sign))
                walk(partial + sign * encoded[off], off, sign, gap_bound)
                entries.pop()

    # The first entry sits at offset 0; a virtual (0, +) before it allows either sign.
    walk(0, 0, 1, 0)
    return total


def _closed_contribution(entries: list[tuple[int, int]], encoded: Sequence[int]) -> int:
    """Index orderings of a sorted zero-sum pattern times its multiplicity."""
    weight = factorial(len(entries))
    for _, run in groupby(entries):
        weight //= factorial(len(list(run)))
    return weight * mult_of_values([sign * encoded[off] for off, sign in entries])


def detect_affine_tail(values: Sequence[tuple[int, Fraction]], m: int) -> AffineFit:
    """Find the earliest n1 from which 2**m * kappa_m is affine in n.

    ``values`` are (n, kappa_m) pairs over consecutive n.  The scaled
    values must be exactly affine with integer slope and intercept on
    the whole tail, and the tail must cover at least three points;
    otherwise the fit is reported invalid.
    """
    if len(values) < 4:
        raise TooFewPoints("need at least 4 consecutive points")
    ns = [n for n, _ in values]
    if any(b - a != 1 for a, b in zip(ns, ns[1:])):
        raise ValueError("points must cover consecutive n")
    scaled = [Fraction(v) * 2**m for _, v in values]
    w = scaled[-1] - scaled[-2]
    start = len(scaled) - 2
    while start > 0 and scaled[start] - scaled[start - 1] == w:
        start -= 1
    if len(scaled) - start < 3:
        return AffineFit(0, 0, 0, False)
    b = scaled[-1] - w * ns[-1]
    if w.denominator != 1 or b.denominator != 1:
        return AffineFit(0, 0, 0, False)
    return AffineFit(int(w), int(b), ns[start], True)


@dataclass(frozen=True)
class RootCheck:
    """Numeric root diagnostic for a recurrence polynomial."""

    is_perron: bool
    eta_estimate: float
    roots: tuple[complex, ...]
    rational: tuple[Fraction, ...]


def dominant_root_check(p: Sequence[int]) -> RootCheck:
    """Check for a unique real root > 1 strictly dominating all others.

    Root finding is numeric (companion matrix) and only diagnostic; the
    exact paths never consume these values.  Rational roots found by the
    p/q test are reported, with a warning when they certify that the
    polynomial is not irreducible.
    """
    import numpy as np  # only the float diagnostics need numpy; keeps start-up fast

    coeffs = _strip(p)
    if not coeffs:
        raise ZeroModulus("zero polynomial")
    if len(coeffs) == 1:
        raise ValueError("degree must be >= 1")
    found = np.roots([float(c) for c in reversed(coeffs)])
    if found.size == 0 or not all(isfinite(r.real) and isfinite(r.imag) for r in found):
        raise RootFindingFailed("companion-matrix roots are not finite")
    roots = tuple(sorted((complex(r) for r in found), key=lambda z: (z.real, z.imag)))
    real_above_one = [
        r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r)) and r.real > 1.0
    ]
    if len(real_above_one) == 1:
        eta = real_above_one[0]
        others = list(roots)
        others.remove(min(others, key=lambda z: abs(z - eta)))
        perron = all(eta > abs(z) + _PERRON_MARGIN for z in others)
    else:
        eta = max(abs(z) for z in roots)
        perron = False
    ratio = tuple(rational_roots([int(c) for c in coeffs]))
    if ratio and len(coeffs) - 1 >= 2:
        warnings.warn(
            f"polynomial has rational root(s) {[str(r) for r in ratio]} and is not "
            "irreducible; dominant-root conclusions assume irreducibility",
            RuntimeWarning,
            stacklevel=2,
        )
    return RootCheck(perron, float(eta), roots, ratio)
