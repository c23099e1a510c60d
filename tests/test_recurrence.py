import importlib.util
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lacuna import recurrence
from lacuna.errors import LacunaError, TooLarge
from lacuna.moments import moments_to_cumulants, prefix_moments
from lacuna.recurrence import (
    AffineFit,
    _encoded_powers,
    _half_sizes,
    _halves,
    detect_affine_tail,
    minimal_polynomial,
    rational_roots,
    structural_slope,
)
from lacuna.sequences import generate_terms, parse_sequence
from oracles import (
    OffsetPattern,
    eta_relation_holds,
    pattern_multiplicity,
    poly_reduce_mod,
    rational_roots_fraction,
    slope_walk,
)

_TAIL_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "recurrence_tail.py"
_tail_spec = importlib.util.spec_from_file_location("recurrence_tail", _TAIL_SCRIPT)
recurrence_tail = importlib.util.module_from_spec(_tail_spec)
_tail_spec.loader.exec_module(recurrence_tail)  # the dominant-root diagnostic lives with its only user
dominant_root_check = recurrence_tail.dominant_root_check

FIB_POLY = (-1, -1, 1)  # z^2 - z - 1
DOUBLE_POLY = (-2, 1)  # z - 2
GOLDEN = (1 + 5**0.5) / 2


def subset_power_sum_reduces(pattern, poly, mask):
    """Direct route: reduce the subset's power sum, no integer packing."""
    coeffs = [0] * (max(pattern.offsets) + 1)
    for pos in range(pattern.order):
        if mask >> pos & 1:
            coeffs[pattern.offsets[pos]] += pattern.signs[pos]
    return poly_reduce_mod(coeffs, poly) == ()


def pattern_mult_direct(pattern, poly):
    """Multiplicity with subset cancellation checked by reduction."""
    from lacuna.multiplicity import mult_from_profile

    m = pattern.order
    if not subset_power_sum_reduces(pattern, poly, (1 << m) - 1):
        return 0
    masks = frozenset(
        mask for mask in range(1, 1 << m) if subset_power_sum_reduces(pattern, poly, mask)
    )
    return mult_from_profile(masks, m)


# --- polynomial reduction ----------------------------------------------------


def test_reduce_multiple_of_modulus():
    assert poly_reduce_mod([1, 1, -1], [-1, -1, 1]) == ()


def test_reduce_trivial_cases():
    assert poly_reduce_mod([2, -1], [-2, 1]) == ()
    assert poly_reduce_mod([1, -1], [-2, 1]) == (Fraction(-1),)


def test_reduce_degree_below_modulus_is_identity():
    assert poly_reduce_mod([3, 5], [-1, -1, 1]) == (Fraction(3), Fraction(5))


def test_reduce_zero_modulus():
    with pytest.raises(LacunaError, match="^reduction modulo the zero polynomial$"):
        poly_reduce_mod([1, 2], [0, 0])


def test_reduce_non_monic_modulus():
    # z^2 mod (2z^2 - 1) = 1/2
    remainder = poly_reduce_mod([0, 0, 1], [-1, 0, 2])
    assert remainder == (Fraction(1, 2),)
    assert all(type(c) is Fraction for c in remainder)  # 0.5 == Fraction(1, 2) too


def test_rational_roots():
    assert rational_roots((2, -3, 1)) == [Fraction(1), Fraction(2)]
    assert rational_roots((-1, -1, 1)) == []
    assert rational_roots((0, -2, 1)) == [Fraction(0), Fraction(2)]
    assert rational_roots((-1, 0, 2)) == []  # roots +-sqrt(1/2)


def test_rational_roots_refuse_too_many_candidates_before_testing_them():
    # 963761198400 has 6,720 divisors: each scan is allowed, but their 4.5e7 pairs are not.
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="6720 x 6720 rational-root candidates"):
        rational_roots((-963761198400, 1, 963761198400))
    assert time.perf_counter() - started < 1.0


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _with_linear_factors(cofactor, factors):
    """cofactor * prod (den * z - num) and the roots num / den the product must have."""
    poly = list(cofactor)
    for num, den in factors:
        poly = _poly_mul(poly, [-num, den])
    return tuple(poly), factors


@given(
    case=st.builds(
        _with_linear_factors,
        st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda c: c[-1] != 0),
        st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=4),
    )
)
@example(case=_with_linear_factors([5], [(0, 1), (0, 3), (3, 2), (3, 2)]))  # a double zero and a double 3/2
@example(case=_with_linear_factors([-1, -1, 1], [(-4, 6), (2, 3)]))  # -2/3 and 2/3 unreduced, times z^2 - z - 1
@settings(max_examples=200, deadline=None)
def test_rational_roots_match_the_fraction_route(case):
    poly, factors = case
    roots = rational_roots(poly)
    assert roots == rational_roots_fraction(poly)
    assert {Fraction(num, den) for num, den in factors} <= set(roots)


# --- offset patterns ---------------------------------------------------------


def test_pattern_validation():
    with pytest.raises(ValueError):
        OffsetPattern((1, 2), (1, -1))  # min offset not 0
    with pytest.raises(ValueError):
        OffsetPattern((0, 1), (1,))
    with pytest.raises(ValueError):
        OffsetPattern((0,), (2,))
    assert OffsetPattern((0, 3, 1), (1, 1, -1)).gap() == 2


def test_eta_relation_examples():
    assert eta_relation_holds(OffsetPattern((0, 1, 2), (1, 1, -1)), FIB_POLY)
    assert eta_relation_holds(OffsetPattern((0, 0, 1), (1, 1, -1)), DOUBLE_POLY)
    assert not eta_relation_holds(OffsetPattern((0, 1), (1, -1)), DOUBLE_POLY)
    assert eta_relation_holds(OffsetPattern((0, 0), (1, -1)), FIB_POLY)


def test_pattern_multiplicity_examples():
    assert pattern_multiplicity(OffsetPattern((0, 0), (1, -1)), FIB_POLY) == 1
    assert pattern_multiplicity(OffsetPattern((0, 1, 2), (1, 1, -1)), FIB_POLY) == 1
    assert pattern_multiplicity(OffsetPattern((0, 5), (1, -1)), FIB_POLY) == 0
    assert pattern_multiplicity(OffsetPattern((0, 0, 1), (1, 1, -1)), DOUBLE_POLY) == 1


@pytest.mark.parametrize("poly", [FIB_POLY, DOUBLE_POLY], ids=["fib", "double"])
def test_pattern_multiplicity_matches_direct_reduction(poly):
    for m in (2, 3, 4):
        for offsets in product(range(4), repeat=m):
            if min(offsets) != 0:
                continue
            for signs in product((1, -1), repeat=m):
                pattern = OffsetPattern(offsets, signs)
                assert pattern_multiplicity(pattern, poly) == pattern_mult_direct(
                    pattern, poly
                )


@pytest.mark.parametrize("seq", ["fibonacci", "lucas"])
def test_relation_implies_concrete_cancellation(seq):
    # Root relations propagate to every member of the sequence at every
    # base index, via the conjugate representation of the terms.
    terms = generate_terms(parse_sequence(seq), 40)
    for m in (2, 3, 4):
        for offsets in product(range(7), repeat=m):
            if min(offsets) != 0:
                continue
            for signs in product((1, -1), repeat=m):
                pattern = OffsetPattern(offsets, signs)
                if not eta_relation_holds(pattern, FIB_POLY):
                    continue
                for base in range(1, 31):
                    value = sum(
                        s * terms[base + off - 1] for off, s in zip(offsets, signs)
                    )
                    assert value == 0


def test_concrete_and_relation_predicates_agree_in_tail():
    # Deep enough into the sequence, cancellation of terms and the root
    # relation coincide for every bounded-gap pattern.  Reduction mod P is
    # linear, so a pattern's power sum reduces to the signed sum of its
    # reduced powers z**o mod P, each reduced once.
    terms = generate_terms(parse_sequence("fibonacci"), 64)
    base = 10
    reduced = [poly_reduce_mod([0] * o + [1], FIB_POLY) for o in range(4 * 6 + 1)]
    reduced = [r + (0,) * (len(FIB_POLY) - 1 - len(r)) for r in reduced]
    for m in (2, 3, 4, 5):
        for gaps in product(range(7), repeat=m - 1):
            offsets = [0]
            for g in gaps:
                offsets.append(offsets[-1] + g)
            for signs in product((1, -1), repeat=m):
                concrete = (
                    sum(s * terms[base + off - 1] for off, s in zip(offsets, signs)) == 0
                )
                relation = all(
                    sum(s * reduced[off][i] for off, s in zip(offsets, signs)) == 0 for i in range(len(FIB_POLY) - 1)
                )
                assert concrete == relation


def test_wide_gap_cancellations_split():
    # Every zero-sum combination of fibonacci terms whose sorted indices
    # jump by more than 10 splits into two zero-sum halves.
    terms = generate_terms(parse_sequence("fibonacci"), 18)
    from itertools import combinations_with_replacement

    n = 18
    symbols = [(i, s) for i in range(1, n + 1) for s in (1, -1)]
    for m in (2, 3, 4, 5):
        for combo in combinations_with_replacement(range(2 * n), m):
            total = sum(symbols[c][1] * terms[symbols[c][0] - 1] for c in combo)
            if total != 0:
                continue
            indices = sorted(symbols[c][0] for c in combo)
            gaps = [b - a for a, b in zip(indices, indices[1:])]
            if not gaps or max(gaps) <= 10:
                continue
            cut_at = indices[gaps.index(max(gaps)) + 1]
            low = sum(
                symbols[c][1] * terms[symbols[c][0] - 1]
                for c in combo
                if symbols[c][0] < cut_at
            )
            assert low == 0


# --- structural slope ----------------------------------------------------------


def test_structural_slope_fibonacci_small_orders():
    assert structural_slope(2, FIB_POLY, 8)[-1] == 2
    assert structural_slope(3, FIB_POLY, 8)[-1] == 12


def test_structural_slope_double():
    assert structural_slope(2, DOUBLE_POLY, 8)[-1] == 2


def test_structural_slope_order_one_is_zero():
    assert structural_slope(1, FIB_POLY, 8) == [0] * 9


def test_structural_slope_guard():
    # 2**6 * 17**5 = 90,870,848 left halves of six entries: refused before any is enumerated.
    with pytest.raises(TooLarge, match="90870848 left half patterns"):
        structural_slope(12, FIB_POLY, 16)
    # The (m - 1) * g reduced powers are checked first, before the half patterns.
    with pytest.raises(TooLarge, match="1000000000 pattern offsets"):
        structural_slope(2, FIB_POLY, 10**9)
    with pytest.raises(TooLarge, match="5002 pattern offsets"):
        structural_slope(3, FIB_POLY, 2501)
    assert structural_slope(3, FIB_POLY, 2500)[-1] == 12  # 5,000 offsets, the cap
    # At m = 1 the same cap bounds the gap bound, and so the list of slopes.
    with pytest.raises(TooLarge, match="5001 pattern offsets"):
        structural_slope(1, FIB_POLY, 5001)


def test_structural_slope_guards_both_halves_and_the_joins(monkeypatch):
    # m = 4, g = 1666: 2 * 3,333 first entries times 3,334 successors is over the right half cap.
    with pytest.raises(TooLarge, match="22224444 right half patterns"):
        structural_slope(4, FIB_POLY, 1666)
    # Fibonacci m = 8, g = 5 joins 3,368 zero-sum patterns; the running cap is MAX_JOIN_WORK >> m.
    monkeypatch.setattr(recurrence, "MAX_JOIN_WORK", 3368 << 8)
    assert structural_slope(8, FIB_POLY, 5)[-1] == -4174982
    monkeypatch.setattr(recurrence, "MAX_JOIN_WORK", 3367 << 8)
    with pytest.raises(TooLarge, match="over 3367 zero-sum patterns of order 8"):
        structural_slope(8, FIB_POLY, 5)


@given(m=st.integers(2, 10), gap_bound=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_half_size_estimates_bound_the_enumerated_halves(m, gap_bound):
    h = (m + 1) // 2
    signed = dict.fromkeys(((o, s) for o in range((m - 1) * gap_bound + 1) for s in (1, -1)), 0)
    left = sum(len(_halves(first, h, gap_bound, signed)) for first in ((0, 1), (0, -1)))
    right = sum(
        len(_halves((f, s), m - h, gap_bound, signed)) for f in range(h * gap_bound + 1) for s in (1, -1)
    )
    left_size, right_size = _half_sizes(m, gap_bound)
    assert left_size >= left and right_size >= right


@given(
    m=st.integers(1, 7),
    gap_bound=st.integers(0, 3),
    poly=st.sampled_from([FIB_POLY, DOUBLE_POLY, (-1, -1, -1, 1), (-1, -1, 3)]),
)
@settings(max_examples=60, deadline=None)
def test_structural_slope_matches_the_oracle_walk(m, gap_bound, poly):
    # One sweep gives the slope at every bound b <= gap_bound; the walk is run at each b.
    assert structural_slope(m, poly, gap_bound) == [slope_walk(m, poly, b) for b in range(gap_bound + 1)]


# Monic and not, a negative lead, degree one and degree three.
ENCODING_MODULI = [FIB_POLY, (-1, -1, 3), (-1, 0, 2), (1, 1, -1), DOUBLE_POLY, (-1, -1, -1, 1)]


@st.composite
def signed_offset_multisets(draw):
    """A modulus, a signed multiset of up to 8 offsets <= 12, and an encoding range that covers it."""
    poly = draw(st.sampled_from(ENCODING_MODULI))
    if draw(st.booleans()):  # a shifted multiple of the modulus, so that half the cases divide
        shift = draw(st.integers(0, 4))
        coeffs = [0] * shift + _poly_mul(draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3)), poly)
        entries = [(off, 1 if c > 0 else -1) for off, c in enumerate(coeffs) for _ in range(abs(c))]
        assume(1 <= len(entries) <= 8)
    else:
        entries = draw(st.lists(st.tuples(st.integers(0, 12), st.sampled_from((1, -1))), min_size=1, max_size=8))
    max_offset = draw(st.integers(max(off for off, _ in entries), 12))
    return poly, entries, max_offset


@given(signed_offset_multisets())
@example(((-1, 0, 2), [(2, 1)], 2))  # z^2 mod (2z^2 - 1) = 1/2 is not zero
@example(((-1, -1, 3), [(2, 1), (2, 1), (2, 1), (1, -1), (0, -1)], 12))
@settings(max_examples=400, deadline=None)
def test_encoded_powers_cancel_exactly_when_the_modulus_divides(case):
    poly, entries, max_offset = case
    encoded = _encoded_powers(poly, max_offset, len(entries))
    coeffs = [0] * (max_offset + 1)
    for off, sign in entries:
        coeffs[off] += sign
    assert (sum(sign * encoded[off] for off, sign in entries) == 0) == (poly_reduce_mod(coeffs, poly) == ())


def test_encoded_powers_base_follows_order():
    # 25 * z**0 - z**1 is not divisible by z**2 - z - 1, but a base sized
    # for 12 summands (25) packed these 26 encodings to zero.
    e0, e1 = _encoded_powers(FIB_POLY, 1, 26)
    assert 25 * e0 - e1 != 0


def test_structural_slope_matches_ordered_enumeration():
    # Tiny orders: sum pattern multiplicities over raw ordered offset
    # vectors, no multiset weighting.
    for poly in (FIB_POLY, DOUBLE_POLY):
        for m, bound in ((2, 3), (3, 3), (4, 2)):
            total = 0
            for offsets in product(range(3 * bound + 1), repeat=m):
                if min(offsets) != 0:
                    continue
                ordered = sorted(offsets)
                if max(
                    (b - a for a, b in zip(ordered, ordered[1:])), default=0
                ) > bound:
                    continue
                for signs in product((1, -1), repeat=m):
                    total += pattern_multiplicity(OffsetPattern(offsets, signs), poly)
            assert structural_slope(m, poly, bound)[-1] == total


@pytest.mark.parametrize(
    "seq, m, bound, w, w_doubled",
    [
        ("fibonacci", 5, 6, 640, 640),
        ("fibonacci", 8, 1, -912870, -5322310),
        ("geometric:c=1,eta=2", 8, 1, -146062, -141582),
        ("recurrence:poly=-1,-1,-1,1;init=1,1,2", 8, 1, -501270, -553350),
    ],
    ids=["fibonacci-5", "fibonacci-8", "double-8", "tribonacci-8"],
)
def test_structural_slope_pinned_values(seq, m, bound, w, w_doubled):
    # The slopes the CLI reads at the bound and at its double, from one sweep at the double.
    slopes = structural_slope(m, parse_sequence(seq).poly, 2 * bound)
    assert (slopes[bound], slopes[-1]) == (w, w_doubled)


def test_structural_slope_agrees_with_detected_tail_for_lucas():
    fit = detect_affine_tail(scaled_cumulant_points(parse_sequence("lucas"), 3, 12, 25))
    assert fit.valid
    assert structural_slope(3, FIB_POLY, 8)[-1] == fit.w


# --- minimal polynomial ---------------------------------------------------------


@pytest.mark.parametrize(
    "seq",
    ["fibonacci", "lucas", "pow2plus1", "geometric:c=3,eta=5", "recurrence:poly=-1,-1,-1,1;init=1,1,2"],
)
def test_minimal_polynomial_of_builtin_families_is_their_own(seq):
    spec = parse_sequence(seq)
    poly = spec.poly
    assert minimal_polynomial(generate_terms(spec, 2 * (len(poly) - 1))) == poly
    assert minimal_polynomial(generate_terms(spec, 30)) == poly


def test_minimal_polynomial_drops_redundant_factors():
    fib_times_z_minus_1 = generate_terms(parse_sequence("recurrence:poly=1,0,-2,1;init=1,1,2"), 6)
    assert minimal_polynomial(fib_times_z_minus_1) == FIB_POLY
    assert minimal_polynomial([1, 2, 4, 8]) == DOUBLE_POLY
    assert minimal_polynomial([5, 1, 1, 1]) == (0, -1, 1)  # a_{k+2} = a_{k+1}, root 0 kept
    assert minimal_polynomial([2, 2, 2, 2]) == (-1, 1)


@given(
    lower=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    init=st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_minimal_polynomial_divides_and_annihilates(lower, init):
    poly = (*lower, 1)  # monic, so every term stays an integer
    d = len(lower)
    terms = list(init[:d])
    while len(terms) < 4 * d + 4:
        terms.append(-sum(c * terms[len(terms) - d + j] for j, c in enumerate(lower)))
    found = minimal_polynomial(terms[: 2 * d])
    assert minimal_polynomial(terms) == found
    assert len(found) <= d + 1 and found[-1] > 0
    assert poly_reduce_mod(poly, found) == ()
    deg = len(found) - 1
    for k in range(deg, len(terms)):
        assert sum(c * terms[k - deg + j] for j, c in enumerate(found)) == 0


# --- affine tail detection ------------------------------------------------------


def scaled_cumulant_points(spec, m, n_from, n_to):
    """(n, K_m) with K_m = 2**m kappa_m(S_n), the integers detect_affine_tail reads."""
    terms = generate_terms(spec, n_to)
    return [(n, moments_to_cumulants(counts)[m - 1]) for n, counts in prefix_moments(terms, n_from, n_to, m)]


def test_detect_affine_tail_fibonacci_fourth_order():
    fit = detect_affine_tail(scaled_cumulant_points(parse_sequence("fibonacci"), 4, 15, 30))
    assert fit == AffineFit(90, -212, 15, True)


def test_detect_affine_tail_rejects_quadratic_growth():
    fit = detect_affine_tail(scaled_cumulant_points(parse_sequence("pow2plus1"), 6, 7, 30))
    assert not fit.valid


def test_detect_affine_tail_all_zero_column():
    fit = detect_affine_tail(scaled_cumulant_points(parse_sequence("pow2plus1"), 3, 4, 16))
    assert fit == AffineFit(0, 0, 4, True)


def test_detect_affine_tail_reports_late_start():
    points = [(5, 9), (6, 1), (7, 2), (8, 3), (9, 4)]
    fit = detect_affine_tail(points)
    assert fit == AffineFit(1, -5, 6, True)


def test_detect_affine_tail_needs_points():
    with pytest.raises(LacunaError, match="^need at least 4 consecutive points$"):
        detect_affine_tail([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        detect_affine_tail([(1, 0), (3, 0), (4, 0), (5, 0)])


# --- dominant root diagnostics ---------------------------------------------------


def test_dominant_root_golden_ratio():
    report = dominant_root_check(FIB_POLY)
    assert report.is_perron
    assert abs(report.eta_estimate - GOLDEN) < 1e-9


def test_dominant_root_pure_double():
    report = dominant_root_check(DOUBLE_POLY)
    assert report.is_perron
    assert report.eta_estimate == pytest.approx(2.0)


def test_dominant_root_of_a_reducible_polynomial():
    # (z - 1)(z - 2): the rational-root warning is lacuna.cli.slope_modulus's, not this diagnostic's.
    report = dominant_root_check((2, -3, 1))
    assert report.is_perron
    assert report.eta_estimate == pytest.approx(2.0)


def test_dominant_root_rejects_repeated_dominant_root():
    # (z - 2)^2: the dominant root is not strictly dominant.
    report = dominant_root_check((4, -4, 1))
    assert not report.is_perron


def test_dominant_root_no_root_above_one():
    report = dominant_root_check((1, 1))  # z + 1
    assert not report.is_perron


def test_recurrence_tail_sweeps_once_per_order(monkeypatch, capsys):
    calls = []

    def spy(m, p, gap_bound):
        calls.append((m, gap_bound))
        return structural_slope(m, p, gap_bound)

    monkeypatch.setattr(recurrence_tail, "structural_slope", spy)
    monkeypatch.setattr("sys.argv", ["recurrence_tail.py", "fibonacci", "4"])
    assert recurrence_tail.main() == 0
    assert calls == [(2, 16), (3, 16), (4, 16)]
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows == ["2,2,4,15,2,True,True", "3,12,0,15,12,True,True", "4,90,-212,15,90,True,True"]
