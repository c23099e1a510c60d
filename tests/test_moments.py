import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacuna import moments
from lacuna.errors import LacunaError, TooLarge
from lacuna.moments import (
    independent_cumulants,
    moment_oracle_quadrature,
    moment_vector,
    moments_to_cumulants,
    prefix_moments,
)
from lacuna.sequences import generate_terms, parse_sequence
from oracles import (
    MAX_SWEEP_ORDER,
    MAX_SWEEP_TERMS,
    cumulant,
    cumulant_vector,
    cumulant_via_multiplicity,
    cumulants_to_moments,
    independent_cumulant,
    laurent_from_terms,
    laurent_pow,
    laurent_power_const_term_full,
    moment_dfs,
    quadrature_full_table,
    unscale,
)

FIB = parse_sequence("fibonacci")
POW2 = parse_sequence("pow2plus1")
LUCAS = parse_sequence("lucas")
GEO2 = parse_sequence("geometric:c=1,eta=2")

rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 24)
)


def terms_of(spec, n):
    return generate_terms(spec, n)


def tops_of(terms):
    """tops[n] = max |a_k| over k <= n, as prefix_moments hands it to its routes."""
    return list(accumulate(map(abs, terms), max, initial=0))


def moment(terms, m):
    """E[S_n**m] = 2**-m N_m, from the engine's integer count."""
    return Fraction(moment_vector(terms, m)[-1], 2**m)


# --- moments ---------------------------------------------------------------


def test_moment_examples():
    assert moment(terms_of(POW2, 4), 2) == 2
    assert moment(terms_of(POW2, 4), 1) == 0
    assert moment(terms_of(FIB, 9), 1) == 0
    assert moment(terms_of(POW2, 4), 4) == 14
    assert moment(terms_of(POW2, 7), 6) == Fraction(14015, 16)


@pytest.mark.parametrize("spec", [FIB, POW2, GEO2], ids=["fib", "pow2", "geo2"])
@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_moment_matches_pruned_dfs(spec, n, m):
    terms = terms_of(spec, n)
    assert moment(terms, m) == moment_dfs(terms, m)


def test_moment_vector_consistent_with_single_calls():
    terms = terms_of(FIB, 8)
    vector = moment_vector(terms, 6)
    assert vector == [moment_vector(terms, m)[-1] for m in range(1, 7)]


@given(
    terms=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    m_max=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_prefix_moments_match_full_expansion_on_every_prefix(terms, m_max, data):
    # Small values collide often, so duplicates and cancellations are common.
    n_to = len(terms)
    n_from = data.draw(st.integers(1, n_to))
    rows = prefix_moments(terms, n_from, n_to, m_max)
    assert [n for n, _ in rows] == list(range(n_from, n_to + 1))
    for n, counts in rows:
        poly = laurent_from_terms(terms[:n])
        assert counts == [laurent_power_const_term_full(poly, m) for m in range(1, m_max + 1)]
    assert moment_vector(terms, m_max) == prefix_moments(terms, n_to, n_to, m_max)[-1][1]


@given(
    terms=st.lists(st.integers(-6, 6), max_size=6),
    m_max=st.integers(1, 8),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_half_storage_matches_full_expansion_with_zero_and_negative_frequencies(terms, m_max, data):
    # Library callers may pass 0 and negative frequencies; the engine folds them by |a|.
    n_to = len(terms)
    n_from = data.draw(st.integers(0, n_to))
    for n, counts in prefix_moments(terms, n_from, n_to, m_max):
        poly = laurent_from_terms(terms[:n])
        assert counts == [laurent_power_const_term_full(poly, m) for m in range(1, m_max + 1)]


@pytest.mark.parametrize(
    "terms",
    [[1, 1, 2], [3, 3], [2, 1, 3, 4], [5, 0, 5], [-2, 2, 4], [0, 0], [7, 1, 6, 13], [2, 4, 2]],
    ids=str,
)
def test_add_term_stores_the_orbit_sums_of_each_power(terms):
    # [1, 1, 2] and [3, 3] feed a source at e = 0 and one at e = s: storing only P[e] for e >= 0, they needed a
    # correction each; as orbit sums they need none.  In [2, 4, 2] a later term lands on an earlier exponent.
    # Each power's running sum of squares is checked against a scan of that power after every term.
    half = 4
    powers = [{0: 1}] + [{} for _ in range(half)]
    squares = [1] + [0] * half
    for a in terms:
        moments._add_term(powers, a, squares)
        assert squares == [sum(c * c for c in power.values()) for power in powers]
    poly = laurent_from_terms(terms)
    for k, stored in enumerate(powers):
        assert all(e >= 0 and c > 0 for e, c in stored.items())
        full = laurent_pow(poly, k)
        assert stored == {e: c if e == 0 else 2 * c for e, c in full.items() if e >= 0}


def test_prefix_moments_ranges():
    terms = terms_of(FIB, 4)
    rows = prefix_moments(terms, 0, 1, 2)
    assert [(n, unscale(counts)) for n, counts in rows] == [(0, [0, 0]), (1, [0, Fraction(1, 2)])]
    assert moment_vector([], 3) == [0, 0, 0]  # S_0 = 0
    for n_from, n_to, m_max in ((3, 2, 2), (1, 5, 2), (1, 4, 0), (-1, 4, 2)):
        with pytest.raises(ValueError):
            prefix_moments(terms, n_from, n_to, m_max)


def test_power_support_guard_trips_before_growing(monkeypatch):
    def never(powers, a, squares):
        raise AssertionError("the guard must fire before any power grows")

    monkeypatch.setattr(moments, "_add_term", never)
    monkeypatch.setattr(moments, "_carry_rows", lambda *args: None)  # the carry count would answer this row
    terms = terms_of(POW2, 40)
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="15436008"):
        prefix_moments(terms, 40, 40, 10)  # (C(84, 5) + 1) // 2 = 15,436,008 > 5 * 10**6
    assert time.perf_counter() - started < 1.0


def test_power_support_guard_bound_is_the_estimate(monkeypatch):
    # pow2plus1, n = 5, m = 4: min((C(11, 2) + 1) // 2, 2 * 33 + 1) = 28 stored exponents.
    terms = terms_of(POW2, 5)
    monkeypatch.setattr(moments, "MAX_POWER_SUPPORT", 28)
    assert unscale(prefix_moments(terms, 5, 5, 4)[-1][1])[3] == moment_dfs(terms, 4)
    monkeypatch.setattr(moments, "MAX_POWER_SUPPORT", 27)
    with pytest.raises(TooLarge, match="28"):
        prefix_moments(terms, 5, 5, 4)


def test_power_support_guard_weighs_exponent_words(monkeypatch):
    # pow2plus1, n = 70, m = 4: C(141, 2) / 2 = 4,935 stored exponents up to 2 * (2**70 + 1), 72 bits, 2 words.
    terms = terms_of(POW2, 70)
    monkeypatch.setattr(moments, "MAX_POWER_SUPPORT", 9870)
    assert unscale(moments_to_cumulants(prefix_moments(terms, 70, 70, 4)[-1][1]))[3] == Fraction(-3 * 70 + 28, 8)
    monkeypatch.setattr(moments, "MAX_POWER_SUPPORT", 9869)
    with pytest.raises(TooLarge, match="4935 exponents of 2 words each"):
        prefix_moments(terms, 70, 70, 4)
    monkeypatch.undo()

    def never(powers, a, squares):
        raise AssertionError("the guard must fire before any power grows")

    monkeypatch.setattr(moments, "_add_term", never)
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="4996343 exponents of 35 words each"):
        prefix_moments(terms_of(POW2, 2235), 2235, 2235, 4)  # (C(4471, 2) + 1) // 2 keys of 2,237 bits
    assert time.perf_counter() - started < 1.0


def stored_estimate(terms, m_max):
    """The support guard's estimate of the entries P^ceil(m_max/2) stores, read from its refusal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "MAX_POWER_SUPPORT", 0)
        patch.setattr(moments, "_carry_rows", lambda *args: None)  # the guard runs only once the carry count gives up
        with pytest.raises(TooLarge) as refused:
            prefix_moments(terms, len(terms), len(terms), m_max)
    return int(re.search(r"may store (\d+) exponents", str(refused.value)).group(1))


def stored_entries(terms, half):
    powers, squares = [{0: 1}] + [{} for _ in range(half)], [1] + [0] * half
    for a in terms:
        moments._add_term(powers, a, squares)
    return len(powers[half])


@given(terms=st.lists(st.integers(-40, 40), min_size=1, max_size=8), m_max=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_power_support_estimate_bounds_the_stored_entries(terms, m_max):
    assert stored_estimate(terms, m_max) >= stored_entries(terms, (m_max + 1) // 2)


def test_power_support_estimate_on_deep_point():
    # The benchmark's largest power: pow2plus1, n = 40, m = 8 stores 671,288 entries of P^4.
    terms = terms_of(POW2, 40)
    assert stored_estimate(terms, 8) == 918_810  # (C(83, 4) + 1) // 2; the full support was 1,837,620
    assert stored_entries(terms, 4) == 671_288


def test_work_guard_trips_before_growing(monkeypatch):
    def never(powers, a, squares):
        raise AssertionError("the guard must fire before any power grows")

    monkeypatch.setattr(moments, "_add_term", never)
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="314165350"):
        prefix_moments([1, 2, 3], 3, 3, 400)  # support only 1,201, yet minutes of work
    with pytest.raises(TooLarge, match="work"):
        prefix_moments([0], 1, 1, 10**9)  # support 1; refused by n * H**3 / 12 alone
    assert time.perf_counter() - started < 1.0


def test_work_guard_bound_is_the_estimate(monkeypatch):
    # pow2plus1, n = 5, m = 4, H = 2; S(0), S(1), S(2) = 1, min(10, 34), min(55, 67).
    # Terms: 5 * (S(0) * 3 + S(1) * 1) = 65; the row: S(0) + 2 S(1) + S(2) = 76.
    terms = terms_of(POW2, 5)
    monkeypatch.setattr(moments, "MAX_PREFIX_WORK", 141)
    assert unscale(prefix_moments(terms, 5, 5, 4)[-1][1])[3] == moment_dfs(terms, 4)
    monkeypatch.setattr(moments, "MAX_PREFIX_WORK", 140)
    with pytest.raises(TooLarge, match="141"):
        prefix_moments(terms, 5, 5, 4)


def prefix_work_pair(terms, n_from, n_to, m_max):
    """(the work guard's estimate, the work the engine does) for prefix_moments(terms, n_from, n_to, m_max).

    The realized work counts what ``_prefix_work`` models: per term and (k, j), the len(P^(k-j))
    source entries ``_add_term`` reads floor(j/2) + 1 times, and per row the len(P^(m//2))
    products ``_moment_of`` sums for each order m.
    """
    half = (m_max + 1) // 2
    tops = list(accumulate(map(abs, terms[:n_to]), max, initial=0))
    powers, squares = [{0: 1}] + [{} for _ in range(half)], [1] + [0] * half
    work = 0
    for n in range(n_to + 1):
        if n:
            work += sum(len(powers[k - j]) * (j // 2 + 1) for k in range(1, half + 1) for j in range(1, k + 1))
            moments._add_term(powers, terms[n - 1], squares)
        if n >= n_from:
            work += sum(len(powers[m // 2]) for m in range(1, m_max + 1))
    return moments._prefix_work(tops, n_from, n_to, m_max), work


@given(data=st.data(), terms=st.lists(st.integers(1, 60), min_size=1, max_size=8), m_max=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_prefix_work_estimate_bounds_the_realized_work(data, terms, m_max):
    n_to = data.draw(st.integers(0, len(terms)))
    n_from = data.draw(st.integers(0, n_to))
    estimate, realized = prefix_work_pair(terms, n_from, n_to, m_max)
    assert estimate >= realized


def test_prefix_work_estimate_on_the_benchmark_cases():
    # deep-point's pow2plus1 table, and Fibonacci n = 14..30 at m = 10, whose collisions the estimate ignores.
    assert prefix_work_pair(terms_of(POW2, 40), 40, 40, 8) == (5_968_901, 1_177_108)
    assert prefix_work_pair(terms_of(FIB, 30), 14, 30, 10) == (39_222_995, 2_417_410)


# --- the two routes: carry count and prefix engine --------------------------


@st.composite
def lacunary_terms(draw):
    """Terms whose magnitudes grow by a ratio of at least 1.3, each signed, in any order."""
    x, terms = draw(st.integers(1, 40)), []
    for _ in range(draw(st.integers(0, 12))):
        terms.append(x * draw(st.sampled_from((1, -1))))
        x = draw(st.integers(-(-13 * x // 10), 4 * x))
    return draw(st.permutations(terms))


def counted_carry(terms, n_from, n_to, m_max, budget):
    """_carry_rows's answer, the keys its sets held and its calls of abs: one per move read, two per level."""
    made, absolutes = [], []

    class Recorded(set):
        def __init__(self, *items):
            super().__init__(*items)
            made.append(self)

    def counted_abs(x):
        absolutes.append(x)
        return abs(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "set", Recorded, raising=False)
        patch.setattr(moments, "abs", counted_abs, raising=False)
        rows = moments._carry_rows(terms, tops_of(terms), n_from, n_to, m_max, budget)
    return rows, sum(map(len, made)), len(absolutes)  # the sets only grow


@given(
    data=st.data(),
    terms=st.one_of(lacunary_terms(), st.lists(st.integers(-12, 12), max_size=9)),
    m_max=st.integers(1, 8),
    budget=st.integers(0, 3000),
)
@settings(max_examples=200, deadline=None)
def test_carry_count_and_prefix_engine_give_equal_rows(data, terms, m_max, budget):
    # Dense lists of small values bring zeros, negatives, repeats and cancellations; lacunary ones prune.
    n_to = data.draw(st.integers(0, len(terms)))
    n_from = data.draw(st.integers(0, n_to))
    rows = moments._prefix_rows(terms, n_from, n_to, m_max)
    assert moments._carry_rows(terms, tops_of(terms), n_from, n_to, m_max, 10**9) == rows
    # Under any budget the carry count holds at most that many keys, and gives up or answers alike.
    carried, held, _ = counted_carry(terms, n_from, n_to, m_max, budget)
    assert held <= budget and carried in (None, rows)
    assert prefix_moments(terms, n_from, n_to, m_max) == rows


def budget_of(terms, n_from, n_to, m_max):
    """The budget prefix_moments hands the carry count, under the caps as they are set when called."""
    tops = tops_of(terms[:n_to])
    words = max(1, -(-(m_max * tops[-1]).bit_length() // 64))
    return min(moments._prefix_work(tops, n_from, n_to, m_max) >> 5, (moments.MAX_PREFIX_WORK >> 5) // words)


@given(
    data=st.data(),
    case=st.one_of(
        st.tuples(lacunary_terms(), st.integers(1, 8)),
        st.tuples(st.lists(st.integers(-12, 12), max_size=9), st.integers(1, 8)),
        st.tuples(st.builds(lambda n, c: [c * 4**k + 1 for k in range(n)], st.integers(16, 20), st.integers(1, 3)),
                  st.integers(7, 8)),
    ),
    shift=st.sampled_from((0, 64, 200)),
    work_cap=st.one_of(st.integers(0, 20_000), st.integers(10**5, 10**7)),
    support_cap=st.one_of(st.integers(0, 200), st.integers(10**4, 10**6)),
)
@settings(max_examples=200, deadline=None)
def test_prefix_guards_refuse_only_where_the_carry_count_gives_up(data, case, shift, work_cap, support_cap):
    # The long ratio-4 lists at m >= 7 are where the carry count answers within work >> 5.  Scaled terms keep
    # their tuple counts but take 2 or 4 words per key, which shrinks the carry count's budget.
    terms, m_max = [a << shift for a in case[0]], case[1]
    n_to = data.draw(st.integers(0, len(terms)))
    n_from = data.draw(st.integers(0, n_to))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "MAX_PREFIX_WORK", work_cap)
        patch.setattr(moments, "MAX_POWER_SUPPORT", support_cap)
        budget = budget_of(terms, n_from, n_to, m_max)
        try:
            rows = prefix_moments(terms, n_from, n_to, m_max)
        except TooLarge as refused:
            assert re.search(rf", over the cap ({support_cap}|{work_cap}); the carry count gave up$", str(refused))
            assert moments._carry_rows(terms, tops_of(terms), n_from, n_to, m_max, budget) is None
        else:
            assert rows == moments._prefix_rows(terms, n_from, n_to, m_max)


def test_dense_big_terms_are_refused_within_their_word_budget():
    # 30 dense 10,000-bit terms at m <= 10: keys of 157 words, so the carry count gives up past 1,562,500 // 157
    # units.  At 1,562,500 units it would spend seconds and hundreds of MB on such keys before the refusal.
    rng = random.Random(0)
    terms = [rng.getrandbits(10_000) | 1 << 9_999 for _ in range(30)]
    refusal = r"^P\^5 may store 3812256 exponents of 157 words each, over the cap 5000000; the carry count gave up$"
    started = time.perf_counter()
    with pytest.raises(TooLarge, match=refusal):
        prefix_moments(terms, 1, 30, 10)
    assert time.perf_counter() - started < 1.0
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=refusal):
            prefix_moments(terms, 1, 30, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20


def test_dense_benchmark_list_falls_back_within_its_budget(monkeypatch):
    # range-tables' seed-1 explicit: list, 30 distinct terms in [1, 10^6] at m <= 6: almost nothing prunes.
    terms = random.Random(1).sample(range(1, 10**6 + 1), 30)
    budget = budget_of(terms, 1, 30, 6)
    rows, held, absolutes = counted_carry(terms, 1, 30, 6, budget)
    assert rows is None and held <= budget and absolutes <= budget + 2 * 30
    engine, calls = moments._prefix_rows, []
    monkeypatch.setattr(moments, "_prefix_rows", lambda *args: calls.append(args) or engine(*args))
    assert prefix_moments(terms, 1, 30, 6) == engine(terms, 1, 30, 6)
    assert calls == [(terms, 1, 30, 6)]


def test_dense_row_of_high_order_falls_back_within_its_moves():
    # 2,000 ones at m = 40: few keys, since every |S| <= 40, but up to 861 moves read from each.
    terms = [1] * 2000
    budget = budget_of(terms, 2000, 2000, 40)
    rows, held, absolutes = counted_carry(terms, 2000, 2000, 40, budget)
    assert rows is None and held <= budget and absolutes <= budget + 2 * 2000


def test_move_table_is_charged_before_it_is_built(monkeypatch):
    # pow2plus1 at n = 1, m = 430 passes the guards; its move table would make 2 C(433, 3) = 26,808,912 binomials.
    binomial, calls = moments.comb, []
    monkeypatch.setattr(moments, "comb", lambda *args: calls.append(args) or binomial(*args))
    monkeypatch.setattr(moments, "_prefix_rows", lambda *args: "prefix engine")
    assert prefix_moments(terms_of(POW2, 1), 1, 1, 430) == "prefix engine"
    assert len(calls) < 1000  # the guards' estimates and the table's length take 645


def test_deep_point_row_finishes_on_the_carry_route(monkeypatch):
    # pow2plus1 at n = 40, m <= 8: the prefix engine would store 671,288 entries of P^4.
    def never(*args):
        raise AssertionError("the carry count must answer this row")

    monkeypatch.setattr(moments, "_prefix_rows", never)
    terms = terms_of(POW2, 40)
    kappas = unscale(moments_to_cumulants(prefix_moments(terms, 40, 40, 8)[-1][1]))
    assert kappas[3] == Fraction(-3 * 40 + 28, 8)
    assert kappas[5] == Fraction(45 * 40**2 + 380 * 40 - 1875, 16)  # the quadratic law of 2^k + 1


def test_carry_count_does_not_recurse():
    # 3,000 levels, one per term: a recursive count would pass Python's recursion limit.
    terms = terms_of(POW2, 3000)
    assert moments._carry_rows(terms, tops_of(terms), 3000, 3000, 2, 10**6) == [(3000, [0, 6000])]


def test_even_moments_are_nonnegative_and_dyadic():
    for n in (3, 5, 8):
        terms = terms_of(FIB, n)
        for m, count in enumerate(moment_vector(terms, 6), start=1):
            assert type(count) is int  # N_m = 2^m E[S_n^m]
            if m % 2 == 0:
                assert count >= 0


def test_cumulants_are_dyadic():
    # K_m = 2^m kappa_m is an integer for integer frequencies.
    for spec in (FIB, POW2, LUCAS, GEO2):
        terms = terms_of(spec, 8)
        assert all(type(count) is int for count in moments_to_cumulants(moment_vector(terms, 6)))


# --- moment/cumulant conversion --------------------------------------------


def test_conversion_on_arcsine_prefix():
    mu = [Fraction(0), Fraction(1, 2), Fraction(0), Fraction(3, 8)]
    assert moments_to_cumulants(mu) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
        Fraction(-3, 8),
    ]


def test_conversion_degenerate_constant():
    mu = [Fraction(1)] * 6
    assert moments_to_cumulants(mu) == [Fraction(1)] + [Fraction(0)] * 5


def test_conversion_centered_variance():
    assert moments_to_cumulants([Fraction(0), Fraction(7, 3)])[1] == Fraction(7, 3)


@given(kappas=st.lists(rationals, min_size=1, max_size=7))
@settings(max_examples=100)
def test_conversion_round_trip(kappas):
    assert moments_to_cumulants(cumulants_to_moments(kappas)) == kappas


# --- cumulants ---------------------------------------------------------------


def test_cumulant_examples():
    assert cumulant(terms_of(POW2, 4), 4) == 2
    assert cumulant(terms_of(POW2, 7), 6) == Fraction(1495, 8)
    for n in (1, 5, 9):
        assert cumulant(terms_of(POW2, n), 3) == 0
    assert cumulant(terms_of(FIB, 20), 2) == 11


def test_second_cumulant_counts_duplicate_pairs():
    # One duplicate pair (a_1 = a_2 = 1) shifts kappa_2 by exactly 1.
    for n in (4, 7, 10):
        assert cumulant(terms_of(FIB, n), 2) == Fraction(n, 2) + 1
        assert cumulant(terms_of(LUCAS, n), 2) == Fraction(n, 2)


def test_cumulant_via_multiplicity_examples():
    assert cumulant_via_multiplicity(terms_of(FIB, 6), 6, 2) == 4
    assert cumulant_via_multiplicity(terms_of(POW2, 5), 5, 4) == Fraction(13, 8)
    assert cumulant_via_multiplicity(terms_of(LUCAS, 7), 7, 1) == 0


def test_cumulant_via_multiplicity_guards():
    terms = terms_of(FIB, 13)
    with pytest.raises(TooLarge):
        cumulant_via_multiplicity(terms, 13, 2)
    with pytest.raises(TooLarge):
        cumulant_via_multiplicity(terms[:4], 4, 7)
    with pytest.raises(LacunaError, match="^n=5 outside the materialized 4 terms$"):
        cumulant_via_multiplicity(terms[:4], 5, 2)


@pytest.mark.parametrize("spec", [FIB, GEO2], ids=["fib", "geo2"])
def test_route_equivalence_small(spec):
    terms = terms_of(spec, 6)
    for n in range(1, 7):
        kappas = cumulant_vector(terms[:n], 4)
        for m in range(1, 5):
            assert cumulant_via_multiplicity(terms[:n], n, m) == kappas[m - 1]


@given(
    terms=st.lists(st.integers(-6, 12), min_size=1, max_size=min(8, MAX_SWEEP_TERMS)),
    m_max=st.integers(1, MAX_SWEEP_ORDER),
)
@settings(max_examples=100, deadline=None)
def test_prefix_cumulants_match_summed_tuple_multiplicities(terms, m_max):
    # Small values collide often, so many index tuples have several zero-sum subsets.
    for n, counts in prefix_moments(terms, 1, len(terms), m_max):
        scaled = moments_to_cumulants(counts)
        for m in range(1, m_max + 1):
            assert scaled[m - 1] == 2**m * cumulant_via_multiplicity(terms, n, m)


def test_odd_moments_and_cumulants_vanish_for_odd_terms():
    # All terms odd, so no odd-length signed sum can cancel.
    all_terms = terms_of(POW2, 20)
    for n in range(1, 11):
        mu = moment_vector(all_terms[:n], 7)
        kappas = moments_to_cumulants(mu)
        for m in (1, 3, 5, 7):
            assert mu[m - 1] == 0
            assert kappas[m - 1] == 0
    mu = moment_vector(all_terms, 9)
    kappas = moments_to_cumulants(mu)
    for m in (1, 3, 5, 7, 9):
        assert mu[m - 1] == 0
        assert kappas[m - 1] == 0


def test_first_cumulant_always_zero():
    for spec in (FIB, POW2, LUCAS, GEO2):
        assert cumulant(terms_of(spec, 9), 1) == 0


# --- independent model -------------------------------------------------------


def test_independent_cumulant_values():
    expected = {
        2: Fraction(1, 2),
        4: Fraction(-3, 8),
        6: Fraction(5, 4),
        8: Fraction(-1155, 128),
        10: Fraction(3591, 32),
    }
    for m, value in expected.items():
        assert independent_cumulant(m) == value
    assert all(independent_cumulant(m) == 0 for m in (1, 3, 5, 7, 9))


def test_independent_cumulants_scaled_to_integers():
    scaled = independent_cumulants(10)  # K_m = 2^m kappa_m
    assert all(type(count) is int for count in scaled)
    assert [scaled[2 * j - 1] for j in range(1, 6)] == [2, -6, 80, -2310, 114912]


def test_cumulant_order_guard_trips_before_the_recursion(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="order 3000 is over the cap 800"):
        independent_cumulants(3000)
    with pytest.raises(TooLarge, match="order 1000000000000000000"):
        independent_cumulants(10**18)  # refused before 10**18 moments are built
    with pytest.raises(TooLarge, match="order 801"):
        moments_to_cumulants([Fraction(0)] * 801)
    assert time.perf_counter() - started < 1.0
    monkeypatch.setattr(moments, "MAX_CUMULANT_ORDER", 10)
    assert unscale(independent_cumulants(10))[9] == Fraction(3591, 32)
    with pytest.raises(TooLarge):
        independent_cumulants(11)
    with pytest.raises(TooLarge):
        moments_to_cumulants([Fraction(0)] * 11)


# --- quadrature oracle -------------------------------------------------------


def test_oracle_simple_values():
    assert abs(moment_oracle_quadrature(terms_of(POW2, 3), 2) - 1.5) < 1e-9
    assert abs(moment_oracle_quadrature(terms_of(FIB, 4), 1)) < 1e-12
    # Negative frequencies size the rule too: 3 nodes, from max(a_k) = 1, alias [-5, 1] to 2.0; [-3, -1] would get none.
    assert moment_oracle_quadrature([-5, 1], 2) == 1.0 == moment([-5, 1], 2)
    assert moment_oracle_quadrature([-3, -1], 2) == 1.0


def test_oracle_matches_exact_engine():
    terms = terms_of(FIB, 5)
    exact = float(moment(terms, 3))
    approx = moment_oracle_quadrature(terms, 3)
    assert abs(approx - exact) <= 1e-9 * abs(exact)


def test_oracle_sample_guard():
    with pytest.raises(TooLarge):
        moment_oracle_quadrature(terms_of(POW2, 40), 6)


def test_oracle_pinned_values():
    fib = terms_of(FIB, 28)
    assert moment_oracle_quadrature(fib[:25], 6) == 76266.0
    # N = 9 * 121393 + 1 = 1,092,538 nodes, folded to 546,270: one slab.
    assert moment_oracle_quadrature(fib[:26], 9) == 258281237.015625 == moment(fib[:26], 9)
    # N = 7 * 317811 + 1 = 2,224,678 nodes, folded to 1,112,340: two slabs of the grid, N even.
    two_slabs = moment_oracle_quadrature(fib, 7)
    assert two_slabs == 1308736.078125
    assert Fraction(two_slabs) == moment(fib, 7)


@pytest.mark.parametrize("samples, scale", [(1, 62), (2, 62), (3, 61), (402, 60), (1001, 53), (450_151, 58)])
def test_oracle_table_is_within_one_of_each_rounded_cosine(samples, scale):
    # Angle addition moves about 1% of the entries at N = 450,151 (fibonacci, n = 25, m = 6) by exactly 1.
    import numpy as np

    table = moments._oracle_table(samples, scale)
    half = samples // 2 + 1
    step = np.longdouble("6.28318530717958647692528676655900576839") / samples
    direct = np.rint(np.ldexp(np.cos(step * np.arange(half).astype(np.longdouble)), scale)).astype(np.int64)
    nmant = np.finfo(np.longdouble).nmant  # 63 on x86; where long double is double, both sides round at 2**-53
    assert table.size == half  # r <= N/2 only: the node sums fold r to min(r, N - r)
    assert np.abs(table - direct).max() <= (1 if nmant >= 63 else 2 ** (scale - nmant + 3))
    assert table[0] == 1 << scale


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-400, 400), min_size=1, max_size=7),
    st.integers(1, 7),
    st.sampled_from([1, 3, 100, moments._ORACLE_BLOCK]),
)
@example([1, 2, 399], 1, 3)  # N = 400 is even, its 201 folded nodes end in a short block
@example([0], 1, 1)  # N = 1: one node
@example([1], 1, 3)  # N = 2: one short block
def test_oracle_node_sums_equal_integer_sums(terms, m, block):
    # The folded index of (i t mod N) + (lo t mod N) - N is min(r, N - r), r = a_k j mod N, for every block size.
    samples = m * max(map(abs, terms)) + 1
    table = moments._oracle_table(samples, 63 - len(terms).bit_length())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "_ORACLE_BLOCK", block)
        blocks = [[int(v) for v in sums] for sums in moments._oracle_node_sums(terms, samples, table)]
    assert [len(sums) for sums in blocks[:-1]] == [block] * (len(blocks) - 1)
    entries = [int(v) for v in table]
    expected = [sum(entries[min(r, samples - r)] for r in (a * j % samples for a in terms)) for j in range(len(entries))]
    assert [v for sums in blocks for v in sums] == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-400, 400), min_size=1, max_size=7),
    st.integers(1, 7),
    st.sampled_from([1, 3, 100, moments._ORACLE_BLOCK]),
)
@example([1, 2, 399], 1, 3)  # N = 400 is even, its 201 nodes end in a short block
@example([0], 1, 1)  # N = 1: one node
@example([1], 1, 3)  # N = 2: node N/2 is the last of one short block
def test_oracle_streams_the_bits_of_the_full_table(terms, m, block):
    # Same blocks, same order of the block sums, same ends: the half table and the streamed sums move no bit.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "_ORACLE_BLOCK", block)
        assert moment_oracle_quadrature(terms, m) == quadrature_full_table(terms, m)


@pytest.mark.parametrize("n", [31, 32, 63, 64])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_oracle_node_sums_stay_below_two_to_the_63(n, m):
    # n ones put n * 2**b in node 0: 31 * 2**58 and 63 * 2**57 just below 2**63, 32 * 2**57 and 64 * 2**56 at 2**62.
    assert moment_oracle_quadrature([1] * n, m) == moment([1] * n, m)


def thousand_terms() -> list[int]:
    return random.Random(1).sample(range(1, 10**4), 1000)


def test_oracle_on_a_thousand_terms():
    # b = 53: node 0 sums to 1000 * 2**53; the folded rule is exact at m = 2 for distinct frequencies.
    terms = thousand_terms()
    assert moment_oracle_quadrature(terms, 2) == 500.0 == moment(terms, 2)


@pytest.mark.parametrize(
    "terms, m",
    [(terms_of(FIB, 25), 6), (terms_of(FIB, 28), 7), (thousand_terms(), 2)],
    ids=["fibonacci-25-m6", "fibonacci-28-m7", "thousand-terms-m2"],
)
def test_oracle_holds_its_half_table_and_two_mib(terms, m):
    # The half table is the only array that grows with N, and no buffer grows with n.
    # numpy reports its buffers to tracemalloc; a first call loads numpy and warms its caches.
    moment_oracle_quadrature([1, 2], 1)
    samples = m * max(terms) + 1
    tracemalloc.start()
    try:
        moment_oracle_quadrature(terms, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (samples // 2 + 1) + (2 << 20)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=7), st.integers(1, 7))
@example([1, 2, 399], 1)  # N = 400 is even: a node N/2 counted twice would show here
def test_oracle_tracks_the_exact_moment(terms, m):
    exact = moment(terms, m)
    assert abs(moment_oracle_quadrature(terms, m) - exact) <= 1e-12 * max(1, abs(exact))


# A fresh process under -S, so no site hook loads numpy first; numpy's own directory is put on the path instead.
# It records every write to os.environ and prints the oracle's value, the writes, whether os.environ is as it
# was, its OPENBLAS_NUM_THREADS, and the threads of the process after the quadrature.
_LOADER_PROBE = """
import json, os, sys
writes = []
def recording(method):
    def wrapper(self, key, *value):
        writes.append(key)
        return method(self, key, *value)
    return wrapper
os._Environ.__setitem__ = recording(os._Environ.__setitem__)
os._Environ.__delitem__ = recording(os._Environ.__delitem__)
if sys.argv[1] == "numpy-first":
    import numpy
from lacuna.moments import moment_oracle_quadrature
before = dict(os.environ)
value = moment_oracle_quadrature([1, 2, 3], 4)
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
same, blas = dict(os.environ) == before, os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps({"value": value, "writes": writes, "same": same, "blas": blas, "threads": tasks}))
"""


def oracle_in_fresh_process(order="oracle-first", **thread_counts):
    """The probe's report, run with no BLAS thread count in its environment but ``thread_counts``."""
    paths = [Path(moments.__file__).parents[1], Path(importlib.util.find_spec("numpy").origin).parents[1]]
    env = {key: value for key, value in os.environ.items() if key not in moments._BLAS_THREADS}
    env.update(thread_counts, PYTHONPATH=os.pathsep.join(map(str, paths)))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _LOADER_PROBE, order], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["value"] == moment([1, 2, 3], 4)
    return report


def test_oracle_loads_numpy_with_one_blas_thread():
    # OpenBLAS would start a worker per extra CPU; the oracle calls no BLAS routine, so it asks for none.
    report = oracle_in_fresh_process()
    assert report["writes"] == ["OPENBLAS_NUM_THREADS", "OPENBLAS_NUM_THREADS"]  # set around the import, then deleted
    assert (report["same"], report["blas"]) == (True, None)
    if report["threads"] is None:
        pytest.skip("no /proc/self/task to count the threads of the process")
    assert report["threads"] == 1


@pytest.mark.parametrize("variable", sorted(moments._BLAS_THREADS))
def test_oracle_keeps_a_thread_count_the_user_set(variable):
    report = oracle_in_fresh_process(**{variable: "2"})
    assert (report["writes"], report["same"]) == ([], True)
    assert report["blas"] == ("2" if variable == "OPENBLAS_NUM_THREADS" else None)


def test_oracle_leaves_the_environment_alone_once_numpy_is_loaded():
    report = oracle_in_fresh_process("numpy-first")
    assert (report["writes"], report["same"], report["blas"]) == ([], True, None)


# -S and numpy's directory on the path, as for _LOADER_PROBE: each refusal must come before numpy loads.
_REFUSAL_PROBE = """
import json, sys
from lacuna.errors import TooLarge
from lacuna.moments import moment_oracle_quadrature
refused = []
for terms, m in ([2**40 + 1], 6), ([1], 0), ([], 2):
    try:
        moment_oracle_quadrature(terms, m)
    except (TooLarge, ValueError) as error:
        refused.append(type(error).__name__)
print(json.dumps({"refused": refused, "numpy": "numpy" in sys.modules}))
"""


def test_oracle_refuses_before_numpy_loads():
    # 6 (2**40 + 1) + 1 nodes are over the cap: the refusal costs no numpy import (~100 ms, ~13 MB).
    paths = [Path(moments.__file__).parents[1], Path(importlib.util.find_spec("numpy").origin).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _REFUSAL_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"refused": ["TooLarge", "ValueError", "ValueError"], "numpy": False}
