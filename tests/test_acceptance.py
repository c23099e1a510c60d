"""Acceptance suite.

One test per exit criterion; each prints a single PASS/FAIL line (run
with ``pytest -s`` to see them as they complete).  All comparisons on
exact values use exact rational equality; the quadrature cross-check
uses 1e-9 relative (1e-12 absolute when the exact value is zero).  The
engine returns the integer counts N_m = 2**m mu_m and K_m = 2**m kappa_m;
the criteria state mu_m and kappa_m, and the affine tails are laws of K_m.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import product

from lacuna.moments import (
    independent_cumulants,
    moment_oracle_quadrature,
    moment_vector,
    moments_to_cumulants,
    prefix_moments,
)
from lacuna.recurrence import detect_affine_tail, structural_slope
from lacuna.sequences import generate_terms, parse_sequence
from oracles import (
    cumulant_via_multiplicity,
    cumulant_vector,
    independent_cumulant,
    moebius_to_top,
    mult_crosscut,
    mult_moebius,
    rgs_partitions,
    unscale,
)

PI_DIGITS = "3.14159265358979323846264338327950288"

FIB = parse_sequence("fibonacci")
LUCAS = parse_sequence("lucas")
POW2 = parse_sequence("pow2plus1")
GEO2 = parse_sequence("geometric:c=1,eta=2")
ROUND_PI = parse_sequence(f"roundpow:eta={PI_DIGITS},prec=100")


@contextmanager
def criterion(number, title):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL ({time.monotonic() - started:6.1f}s): {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS ({time.monotonic() - started:6.1f}s): {title}")


@lru_cache(maxsize=None)
def pow2_moments_and_cumulants(n):
    counts = moment_vector(generate_terms(POW2, n), 6)
    return unscale(counts), unscale(moments_to_cumulants(counts))


@lru_cache(maxsize=None)
def scaled_cumulant_rows(spec, m_max, n_from, n_to):
    """n -> [K_1 .. K_m_max], the integers K_m = 2**m kappa_m(S_n)."""
    terms = generate_terms(spec, n_to)
    return {n: moments_to_cumulants(counts) for n, counts in prefix_moments(terms, n_from, n_to, m_max)}


def test_criterion_01_exact_cumulant_laws_for_pow2plus1():
    with criterion(1, "2^k+1 cumulants: kappa_2, kappa_4, kappa_6 laws, odd orders zero"):
        for n in range(1, 41):
            _, kappa = pow2_moments_and_cumulants(n)
            assert kappa[0] == 0 and kappa[2] == 0 and kappa[4] == 0
            assert kappa[1] == Fraction(n, 2)
            if n >= 4:
                assert kappa[3] == Fraction(-3 * n + 28, 8)
            if n >= 7:
                assert kappa[5] == Fraction(45 * n * n + 380 * n - 1875, 16)


def test_criterion_02_exact_moment_laws_for_pow2plus1():
    with criterion(2, "2^k+1 moments: quartic and sextic closed forms"):
        for n in range(4, 41):
            mu, _ = pow2_moments_and_cumulants(n)
            assert mu[3] == Fraction(3, 4) * n * n - Fraction(3, 8) * n + Fraction(7, 2)
            if n >= 7:
                assert mu[5] == Fraction(30 * n**3 + 800 * n - 1875, 16)


def test_criterion_03_independent_model_cumulants():
    with criterion(3, "independent model: exact cumulants and scaled integer sequence"):
        kappa = unscale(independent_cumulants(10))
        assert kappa[1] == Fraction(1, 2)
        assert kappa[3] == Fraction(-3, 8)
        assert kappa[5] == Fraction(5, 4)
        assert kappa[7] == Fraction(-1155, 128)
        assert kappa[9] == Fraction(3591, 32)
        assert all(kappa[m - 1] == 0 for m in (1, 3, 5, 7, 9))
        assert [kappa[2 * j - 1] * 4**j for j in range(1, 6)] == [2, -6, 80, -2310, 114912]


def test_criterion_04_fibonacci_affine_tails():
    with criterion(4, "fibonacci: detected affine laws for kappa_2..kappa_5"):
        expected = {2: (2, 4), 3: (12, 0), 4: (90, -212), 5: (640, -4290)}
        rows = scaled_cumulant_rows(FIB, 5, 15, 30)
        for m, (w, b) in expected.items():
            fit = detect_affine_tail([(n, rows[n][m - 1]) for n in sorted(rows)])
            assert fit.valid, f"no affine tail for m={m}"
            assert (fit.w, fit.b) == (w, b), f"m={m}: got ({fit.w}, {fit.b})"


def test_criterion_05_route_equivalence():
    with criterion(5, "cumulants agree between moment route and multiplicity route"):
        for spec in (FIB, LUCAS, POW2, GEO2):
            terms = generate_terms(spec, 10)
            for n in range(1, 11):
                kappa = cumulant_vector(terms[:n], 5)
                for m in range(1, 6):
                    assert cumulant_via_multiplicity(terms[:n], n, m) == kappa[m - 1], (
                        f"{spec.text} n={n} m={m}"
                    )


def test_criterion_06_multiplicity_calculus():
    with criterion(6, "multiplicity: worked example, route equality, Moebius row sums"):
        assert mult_moebius([1, -1, 1, -1]) == -1
        for spec in (FIB, POW2):
            terms = generate_terms(spec, 5)
            for m in range(1, 5):
                for picked in product(terms, repeat=m):
                    for signs in product((1, -1), repeat=m):
                        values = [s * a for s, a in zip(signs, picked)]
                        assert mult_moebius(values) == mult_crosscut(values)
        for m in range(1, 7):
            total = sum(moebius_to_top(pi) for pi in rgs_partitions(m))
            assert total == (1 if m == 1 else 0)


GOLDEN_QUADRATURE_CASES = [
    (POW2, 3, 2),
    (POW2, 4, 4),
    (POW2, 6, 6),
    (POW2, 10, 3),
    (POW2, 14, 4),
    (POW2, 15, 5),
    (POW2, 16, 6),
    (POW2, 17, 5),
    (POW2, 18, 2),
    (FIB, 5, 3),
    (FIB, 10, 5),
    (FIB, 20, 4),
    (FIB, 25, 6),
    (LUCAS, 8, 4),
    (LUCAS, 15, 5),
    (GEO2, 10, 4),
    (GEO2, 16, 3),
    (ROUND_PI, 6, 4),
    (ROUND_PI, 10, 2),
    (parse_sequence("explicit:1,2,3"), 3, 6),
]


def test_criterion_07_quadrature_oracle():
    with criterion(7, "quadrature oracle within 1e-9 relative of the exact engine"):
        for spec, n, m in GOLDEN_QUADRATURE_CASES:
            terms = generate_terms(spec, n)
            assert m * max(terms) <= 10**6, f"case {spec.text} n={n} m={m} too big"
            exact = Fraction(moment_vector(terms, m)[m - 1], 2**m)
            approx = moment_oracle_quadrature(terms, m)
            if exact == 0:
                assert abs(approx) <= 1e-12, f"{spec.text} n={n} m={m}: {approx}"
            else:
                rel = abs(approx - float(exact)) / abs(float(exact))
                assert rel <= 1e-9, f"{spec.text} n={n} m={m}: rel={rel}"


def test_criterion_08_structural_slopes():
    with criterion(8, "structural slopes match detected tails, stable under doubling"):
        jobs = [
            (FIB, (-1, -1, 1), {2: 2, 3: 12, 4: 90, 5: 640}),
            (LUCAS, (-1, -1, 1), {2: None, 3: None, 4: None}),
            (GEO2, (-2, 1), {2: None, 3: None, 4: None, 5: None}),
        ]
        for spec, poly, orders in jobs:
            m_max = max(orders)
            rows = scaled_cumulant_rows(spec, m_max, 15, 30)
            for m, pinned in orders.items():
                fit = detect_affine_tail([(n, rows[n][m - 1]) for n in sorted(rows)])
                assert fit.valid, f"{spec.text} m={m}: no affine tail"
                slopes = structural_slope(m, poly, 16)  # one sweep gives w at gap bounds 8 and 16
                w, w_doubled = slopes[8], slopes[16]
                assert w == w_doubled, f"{spec.text} m={m} unstable"
                assert w == fit.w, f"{spec.text} m={m}: sweep {w} vs tail {fit.w}"
                if pinned is not None:
                    assert w == pinned


def test_criterion_09_rounded_transcendental_powers():
    with criterion(9, "round(pi^k): per-n drift against the model freezes on the tail"):
        rows = scaled_cumulant_rows(ROUND_PI, 6, 1, 22)
        for m in (2, 4, 6):
            points = [(n, rows[n][m - 1]) for n in sorted(rows)]
            fit = detect_affine_tail(points)
            assert fit.valid, f"m={m}: 2^m kappa_m not eventually affine"
            assert fit.w == independent_cumulant(m) * 2**m, (
                f"m={m}: tail slope {fit.w} differs from the model rate"
            )


def test_criterion_10_quadratic_growth_is_flagged():
    with criterion(10, "2^k+1 sixth cumulant: affine-tail detection reports invalid"):
        rows = scaled_cumulant_rows(POW2, 6, 7, 30)
        fit = detect_affine_tail([(n, rows[n][5]) for n in sorted(rows)])
        assert not fit.valid
