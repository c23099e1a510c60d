"""Exact moments and cumulants of lacunary cosine sums.

The m-th moment of S_n = sum_k cos(2 pi a_k w) over w in [0,1] is
2**-m times the number of signed zero-sum index tuples, so the
production path (``prefix_moments``) grows the powers of a sparse
Laurent polynomial one term at a time and extracts constant terms,
followed by the classical moment-to-cumulant recursion.  The
``oracle`` command cross-checks one moment against an equally-spaced
quadrature rule that is exact for trigonometric polynomials of the
arising degree (up to float rounding).  The independently coded test
routes (a pruned depth-first tuple count, summed tuple multiplicities)
live with the tests, not here.

The independent comparison model replaces the shared argument w by an
i.i.d. uniform argument per summand; each summand then follows the
arcsine law, whose even moments are C(2j, j) / 4**j, and the model's
m-th cumulant over n summands is n times the single-summand cumulant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import TooLarge
from .laurent import SparseLaurent
from .sequences import SequenceSpec, generate_terms

MAX_ORACLE_SAMPLES = 10**7
MAX_POWER_SUPPORT = 10**7  # a-priori exponent count of the largest held power P^k


def prefix_moments(
    terms: Sequence[int], n_from: int, n_to: int, m_max: int
) -> list[tuple[int, list[Fraction]]]:
    """(n, [E S_n**1 .. E S_n**m_max]) for every n from n_from to n_to.

    Grows P_n**0 .. P_n**ceil(m_max/2) in place one term at a time.  A
    list, not a generator, so the work is done inside the call.
    """
    if m_max < 1 or not 0 <= n_from <= n_to <= len(terms):
        raise ValueError(f"need m_max >= 1 and 0 <= n_from <= n_to <= {len(terms)}")
    half = (m_max + 1) // 2
    support = min(comb(2 * n_to + half - 1, half), 2 * half * max(terms[:n_to], default=0) + 1)
    if support > MAX_POWER_SUPPORT:
        raise TooLarge(f"P^{half} may hold {support} exponents, over the cap {MAX_POWER_SUPPORT}")
    powers: list[SparseLaurent] = [{0: 1}] + [{} for _ in range(half)]
    rows = []
    for n in range(n_to + 1):
        if n:
            _add_term(powers, terms[n - 1])
        if n >= n_from:
            rows.append((n, [_moment_of(powers, m) for m in range(1, m_max + 1)]))
    return rows


def _add_term(powers: list[SparseLaurent], a: int) -> None:
    """P**k += sum_{j>=1} C(k, j) q**j P**(k-j), q = x**a + x**-a, for each held k > 0.

    Highest k first, so every P**(k-j) read is still the old power; all
    coefficients are positive, so no entry ever cancels to zero.
    """
    for k in range(len(powers) - 1, 0, -1):
        target = powers[k]
        get = target.get
        for j in range(1, k + 1):
            for i in range(j + 1):  # q**j = sum_i C(j, i) x**(a(2i - j))
                s, w = a * (2 * i - j), comb(k, j) * comb(j, i)
                for e, c in powers[k - j].items():
                    e += s
                    target[e] = get(e, 0) + w * c


def _moment_of(powers: list[SparseLaurent], m: int) -> Fraction:
    """[x^0] P**m / 2**m; every P**k is symmetric, so an even m sums squares."""
    lo, hi = powers[m // 2], powers[(m + 1) // 2]
    if lo is hi:
        return Fraction(sum(c * c for c in lo.values()), 2**m)
    return Fraction(sum(c * hi.get(-e, 0) for e, c in lo.items()), 2**m)


def moment(terms: Sequence[int], m: int) -> Fraction:
    """E[S_n**m] exactly, via constant-term extraction."""
    return moment_vector(terms, m)[m - 1]


def moment_vector(terms: Sequence[int], m_max: int) -> list[Fraction]:
    """E[S_n**m] for m = 1..m_max, the last row of ``prefix_moments``."""
    return prefix_moments(terms, len(terms), len(terms), m_max)[-1][1]


def moments_to_cumulants(moments: Sequence[Fraction]) -> list[Fraction]:
    """Cumulants k_1..k_M from raw moments mu_1..mu_M.

    Uses the recursion k_m = mu_m - sum_{j<m} C(m-1, j-1) k_j mu_{m-j}.
    """
    out: list[Fraction] = []
    for m in range(1, len(moments) + 1):
        acc = Fraction(moments[m - 1])
        for j in range(1, m):
            acc -= comb(m - 1, j - 1) * out[j - 1] * moments[m - j - 1]
        out.append(acc)
    return out


def arcsine_moment(order: int) -> Fraction:
    """Moments of cos(2 pi U): zero at odd order, C(2j, j)/4**j at order 2j."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order % 2:
        return Fraction(0)
    j = order // 2
    return Fraction(comb(2 * j, j), 4**j)


def independent_cumulants(m_max: int) -> list[Fraction]:
    """Arcsine cumulants for m = 1..m_max."""
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    return moments_to_cumulants([arcsine_moment(m) for m in range(1, m_max + 1)])


_ORACLE_SLAB = 1 << 20


def moment_oracle_quadrature(terms: Sequence[int], m: int) -> float:
    """Float cross-check of E[S_n**m] by equally spaced sampling.

    With N = m * max(a_k) + 1 nodes the rule integrates the degree
    m * max(a_k) trigonometric polynomial S_n**m without aliasing, so
    the only error is float rounding.  Arguments are reduced to
    a_k * j mod N in exact integer arithmetic, so each term gathers from
    one table of the N long-double cosines cos(2*pi*r/N) (16*N bytes, at
    most 160 MB), slab by bounded slab of the grid.
    """
    import numpy as np  # only the float diagnostics need numpy; keeps start-up fast

    if m < 1:
        raise ValueError("need m >= 1")
    if not terms:
        raise ValueError("need at least one term")
    samples = m * max(terms) + 1
    if samples > MAX_ORACLE_SAMPLES:
        raise TooLarge(f"{samples} quadrature nodes exceed the cap {MAX_ORACLE_SAMPLES}")
    # 2*pi to more digits than an x86 long double holds.
    step = np.longdouble("6.28318530717958647692528676655900576839") / samples
    reduced = [a % samples for a in terms]
    table = np.cos(step * np.arange(samples, dtype=np.int64).astype(np.longdouble))
    total = np.longdouble(0)
    for start in range(0, samples, _ORACLE_SLAB):
        grid = np.arange(start, min(start + _ORACLE_SLAB, samples), dtype=np.int64)
        acc = np.zeros(grid.size, dtype=np.longdouble)
        for a in reduced:
            acc += table[a * grid % samples]
        total += (acc**m).sum(dtype=np.longdouble)
    return float(total / samples)


@dataclass(frozen=True)
class CompareRow:
    """One (n, m) cell of a comparison against the independent model."""

    n: int
    m: int
    kappa: Fraction
    independent: Fraction
    diff: Fraction


@dataclass(frozen=True)
class CumulantTable:
    """kappa_m(S_n) rows next to n * (independent cumulant) and their gap."""

    sequence: str
    n_from: int
    n_to: int
    m_max: int
    rows: tuple[CompareRow, ...]


def compare_table(spec: SequenceSpec, n_from: int, n_to: int, m_max: int) -> CumulantTable:
    """Tabulate kappa_m(S_n), n * kappa independent, and the difference."""
    if not 1 <= n_from <= n_to:
        raise ValueError("need 1 <= n_from <= n_to")
    terms = generate_terms(spec, n_to)
    reference = independent_cumulants(m_max)
    rows = []
    for n, moments in prefix_moments(terms, n_from, n_to, m_max):
        kappas = moments_to_cumulants(moments)
        for m in range(1, m_max + 1):
            model = n * reference[m - 1]
            rows.append(CompareRow(n, m, kappas[m - 1], model, kappas[m - 1] - model))
    return CumulantTable(spec.label(), n_from, n_to, m_max, tuple(rows))
