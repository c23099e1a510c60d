"""Exact moments and cumulants of lacunary cosine sums.

The m-th moment of S_n = sum_k cos(2 pi a_k w) over w in [0,1] is
2**-m times the number of signed zero-sum index tuples, so the
production path (``prefix_moments``) grows the powers of a sparse
Laurent polynomial one term at a time, storing only the exponents
e >= 0 of each (every power is symmetric under x -> 1/x), and extracts
constant terms, followed by the classical moment-to-cumulant recursion.
A-priori support and work estimates refuse a call before anything
grows, and an order cap refuses a cumulant recursion that would run for
many seconds.  The ``oracle`` command cross-checks one moment
against an equally-spaced quadrature rule, exact for trigonometric
polynomials of the arising degree (up to float rounding).  The
independently coded test routes (a pruned depth-first tuple count,
summed tuple multiplicities) live with the tests, not here.

The independent comparison model replaces the shared argument w by an
i.i.d. uniform argument per summand; each summand then follows the
arcsine law, whose even moments are C(2j, j) / 4**j, and the model's
m-th cumulant over n summands is n times the single-summand cumulant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Sequence

from .errors import TooLarge
from .laurent import SparseLaurent

MAX_ORACLE_SAMPLES = 10**7
MAX_POWER_SUPPORT = 10**7  # a-priori exponent count of the largest held power P^k, times its key words
MAX_PREFIX_WORK = 5 * 10**7  # a-priori work units of prefix_moments (see _prefix_work)
MAX_CUMULANT_ORDER = 800  # the Fraction recursion took 6.2 s at order 800, 10.8 s at 900


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
    tops = list(accumulate(map(abs, terms[:n_to]), max, initial=0))  # tops[n] = max |a_k|, k <= n
    support = min(comb(2 * n_to + half - 1, half), 2 * half * tops[n_to] + 1)
    words = max(1, -(-(half * tops[n_to]).bit_length() // 64))  # 64-bit words of the largest exponent
    if support * words > MAX_POWER_SUPPORT:
        each = f" of {words} words each" if words > 1 else ""
        raise TooLarge(f"P^{half} may hold {support} exponents{each}, over the cap {MAX_POWER_SUPPORT}")
    work = n_to * half**3 // 12  # a lower bound of the estimate, cheap for any m_max
    if work <= MAX_PREFIX_WORK:
        work = _prefix_work(tops, n_from, n_to, m_max)
    if work > MAX_PREFIX_WORK:
        raise TooLarge(f"the prefix engine may take {work} work units, over the cap {MAX_PREFIX_WORK}")
    powers: list[SparseLaurent] = [{0: 1}] + [{} for _ in range(half)]
    rows = []
    for n in range(n_to + 1):
        if n:
            _add_term(powers, terms[n - 1])
        if n >= n_from:
            rows.append((n, [_moment_of(powers, m) for m in range(1, m_max + 1)]))
    return rows


def _prefix_work(tops: list[int], n_from: int, n_to: int, m_max: int) -> int:
    """Source entries that ``_add_term`` reads plus products that ``_moment_of`` sums.

    P_n**i stores at most S_n(i) = min(C(2n+i-1, i), i*tops[n] + 1) exponents; each term
    reads P**i once per distinct |s| of q**j, j <= H - i, that is floor(j/2) + 1 times.
    """
    half = (m_max + 1) // 2
    def held(n: int, i: int) -> int:
        return min(comb(2 * n + i - 1, i), i * tops[n] + 1) if i else 1
    reads = sum(held(n_to, i) * (half - i + (half - i) ** 2 // 4) for i in range(half))
    return n_to * reads + sum(held(n, m // 2) for n in range(n_from, n_to + 1) for m in range(1, m_max + 1))


def _add_term(powers: list[SparseLaurent], a: int) -> None:
    """P**k += sum_{j>=1} C(k, j) q**j P**(k-j), q = x**a + x**-a, for each held k > 0.

    Each P**k is symmetric, P(x) = P(1/x), and stored for exponents e >= 0
    only.  The shifts of q**j, merged by |s|, pair up as +-s of weight w
    each, so a stored source e feeds e + s and |e - s|.  Two corrections
    follow: the source e = 0 fed s twice, so w*c_0 comes off target[s];
    the source e = s fed 0 once for both sides, so w*c_s goes onto
    target[0].  (For s = 0 they cancel, and each e is fed once at 2w.)
    Highest k first, so every P**(k-j) read is still the old power.
    """
    a = abs(a)
    for k in range(len(powers) - 1, 0, -1):
        target = powers[k]
        get = target.get
        for j in range(1, k + 1):
            source, shifts = powers[k - j], {}
            for i in range(j + 1):  # q**j = sum_i C(j, i) x**(a(2i - j))
                s = a * abs(2 * i - j)
                shifts[s] = shifts.get(s, 0) + comb(k, j) * comb(j, i)
            for s, w in shifts.items():
                w //= 2  # both shifts +-s; even for s = 0 too, C(2r, r) and 2**j being even
                for e, c in source.items():
                    c *= w
                    target[e + s] = get(e + s, 0) + c
                    f = abs(e - s)
                    target[f] = get(f, 0) + c
                if 0 in source:
                    target[s] -= w * source[0]
                if s in source:
                    target[0] = get(0, 0) + w * source[s]


def _moment_of(powers: list[SparseLaurent], m: int) -> Fraction:
    """[x^0] P**m / 2**m = (2 sum_e lo[e] hi[e] - lo[0] hi[0]) / 2**m over the stored e >= 0."""
    lo, hi = powers[m // 2], powers[(m + 1) // 2]  # P**(m//2) and P**ceil(m/2)
    total = sum(c * c for c in lo.values()) if lo is hi else sum(c * hi.get(e, 0) for e, c in lo.items())
    return Fraction(2 * total - lo.get(0, 0) * hi.get(0, 0), 2**m)


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
    if len(moments) > MAX_CUMULANT_ORDER:
        raise TooLarge(f"the cumulant recursion to order {len(moments)} is over the cap {MAX_CUMULANT_ORDER}")
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
    if m_max > MAX_CUMULANT_ORDER:  # before the moments are built
        raise TooLarge(f"the cumulant recursion to order {m_max} is over the cap {MAX_CUMULANT_ORDER}")
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
