"""Exact moments and cumulants of lacunary cosine sums, as integer counts.

E[S_n**m] for S_n = sum_k cos(2 pi a_k w), w uniform on [0,1], is 2**-m
times the count N_m of signed zero-sum index tuples.  The production
path (``prefix_moments``) returns these counts: it grows the powers of
a sparse Laurent polynomial one term at a time, storing only the
exponents e >= 0 of each (every power is symmetric under x -> 1/x), and
extracts constant terms.  An even order is a sum of squares: each call
scans it once at its first row, and a range keeps it up over its later
rows at O(1) each.  The moment-to-cumulant recursion is
homogeneous under mu_m -> 2**m mu_m, so on the counts it gives the
integers K_m = 2**m kappa_m; only a printed value is scaled by 2**-m.
A-priori support and work estimates refuse a call before anything
grows, and an order cap refuses a cumulant recursion that would run for
many seconds.  The ``oracle`` command cross-checks one moment against
an equally-spaced quadrature rule, exact for trigonometric polynomials
of the arising degree (up to float rounding).  The independently coded
test routes (a pruned depth-first tuple count, summed tuple
multiplicities) live with the tests, not here.

The independent comparison model replaces the shared argument w by an
i.i.d. uniform argument per summand; each summand then follows the
arcsine law, whose count at order 2j is C(2j, j), and the model's m-th
cumulant over n summands is n times the single-summand cumulant.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from itertools import accumulate
from math import comb

from .errors import TooLarge
from .laurent import SparseLaurent

MAX_ORACLE_SAMPLES = 10**7
# A-priori stored entries (e >= 0) of the largest held power P^k, times the words of its keys.  Growing
# P^1..P^4 of pow2plus1 at n = 40 (deep-point's m = 8) takes about 70 B per stored entry: 712,053 of them,
# 671,288 in P^4, whose estimate is 918,810.  So the cap stands for about 350 MB.
MAX_POWER_SUPPORT = 5 * 10**6
MAX_PREFIX_WORK = 5 * 10**7  # a-priori work units of prefix_moments (see _prefix_work)
MAX_CUMULANT_ORDER = 800  # the integer recursion took 1.9 s at order 800, 3.1 s at 900 (Python 3.11, Xeon)


def prefix_moments(
    terms: Sequence[int], n_from: int, n_to: int, m_max: int
) -> list[tuple[int, list[int]]]:
    """(n, [N_1 .. N_m_max]) for every n from n_from to n_to, N_m = 2**m E[S_n**m].

    Grows P_n**0 .. P_n**ceil(m_max/2) in place one term at a time.  A
    list, not a generator, so the work is done inside the call.  From
    the first row on, ``squares[k]`` is the sum of squares of the stored
    P**k for each 2k <= m_max: scanned once there, then kept up by
    ``_add_term``.  Terms before that row grow untracked.
    """
    if m_max < 1 or not 0 <= n_from <= n_to <= len(terms):
        raise ValueError(f"need m_max >= 1 and 0 <= n_from <= n_to <= {len(terms)}")
    half = (m_max + 1) // 2
    tops = list(accumulate(map(abs, terms[:n_to]), max, initial=0))  # tops[n] = max |a_k|, k <= n
    # P^half has at most C(2n+H-1, H) exponents, in [-H max|a|, H max|a|] and symmetric about 0.
    support = min((comb(2 * n_to + half - 1, half) + 1) // 2, half * tops[n_to] + 1)
    words = max(1, -(-(half * tops[n_to]).bit_length() // 64))  # 64-bit words of the largest exponent
    if support * words > MAX_POWER_SUPPORT:
        each = f" of {words} words each" if words > 1 else ""
        raise TooLarge(f"P^{half} may store {support} exponents{each}, over the cap {MAX_POWER_SUPPORT}")
    work = n_to * half**3 // 12  # a lower bound of the estimate, cheap for any m_max
    if work <= MAX_PREFIX_WORK:
        work = _prefix_work(tops, n_from, n_to, m_max)
    if work > MAX_PREFIX_WORK:
        raise TooLarge(f"the prefix engine may take {work} work units, over the cap {MAX_PREFIX_WORK}")
    powers: list[SparseLaurent] = [{0: 1}] + [{} for _ in range(half)]
    squares: list[int] = []
    rows = []
    for n in range(n_to + 1):
        if n:
            _add_term(powers, terms[n - 1], squares)
        if n >= n_from:
            if n == n_from:
                squares = [sum(c * c for c in power.values()) for power in powers[: m_max // 2 + 1]]
            rows.append((n, [_moment_of(powers, m, squares) for m in range(1, m_max + 1)]))
    return rows


def _prefix_work(tops: list[int], n_from: int, n_to: int, m_max: int) -> int:
    """Source entries that ``_add_term`` reads plus products that ``_moment_of`` sums.

    The per-row term counts a scan for every order; an even order reads
    its running sum after the first row, so it over-counts those.
    P_n**i stores at most S_n(i) = min(C(2n+i-1, i), i*tops[n] + 1) exponents; each term
    reads P**i once per t of q**j, j <= H - i, that is floor(j/2) + 1 times.
    """
    half = (m_max + 1) // 2
    def held(n: int, i: int) -> int:
        return min(comb(2 * n + i - 1, i), i * tops[n] + 1) if i else 1
    reads = sum(held(n_to, i) * (half - i + (half - i) ** 2 // 4) for i in range(half))
    return n_to * reads + sum(held(n, m // 2) for n in range(n_from, n_to + 1) for m in range(1, m_max + 1))


def _add_term(powers: list[SparseLaurent], a: int, squares: list[int]) -> None:
    """P**k += sum_{j>=1} C(k, j) q**j P**(k-j), q = x**a + x**-a, for each held k > 0.

    Each P**k is symmetric, P(x) = P(1/x), and stored for exponents e >= 0
    only.  A pass per t = j%2, j%2 + 2, .., j adds the offsets +-s, s = a*t, at
    weight w = C(k, j) C(j, (j+t)/2), halved at t = 0, so a stored source e
    feeds e + s and |e - s|.  Two corrections follow: the source e = 0 fed
    s twice, so w*c_0 comes off target[s]; the source e = s fed 0 once for
    both sides, so w*c_s goes onto target[0].  (For s = 0 they cancel, and
    each e is fed once at 2w, so a zero frequency's s = 0 passes just add.)
    Highest k first, so every P**(k-j) read is still the old power.
    It keeps squares[k], the running sum of squares of P**k, for each
    k < len(squares): an entry old + d adds 2*old*d + d*d, and the d*d of
    one pass over P**(k-j) sum to 2*w*w*squares[k-j], still the old
    power's.  Other powers take the cheaper untracked loop.
    """
    a = abs(a)
    for k in range(len(powers) - 1, 0, -1):
        target = powers[k]
        get = target.get
        tracked = k < len(squares)
        grown = 0  # the change of squares[k]
        for j, source in enumerate(powers[k - 1 :: -1], 1):  # source = P**(k-j)
            for t in range(j % 2, j + 1, 2):  # q**j = sum_t C(j, (j+t)/2) (x**(at) + x**(-at)), halved at t = 0
                s, w = a * t, comb(k, j) * comb(j, (j + t) // 2) // (1 if t else 2)  # C(2r, r) is even
                if tracked:
                    cross = 0
                    for e, c in source.items():
                        c *= w
                        old = get(e + s, 0)
                        target[e + s] = old + c
                        cross += old * c
                        f = abs(e - s)
                        old = get(f, 0)
                        target[f] = old + c
                        cross += old * c
                    grown += 2 * cross + 2 * w * w * squares[k - j]  # the c*c of both feeds: the source's sum
                else:
                    for e, c in source.items():
                        c *= w
                        target[e + s] = get(e + s, 0) + c
                        f = abs(e - s)
                        target[f] = get(f, 0) + c
                if 0 in source:
                    c, old = w * source[0], target[s]
                    target[s] = old - c
                    grown += c * (c - 2 * old)
                if s in source:
                    c, old = w * source[s], get(0, 0)
                    target[0] = old + c
                    grown += c * (2 * old + c)
        if tracked:
            squares[k] += grown


def _moment_of(powers: list[SparseLaurent], m: int, squares: list[int]) -> int:
    """[x^0] P**m = 2 sum_e lo[e] hi[e] - lo[0] hi[0] over the stored e >= 0.

    An even m reads its running sum squares[m/2]; an odd m scans lo,
    which stores no more entries than hi.
    """
    lo, hi = powers[m // 2], powers[(m + 1) // 2]  # P**(m//2) and P**ceil(m/2)
    total = sum(c * hi.get(e, 0) for e, c in lo.items()) if m % 2 else squares[m // 2]
    return 2 * total - lo.get(0, 0) * hi.get(0, 0)


def moment_vector(terms: Sequence[int], m_max: int) -> list[int]:
    """N_m = 2**m E[S_n**m] for m = 1..m_max, the last row of ``prefix_moments``."""
    return prefix_moments(terms, len(terms), len(terms), m_max)[-1][1]


def moments_to_cumulants(moments: Sequence[int]) -> list[int]:
    """Cumulants k_1..k_M from raw moments mu_1..mu_M.

    Uses the recursion k_m = mu_m - sum_{j<m} C(m-1, j-1) k_j mu_{m-j}, whose
    terms all have weight m: the counts N_m = 2**m mu_m give K_m = 2**m k_m.
    """
    if len(moments) > MAX_CUMULANT_ORDER:
        raise TooLarge(f"the cumulant recursion to order {len(moments)} is over the cap {MAX_CUMULANT_ORDER}")
    out = []
    for m in range(1, len(moments) + 1):
        acc = moments[m - 1]
        for j in range(1, m):
            acc -= comb(m - 1, j - 1) * out[j - 1] * moments[m - j - 1]
        out.append(acc)
    return out


def independent_cumulants(m_max: int) -> list[int]:
    """K_m = 2**m kappa_m of one arcsine summand cos(2 pi U) for m = 1..m_max."""
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    if m_max > MAX_CUMULANT_ORDER:  # before the moments are built
        raise TooLarge(f"the cumulant recursion to order {m_max} is over the cap {MAX_CUMULANT_ORDER}")
    return moments_to_cumulants([0 if m % 2 else comb(m, m // 2) for m in range(1, m_max + 1)])


_ORACLE_SLAB = 1 << 20


def _oracle_workers() -> int:
    """Threads of the quadrature: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def moment_oracle_quadrature(terms: Sequence[int], m: int) -> float:
    """Float cross-check of E[S_n**m] by equally spaced sampling.

    With N = m * max(a_k) + 1 nodes the rule integrates the degree
    m * max(a_k) trigonometric polynomial S_n**m without aliasing, so
    the only error is float rounding.  S_n(1 - w) = S_n(w), so node N - j
    repeats node j: only the nodes 0 .. N//2 are evaluated, and the sum
    is twice theirs less node 0 and, for even N, less node N/2, each of
    which stands for itself alone.  Arguments are reduced to a_k * j mod N
    in exact integer arithmetic, so each term gathers from one table of
    the long-double cosines cos(2*pi*r/N), computed for r <= N/2 and
    mirrored (16*N bytes, at most 160 MB), into one slab array over at
    most 2**20 nodes, slab by slab.  Each node is raised to the m-th
    power by binary multiplication, high bit first, with no libm powl.
    The table's first half and each slab are filled in one chunk per
    CPU, each on its own thread with index and gather arrays of its own:
    numpy's long-double loops release the GIL and evaluate element by
    element, every node sees the same operations in the same order, and
    each slab is summed once, whole, so the bits are the same for any CPU count.
    """
    import numpy as np  # only the float diagnostics need numpy; keeps start-up fast
    from concurrent.futures import ThreadPoolExecutor

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
    half = samples // 2 + 1  # nodes 0 .. N//2
    workers = _oracle_workers()
    table = np.empty(samples, dtype=np.longdouble)
    acc = np.empty(min(half, _ORACLE_SLAB), dtype=np.longdouble)
    width = -(-acc.size // workers)

    def cosines(lo: int, hi: int) -> None:
        np.cos(step * np.arange(lo, hi, dtype=np.int64).astype(np.longdouble), out=table[lo:hi])

    def fill(start: int, lo: int, hi: int) -> None:  # acc[lo:hi] = S_n**m at nodes start+lo .. start+hi-1
        index, gathered = np.empty(hi - lo, dtype=np.int64), np.empty(hi - lo, dtype=np.longdouble)
        grid = np.arange(start + lo, start + hi, dtype=np.int64)
        out = acc[lo:hi]
        out.fill(0)
        for a in reduced:
            np.remainder(np.multiply(grid, a, out=index), samples, out=index)
            out += np.take(table, index, out=gathered, mode="clip")  # index already in [0, N)
        gathered[:] = out
        for bit in bin(m)[3:]:  # out = S_n**m by squaring and multiplying, high bit first
            out *= out
            if bit == "1":
                out *= gathered

    total = np.longdouble(0)
    with ThreadPoolExecutor(workers) as pool:
        bounds = [half * i // workers for i in range(workers + 1)]
        list(pool.map(cosines, bounds[:-1], bounds[1:]))
        table[half:] = table[samples - half : 0 : -1]  # table[N - r] = table[r]
        for start in range(0, half, _ORACLE_SLAB):
            size = min(_ORACLE_SLAB, half - start)
            chunks = range(0, size, width)
            list(pool.map(fill, [start] * len(chunks), chunks, [min(lo + width, size) for lo in chunks]))
            total += 2 * acc[:size].sum(dtype=np.longdouble)
            if start == 0:
                total -= acc[0]
            if samples % 2 == 0 and start + size == half:
                total -= acc[size - 1]  # node N/2
    return float(total / samples)
