"""Exact moments and cumulants of lacunary cosine sums, as integer counts.

E[S_n**m] for S_n = sum_k cos(2 pi a_k w), w uniform on [0,1], is 2**-m
times the count N_m of signed zero-sum index tuples, which ``prefix_moments``
returns.  Its carry count runs first: from the top index down, memoized, it
drops each partial sum that the slots left cannot cancel.  If that count
gives up within its budget, the prefix engine answers, once its a-priori
support and work estimates pass their caps: it grows the powers P**k of a
sparse Laurent polynomial one term at a time, each symmetric under x -> 1/x and
stored as its orbit sums D[e] = P[e] + P[-e] over e >= 0 (D[0] = P[0]), and
extracts constant terms; each power keeps sum_e D[e]**2 from its first term on.
The moment-to-cumulant recursion is homogeneous under mu_m -> 2**m mu_m, so
on the counts it gives the integers K_m = 2**m kappa_m (an order cap refuses
one that would run for seconds); only a printed value is scaled by 2**-m.
The ``oracle`` command cross-checks one moment against an equally-spaced
quadrature rule, exact for trigonometric polynomials of the arising degree
(up to float rounding).  The independently coded test routes (a pruned
depth-first tuple count, summed tuple multiplicities) live with the tests.

The independent comparison model replaces the shared argument w by an
i.i.d. uniform argument per summand; each summand then follows the
arcsine law, whose count at order 2j is C(2j, j), and the model's m-th
cumulant over n summands is n times the single-summand cumulant.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from itertools import accumulate
from math import comb, isqrt

from .errors import TooLarge
from .laurent import SparseLaurent

MAX_ORACLE_SAMPLES = 10**7  # quadrature nodes N: the half table takes 4*N bytes, at most 40 MB, plus about 1 MB
# A-priori stored entries (e >= 0) of the prefix engine's largest power P^k, times the 64-bit words of
# m_max max|a_k|.  Growing P^1..P^4 of pow2plus1 at n = 40 takes about 70 B per stored entry: 712,053 of them,
# 671,288 in P^4, whose estimate is 918,810.  So the cap stands for about 350 MB.
MAX_POWER_SUPPORT = 5 * 10**6
MAX_PREFIX_WORK = 5 * 10**7  # a-priori work units of the prefix engine (see _prefix_work)
MAX_CUMULANT_ORDER = 800  # the integer recursion took 1.9 s at order 800, 3.1 s at 900 (Python 3.11, Xeon)


def prefix_moments(
    terms: Sequence[int], n_from: int, n_to: int, m_max: int
) -> list[tuple[int, list[int]]]:
    """(n, [N_1 .. N_m_max]) for every n from n_from to n_to, N_m = 2**m E[S_n**m].

    A list, not a generator, so the work is done inside the call.  The carry count runs first, under
    min(work >> 5, (MAX_PREFIX_WORK >> 5) // words) units; only if it gives up do the prefix engine's guards run.
    """
    if m_max < 1 or not 0 <= n_from <= n_to <= len(terms):
        raise ValueError(f"need m_max >= 1 and 0 <= n_from <= n_to <= {len(terms)}")
    half = (m_max + 1) // 2
    tops = list(accumulate(map(abs, terms[:n_to]), max, initial=0))  # tops[n] = max |a_k|, k <= n
    words = max(1, -(-(m_max * tops[n_to]).bit_length() // 64))  # 64-bit words of the largest sum, m_max max|a|
    work = n_to * half**3 // 12  # a lower bound of the estimate, cheap for any m_max
    if work <= MAX_PREFIX_WORK:
        work = _prefix_work(tops, n_from, n_to, m_max)
    rows = _carry_rows(terms, tops, n_from, n_to, m_max, min(work >> 5, (MAX_PREFIX_WORK >> 5) // words))
    if rows is not None:
        return rows
    # P^half has at most C(2n+H-1, H) exponents, in [-H max|a|, H max|a|] and symmetric about 0.
    support = min((comb(2 * n_to + half - 1, half) + 1) // 2, half * tops[n_to] + 1)
    gave_up = "; the carry count gave up"
    if support * words > MAX_POWER_SUPPORT:
        each = f" of {words} words each" if words > 1 else ""
        raise TooLarge(f"P^{half} may store {support} exponents{each}, over the cap {MAX_POWER_SUPPORT}{gave_up}")
    if work > MAX_PREFIX_WORK:
        raise TooLarge(f"the prefix engine may take {work} work units, over the cap {MAX_PREFIX_WORK}{gave_up}")
    return _prefix_rows(terms, n_from, n_to, m_max)


def _prefix_rows(terms: Sequence[int], n_from: int, n_to: int, m_max: int) -> list[tuple[int, list[int]]]:
    """The prefix engine: grows P**0..P**H, H = ceil(m_max/2), one term at a time, as orbit sums D, with sum D[e]**2."""
    half = (m_max + 1) // 2
    powers: list[SparseLaurent] = [{0: 1}] + [{} for _ in range(half)]
    squares = [1] + [0] * half  # of P**0 = {0: 1} and the empty P**1 .. P**H
    rows = []
    for n in range(n_to + 1):
        if n:
            _add_term(powers, terms[n - 1], squares)
        if n >= n_from:
            rows.append((n, [_moment_of(powers, m, squares) for m in range(1, m_max + 1)]))
    return rows


def _prefix_work(tops: list[int], n_from: int, n_to: int, m_max: int) -> int:
    """Source entries that ``_add_term`` reads plus products that ``_moment_of`` sums.

    It caps the prefix engine, and 1/32 of it bounds the carry count's budget.  The per-row
    term counts a scan for every order; an even order reads its running sum instead, so it
    over-counts those.  P_n**i stores at most S_n(i) = min(C(2n+i-1, i), i*tops[n] + 1)
    exponents; each term reads P**i once per t of q**j, j <= H - i, that is floor(j/2) + 1 times.
    """
    half = (m_max + 1) // 2
    def held(n: int, i: int) -> int:
        return min(comb(2 * n + i - 1, i), i * tops[n] + 1) if i else 1
    reads = sum(held(n_to, i) * (half - i + (half - i) ** 2 // 4) for i in range(half))
    return n_to * reads + sum(held(n, m // 2) for n in range(n_from, n_to + 1) for m in range(1, m_max + 1))


def _carry_rows(terms: Sequence[int], tops: list[int], n_from: int, n_to: int, m_max: int, budget: int) -> list | None:
    """``prefix_moments``'s rows, or None once the count could pass ``budget`` units; tops[j] = max_{k<=j} |a_k|.

    T(j, r, S), the fillings of r ordered signed slots from a_1..a_j with sum -S, sums C(r, c) C(c, c+)
    T(j-1, r-c, S + (2c+ - c) a_j) over the c slots of a_j, c+ of them positive; it is even in S and 0
    once |S| > r max_{k<=j} |a_k|.  N_m(n) = T(n, m, 0).  A top-down pass builds each level's keys
    |S| (m_max + 1) + r that the rows need; a bottom-up pass evaluates them.  One unit pays for a move
    of the table, a row's key, or a move that a key reads, which makes at most one key below it: so
    neither the moves read nor the keys held pass the budget.
    """
    keys, spent = m_max + 1, comb(m_max + 3, 3)  # the move table's length
    if spent > budget:
        return None
    moves = [[(r - c, t, comb(r, c) * comb(c, (c + t) // 2)) for c in range(r + 1) for t in range(-c, c + 1, 2)]
             for r in range(keys)]  # (r - c, 2c+ - c, C(r, c) C(c, c+))
    levels, level = [], set()
    for j in range(n_to, 0, -1):
        if j >= n_from:
            level.update(range(1, keys))  # the row's keys (m, 0), for which room was kept
            spent += m_max
        levels.append(level)
        a, top, level = abs(terms[j - 1]), tops[j - 1], set()
        for key in levels[-1]:
            s, r = divmod(key, keys)
            spent += len(moves[r])
            if spent > budget:
                return None
            for left, t, _ in moves[r] if j > 1 else ():
                if (f := abs(s + t * a)) <= left * top:
                    level.add(f * keys + left)
    rows, values = [(0, [0] * m_max)] if n_from == 0 else [], {0: 1}  # T(0, r, S) = [r = 0 and S = 0]
    for j in range(1, n_to + 1):
        a, get = abs(terms[j - 1]), values.get
        values = {key: sum(w * get(abs(key // keys + t * a) * keys + left, 0) for left, t, w in moves[key % keys])
                  for key in levels.pop()}
        if j >= n_from:
            rows.append((j, [values[m] for m in range(1, keys)]))
    return rows


def _add_term(powers: list[SparseLaurent], a: int, squares: list[int]) -> None:
    """P**k += sum_{j>=1} C(k, j) q**j P**(k-j), q = x**a + x**-a, for each held k > 0.

    Each P**k is symmetric, P(x) = P(1/x), and stored as its orbit sums over e >= 0:
    D[0] = P[0] and D[e] = P[e] + P[-e] = 2 P[e], so P = sum_e D[e] (x**e + x**-e) / 2.
    Since (x**e + x**-e)(x**s + x**-s) = (x**(e+s) + x**-(e+s)) + (x**|e-s| + x**-|e-s|),
    a factor x**s + x**-s feeds each stored e, e = 0 and e = s too, to e + s and |e - s|.
    A pass per t = j%2, j%2 + 2, .., j adds the offsets +-s, s = a*t, at weight
    w = C(k, j) C(j, (j+t)/2), halved at t = 0.  Highest k first, so every P**(k-j)
    read is still the old power.  squares[k] = sum_e D[e]**2 for every held k: an entry
    old + d adds 2*old*d + d*d, and the d*d of one pass over P**(k-j) sum to
    2*w*w*squares[k-j], still the old power's.
    """
    a = abs(a)
    for k in range(len(powers) - 1, 0, -1):
        target = powers[k]
        get = target.get
        grown = 0  # the change of squares[k]
        for j, source in enumerate(powers[k - 1 :: -1], 1):  # source = P**(k-j)
            for t in range(j % 2, j + 1, 2):  # q**j = sum_t C(j, (j+t)/2) (x**(at) + x**(-at)), halved at t = 0
                s, w = a * t, comb(k, j) * comb(j, (j + t) // 2) // (1 if t else 2)  # C(2r, r) is even
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
        squares[k] += grown


def _moment_of(powers: list[SparseLaurent], m: int, squares: list[int]) -> int:
    """[x^0] P**m = (sum_e lo[e] hi[e] + lo[0] hi[0]) / 2 over the stored orbit sums, e >= 0.

    The sum is P_lo[0] P_hi[0] + 4 sum_{e>0} P_lo[e] P_hi[e], twice the count less lo[0] hi[0].
    An even m reads its running sum squares[m/2]; an odd m scans lo, which stores no more entries than hi.
    """
    lo, hi = powers[m // 2], powers[(m + 1) // 2]  # P**(m//2) and P**ceil(m/2)
    total = sum(c * hi.get(e, 0) for e, c in lo.items()) if m % 2 else squares[m // 2]
    return (total + lo.get(0, 0) * hi.get(0, 0)) >> 1


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


_ORACLE_BLOCK = 1 << 13  # nodes per cache-sized block
_BLAS_THREADS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}  # a thread count the user set


def load_numpy():
    """numpy, its OpenBLAS on one thread unless the user set a thread count; os.environ is left as it was."""
    if "numpy" not in sys.modules and not os.environ.keys() & _BLAS_THREADS:
        # Callers need no BLAS threads, yet by default OpenBLAS starts a worker per extra CPU that spins ~0.1 s of CPU.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as numpy loads OpenBLAS
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy
    return numpy


def quadrature_nodes(terms: Sequence[int], m: int) -> int:
    """N = m * max|a_k| + 1, the nodes of ``moment_oracle_quadrature``, refused over MAX_ORACLE_SAMPLES."""
    if m < 1 or not terms:
        raise ValueError("need m >= 1" if m < 1 else "need at least one term")
    if (samples := m * max(map(abs, terms)) + 1) > MAX_ORACLE_SAMPLES:
        raise TooLarge(f"{samples} quadrature nodes exceed the cap {MAX_ORACLE_SAMPLES}")
    return samples


def moment_oracle_quadrature(terms: Sequence[int], m: int) -> float:
    """Float cross-check of E[S_n**m] by equally spaced sampling.

    With N = m * max|a_k| + 1 nodes the rule integrates the degree
    m * max|a_k| trigonometric polynomial S_n**m without aliasing, so
    the only error is float rounding.  S_n(1 - w) = S_n(w), so only the
    nodes 0 .. N//2 are evaluated: twice their sum, less node 0 and, for
    even N, node N/2.  With cosines fixed-point integers of at most 2**b,
    b = 63 - n.bit_length(), each node sum is an exact int64 in any order;
    one thread, the process's only one (see ``load_numpy``), holds 4*N bytes of half table (at most 40 MB).
    Blocks of sums are scaled by 2**-b into long doubles, exactly, raised
    to the m-th power by multiplication, high bit first (no libm powl), and summed.
    """
    samples = quadrature_nodes(terms, m)
    np = load_numpy()  # after the caps, so a refusal loads no numpy; only the float diagnostics need it
    scale = 63 - len(terms).bit_length()

    def power_sum(block) -> np.longdouble:  # sum of (block / 2**b)**m
        x = np.ldexp(block.astype(np.longdouble), -scale)
        power = x.copy()
        for bit in bin(m)[3:]:
            power *= power
            if bit == "1":
                power *= x
        return power.sum(dtype=np.longdouble)

    table = _oracle_table(samples, scale)
    total = sum(power_sum(block) for block in _oracle_node_sums(terms, samples, table))
    edges = [len(terms) * table[0], sum(table[a % 2 * (samples // 2)] for a in terms)]  # a_k j mod N at j = 0, N/2
    ends = power_sum(np.array(edges[: 2 - samples % 2]))  # node 0 and, for even N, node N/2
    return float((2 * total - ends) / samples)


def _oracle_table(samples: int, scale: int):
    """round(2**scale * cos(2*pi*r/N)) as int64 for r <= N/2, N = samples, where
    cos(uB + t) = cos(uB) cos(t) - sin(uB) sin(t) in long doubles, B ~ sqrt(N/2), in slabs of ~2**13."""
    np = load_numpy()
    half = samples // 2 + 1
    width = isqrt(half - 1) + 1  # B
    step = np.longdouble("6.28318530717958647692528676655900576839") / samples  # 2*pi past long-double digits
    t = step * np.arange(width).astype(np.longdouble)
    u = step * np.arange(0, half, width).astype(np.longdouble)[:, None]
    cos_t, sin_t, rows = np.cos(t), np.sin(t), max(1, (1 << 13) // width)
    table = np.empty(half, dtype=np.int64)
    for row in range(0, u.size, rows):
        slab = (np.cos(u[row : row + rows]) * cos_t - np.sin(u[row : row + rows]) * sin_t).ravel()
        table[row * width : (row + rows) * width] = np.rint(np.ldexp(slab[: half - row * width], scale))
    return table


def _oracle_node_sums(terms: Sequence[int], samples: int, table):
    """The exact int64 sums of table[min(r, N - r)], r = a_k j mod N, N = samples, over the terms at the nodes
    j <= N//2, one block of _ORACLE_BLOCK at a time: views into the sums of a group of 8 blocks, valid until the next.

    Node j = lo + i of the block at lo reads (i t mod N) + (lo t mod N) - N, t = a_k mod N: the first part
    once per term and group, the second once per block, so no node is divided and no buffer grows with n or N.
    """
    np = load_numpy()
    half = table.size
    offsets = np.arange(min(_ORACLE_BLOCK, half), dtype=np.int64)
    group = np.empty((8, offsets.size), dtype=np.int64)
    for start in range(0, half, group.size):
        group.fill(0)
        blocks = range(start, min(half, start + group.size), offsets.size)
        for a in terms:
            base = offsets * (t := a % samples) % samples
            for sums, lo in zip(group, blocks):
                index = base[: half - lo] + (lo * t % samples - samples)
                # index is r - N or r, so |index| is N - r or r, and min(|index|, N - |index|) = min(r, N - r).
                np.abs(index, out=index)
                np.minimum(index, samples - index, out=index)
                sums[: index.size] += table.take(index)
        yield from (sums[: half - lo] for sums, lo in zip(group, blocks))
