"""Sparse Laurent polynomials over the integers.

A polynomial is a dict mapping exponent to nonzero coefficient.  Both
are arbitrary-precision ints; exponents may be negative and as large as
the frequencies themselves (2**60 is routine for geometric sequences),
so nothing here assumes dense or bounded support.

The operation everything else is built on is constant-term extraction
of a power: for frequencies a_1..a_n, the generating polynomial
P = sum_k (x**a_k + x**-a_k) has [x^0] P**m equal to the number of
signed index tuples (i_1..i_m, e_1..e_m) with e_1*a_{i_1} + ... = 0.
"""

from __future__ import annotations

from typing import Iterable

SparseLaurent = dict[int, int]


def laurent_from_terms(terms: Iterable[int]) -> SparseLaurent:
    """Build sum_k (x**a_k + x**-a_k); duplicate terms stack coefficients."""
    poly: SparseLaurent = {}
    for a in terms:
        poly[a] = poly.get(a, 0) + 1
        poly[-a] = poly.get(-a, 0) + 1
    return poly


def laurent_mul(a: SparseLaurent, b: SparseLaurent) -> SparseLaurent:
    """Exact product; zero coefficients are removed from the result."""
    if len(a) > len(b):
        a, b = b, a
    out: SparseLaurent = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


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
