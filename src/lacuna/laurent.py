"""Sparse Laurent polynomials over the integers.

A polynomial is a dict mapping exponent to nonzero coefficient.  Both
are arbitrary-precision ints; exponents may be negative and as large as
the frequencies themselves (2**60 is routine for geometric sequences),
so nothing here assumes dense or bounded support.

For frequencies a_1..a_n, the generating polynomial
P = sum_k (x**a_k + x**-a_k) has [x^0] P**m equal to the number of
signed index tuples (i_1..i_m, e_1..e_m) with e_1*a_{i_1} + ... = 0.
``moments.prefix_moments`` grows each P**k in place, as P(x) = P(1/x) stored
as its orbit sums P[e] + P[-e] over e >= 0; the test oracles use ``laurent_mul``.
"""

from __future__ import annotations

SparseLaurent = dict[int, int]


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
