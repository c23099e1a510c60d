"""Exact moments and cumulants of lacunary cosine sums.

S_n(w) = sum_{k<=n} cos(2 pi a_k w) for integer frequencies a_k.  The
package computes E[S_n^m] and kappa_m(S_n) as exact rationals for
arbitrary integer sequences, compares them against the i.i.d. arcsine
model, and analyzes growth (affine tails, structural slopes) for
sequences generated by linear recurrences.
"""

__version__ = "0.2.0"
