#!/usr/bin/env python3
"""Cumulant table for a_k = 2^k + 1 and checks of the closed forms.

The second cumulant stays n/2, the fourth becomes affine at n = 4, and
the sixth grows quadratically from n = 7, so the sequence separates
itself from every comparison model with linear cumulant growth.

Usage: python scripts/pow2plus1_table.py [N_MAX]
"""

import sys
from fractions import Fraction

from lacuna.moments import moments_to_cumulants, prefix_moments
from lacuna.sequences import SequenceSpec, generate_terms


def main() -> None:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    terms = generate_terms(SequenceSpec.pow2plus1(), n_max)
    print("n,kappa2,kappa4,kappa6,kappa4_law_holds,kappa6_law_holds")
    for n, moments in prefix_moments(terms, 1, n_max, 6):
        kappa = moments_to_cumulants(moments)
        quartic = kappa[3] == Fraction(-3 * n + 28, 8) if n >= 4 else ""
        sextic = kappa[5] == Fraction(45 * n * n + 380 * n - 1875, 16) if n >= 7 else ""
        print(",".join(map(str, (n, kappa[1], kappa[3], kappa[5], quartic, sextic))))


if __name__ == "__main__":
    main()
