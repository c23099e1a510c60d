#!/usr/bin/env python3
"""Cumulant table for a_k = 2^k + 1 and checks of the closed forms.

The second cumulant stays n/2, the fourth becomes affine at n = 4, and
the sixth grows quadratically from n = 7, so the sequence separates
itself from every comparison model with linear cumulant growth.

Usage: python scripts/pow2plus1_table.py [N_MAX]

Failures go through ``lacuna.cli.exit_code``, as in the CLI: a rejected
argument prints one ``error:`` line and exits 2.
"""

import sys

from lacuna.cli import exit_code, positional, scaled
from lacuna.moments import moments_to_cumulants, prefix_moments
from lacuna.sequences import generate_terms, parse_sequence


def main() -> int:
    n_max = positional(1, "N_MAX", 40)
    terms = generate_terms(parse_sequence("pow2plus1"), n_max)
    rows = prefix_moments(terms, 1, n_max, 6)  # before the header, so a refusal prints no table
    print("n,kappa2,kappa4,kappa6,kappa4_law_holds,kappa6_law_holds")
    for n, counts in rows:
        cumulants = moments_to_cumulants(counts)  # K_m = 2^m kappa_m
        quartic = cumulants[3] == 2 * (-3 * n + 28) if n >= 4 else ""
        sextic = cumulants[5] == 4 * (45 * n * n + 380 * n - 1875) if n >= 7 else ""
        kappas = (scaled(cumulants[m - 1], m) for m in (2, 4, 6))
        print(",".join(map(str, (n, *kappas, quartic, sextic))))
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
