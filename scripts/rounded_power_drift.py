#!/usr/bin/env python3
"""Drift of round(eta^k) cumulants against the independent model.

When eta is (a good decimal approximation of) a transcendental number,
kappa_m(S_n) - n * kappa_m(model) should freeze to a constant once n
passes the last sporadic cancellation; the table makes the freeze
visible per order.

Usage: python scripts/rounded_power_drift.py [N_MAX] [ETA_DECIMAL]

Failures go through ``lacuna.cli.exit_code``, as in the CLI: a rejected
argument prints one ``error:`` line and exits 2.
"""

import sys

from lacuna.cli import exit_code, positional, scaled
from lacuna.moments import independent_cumulants, moments_to_cumulants, prefix_moments
from lacuna.sequences import generate_terms, parse_sequence

PI_DIGITS = "3.14159265358979323846264338327950288"


def main() -> int:
    n_max = positional(1, "N_MAX", 22)
    eta = sys.argv[2] if len(sys.argv) > 2 else PI_DIGITS
    terms = generate_terms(parse_sequence(f"roundpow:eta={eta},prec=100"), n_max)
    model = independent_cumulants(6)
    rows = prefix_moments(terms, 1, n_max, 6)  # before the header, so a refusal prints no table
    print("n,m,kappa,independent_n_kappa,diff")
    for n, counts in rows:
        cumulants = moments_to_cumulants(counts)  # K_m = 2^m kappa_m
        for m in (2, 4, 6):
            values = (cumulants[m - 1], n * model[m - 1], cumulants[m - 1] - n * model[m - 1])
            print(",".join(map(str, (n, m, *(scaled(v, m) for v in values)))))
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
