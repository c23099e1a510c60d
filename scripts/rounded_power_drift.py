#!/usr/bin/env python3
"""Drift of round(eta^k) cumulants against the independent model.

When eta is (a good decimal approximation of) a transcendental number,
kappa_m(S_n) - n * kappa_m(model) should freeze to a constant once n
passes the last sporadic cancellation; the table makes the freeze
visible per order.

Usage: python scripts/rounded_power_drift.py [N_MAX] [ETA_DECIMAL]
"""

import sys

from lacuna.moments import independent_cumulants, moments_to_cumulants, prefix_moments
from lacuna.sequences import SequenceSpec, generate_terms

PI_DIGITS = "3.14159265358979323846264338327950288"


def main() -> None:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 22
    eta = sys.argv[2] if len(sys.argv) > 2 else PI_DIGITS
    terms = generate_terms(SequenceSpec.roundpow(eta, 100), n_max)
    model = independent_cumulants(6)
    print("n,m,kappa,independent_n_kappa,diff")
    for n, moments in prefix_moments(terms, 1, n_max, 6):
        kappa = moments_to_cumulants(moments)
        for m in (2, 4, 6):
            independent = n * model[m - 1]
            print(",".join(map(str, (n, m, kappa[m - 1], independent, kappa[m - 1] - independent))))


if __name__ == "__main__":
    main()
