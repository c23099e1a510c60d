#!/usr/bin/env python3
"""Affine tails and structural slopes for a recurrence-driven sequence.

For each order m the exact engine detects the eventual law
kappa_m(S_n) = 2^-m (w n + b), and the offset-pattern sweep recovers
the same w without touching any concrete term.  Agreement of the two
routes is the whole point of the experiment.

Usage: python scripts/recurrence_tail.py [SEQ] [M_MAX]
  SEQ    sequence spec with a recurrence (default: fibonacci)
  M_MAX  largest cumulant order (default: 5)
"""

import sys

from lacuna.moments import moments_to_cumulants, prefix_moments
from lacuna.recurrence import detect_affine_tail, dominant_root_check, structural_slope
from lacuna.sequences import generate_terms, parse_sequence

N_FROM, N_TO = 15, 30


def main() -> None:
    spec = parse_sequence(sys.argv[1] if len(sys.argv) > 1 else "fibonacci")
    m_max = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    data = spec.recurrence_data()
    if data is None:
        raise SystemExit(f"{spec.label()} has no recurrence polynomial")
    poly, _ = data
    root = dominant_root_check(poly)
    print(f"# {spec.label()}: dominant root ~ {root.eta_estimate:.9f}, perron={root.is_perron}")
    print("m,w_detected,b_detected,n1,w_pattern_sweep,routes_agree,gap_bound_stable")
    terms = generate_terms(spec, N_TO)
    rows = [
        (n, moments_to_cumulants(moments))
        for n, moments in prefix_moments(terms, N_FROM, N_TO, m_max)
    ]
    for m in range(2, m_max + 1):
        points = [(n, kappas[m - 1]) for n, kappas in rows]
        fit = detect_affine_tail(points, m)
        w = structural_slope(m, poly, 8)
        stable = w == structural_slope(m, poly, 16)
        print(f"{m},{fit.w},{fit.b},{fit.n1},{w},{fit.valid and w == fit.w},{stable}")


if __name__ == "__main__":
    main()
