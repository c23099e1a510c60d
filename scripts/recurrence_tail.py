#!/usr/bin/env python3
"""Affine tails and structural slopes for a recurrence-driven sequence.

For each order m the exact engine detects the eventual law
kappa_m(S_n) = 2^-m (w n + b), and the offset-pattern sweep recovers
the same w without touching any concrete term.  Agreement of the two
routes is the whole point of the experiment.  Like ``lacuna slope``,
the sweep walks the minimal polynomial of the terms, not the spec's.
The header line reports that polynomial's dominant root, found
numerically; the exact routes never consume it.

Usage: python scripts/recurrence_tail.py [SEQ] [M_MAX]
  SEQ    sequence spec with a recurrence (default: fibonacci)
  M_MAX  largest cumulant order (default: 5)

Failures go through ``lacuna.cli.exit_code``, as in the CLI: a rejected
argument prints one ``error:`` line and exits 2, a refused computation
exits 3, and each warning prints as one ``warning:`` line.
"""

import sys
import warnings
from collections import namedtuple
from collections.abc import Sequence
from math import isfinite

import numpy as np

from lacuna.cli import exit_code
from lacuna.errors import LacunaError, TooLarge
from lacuna.moments import moments_to_cumulants, prefix_moments
from lacuna.recurrence import detect_affine_tail, minimal_polynomial, rational_roots, structural_slope
from lacuna.sequences import generate_terms, parse_sequence

N_FROM, N_TO = 15, 30
_PERRON_MARGIN = 1e-9  # the dominant root must beat every other modulus by this much


# Numeric root diagnostic for a recurrence polynomial.
RootCheck = namedtuple("RootCheck", "is_perron eta_estimate roots rational")


def dominant_root_check(p: Sequence[int]) -> RootCheck:
    """Check for a unique real root > 1 strictly dominating all others.

    Root finding is numeric (companion matrix) and only diagnostic.
    Rational roots found by the p/q test are reported, with a warning
    when they certify that the polynomial is not irreducible.  A scan too
    large to run is skipped with a warning and reports none.
    """
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise LacunaError("zero polynomial")
    if len(coeffs) == 1:
        raise ValueError("degree must be >= 1")
    found = np.roots([float(c) for c in reversed(coeffs)])
    if found.size == 0 or not all(isfinite(r.real) and isfinite(r.imag) for r in found):
        raise LacunaError("companion-matrix roots are not finite")
    roots = tuple(sorted((complex(r) for r in found), key=lambda z: (z.real, z.imag)))
    real_above_one = [
        r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r)) and r.real > 1.0
    ]
    if len(real_above_one) == 1:
        eta = real_above_one[0]
        others = list(roots)
        others.remove(min(others, key=lambda z: abs(z - eta)))
        perron = all(eta > abs(z) + _PERRON_MARGIN for z in others)
    else:
        eta = max(abs(z) for z in roots)
        perron = False
    try:
        ratio = tuple(rational_roots(coeffs))
    except TooLarge as exc:
        warnings.warn(f"rational-root check skipped ({exc})", RuntimeWarning, stacklevel=2)
        ratio = ()
    if ratio and len(coeffs) - 1 >= 2:
        warnings.warn(
            f"polynomial has rational root(s) {[str(r) for r in ratio]} and is not "
            "irreducible; dominant-root conclusions assume irreducibility",
            RuntimeWarning,
            stacklevel=2,
        )
    return RootCheck(perron, float(eta), roots, ratio)


def main() -> int:
    spec = parse_sequence(sys.argv[1] if len(sys.argv) > 1 else "fibonacci")
    m_max = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    if not spec.poly:
        raise ValueError(f"{spec.text} has no recurrence polynomial")
    if m_max < 1:
        raise ValueError(f"M_MAX must be >= 1, got {m_max}")
    poly = minimal_polynomial(generate_terms(spec, 2 * (len(spec.poly) - 1)))
    root = dominant_root_check(poly)
    print(f"# {spec.text}: dominant root ~ {root.eta_estimate:.9f}, perron={root.is_perron}")
    print("m,w_detected,b_detected,n1,w_pattern_sweep,routes_agree,gap_bound_stable")
    terms = generate_terms(spec, N_TO)
    rows = [(n, moments_to_cumulants(counts)) for n, counts in prefix_moments(terms, N_FROM, N_TO, m_max)]
    for m in range(2, m_max + 1):
        fit = detect_affine_tail([(n, scaled[m - 1]) for n, scaled in rows])
        w = structural_slope(m, poly, 8)
        stable = w == structural_slope(m, poly, 16)
        print(f"{m},{fit.w},{fit.b},{fit.n1},{w},{fit.valid and w == fit.w},{stable}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
