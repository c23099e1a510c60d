#!/usr/bin/env python3
"""Affine tails and structural slopes for a recurrence-driven sequence.

For each order m the exact engine detects the eventual law
kappa_m(S_n) = 2^-m (w n + b), and the offset-pattern sweep recovers
the same w without touching any concrete term.  Agreement of the two
routes is the whole point of the experiment.  One sweep per order gives
w at gap bound 8 and at 16 (``gap_bound_stable``).  It walks the minimal
polynomial of the terms, which ``lacuna.cli.slope_modulus`` finds for
``lacuna slope`` too, with the same ``note:`` and ``warning:`` lines.
The header's dominant root is numeric; the exact routes never use it.

Usage: python scripts/recurrence_tail.py [SEQ] [M_MAX]
  SEQ    sequence spec with a recurrence (default: fibonacci)
  M_MAX  largest cumulant order (default: 5)

Failures go through ``lacuna.cli.exit_code``, as in the CLI: a rejected
argument prints one ``error:`` line and exits 2, a refused computation
exits 3, and each warning prints as one ``warning:`` line.
"""

import sys
from collections import namedtuple
from math import isfinite

import numpy as np

from lacuna.cli import exit_code, positional, slope_modulus
from lacuna.errors import LacunaError
from lacuna.moments import moments_to_cumulants, prefix_moments
from lacuna.recurrence import Poly, detect_affine_tail, structural_slope
from lacuna.sequences import generate_terms, parse_sequence

N_FROM, N_TO = 15, 30
_PERRON_MARGIN = 1e-9  # the dominant root must beat every other modulus by this much


# Numeric root diagnostic for a recurrence polynomial.
RootCheck = namedtuple("RootCheck", "is_perron eta_estimate")


def dominant_root_check(p: Poly) -> RootCheck:
    """Check for a unique real root > 1 strictly dominating all others.

    Root finding is numeric (companion matrix) and only diagnostic, and it
    refuses a coefficient past float range.  p has degree >= 1, as
    ``slope_modulus`` returns it; that function alone checks rational roots.
    """
    if max(map(abs, p)) > sys.float_info.max:
        raise LacunaError(f"the dominant-root check needs floats, but a coefficient is over {sys.float_info.max:.3g}")
    roots = [complex(r) for r in np.roots([float(c) for c in reversed(p)])]
    if not all(isfinite(r.real) and isfinite(r.imag) for r in roots):
        raise LacunaError("companion-matrix roots are not finite")
    real_above_one = [r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r)) and r.real > 1.0]
    if len(real_above_one) == 1:
        eta = real_above_one[0]
        others = list(roots)
        others.remove(min(others, key=lambda z: abs(z - eta)))
        perron = all(eta > abs(z) + _PERRON_MARGIN for z in others)
    else:
        eta = max(abs(z) for z in roots)
        perron = False
    return RootCheck(perron, float(eta))


def main() -> int:
    spec = parse_sequence(sys.argv[1] if len(sys.argv) > 1 else "fibonacci")
    m_max = positional(2, "M_MAX", 5)
    poly = slope_modulus(spec)
    root = dominant_root_check(poly)
    lines = [
        f"# {spec.text}: dominant root ~ {root.eta_estimate:.9f}, perron={root.is_perron}",
        "m,w_detected,b_detected,n1,w_pattern_sweep,routes_agree,gap_bound_stable",
    ]
    terms = generate_terms(spec, N_TO)
    rows = [(n, moments_to_cumulants(counts)) for n, counts in prefix_moments(terms, N_FROM, N_TO, m_max)]
    for m in range(2, m_max + 1):
        fit = detect_affine_tail([(n, scaled[m - 1]) for n, scaled in rows])
        slopes = structural_slope(m, poly, 16)  # one sweep gives w at gap bound 8 and its recheck at 16
        w, w_doubled = slopes[8], slopes[16]
        lines.append(f"{m},{fit.w},{fit.b},{fit.n1},{w},{fit.valid and w == fit.w},{w == w_doubled}")
    print(*lines, sep="\n")  # whole or not at all: a refusal at a high order leaves no partial table
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
