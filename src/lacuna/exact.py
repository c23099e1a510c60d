"""Exact scalar arithmetic and serialization.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction``, which already enforces the canonical form used
throughout: lowest terms, positive denominator, zero as 0/1.  All
production values are exact; floats appear only in diagnostics (root
estimates, the quadrature cross-check).
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
