"""Workload definitions for the lacuna CLI benchmark.

A workload is a list of CLI invocations (argument lists after
``python -m lacuna.cli``) run one after another by a single closed-loop
client.  Only ``range-tables`` depends on the seed: its ``explicit:``
sequence is drawn from it, and the CLI receives only the drawn terms.

``reference_cumulant_csv`` recomputes that seeded invocation's output
without lacuna, so the output gate covers every seed, not just the one
whose digests were recorded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

DEFAULT_SEED = 1

EXPLICIT_TERMS = 30
EXPLICIT_MAX = 10**6
EXPLICIT_M_MAX = 6

# Fresh-process start with trivial compute: interpreter, package import
# (numpy included) and argument parsing.
SETUP_ARGV = ("independent", "--m", "2")

TRIBONACCI = "recurrence:poly=-1,-1,-1,1;init=1,1,2"

# Why each workload exists (also the "why" lines in BENCHMARK.json):
# - range-tables rebuilds P_n^k from scratch for every n of four range
#   tables over sparse, collision-heavy, generic and Fraction-generated
#   frequencies; an incremental prefix engine shows here.
# - deep-point builds one huge power (P^4 of 2^k+1 at n=40 has 1,342,575
#   terms) and runs the quadrature oracle; it sets peak memory and would
#   expose an engine that taxes single-point queries.
# - growth-slope is the only workload that reaches the offset-pattern
#   sweep and the partition-lattice multiplicities.
WORKLOADS = ("range-tables", "deep-point", "growth-slope")


def explicit_terms(seed: int) -> list[int]:
    """The seeded frequencies of ``range-tables``: distinct ints in [1, 10^6]."""
    return random.Random(seed).sample(range(1, EXPLICIT_MAX + 1), EXPLICIT_TERMS)


def explicit_argv(seed: int) -> tuple[str, ...]:
    spec = "explicit:" + ",".join(map(str, explicit_terms(seed)))
    return (
        "cumulants", "--seq", spec, "--n-from", "1", "--n-to", str(EXPLICIT_TERMS),
        "--m-max", str(EXPLICIT_M_MAX), "--format", "csv",
    )


def invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argument lists of one pass over ``workload``."""
    if workload == "range-tables":
        return [
            ("compare", "--seq", "pow2plus1", "--n-from", "1", "--n-to", "40", "--m-max", "6"),
            ("detect-linear", "--seq", "fibonacci", "--m", "8", "--n-from", "15", "--n-to", "30"),
            explicit_argv(seed),
            (
                "compare", "--seq", "roundpow:eta=3.14159265358979323846,prec=128",
                "--n-from", "1", "--n-to", "22", "--m-max", "6",
            ),
        ]
    if workload == "deep-point":
        return [
            ("cumulants", "--seq", "pow2plus1", "--n", "40", "--m-max", "8"),
            ("oracle", "--seq", "fibonacci", "--n", "25", "--m", "6"),
        ]
    if workload == "growth-slope":
        return [
            ("slope", "--seq", "fibonacci", "--m", "5", "--gap-bound", "6"),
            ("slope", "--seq", "fibonacci", "--m", "8", "--gap-bound", "1"),
            ("slope", "--seq", "geometric:c=1,eta=2", "--m", "8", "--gap-bound", "1"),
            ("slope", "--seq", TRIBONACCI, "--m", "8", "--gap-bound", "1"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def reference_outputs(seed: int) -> dict[tuple[str, ...], str]:
    """Expected stdout of the seed-dependent invocations, computed here."""
    terms = explicit_terms(seed)
    return {explicit_argv(seed): reference_cumulant_csv(terms, EXPLICIT_M_MAX)}


def _format(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def reference_cumulant_csv(terms: list[int], m_max: int) -> str:
    """``cumulants --n-from 1 --n-to len(terms) --m-max m_max --format csv``.

    Independent of lacuna's engine: P_n = P_{n-1} + q with
    q = x^a + x^-a is grown one term at a time through
    P_n^k = sum_j C(k, j) P_{n-1}^(k-j) q^j, and E[S_n^m] is
    2^-m [x^0] P_n^ceil(m/2) P_n^floor(m/2).
    """
    half = (m_max + 1) // 2
    powers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(half)]
    lines = ["n,m,kappa"]
    for n, a in enumerate(terms, 1):
        grown = []
        for k in range(half + 1):
            acc: dict[int, int] = {}
            for j in range(k + 1):
                for i in range(j + 1):
                    weight = comb(k, j) * comb(j, i)
                    shift = a * (2 * i - j)
                    for e, c in powers[k - j].items():
                        acc[e + shift] = acc.get(e + shift, 0) + weight * c
            grown.append({e: c for e, c in acc.items() if c})
        powers = grown
        moments = []
        for m in range(1, m_max + 1):
            hi, lo = powers[(m + 1) // 2], powers[m // 2]
            moments.append(Fraction(sum(c * lo.get(-e, 0) for e, c in hi.items()), 2**m))
        kappas: list[Fraction] = []
        for m in range(1, m_max + 1):
            value = moments[m - 1]
            for j in range(1, m):
                value -= comb(m - 1, j - 1) * kappas[j - 1] * moments[m - j - 1]
            kappas.append(value)
            lines.append(f"{n},{m},{_format(value)}")
    return "\n".join(lines) + "\n"
