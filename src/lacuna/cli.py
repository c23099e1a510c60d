"""Command-line front end.

Every value that is exact in the engine stays exact on the wire:
rationals serialize as "p/q" strings (denominator omitted when 1) and
big integers as decimal strings, never floats.  Identical invocations
produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 computation guard tripped,
4 requested validity check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from typing import Sequence

from .errors import LacunaError
from .exact import format_rational
from .moments import (
    compare_table,
    independent_cumulants,
    moment,
    moment_oracle_quadrature,
    moments_to_cumulants,
    prefix_moments,
)
from .multiplicity import (
    SignedTuple,
    mult_crosscut,
    mult_moebius,
    upset_partitions,
    zero_sum_profile,
)
from .partitions import minimal_members
from .recurrence import detect_affine_tail, minimal_polynomial, structural_slope
from .sequences import generate_terms, parse_sequence

_SIGN_TOKENS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacuna",
        description="Exact moments and cumulants of lacunary cosine sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, table: bool = False) -> None:
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if table:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    def with_seq(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seq",
            required=True,
            metavar="SPEC",
            help="sequence, e.g. pow2plus1, fibonacci, geometric:c=1,eta=2, "
            "recurrence:poly=-1,-1,1;init=1,1, explicit:3,5,9, "
            "roundpow:eta=3.14159265358979323846,prec=128",
        )

    for name, help_text in (("moments", "raw moments E[S_n^m]"), ("cumulants", "cumulants kappa_m(S_n)")):
        p = sub.add_parser(name, help=help_text)
        with_seq(p)
        p.add_argument("--n", type=int)
        p.add_argument("--n-from", type=int)
        p.add_argument("--n-to", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--m-max", type=int)
        common(p, table=True)

    p = sub.add_parser("independent", help="cumulants of the i.i.d. comparison model")
    p.add_argument("--m", type=int)
    p.add_argument("--m-max", type=int)
    common(p, table=True)

    p = sub.add_parser("compare", help="kappa_m(S_n) against n times the model cumulant")
    with_seq(p)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    common(p, table=True)

    p = sub.add_parser("detect-linear", help="detect an eventual affine law for 2^m kappa_m")
    with_seq(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--require-linear", action="store_true", help="exit 4 when no affine tail exists")
    common(p)

    p = sub.add_parser("slope", help="structural per-unit growth of 2^m kappa_m")
    with_seq(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gap-bound", type=int, default=8)
    common(p)

    p = sub.add_parser("mult-inspect", help="zero-sum structure and multiplicity of one tuple")
    with_seq(p)
    p.add_argument("--indices", required=True, help="comma-separated 1-based indices, e.g. 1,2,3")
    p.add_argument("--signs", required=True, help="comma-separated signs, e.g. +,+,-")
    common(p)

    p = sub.add_parser("oracle", help="quadrature cross-check of one moment")
    with_seq(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)

    return parser


def _checked(fn, *args):
    """fn(*args), reporting a rejected argument value (ValueError) as a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _n_range(args: argparse.Namespace) -> tuple[int, int]:
    if args.n is not None:
        if args.n_from is not None or args.n_to is not None:
            raise _UsageError("give either --n or --n-from/--n-to, not both")
        if args.n < 1:
            raise _UsageError("--n must be >= 1")
        return args.n, args.n
    if args.n_from is None or args.n_to is None:
        raise _UsageError("need --n or both --n-from and --n-to")
    if not 1 <= args.n_from <= args.n_to:
        raise _UsageError("need 1 <= --n-from <= --n-to")
    return args.n_from, args.n_to


def _m_range(args: argparse.Namespace) -> int:
    if args.m is not None and args.m_max is not None:
        raise _UsageError("give either --m or --m-max, not both")
    value = args.m if args.m is not None else args.m_max
    if value is None:
        raise _UsageError("need --m or --m-max")
    if value < 1:
        raise _UsageError("order must be >= 1")
    return value


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_command(args: argparse.Namespace, value_key: str) -> str:
    spec = _checked(parse_sequence, args.seq)
    n_from, n_to = _n_range(args)
    m_top = _m_range(args)
    orders = (m_top,) if args.m is not None else tuple(range(1, m_top + 1))
    terms = _checked(generate_terms, spec, n_to)
    rows = []
    for n, vector in prefix_moments(terms, n_from, n_to, m_top):
        if value_key == "kappa":
            vector = moments_to_cumulants(vector)
        for m in orders:
            rows.append({"n": n, "m": m, value_key: format_rational(vector[m - 1])})
    if len(rows) == 1:
        payload = {"sequence": spec.label(), **rows[0]}
    else:
        payload = {"sequence": spec.label(), "rows": rows}
    if args.format == "csv":
        return _csv_text(("n", "m", value_key), [(r["n"], r["m"], r[value_key]) for r in rows])
    return _json_text(payload)


def _independent_command(args: argparse.Namespace) -> str:
    m_top = _m_range(args)
    values = independent_cumulants(m_top)
    orders = (m_top,) if args.m is not None else tuple(range(1, m_top + 1))
    rows = [{"m": m, "kappa": format_rational(values[m - 1])} for m in orders]
    if args.format == "csv":
        return _csv_text(("m", "kappa"), [(r["m"], r["kappa"]) for r in rows])
    if len(rows) == 1:
        return _json_text(rows[0])
    return _json_text({"rows": rows})


def _compare_command(args: argparse.Namespace) -> str:
    spec = _checked(parse_sequence, args.seq)
    if not 1 <= args.n_from <= args.n_to:
        raise _UsageError("need 1 <= --n-from <= --n-to")
    if args.m_max < 1:
        raise _UsageError("--m-max must be >= 1")
    table = _checked(compare_table, spec, args.n_from, args.n_to, args.m_max)
    rows = [
        {
            "n": row.n,
            "m": row.m,
            "kappa": format_rational(row.kappa),
            "independent_n_kappa": format_rational(row.independent),
            "diff": format_rational(row.diff),
        }
        for row in table.rows
    ]
    if args.format == "csv":
        return _csv_text(
            ("n", "m", "kappa", "independent_n_kappa", "diff"),
            [(r["n"], r["m"], r["kappa"], r["independent_n_kappa"], r["diff"]) for r in rows],
        )
    return _json_text({"sequence": table.sequence, "m_max": table.m_max, "rows": rows})


def _detect_linear_command(args: argparse.Namespace) -> tuple[str, bool]:
    spec = _checked(parse_sequence, args.seq)
    if args.m < 1:
        raise _UsageError("--m must be >= 1")
    if not 1 <= args.n_from <= args.n_to:
        raise _UsageError("need 1 <= --n-from <= --n-to")
    terms = _checked(generate_terms, spec, args.n_to)
    points = [
        (n, moments_to_cumulants(moments)[args.m - 1])
        for n, moments in prefix_moments(terms, args.n_from, args.n_to, args.m)
    ]
    fit = detect_affine_tail(points, args.m)
    payload = {
        "sequence": spec.label(),
        "m": args.m,
        "n_from": args.n_from,
        "n_to": args.n_to,
        "w": str(fit.w),
        "b": str(fit.b),
        "n1": fit.n1,
        "valid": fit.valid,
    }
    ok = fit.valid or not args.require_linear
    return _json_text(payload), ok


def _slope_command(args: argparse.Namespace) -> str:
    spec = _checked(parse_sequence, args.seq)
    if args.m < 1:
        raise _UsageError("--m must be >= 1")
    if args.gap_bound < 1:
        raise _UsageError("--gap-bound must be >= 1")
    data = spec.recurrence_data()
    if data is None:
        raise _UsageError(f"sequence {spec.label()} has no recurrence polynomial")
    spec_poly, _ = data
    poly = minimal_polynomial(_checked(generate_terms, spec, 2 * (len(spec_poly) - 1)))
    if poly != spec_poly:
        print(
            f"note: slope uses the minimal polynomial {poly} of the terms, not the spec's {spec_poly}",
            file=sys.stderr,
        )
    w = structural_slope(args.m, poly, args.gap_bound)
    w_doubled = structural_slope(args.m, poly, 2 * args.gap_bound)
    if w != w_doubled:
        print(
            f"warning: slope changed from {w} to {w_doubled} when doubling the gap "
            f"bound {args.gap_bound}; report is not stable",
            file=sys.stderr,
        )
    payload = {
        "sequence": spec.label(),
        "m": args.m,
        "gap_bound": args.gap_bound,
        "w": str(w),
        "gap_bound_stable": w == w_doubled,
    }
    return _json_text(payload)


def _mult_inspect_command(args: argparse.Namespace) -> str:
    spec = _checked(parse_sequence, args.seq)
    try:
        indices = tuple(int(v) for v in args.indices.split(","))
        signs = tuple(_SIGN_TOKENS[v.strip()] for v in args.signs.split(","))
        tup = SignedTuple(indices, signs)
    except (ValueError, KeyError) as exc:
        raise _UsageError(f"bad tuple: {exc}") from exc
    terms = _checked(generate_terms, spec, max(indices))
    profile = zero_sum_profile(tup, terms)
    upset = upset_partitions(profile, tup.order)
    payload = {
        "sequence": spec.label(),
        "indices": list(indices),
        "signs": list(signs),
        "values": [str(s * terms[i - 1]) for i, s in zip(indices, signs)],
        "zero_sum_subsets": [list(s) for s in profile.subsets()],
        "zero_sum_partitions": [str(pi) for pi in upset],
        "minimal_partitions": [str(pi) for pi in minimal_members(upset)],
        "mult_moebius": str(mult_moebius(tup, terms)),
        "mult_crosscut": str(mult_crosscut(tup, terms)),
    }
    return _json_text(payload)


def _oracle_command(args: argparse.Namespace) -> str:
    spec = _checked(parse_sequence, args.seq)
    if args.n < 1 or args.m < 1:
        raise _UsageError("--n and --m must be >= 1")
    terms = _checked(generate_terms, spec, args.n)
    approx = moment_oracle_quadrature(terms, args.m)
    exact = moment(terms, args.m)
    payload = {
        "sequence": spec.label(),
        "n": args.n,
        "m": args.m,
        "oracle": approx,
        "exact": format_rational(exact),
        "abs_error": abs(approx - float(exact)),
    }
    return _json_text(payload)


def _dispatch(args: argparse.Namespace) -> tuple[str, bool]:
    if args.command in ("moments", "cumulants"):
        return _table_command(args, "mu" if args.command == "moments" else "kappa"), True
    if args.command == "independent":
        return _independent_command(args), True
    if args.command == "compare":
        return _compare_command(args), True
    if args.command == "detect-linear":
        return _detect_linear_command(args)
    if args.command == "slope":
        return _slope_command(args), True
    if args.command == "mult-inspect":
        return _mult_inspect_command(args), True
    if args.command == "oracle":
        return _oracle_command(args), True
    raise _UsageError(f"unknown command {args.command!r}")


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, compute, write output; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            text, ok = _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LacunaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 4


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
