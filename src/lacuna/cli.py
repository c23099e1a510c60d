"""Command-line front end.

The only module that turns engine values into text (JSON, CSV lines,
1-based subsets, ``{1,2}|{3,4}`` partitions).  Exact engine values stay
exact on the wire: the counts N_m and K_m = 2**m kappa_m are scaled by
2**-m only here, and print as "p/q" in lowest terms or as decimal
integers, never floats.  Identical invocations produce byte-identical
output.  ``mult-inspect`` reads everything from the tuple's zero-sum
profile: its ``mult`` is the profile recursion that the cumulant and slope
sweeps sum, and its partitions are listed from the profile's masks and atoms.
``slope_modulus``, the front end of ``slope`` and ``scripts/recurrence_tail.py``,
finds the terms' minimal polynomial and warns when it has a rational root;
``slope`` then sweeps once at twice the gap bound and reads w at both bounds.

Exit codes: 0 success, 2 usage error, 3 computation guard tripped,
4 requested validity check failed.  ``exit_code`` is the one failure
path of the CLI and of the experiment scripts: a rejected argument
(``ValueError``, argparse's own rejections included) exits 2 and a
refused computation (``LacunaError``) exits 3, each with one ``error:``
line on stderr, and every warning prints as one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import LacunaError, TooLarge
from .moments import (
    independent_cumulants,
    moment_oracle_quadrature,
    moment_vector,
    moments_to_cumulants,
    prefix_moments,
    quadrature_nodes,
)
from .multiplicity import atoms, mult_from_profile, zero_sum_profile
from .partitions import all_partitions
from .recurrence import Poly, detect_affine_tail, has_rational_root, minimal_polynomial, structural_slope
from .sequences import FAMILIES, SequenceSpec, generate_terms, parse_sequence

_SIGN_TOKENS = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one ``error:`` line (exit 2), not a usage block."""

    def error(self, message: str):
        raise ValueError(message)


def _positive(text: str) -> int:
    """argparse type of every count and order: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lacuna", description="Exact moments and cumulants of lacunary cosine sums.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler, seq: bool = True, table: bool = False):
        p = sub.add_parser(name, help=help_text)
        if seq:
            p.add_argument(
                "--seq",
                required=True,
                metavar="SPEC",
                help=f"sequence, e.g. {', '.join(FAMILIES)}, geometric:c=1,eta=2, "
                "recurrence:poly=-1,-1,1;init=1,1, explicit:3,5,9, "
                "roundpow:eta=3.14159265358979323846,prec=128",
            )
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if table:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        # A command without --n or --m reads them as absent.
        p.set_defaults(handler=handler, n=None, m=None)
        return p

    def order(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--m", type=_positive)
        group.add_argument("--m-max", type=_positive)

    for name, help_text in (("moments", "raw moments E[S_n^m]"), ("cumulants", "cumulants kappa_m(S_n)")):
        p = command(name, help_text, _table_command, table=True)
        for flag in ("--n", "--n-from", "--n-to"):
            p.add_argument(flag, type=_positive)
        order(p)

    p = command("independent", "cumulants of the i.i.d. comparison model", _independent_command, seq=False, table=True)
    order(p)

    p = command("compare", "kappa_m(S_n) against n times the model cumulant", _table_command, table=True)
    for flag in ("--n-from", "--n-to", "--m-max"):
        p.add_argument(flag, type=_positive, required=True)

    p = command("detect-linear", "detect an eventual affine law for 2^m kappa_m", _detect_linear_command)
    for flag in ("--m", "--n-from", "--n-to"):
        p.add_argument(flag, type=_positive, required=True)
    p.add_argument("--require-linear", action="store_true", help="exit 4 when no affine tail exists")

    p = command("slope", "structural per-unit growth of 2^m kappa_m", _slope_command)
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--gap-bound", type=_positive, default=8)

    p = command("mult-inspect", "zero-sum structure and multiplicity of one tuple", _mult_inspect_command)
    p.add_argument("--indices", required=True, help="comma-separated 1-based indices, e.g. 1,2,3")
    p.add_argument(
        "--signs", required=True, help="comma-separated signs, e.g. +,+,-; write --signs=-,+ when the first is -"
    )

    p = command("oracle", "quadrature cross-check of one moment", _oracle_command)
    for flag in ("--n", "--m"):
        p.add_argument(flag, type=_positive, required=True)

    return parser


def _n_range(args: argparse.Namespace) -> tuple[int, int]:
    if args.n is not None:
        if args.n_from is not None or args.n_to is not None:
            raise ValueError("give either --n or --n-from/--n-to, not both")
        return args.n, args.n
    if args.n_from is None or args.n_to is None:
        raise ValueError("need --n or both --n-from and --n-to")
    if args.n_from > args.n_to:
        raise ValueError("need --n-from <= --n-to")
    return args.n_from, args.n_to


def scaled(count: int, m: int) -> str:
    """The exact value 2**-m * count, as printed."""
    return str(Fraction(count, 2**m))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _rows_text(args: argparse.Namespace, head: dict, rows: Sequence[dict]) -> str:
    """CSV of the rows, or JSON of head and the rows (a lone row is inlined, except by compare)."""
    if args.format == "csv":  # every cell is an int or scaled text, so none needs quoting
        lines = [rows[0].keys(), *(row.values() for row in rows)]
        return "".join(",".join(map(str, line)) + "\n" for line in lines)
    if len(rows) == 1 and args.command != "compare":
        return _json_text({**head, **rows[0]})
    return _json_text({**head, "rows": rows})


def _table_command(args: argparse.Namespace) -> tuple[str, bool]:
    """moments, cumulants and compare: one prefix_moments pass over the n range.

    compare adds n times the independent model's cumulant and the difference.
    """
    spec = parse_sequence(args.seq)
    n_from, n_to = _n_range(args)
    m_top = args.m or args.m_max
    orders = (m_top,) if args.m else range(1, m_top + 1)
    key = "mu" if args.command == "moments" else "kappa"
    compare = args.command == "compare"
    model = independent_cumulants(m_top) if compare else []
    terms = generate_terms(spec, n_to)
    rows = []
    for n, vector in prefix_moments(terms, n_from, n_to, m_top):
        if key == "kappa":
            vector = moments_to_cumulants(vector)
        for m in orders:
            row = {"n": n, "m": m, key: scaled(vector[m - 1], m)}
            if compare:
                row["independent_n_kappa"] = scaled(n * model[m - 1], m)
                row["diff"] = scaled(vector[m - 1] - n * model[m - 1], m)
            rows.append(row)
    head = {"sequence": spec.text, "m_max": m_top} if compare else {"sequence": spec.text}
    return _rows_text(args, head, rows), True


def _independent_command(args: argparse.Namespace) -> tuple[str, bool]:
    m_top = args.m or args.m_max
    values = independent_cumulants(m_top)
    orders = (m_top,) if args.m else range(1, m_top + 1)
    rows = [{"m": m, "kappa": scaled(values[m - 1], m)} for m in orders]
    return _rows_text(args, {}, rows), True


def _detect_linear_command(args: argparse.Namespace) -> tuple[str, bool]:
    spec = parse_sequence(args.seq)
    n_from, n_to = _n_range(args)
    if n_to - n_from < 3:
        raise ValueError("need --n-to >= --n-from + 3, at least 4 consecutive points")
    terms = generate_terms(spec, n_to)
    points = [
        (n, moments_to_cumulants(counts)[args.m - 1])
        for n, counts in prefix_moments(terms, n_from, n_to, args.m)
    ]
    fit = detect_affine_tail(points)
    payload = {
        "sequence": spec.text,
        "m": args.m,
        "n_from": n_from,
        "n_to": n_to,
        "w": str(fit.w),
        "b": str(fit.b),
        "n1": fit.n1,
        "valid": fit.valid,
    }
    ok = fit.valid or not args.require_linear
    return _json_text(payload), ok


def slope_modulus(spec: SequenceSpec) -> Poly:
    """The terms' minimal polynomial, which the slope sweep walks, with its note and warnings on stderr."""
    if not spec.poly:
        raise ValueError(f"sequence {spec.text} has no recurrence polynomial")
    poly = minimal_polynomial(generate_terms(spec, 2 * (len(spec.poly) - 1)))
    if poly != spec.poly:
        print(
            f"note: slope uses the minimal polynomial {poly} of the terms, not the spec's {spec.poly}",
            file=sys.stderr,
        )
    try:
        if len(poly) > 2 and has_rational_root(poly):
            warnings.warn(
                f"the minimal polynomial {poly} has a rational root; "
                "the slope's relation checks assume it is irreducible"
            )
    except TooLarge as exc:  # the check is a diagnostic: the slope is still computed
        warnings.warn(f"rational-root check skipped ({exc})")
    return poly


def _slope_command(args: argparse.Namespace) -> tuple[str, bool]:
    spec = parse_sequence(args.seq)
    poly = slope_modulus(spec)
    slopes = structural_slope(args.m, poly, 2 * args.gap_bound)  # one sweep gives w at both bounds
    w, w_doubled = slopes[args.gap_bound], slopes[-1]
    if w != w_doubled:
        warnings.warn(
            f"slope changed from {w} to {w_doubled} when doubling the gap "
            f"bound {args.gap_bound}; report is not stable"
        )
    payload = {
        "sequence": spec.text,
        "m": args.m,
        "gap_bound": args.gap_bound,
        "w": str(w),
        "gap_bound_stable": w == w_doubled,
    }
    return _json_text(payload), True


def _mult_inspect_command(args: argparse.Namespace) -> tuple[str, bool]:
    spec = parse_sequence(args.seq)
    indices, signs = [], []
    for token in args.indices.split(","):
        try:
            indices.append(int(token))
        except ValueError:
            raise ValueError(f"bad tuple: index {token.strip()!r} is not an integer") from None
    for token in (v.strip() for v in args.signs.split(",")):
        if token not in _SIGN_TOKENS:
            raise ValueError(f"bad tuple: sign {token!r} is not one of {', '.join(_SIGN_TOKENS)}")
        signs.append(_SIGN_TOKENS[token])
    if len(indices) != len(signs):
        raise ValueError("bad tuple: indices and signs must have equal length")
    if min(indices) < 1:
        raise ValueError(f"bad tuple: indices are 1-based, got {min(indices)}")
    terms = generate_terms(spec, max(indices))
    values = [s * terms[i - 1] for i, s in zip(indices, signs)]
    m = len(values)
    masks = zero_sum_profile(values[: m // 2], values[m // 2 :])
    mult = mult_from_profile(masks, m)
    cancels = (1 << m) - 1 in masks  # else no partition has only zero-sum blocks
    upset = all_partitions(masks, m) if cancels else []
    minimal = all_partitions(atoms(masks), m) if cancels else []
    subsets = {s: [e + 1 for e in range(m) if s >> e & 1] for s in sorted(masks)}
    braces = {s: "{" + ",".join(map(str, subset)) + "}" for s, subset in subsets.items()}  # a partition: {1,2}|{3,4}
    payload = {
        "sequence": spec.text,
        "indices": indices,
        "signs": signs,
        "values": [str(v) for v in values],
        "zero_sum_subsets": list(subsets.values()),
        "zero_sum_partitions": ["|".join(map(braces.__getitem__, pi)) for pi in upset],
        "minimal_partitions": ["|".join(map(braces.__getitem__, pi)) for pi in minimal],
        "mult": str(mult),
    }
    return _json_text(payload), True


def _oracle_command(args: argparse.Namespace) -> tuple[str, bool]:
    spec = parse_sequence(args.seq)
    terms = generate_terms(spec, args.n)
    quadrature_nodes(terms, args.m)  # the node cap first: it refuses in start-up time, before any exact count
    count = moment_vector(terms, args.m)[-1]
    approx = moment_oracle_quadrature(terms, args.m)
    payload = {
        "sequence": spec.text,
        "n": args.n,
        "m": args.m,
        "oracle": approx,
        "exact": scaled(count, args.m),
        "abs_error": abs(approx - count / 2**args.m),
    }
    return _json_text(payload), True


def exit_code(body: Callable[[], int]) -> int:
    """body()'s exit code, with each warning and failure reported on one stderr line.

    A ``ValueError`` (a rejected argument) gives 2 and a ``LacunaError``
    (a refused computation) gives 3; ``--help``'s SystemExit gives its code.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return body()
    except SystemExit as exc:
        return exc.code
    except (ValueError, LacunaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, LacunaError) else 2


def positional(index: int, name: str, default: int) -> int:
    """A script's count argument sys.argv[index], an integer >= 1 named NAME, or the default if absent."""
    if len(sys.argv) <= index:
        return default
    try:
        return _positive(sys.argv[index])
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, compute, write output; returns the exit code."""
    return exit_code(lambda: _run_parsed(build_parser().parse_args(argv)))


def _run_parsed(args: argparse.Namespace) -> int:
    text, ok = args.handler(args)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return 0 if ok else 4


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
