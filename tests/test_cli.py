import contextlib
import csv
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lacuna
from lacuna import cli, moments
from lacuna.cli import run
from lacuna.moments import MAX_CUMULANT_ORDER
from lacuna.recurrence import structural_slope
from oracles import lattice_upset, minimal_members, mult_crosscut, mult_moebius, profile_from_values


# range-tables' seed-1 explicit: list, 30 distinct terms in [1, 10^6]: the carry count prunes almost nothing.
SEED1_SPEC = "explicit:" + ",".join(map(str, random.Random(1).sample(range(1, 10**6 + 1), 30)))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cumulants_single_query(capsys):
    code, out, _ = invoke(
        capsys, "cumulants", "--seq", "pow2plus1", "--n", "7", "--m", "6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == "1495/8"
    assert payload["sequence"] == "pow2plus1"
    assert payload["n"] == 7 and payload["m"] == 6


def test_moments_trivial_value(capsys):
    code, out, _ = invoke(capsys, "moments", "--seq", "fibonacci", "--n", "3", "--m", "1")
    assert code == 0
    assert json.loads(out)["mu"] == "0"


def test_independent_values(capsys):
    code, out, _ = invoke(capsys, "independent", "--m-max", "10")
    assert code == 0
    rows = {row["m"]: row["kappa"] for row in json.loads(out)["rows"]}
    assert rows[2] == "1/2"
    assert rows[4] == "-3/8"
    assert rows[6] == "5/4"
    assert rows[8] == "-1155/128"
    assert rows[10] == "3591/32"
    assert rows[3] == "0"


def test_compare_csv_column_order(capsys):
    code, out, _ = invoke(
        capsys,
        "compare",
        "--seq",
        "pow2plus1",
        "--n-from",
        "4",
        "--n-to",
        "4",
        "--m-max",
        "4",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,kappa,independent_n_kappa,diff"
    last = lines[-1].split(",")
    assert last == ["4", "4", "2", "-3/2", "7/2"]


@pytest.mark.parametrize(
    "argv",
    [
        # Moments are nonnegative, so only the other three commands print negative p/q cells.
        ["moments", "--seq", "fibonacci", "--n-from", "3", "--n-to", "6", "--m-max", "5"],
        ["cumulants", "--seq", "fibonacci", "--n-from", "3", "--n-to", "6", "--m-max", "6"],
        ["independent", "--m-max", "8"],
        ["compare", "--seq", "pow2plus1", "--n-from", "2", "--n-to", "5", "--m-max", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_rows_equal_the_json_rows(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    json_rows = json.loads(invoke(capsys, *argv)[1])["rows"]
    assert list(csv.DictReader(io.StringIO(out))) == [{k: str(v) for k, v in row.items()} for row in json_rows]
    cells = [str(v) for row in json_rows for v in row.values()]
    assert any("/" in cell and cell.startswith("-") == (argv[0] != "moments") for cell in cells)


def test_compare_single_row(capsys):
    code, out, _ = invoke(capsys, "compare", "--seq", "pow2plus1", "--n-from", "4", "--n-to", "4", "--m-max", "4")
    assert code == 0
    by_m = {row["m"]: row for row in json.loads(out)["rows"]}
    assert (by_m[4]["kappa"], by_m[4]["independent_n_kappa"], by_m[4]["diff"]) == ("2", "-3/2", "7/2")
    assert by_m[1]["kappa"] == "0" and by_m[1]["diff"] == "0"


def test_compare_m1_column_vanishes(capsys):
    _, out, _ = invoke(capsys, "compare", "--seq", "fibonacci", "--n-from", "2", "--n-to", "6", "--m-max", "3")
    assert all(row["kappa"] == "0" for row in json.loads(out)["rows"] if row["m"] == 1)


def test_compare_range_and_metadata(capsys):
    argv = ["compare", "--seq", "geometric:c=1,eta=2", "--n-from", "3", "--n-to", "5", "--m-max", "2"]
    payload = json.loads(invoke(capsys, *argv)[1])
    assert payload["sequence"] == "geometric:c=1,eta=2" and payload["m_max"] == 2
    assert [(r["n"], r["m"]) for r in payload["rows"]] == [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]


def test_compare_rounded_pi_diff_stabilizes(capsys):
    seq = "roundpow:eta=3.14159265358979323846,prec=64"
    _, out, _ = invoke(capsys, "compare", "--seq", seq, "--n-from", "10", "--n-to", "20", "--m-max", "4")
    diffs = [row["diff"] for row in json.loads(out)["rows"] if row["m"] == 4]
    assert len(diffs) == 11 and len(set(diffs)) == 1


def test_cumulant_range_rows(capsys):
    code, out, _ = invoke(
        capsys,
        "cumulants",
        "--seq",
        "fibonacci",
        "--n-from",
        "4",
        "--n-to",
        "6",
        "--m",
        "2",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["n"], r["kappa"]) for r in rows] == [(4, "3"), (5, "7/2"), (6, "4")]


def test_detect_linear_fibonacci(capsys):
    code, out, _ = invoke(
        capsys,
        "detect-linear",
        "--seq",
        "fibonacci",
        "--m",
        "4",
        "--n-from",
        "15",
        "--n-to",
        "30",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "90"
    assert payload["b"] == "-212"
    assert payload["valid"] is True
    assert payload["n1"] == 15


def test_detect_linear_require_flag_sets_exit_code(capsys):
    code, out, _ = invoke(
        capsys,
        "detect-linear",
        "--seq",
        "pow2plus1",
        "--m",
        "6",
        "--n-from",
        "7",
        "--n-to",
        "30",
        "--require-linear",
    )
    assert code == 4
    assert json.loads(out)["valid"] is False


def test_slope_reports_stability(capsys):
    code, out, _ = invoke(capsys, "slope", "--seq", "fibonacci", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "12"
    assert payload["gap_bound"] == 8
    assert payload["gap_bound_stable"] is True


def test_slope_walk_guard_admits_doubled_bound_six(capsys):
    # Fibonacci m = 8 has not settled at g = 3: the recheck at g = 6 finds the stable slope.
    code, out, err = invoke(capsys, "slope", "--seq", "fibonacci", "--m", "8", "--gap-bound", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "-4536742"
    assert payload["gap_bound_stable"] is False
    assert err.startswith("warning: slope changed from -4536742 to -4174982")


def test_slope_sweeps_once_at_the_doubled_bound(capsys, monkeypatch):
    calls = []

    def spy(m, p, gap_bound):
        calls.append(gap_bound)
        return structural_slope(m, p, gap_bound)

    monkeypatch.setattr(cli, "structural_slope", spy)
    code, out, _ = invoke(capsys, "slope", "--seq", "fibonacci", "--m", "8", "--gap-bound", "3")
    assert code == 0 and json.loads(out)["w"] == "-4536742"
    assert calls == [6]


def test_slope_certifies_fibonacci_order_eight(capsys):
    # The stable slope needs --gap-bound 5, rechecked at 10: 873,136 right half patterns.
    code, out, err = invoke(capsys, "slope", "--seq", "fibonacci", "--m", "8", "--gap-bound", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "-4174982"
    assert payload["gap_bound_stable"] is True
    assert err == ""


def test_slope_walks_the_minimal_polynomial(capsys):
    # (z - 1)(z^2 - z - 1) with initial terms 1, 1, 2 generates the Fibonacci numbers.
    seq = "recurrence:poly=1,0,-2,1;init=1,1,2"
    code, out, err = invoke(capsys, "slope", "--seq", seq, "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "90"
    assert payload["gap_bound_stable"] is True
    assert err == (
        "note: slope uses the minimal polynomial (-1, -1, 1) of the terms, "
        "not the spec's (1, 0, -2, 1)\n"
    )
    _, detected, err = invoke(capsys, "detect-linear", "--seq", seq, "--m", "4", "--n-from", "10", "--n-to", "25")
    assert json.loads(detected)["w"] == "90"
    assert err == ""


def test_slope_warns_when_the_walked_polynomial_is_reducible(capsys):
    # 2**k + 1 has the minimal polynomial (z - 1)(z - 2), so the walk's relation checks do not hold.
    code, out, err = invoke(capsys, "slope", "--seq", "pow2plus1", "--m", "6", "--gap-bound", "3")
    assert code == 0
    assert json.loads(out)["w"] == "1280"
    assert err.splitlines()[0].startswith("warning: the minimal polynomial (2, -3, 1) has a rational root; ")


def test_slope_skips_a_rational_root_scan_too_large_to_run(capsys):
    seq = "recurrence:poly=-10000000000000,-1,1;init=1,1"
    code, out, err = invoke(capsys, "slope", "--seq", seq, "--m", "2", "--gap-bound", "1")
    assert code == 0
    assert json.loads(out)["w"] == "2"
    assert err == "warning: rational-root check skipped (rational-root scan refused for a 44-bit coefficient, over 10**12)\n"


def test_slope_warns_on_a_zero_root_without_a_scan(capsys):
    # z(z - 10**13): a zero constant term is a root, though the other coefficient is past the scan's limit.
    seq = "recurrence:poly=0,-10000000000000,1;init=1,1"
    code, out, err = invoke(capsys, "slope", "--seq", seq, "--m", "3", "--gap-bound", "2")
    assert code == 0
    assert json.loads(out)["w"] == "0"
    assert err == (
        "warning: the minimal polynomial (0, -10000000000000, 1) has a rational root; "
        "the slope's relation checks assume it is irreducible\n"
    )


def test_tables_never_check_reducibility(capsys):
    # Only slope walks a polynomial; the tables run on the terms alone.
    code, out, err = invoke(capsys, "cumulants", "--seq", "recurrence:poly=2,-3,1;init=3,5", "--n", "5", "--m", "2")
    assert code == 0 and err == ""
    # A constant term past the rational-root scan's limit is no reason to refuse a table.
    seq = "recurrence:poly=-10000000000000,-1,1;init=1,1"
    code, out, err = invoke(capsys, "cumulants", "--seq", seq, "--n", "4", "--m", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["kappa"] == "3"


def test_slope_rejects_sequences_without_recurrence(capsys):
    code, _, err = invoke(capsys, "slope", "--seq", "explicit:3,5,9", "--m", "2")
    assert code == 2
    assert "recurrence" in err


def test_mult_inspect_worked_example(capsys):
    code, out, _ = invoke(
        capsys,
        "mult-inspect",
        "--seq",
        "explicit:1",
        "--indices",
        "1,1,1,1",
        "--signs",
        "+,-,+,-",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mult"] == "-1"
    assert payload["zero_sum_subsets"] == [[1, 2], [2, 3], [1, 4], [3, 4], [1, 2, 3, 4]]
    assert payload["zero_sum_partitions"] == ["{1,2,3,4}", "{1,2}|{3,4}", "{1,4}|{2,3}"]
    assert payload["minimal_partitions"] == ["{1,2}|{3,4}", "{1,4}|{2,3}"]


@settings(max_examples=120, deadline=None)
@given(
    terms=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    entries=st.lists(st.tuples(st.integers(0, 3), st.sampled_from("+-")), min_size=1, max_size=7),
)
def test_mult_inspect_matches_the_lattice_oracles(terms, entries):
    indices = [i % len(terms) + 1 for i, _ in entries]
    signs = [sign for _, sign in entries]
    argv = ["mult-inspect", "--seq", "explicit:" + ",".join(map(str, terms))]
    argv += ["--indices", ",".join(map(str, indices)), "--signs=" + ",".join(signs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    payload = json.loads(out.getvalue())
    values = [terms[i - 1] if sign == "+" else -terms[i - 1] for i, sign in zip(indices, signs)]
    assert payload["mult"] == str(mult_moebius(values)) == str(mult_crosscut(values))
    m = len(entries)
    masks = profile_from_values(values)
    subsets = [[r for r in range(1, m + 1) if mask >> (r - 1) & 1] for mask in sorted(masks)]
    assert payload["zero_sum_subsets"] == subsets
    upset = lattice_upset(masks, m)

    def text(partitions):  # the CLI's format: {1,2}|{3,4}
        return ["|".join("{" + ",".join(map(str, block)) + "}" for block in pi.blocks) for pi in partitions]

    assert payload["zero_sum_partitions"] == text(upset)
    assert payload["minimal_partitions"] == text(minimal_members(upset))


def test_mult_inspect_lists_the_twelve_entry_alternating_tuple(capsys):
    # 22,482 of the Bell(12) = 4,213,597 partitions have only zero-sum blocks;
    # the minimal ones pair each + with a -, in 6! ways.
    argv = ["mult-inspect", "--seq", "explicit:5", "--indices", ",".join("1" * 12), "--signs=" + ",".join("+-" * 6)]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["zero_sum_partitions"]) == 22482
    assert len(payload["minimal_partitions"]) == 720
    assert payload["mult"] == "-9460"


def test_oracle_agrees_with_exact(capsys):
    code, out, _ = invoke(capsys, "oracle", "--seq", "fibonacci", "--n", "5", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    exact = Fraction(payload["exact"])
    assert abs(payload["oracle"] - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "cumulants", "--seq", "nonsense", "--n", "3", "--m", "2")[0] == 2
    assert invoke(capsys, "cumulants", "--seq", "fibonacci", "--m", "2")[0] == 2
    assert invoke(capsys, "cumulants", "--seq", "fibonacci", "--n", "3")[0] == 2
    assert invoke(capsys, "wat")[0] == 2
    argv = ["cumulants", "--seq", "pow2plus1", "--n", "3", "--m", "2", "--threads", "2"]
    assert invoke(capsys, *argv)[0] == 2
    _, _, err = invoke(capsys, "cumulants", "--seq", "fibonacci", "--n", "abc", "--m", "2")
    assert err == "error: argument --n: must be an integer >= 1, got 'abc'\n"


def test_help_exits_zero(capsys):
    code, out, err = invoke(capsys, "cumulants", "--help")
    assert code == 0
    assert out.startswith("usage: lacuna cumulants") and err == ""


# Each row: an argv that fails, its exit code, and a pattern its one error line must match.
ERROR_ROWS = [
    (["cumulants", "--seq", "explicit:1,2", "--n", "5", "--m", "2"], 2, ""),
    (["compare", "--seq", "explicit:1,2", "--n-from", "1", "--n-to", "5", "--m-max", "2"], 2, ""),
    (
        ["mult-inspect", "--seq", "fibonacci", "--indices", "0", "--signs", "+"],
        2,
        r"^error: bad tuple: indices are 1-based, got 0\n$",
    ),
    (
        ["mult-inspect", "--seq", "fibonacci", "--indices=-2,1", "--signs", "+,+"],
        2,
        r"^error: bad tuple: indices are 1-based, got -2\n$",
    ),
    (
        ["mult-inspect", "--seq", "fibonacci", "--indices", "1,2,3", "--signs", "+,-"],
        2,
        r"^error: bad tuple: indices and signs must have equal length\n$",
    ),
    (
        ["mult-inspect", "--seq", "fibonacci", "--indices", "1,x", "--signs", "+,+"],
        2,
        r"^error: bad tuple: index 'x' is not an integer\n$",
    ),
    (
        ["mult-inspect", "--seq", "fibonacci", "--indices", "1,2", "--signs", "+,x"],
        2,
        r"^error: bad tuple: sign 'x' is not one of \+, -, \+1, -1, 1\n$",
    ),
    (
        ["cumulants", "--seq", SEED1_SPEC, "--n-from", "1", "--n-to", "30", "--m-max", "12"],
        3,
        r"^error: P\^6 may store 5620267 exponents, over the cap 5000000; the carry count gave up\n$",
    ),
    (
        ["moments", "--seq", "explicit:1,2,3", "--n", "3", "--m", "400"],
        3,
        r"prefix engine may take 314165350 work units, over the cap 50000000; the carry count gave up\n$",
    ),
    (
        ["detect-linear", "--seq", "fibonacci", "--m", "20", "--n-from", "40", "--n-to", "60"],
        3,
        r"^error: P\^10 may store 15480087559201 exponents, over the cap 5000000; the carry count gave up\n$",
    ),
    (
        ["mult-inspect", "--seq", "explicit:1,1000,1000000", "--indices", ",".join("1" * 12) + ",2,2,3,3"]
        + ["--signs", ",".join("+-" * 8)],
        3,
        r"605215 partitions of \[16\] refused",
    ),
    # The sweep runs once, at the doubled bound 32, so the refusal gives that sweep's estimate.
    (["slope", "--seq", "fibonacci", "--m", "12", "--gap-bound", "16"], 3, r"1252332576 left half patterns refused"),
    (["slope", "--seq", "fibonacci", "--m", "9", "--gap-bound", "6"], 3, r"456976 left half patterns refused"),
    (["slope", "--seq", "fibonacci", "--m", "13", "--gap-bound", "1"], 3, r"^error: order 13 exceeds 12\n$"),
    (["independent", "--m", "2", "--out", "/nonexistent/dir/x"], 2, ""),
    (["cumulants", "--seq", "fibonacci", "--n", "abc", "--m", "2"], 2, ""),
    (["cumulants", "--seq", "pow2plus1", "--n", "3", "--m", "2", "--threads", "2"], 2, ""),
    (["wat"], 2, ""),
    ([], 2, ""),
    (["cumulants", "--seq", "fibonacci", "--n-from", "3", "--m", "2"], 2, ""),
    (
        ["cumulants", "--seq", "fibonacci", "--n", "3", "--n-from", "1", "--n-to", "3", "--m", "2"],
        2,
        r"^error: give either --n or --n-from/--n-to, not both\n$",
    ),
    (["cumulants", "--seq", "fibonacci", "--n", "3", "--m", "2", "--m-max", "3"], 2, ""),
    (["cumulants", "--seq", "fibonacci", "--n", "3", "--m", "0"], 2, ""),
    (["slope", "--seq", "fibonacci", "--m", "3", "--gap-bound", "0"], 2, ""),
    (
        ["detect-linear", "--seq", "fibonacci", "--m", "4", "--n-from", "5", "--n-to", "7"],
        2,
        r"--n-to >= --n-from \+ 3",
    ),
    (["cumulants", "--seq", "roundpow:eta=1/0,prec=5", "--n", "3", "--m", "2"], 2, r"'1/0': zero denominator$"),
    (["cumulants", "--seq", "geometric:c=1,eta=2,c=3", "--n", "2", "--m", "2"], 2, r"repeats parameter 'c'"),
    (["independent", "--m-max", "3000"], 3, ""),
    (["cumulants", "--seq", "fibonacci", "--n", "1000000", "--m", "2"], 3, ""),
    (["cumulants", "--seq", "roundpow:eta=3.14,prec=99999999999", "--n", "22", "--m", "2"], 3, ""),
    (["slope", "--seq", "fibonacci", "--m", "2", "--gap-bound", "1000000000"], 3, ""),
    (
        ["cumulants", "--seq", "roundpow:eta=1e2000000,prec=8", "--n", "5", "--m", "2"],
        3,
        r"5 rounded powers of a ratio near 10\*\*2000000 ",
    ),
    # 15**3 = 3375 is an integer: the refusal names the error at 8 bits, not a near half-integer.
    (
        ["cumulants", "--seq", "roundpow:eta=1.5e1,prec=8", "--n", "3", "--m", "2"],
        3,
        r"^error: eta\*\*3 is 0.5 from a half-integer, which its error at 8 bits plus the guard 0.00391 covers\n$",
    ),
    (
        ["cumulants", "--seq", f"roundpow:eta={'3' * 5000},prec=8", "--n", "2", "--m", "2"],
        3,
        r"^error: eta\*\*2 is 0.5 from a half-integer, which its error at 8 bits plus",
    ),
    (
        ["cumulants", "--seq", f"roundpow:eta={'3' * 5000}/7,prec=8", "--n", "2", "--m", "2"],
        3,
        r"^error: eta\*\*2 is 0.276 from a half-integer, which its error at 8 bits plus",
    ),
    (["oracle", "--seq", "explicit:1,2,24000", "--n", "3", "--m", "400"], 3, r"prefix engine may take"),
    (["oracle", "--seq", "explicit:1,2,3", "--n", "3", "--m", "20000"], 3, r"prefix engine may take 250000000000 "),
    (
        ["mult-inspect", "--seq", "fibonacci", "--indices", ",".join("1" * 21), "--signs", ",".join("+" * 21)],
        3,
        r"zero-sum profile of 21 entries refused before it is built \(limit m <= 20\)$",
    ),
]
ERROR_IDS = [
    "explicit-too-short",
    "compare-explicit-too-short",
    "index-zero",
    "negative-index",
    "mismatched-lengths",
    "bad-index-token",
    "bad-sign-token",
    "power-support-guard",
    "engine-work-guard",
    "fibonacci-m20-past-the-carry-budget",
    "partition-count-guard",
    "pattern-walk-guard",
    "doubled-pattern-walk-guard",
    "slope-order-guard",
    "out-into-missing-directory",
    "n-not-an-integer",
    "unknown-option",
    "unknown-subcommand",
    "no-subcommand",
    "missing-n-to",
    "n-with-range",
    "m-with-m-max",
    "m-zero",
    "gap-bound-zero",
    "detect-linear-short-range",
    "roundpow-zero-denominator",
    "repeated-spec-parameter",
    "cumulant-order-guard",
    "term-bit-guard",
    "roundpow-work-guard",
    "pattern-offset-guard",
    "roundpow-exponent-guard",
    "roundpow-integer-power-error-guard",
    "roundpow-5000-digit-ratio-error-guard",
    "roundpow-5000-digit-fraction-error-guard",
    "oracle-exact-moment-guard",
    "oracle-refused-before-float-overflow",
    "profile-size-guard",
]


@pytest.mark.parametrize("argv, expected, message", ERROR_ROWS, ids=ERROR_IDS)
def test_failures_print_one_error_line(capsys, argv, expected, message):
    # Each refusal comes before the work it refuses; oracle's node cap comes before the exact moment's guards.
    started = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - started < 5.0
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err)


@pytest.mark.parametrize(
    "eta, prec, kappa",
    [("1." + "0" * 5000 + "1", 8, "2"), ("3" * 5000, 16700, "1"), ("3" * 5000 + "/7", 16700, "1")],
    ids=["5002-digit-ratio-near-1", "5000-digit-ratio", "5000-digit-fraction"],
)
def test_long_decimal_ratios_print_their_row(capsys, eta, prec, kappa):
    # Over Python's 4300-digit str -> int limit: the ratio, or p and q, is read through Decimal, never int(str).
    code, out, err = invoke(capsys, "cumulants", "--seq", f"roundpow:eta={eta},prec={prec}", "--n", "2", "--m", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["kappa"] == kappa


# Modules that only some runs need: fractions and decimal read a roundpow ratio, json writes JSON output.
_ON_DEMAND = {"fractions", "decimal", "json"}


def _modules_after(probe: str) -> tuple[set[str], str]:
    """The modules loaded once the probe has run under -S, and its stdout before the module list."""
    src = str(Path(lacuna.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe += "\nprint('--- modules'); print(*sys.modules, sep='\\n')"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    out, _, modules = result.stdout.partition("--- modules\n")
    return set(modules.split()), out


def test_cli_import_is_lean():
    # Every CLI start pays for its imports: no class generator (dataclasses drags in inspect), no
    # typing, no concurrent.futures, and no numpy, which only the quadrature oracle loads.  The probe runs under -S, so no
    # site hook can load any of them first and hide the CLI's own.  perfbench/tracer.py wraps all
    # seven layers right after this import, so each must be loaded by it.
    loaded, _ = _modules_after("import sys, lacuna.cli")
    assert not {"dataclasses", "inspect", "typing", "numpy", "concurrent.futures", "lacuna.record"} & loaded
    assert not _ON_DEMAND & loaded
    layers = ("cli", "sequences", "laurent", "moments", "multiplicity", "partitions", "recurrence")
    assert {f"lacuna.{layer}" for layer in layers} <= loaded


def test_a_csv_table_run_loads_no_on_demand_module():
    argv = ["cumulants", "--seq", "pow2plus1", "--n", "5", "--m-max", "4", "--format", "csv"]
    loaded, out = _modules_after(f"import sys; from lacuna import cli; assert cli.run({argv!r}) == 0")
    assert out.splitlines() == ["n,m,kappa", "5,1,0", "5,2,5/2", "5,3,0", "5,4,13/8"]
    assert not _ON_DEMAND & loaded
    # The positive control: a roundpow ratio is read through decimal, and the JSON output loads json.
    argv = ["cumulants", "--seq", "roundpow:eta=1.7,prec=64", "--n", "3", "--m", "2"]
    loaded, out = _modules_after(f"import sys; from lacuna import cli; assert cli.run({argv!r}) == 0")
    assert json.loads(out)["kappa"] == "3/2"
    assert {"decimal", "fractions", "json"} <= loaded


@pytest.mark.parametrize(
    "argv, last",
    [
        (["cumulants", "--seq", "pow2plus1", "--n", "40", "--m-max", "10", "--format", "csv"], "40,10,8793089595/256"),
        (["cumulants", "--seq", "pow2plus1", "--n", "100", "--m-max", "8", "--format", "csv"], "100,8,2312163/4"),
        (
            ["compare", "--seq", "roundpow:eta=1.73205080756887729353,prec=256", "--n-from", "1", "--n-to", "120"]
            + ["--m-max", "6", "--format", "csv"],
            "120,6,885,150,735",
        ),
    ],
    ids=["pow2plus1-n40-m10", "pow2plus1-n100-m8", "sqrt3-roundpow-n120-m6"],
)
def test_carry_count_prints_tables_past_the_prefix_guards(capsys, argv, last):
    # The prefix engine's guards would refuse each table; the carry count answers it first.
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize(
    "m, n_from, n_to, w, n1",
    [(12, 14, 30, "1393218242856", 22), (10, 20, 40, "-1838060208", 20), (16, 30, 50, "333191112898138170", 30)],
)
def test_carry_count_detects_fibonacci_laws_past_the_prefix_guards(capsys, m, n_from, n_to, w, n1):
    argv = ["detect-linear", "--seq", "fibonacci", "--m", str(m), "--n-from", str(n_from), "--n-to", str(n_to)]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["w"], payload["n1"], payload["valid"]) == (w, n1, True)


def test_oracle_node_cap_refuses_before_the_exact_count(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the node cap must refuse before the exact count runs")

    monkeypatch.setattr(moments, "prefix_moments", never)
    code, out, err = invoke(capsys, "oracle", "--seq", "pow2plus1", "--n", "40", "--m", "6")
    assert (code, out, err) == (3, "", "error: 6597069766663 quadrature nodes exceed the cap 10000000\n")


# Under -S, with numpy's directory on the path: the oracle's refusals, by its node cap or by the exact moment's guards.
_ORACLE_REFUSAL_PROBE = """
import contextlib, io, json, sys
from lacuna.cli import run
codes = []
for seq, n, m in ("pow2plus1", "40", "6"), ("explicit:1,2,24000", "3", "400"), ("explicit:1,2,3", "3", "20000"):
    with contextlib.redirect_stderr(io.StringIO()):
        codes.append(run(["oracle", "--seq", seq, "--n", n, "--m", m]))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_oracle_refusals_load_no_numpy():
    paths = [Path(lacuna.__file__).parents[1], Path(importlib.util.find_spec("numpy").origin).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _ORACLE_REFUSAL_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [3, 3, 3], "numpy": False}


def test_guard_errors_exit_three(capsys):
    code, _, err = invoke(capsys, "oracle", "--seq", "pow2plus1", "--n", "40", "--m", "6")
    assert code == 3
    assert "error" in err
    code, _, _ = invoke(
        capsys,
        "cumulants",
        "--seq",
        "roundpow:eta=3.14159265358979323846,prec=4",
        "--n",
        "22",
        "--m",
        "2",
    )
    assert code == 3


def test_output_is_deterministic_across_runs(capsys):
    argv = ["compare", "--seq", "fibonacci", "--n-from", "3", "--n-to", "8", "--m-max", "4"]
    assert invoke(capsys, *argv) == invoke(capsys, *argv)


def test_json_rationals_round_trip(capsys):
    _, out, _ = invoke(
        capsys,
        "compare",
        "--seq",
        "fibonacci",
        "--n-from",
        "5",
        "--n-to",
        "7",
        "--m-max",
        "5",
    )
    for row in json.loads(out)["rows"]:
        kappa = Fraction(row["kappa"])
        model = Fraction(row["independent_n_kappa"])
        diff = Fraction(row["diff"])
        assert kappa - model == diff
        assert isinstance(kappa, Fraction)


def test_compare_rationals_print_as_their_str(capsys):
    # "p/q" in lowest terms, or "p" when the denominator is 1: what str gives for a Fraction.
    argv = ["compare", "--seq", "roundpow:eta=3.14159265358979323846,prec=64", "--n-from", "1", "--n-to", "8"]
    payload = json.loads(invoke(capsys, *argv, "--m-max", "6")[1])
    fields = [row[key] for row in payload["rows"] for key in ("kappa", "independent_n_kappa", "diff")]
    assert all(str(Fraction(text)) == text for text in fields)
    assert {"0", "1/2", "-3/8"} <= set(fields) and any(text.startswith("-") and "/" in text for text in fields)


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = invoke(
        capsys,
        "independent",
        "--m-max",
        "4",
        "--format",
        "csv",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "m,kappa"


# --- argv fuzz ----------------------------------------------------------------

FUZZ_SPECS = (
    "fibonacci",
    "pow2plus1",
    "geometric:c=1,eta=2",
    "explicit:3,5,9",
    "recurrence:poly=1,0,-2,1;init=1,1,2",
    "roundpow:eta=3.14159265358979323846,prec=128",
    "roundpow:eta=3.14,prec=99999999999",
    "roundpow:eta=1/0,prec=5",
    "nonsense",
)
# Mostly valid values, so that most runs get past the parser.
SMALL = st.sampled_from(["1", "2", "3", "5"] * 3 + ["-1", "0", "abc"])
# Extremes only where a guard refuses before allocating: orders, the model order and the gap bound.
ORDER = st.one_of(SMALL, st.sampled_from(["8", "1000000000000", "9" * 40]))
TUPLE = st.lists(st.sampled_from(["1", "2", "3"] * 3 + ["-1", "0", "x"]), min_size=1, max_size=4).map(",".join)
SIGNS = st.lists(st.sampled_from(["+", "-"] * 3 + ["1", "?"]), min_size=1, max_size=4).map(",".join)
N_FORMS = (("--n",), ("--n-from", "--n-to"))
M_FORMS = (("--m",), ("--m-max",))
FLAGS = {  # a tuple holds alternative flag groups, one of which is drawn
    "moments": ("--seq", N_FORMS, M_FORMS, "--format"),
    "cumulants": ("--seq", N_FORMS, M_FORMS, "--format"),
    "independent": (M_FORMS, "--format"),
    "compare": ("--seq", "--n-from", "--n-to", "--m-max", "--format"),
    "detect-linear": ("--seq", "--m", "--n-from", "--n-to", "--require-linear"),
    "slope": ("--seq", "--m", "--gap-bound"),
    "mult-inspect": ("--seq", "--indices", "--signs"),
    "oracle": ("--seq", "--n", "--m"),
    "wat": (),
}
VALUES = {
    "--seq": st.sampled_from(FUZZ_SPECS),
    "--n": SMALL,
    "--n-from": SMALL,
    "--n-to": SMALL,
    "--m": ORDER,
    "--m-max": ORDER,
    "--gap-bound": ORDER,
    "--indices": TUPLE,
    "--signs": SIGNS,
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--out": st.just("/nonexistent/dir/x"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = []
    for item in FLAGS[command]:
        flags += draw(st.sampled_from(item)) if isinstance(item, tuple) else [item]
    flags = [f for f in flags if draw(st.integers(0, 9))]  # each kept 9 times in 10
    flags += draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=1))  # sometimes a stray one
    argv = [command]
    for flag in flags:
        argv += [flag] if flag == "--require-linear" else [flag, draw(VALUES[flag])]
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert all(line.startswith(("error: ", "warning: ", "note: ")) for line in lines)
    errors = [line for line in lines if line.startswith("error: ")]
    if code in (2, 3):
        assert len(errors) == 1 and out.getvalue() == ""
    else:  # 4 is detect-linear --require-linear: the report is written, valid is false
        assert errors == [] and out.getvalue()
        assert code == 0 or json.loads(out.getvalue())["valid"] is False


# --- one subparser per run ------------------------------------------------------


def _parsed(names, argv):
    """What the parser of the named commands makes of argv: its namespace, its error, or its help text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(cli.build_parser(names).parse_args(argv))
    except ValueError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_prints_the_full_parser_help(name):
    full = _parsed(cli.COMMANDS, [name, "--help"])
    assert full[0] == 0 and full[1].startswith(f"usage: lacuna {name} ")
    assert _parsed([name], [name, "--help"]) == full


def test_one_command_parser_parses_every_cli_row_as_the_full_one():
    rows = [argv for argv, _, _ in ERROR_ROWS if argv[:1] and argv[0] in cli.COMMANDS] + [[name] for name in cli.COMMANDS]
    rows += [
        ["cumulants", "--seq", "pow2plus1", "--n", "7", "--m", "6"],
        ["independent", "--m-max", "10", "--format=csv"],
        ["compare", "--seq", "pow2plus1", "--n-fr", "4", "--n-to", "4", "--m-max", "4"],  # an abbreviated flag
        ["detect-linear", "--seq", "fibonacci", "--m", "8", "--n-from", "15", "--n-to", "30", "--require-linear"],
        ["slope", "--seq", "fibonacci", "--m", "4"],
        ["mult-inspect", "--seq", "explicit:1", "--indices", "1,1", "--signs=-,+", "--out", "x.json"],
        ["oracle", "--seq", "fibonacci", "--n", "5", "--m", "3"],
    ]
    for argv in rows:
        assert _parsed([argv[0]], argv) == _parsed(cli.COMMANDS, argv), argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_one_command_parser_parses_fuzzed_argv_as_the_full_one(argv):
    if argv[0] in cli.COMMANDS:
        assert _parsed([argv[0]], argv) == _parsed(cli.COMMANDS, argv)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["independent", "--m", "2"], ["independent"]),
        (["oracle", "--help"], ["oracle"]),
        (["slope", "--seq", "fibonacci", "--m", "0"], ["slope"]),
        ([], list(cli.COMMANDS)),
        (["--help"], list(cli.COMMANDS)),
        (["wat"], list(cli.COMMANDS)),
        (["--", "cumulants"], list(cli.COMMANDS)),
    ],
)
def test_run_builds_the_subparser_of_the_named_command_only(capsys, monkeypatch, argv, built):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: calls.append(list(names)) or build(names))
    run(argv)
    capsys.readouterr()
    assert calls == [built]


def test_a_line_without_a_command_lists_every_command(capsys):
    names = list(cli.COMMANDS)
    assert invoke(capsys) == (2, "", "error: the following arguments are required: command\n")
    code, out, err = invoke(capsys, "wat")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert re.findall(r"'([a-z-]+)'", err.partition("choose from")[2]) == names
    code, out, err = invoke(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: lacuna [-h]") and "{" + ",".join(names) + "}" in out
    assert re.findall(r"^    ([a-z-]+) +(.+)$", out, re.M) == [(name, row[0]) for name, row in cli.COMMANDS.items()]


@settings(max_examples=300, deadline=None)
@given(
    count=st.one_of(
        st.integers(-(2**100), 2**100),
        st.builds(lambda a, s: a << s, st.integers(-(2**20), 2**20), st.integers(0, 900)),
    ),
    m=st.integers(0, MAX_CUMULANT_ORDER),
)
@example(count=0, m=MAX_CUMULANT_ORDER)
@example(count=-(3 << 900), m=MAX_CUMULANT_ORDER)  # every power of 2 cancels: an integer
@example(count=-(5 << 12), m=13)
def test_scaled_prints_the_reduced_fraction(count, m):
    assert cli.scaled(count, m) == str(Fraction(count, 2**m))
