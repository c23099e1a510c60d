import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lacuna
from lacuna.cli import run


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
    # The recheck at g = 6 walks 7**6 * 2**7 = 15,059,072 prefixes, under the cap.
    code, out, err = invoke(capsys, "slope", "--seq", "fibonacci", "--m", "8", "--gap-bound", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "-4536742"
    assert payload["gap_bound_stable"] is False
    assert err.startswith("warning: slope changed from -4536742 to -4174982")


def test_slope_walks_the_minimal_polynomial(capsys):
    # (z - 1)(z^2 - z - 1) with initial terms 1, 1, 2 generates the Fibonacci numbers.
    seq = "recurrence:poly=1,0,-2,1;init=1,1,2"
    warning = (
        "warning: recurrence polynomial has a rational root and is not irreducible; "
        "relation checks assume irreducibility"
    )
    code, out, err = invoke(capsys, "slope", "--seq", seq, "--m", "4")
    assert code == 0
    assert err.splitlines()[0] == warning
    payload = json.loads(out)
    assert payload["w"] == "90"
    assert payload["gap_bound_stable"] is True
    notes = [line for line in err.splitlines() if line.startswith("note: ")]
    assert notes == [
        "note: slope uses the minimal polynomial (-1, -1, 1) of the terms, "
        "not the spec's (1, 0, -2, 1)"
    ]
    _, detected, err = invoke(capsys, "detect-linear", "--seq", seq, "--m", "4", "--n-from", "10", "--n-to", "25")
    assert json.loads(detected)["w"] == "90"
    assert err == warning + "\n"


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
    assert payload["mult_moebius"] == "-1"
    assert payload["mult_crosscut"] == "-1"
    assert [1, 2] in payload["zero_sum_subsets"]
    assert "{1,2}|{3,4}" in payload["minimal_partitions"]


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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cumulants", "--seq", "explicit:1,2", "--n", "5", "--m", "2"], 2),
        (["compare", "--seq", "explicit:1,2", "--n-from", "1", "--n-to", "5", "--m-max", "2"], 2),
        (["mult-inspect", "--seq", "fibonacci", "--indices", "0", "--signs", "+"], 2),
        (["mult-inspect", "--seq", "fibonacci", "--indices=-2,1", "--signs", "+,+"], 2),
        (["cumulants", "--seq", "pow2plus1", "--n", "40", "--m-max", "10"], 3),
        (["moments", "--seq", "explicit:1,2,3", "--n", "3", "--m", "400"], 3),
        (
            ["mult-inspect", "--seq", "explicit:5", "--indices", "1,1,1,1,1,1,1,1", "--signs", "+,-,+,-,+,-,+,-"],
            3,
        ),
        (["slope", "--seq", "fibonacci", "--m", "8", "--gap-bound", "4"], 3),
        (["independent", "--m", "2", "--out", "/nonexistent/dir/x"], 2),
    ],
    ids=[
        "explicit-too-short",
        "compare-explicit-too-short",
        "index-zero",
        "negative-index",
        "power-support-guard",
        "engine-work-guard",
        "crosscut-subfamily-guard",
        "pattern-walk-guard",
        "out-into-missing-directory",
    ],
)
def test_failures_print_one_error_line(capsys, argv, expected):
    code, out, err = invoke(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_does_not_load_numpy():
    src = str(Path(lacuna.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, lacuna.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
