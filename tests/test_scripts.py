"""The experiment scripts print exactly the tables they printed when these digests were recorded.

They report failures as the CLI does, through ``lacuna.cli.exit_code``.

Each script runs at its default size in a fresh interpreter with
``PYTHONPATH=src``, as a reader would run it from the repository root.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "pow2plus1_table.py": "59df71d21716ffbf342bb05cc637b16c1320747bf3b7f137f6ccfc2469f19768",
    "recurrence_tail.py": "9176a844fd1dae9782b760c246f8e2b62154d067a2cd3e268d267bd8a92ec4ea",
    "rounded_power_drift.py": "5beea5aac7a0ae2a5ece677926969164c54344871ded2ba4ac9c576fa4333a94",
}


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120)


def run_script(script, *args):
    return run_python(str(ROOT / "scripts" / script), *args)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_script_stdout_is_pinned(script):
    result = run_script(script)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[script], result.stdout.decode()[-2000:]


def test_recurrence_tail_skips_a_rational_root_scan_too_large_to_run():
    # |c_0| = 10^13 is over the divisor-scan limit; the slope and the tail are still computed.
    result = run_script("recurrence_tail.py", "recurrence:poly=-10000000000000,-1,1;init=1,1", "2")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr.decode() == (
        "warning: rational-root check skipped (rational-root scan refused for a 44-bit coefficient, over 10**12)\n"
    )
    assert result.stdout.decode().splitlines()[-1] == "2,2,4,15,2,True,True"


def test_recurrence_tail_refuses_a_coefficient_past_float_range():
    # The header's dominant root is found in floats: |c_0| = 10^400 is refused with one error line, never a traceback.
    result = run_script("recurrence_tail.py", f"recurrence:poly=-{10**400},-1,1;init=1,1", "2")
    assert result.returncode == 3
    warning, error = result.stderr.decode().splitlines()
    assert warning == "warning: rational-root check skipped (rational-root scan refused for a 1329-bit coefficient, over 10**12)"
    assert error == "error: the dominant-root check needs floats, but a coefficient is over 1.8e+308"
    assert result.stdout == b""


@pytest.mark.parametrize(
    "spec",
    [
        "geometric:c=1,eta=10000000000000",  # degree 1: no rational-root scan, so no warning
        "recurrence:poly=6,-5,1;init=2,4",  # a note: the terms' minimal polynomial is z - 2
        "pow2plus1",  # the rational-root warning on (z - 1)(z - 2)
        "recurrence:poly=-10000000000000,-1,1;init=1,1",  # the scan is skipped with a warning
    ],
    ids=["degree-one", "note", "rational-root", "scan-skipped"],
)
def test_recurrence_tail_prints_the_stderr_of_slope(spec):
    # Both find their polynomial by lacuna.cli.slope_modulus, so they print the same note and warnings.
    slope = run_python("-m", "lacuna.cli", "slope", "--seq", spec, "--m", "2", "--gap-bound", "1")
    tail = run_script("recurrence_tail.py", spec, "2")
    assert slope.returncode == tail.returncode == 0
    assert tail.stderr.decode() == slope.stderr.decode()


def test_recurrence_tail_walks_the_minimal_polynomial():
    # 2^k satisfies (z - 2)(z - 3), but its terms' minimal polynomial is z - 2, the one `lacuna slope` walks.
    result = run_script("recurrence_tail.py", "recurrence:poly=6,-5,1;init=2,4", "4")
    assert result.returncode == 0, result.stderr.decode()
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "# recurrence:poly=6,-5,1;init=2,4: dominant root ~ 2.000000000, perron=True"
    assert lines[2:] == ["2,2,0,15,2,True,True", "3,6,-6,15,6,True,True", "4,18,-48,15,18,True,True"]


def test_recurrence_tail_reports_a_bad_spec_on_one_error_line():
    result = run_script("recurrence_tail.py", "bogus")
    assert result.returncode == 2
    assert result.stderr.decode() == "error: unknown sequence kind 'bogus'\n"
    assert result.stdout == b""


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("recurrence_tail.py", ["fibonacci", "0"], "argument M_MAX: must be an integer >= 1, got '0'"),
        ("recurrence_tail.py", ["fibonacci", "x"], "argument M_MAX: must be an integer >= 1, got 'x'"),
        ("pow2plus1_table.py", ["abc"], "argument N_MAX: must be an integer >= 1, got 'abc'"),
        ("pow2plus1_table.py", ["0"], "argument N_MAX: must be an integer >= 1, got '0'"),
        ("rounded_power_drift.py", ["2.5"], "argument N_MAX: must be an integer >= 1, got '2.5'"),
        ("rounded_power_drift.py", ["5", "1/0"], "bad rounded-power ratio '1/0': zero denominator"),
    ],
    ids=[
        "recurrence-tail-m-max-zero",
        "recurrence-tail-not-an-integer",
        "pow2plus1-not-an-integer",
        "pow2plus1-n-zero",
        "drift-not-an-integer",
        "drift-zero-denominator",
    ],
)
def test_scripts_report_a_bad_argument_on_one_error_line(script, args, message):
    result = run_script(script, *args)
    assert result.returncode == 2
    assert result.stderr.decode() == f"error: {message}\n"
    assert result.stdout == b""


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("recurrence_tail.py", ["fibonacci", "400"], "P^200 may store 166408001 exponents"),
        ("pow2plus1_table.py", ["3000"], "P^3 may store 18009001000 exponents of 47 words each"),
    ],
    ids=["recurrence-tail", "pow2plus1"],
)
def test_scripts_print_no_partial_table_when_refused(script, args, message):
    # The table is computed whole before its first line is printed: a refusal exits 3 with empty stdout.
    result = run_script(script, *args)
    assert result.returncode == 3
    err = result.stderr.decode()
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert result.stdout == b""
