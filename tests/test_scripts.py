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


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )


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
        "warning: rational-root check skipped (rational-root scan refused for |coefficient| = 10000000000000)\n"
    )
    assert result.stdout.decode().splitlines()[-1] == "2,2,4,15,2,True,True"


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
        ("recurrence_tail.py", ["fibonacci", "0"], "M_MAX must be >= 1, got 0"),
        ("pow2plus1_table.py", ["abc"], "invalid literal for int() with base 10: 'abc'"),
        ("pow2plus1_table.py", ["0"], "need n >= 1"),
        ("rounded_power_drift.py", ["5", "1/0"], "bad rounded-power ratio '1/0': zero denominator"),
    ],
    ids=["recurrence-tail-m-max-zero", "pow2plus1-not-an-integer", "pow2plus1-n-zero", "drift-zero-denominator"],
)
def test_scripts_report_a_bad_argument_on_one_error_line(script, args, message):
    result = run_script(script, *args)
    assert result.returncode == 2
    assert result.stderr.decode() == f"error: {message}\n"
    assert result.stdout == b""
