"""The experiment scripts print exactly the tables they printed when these digests were recorded.

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
    err = result.stderr.decode()
    assert result.returncode == 0, err
    assert "rational-root check skipped (rational-root scan refused" in err and "Traceback" not in err
    assert result.stdout.decode().splitlines()[-1] == "2,2,4,15,2,True,True"


def test_recurrence_tail_reports_a_bad_spec_on_one_error_line():
    result = run_script("recurrence_tail.py", "bogus")
    assert result.returncode == 2
    assert result.stderr.decode() == "error: unknown sequence kind 'bogus'\n"
    assert result.stdout == b""
