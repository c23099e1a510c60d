"""Record the output gate's expectations from the current sources.

Usage (from the repository root): python3 perfbench/record_expected.py

Runs every invocation of every workload at the default seed, plus the
set-up invocation, and writes their exit codes, stdout sha256 digests
and stderr to perfbench/expected.json.  The committed file was recorded
from the sources the benchmark was written against; later changes must
reproduce it byte for byte, so re-recording is only for a deliberate
change of output.
"""

from __future__ import annotations

import json
import sys
import time

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    run.build()
    runner = run.Runner(time.monotonic() + 600)
    argvs = [workloads.SETUP_ARGV]
    for name in workloads.WORKLOADS:
        argvs += workloads.invocations(name, workloads.DEFAULT_SEED)
    recorded = {}
    for argv in argvs:
        inv = runner.run(argv)
        recorded[" ".join(argv)] = {
            "exit": inv.code,
            "stdout_sha256": run.sha256(inv.stdout),
            "stderr": inv.stderr.decode("utf-8", "replace"),
        }
    payload = {"seed": workloads.DEFAULT_SEED, "git_sha": run.git_sha(), "invocations": recorded}
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
