"""End-to-end and per-layer benchmark of the lacuna CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload range-tables --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  Each
invocation is a fresh ``python -m lacuna.cli ...`` process, run one after
another by a single closed-loop client, exactly as a user runs the CLI.
A run first compiles ``src/lacuna`` (the build), then repeats passes over
the workload's invocations while another one fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the median over passes of
a pass's wall time, its children's user+sys CPU time and its largest
child max-RSS, plus ``setup_s``, the median of several fresh starts of
``lacuna independent --m 2``.  Times are in reference seconds, corrected
for the host's drifting speed (see ``CALIBRATION_REFERENCE_S``).

``--trace 1`` alternates untraced passes with passes whose invocations
run under ``perfbench/tracer.py``, and reports per-layer self times and
exact work counters (medians over traced passes).  The counters must
repeat exactly in every traced pass.

Every invocation goes through the output gate: exit code, stdout sha256
and stderr must match those recorded in ``perfbench/expected.json`` (from
the default seed), the seeded ``explicit:`` table must match the
benchmark's own reference computation (any seed), and the ``oracle`` row
must agree with the exact moment to 1e-9 relative.  A failed invocation
is counted in ``failed``.  The last line of stdout is the JSON result;
the full run record, with every stdout digest, is written under
``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

import tracer  # noqa: E402  (sibling modules; need dont_write_bytecode first)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

MAX_SECONDS = 150  # with set-up and the last round, a run stays under 180 s
SETUP_PER_PASS = 3
MIN_PASSES = 2  # also the least number of traced passes, whose counters must agree
RUN_LIMIT_S = 170.0  # every invocation is killed past this point of the run
ORACLE_RELATIVE_TOL = 1e-9
ORACLE_ZERO_TOL = 1e-12

# Shared hosts change speed by tens of percent over seconds to minutes: on
# the 2-core host where the bounds were set, one fixed loop took from 11.5
# to 21 ms in successive 5 s windows, and raw pass times of one workload
# spread by up to 26% (quartile distance over median) across ten runs.  So
# every time is reported in reference seconds: multiplied by
# (CALIBRATION_REFERENCE_S / c) ** SPEED_ELASTICITY, where c is the median
# time of ``calibration_s()`` taken in this process just before and just
# after the invocation and, in short samples, every SAMPLE_INTERVAL_S while
# it runs.  Invocations slow less than the loop when the host is busy
# (fitted elasticities 0.5-0.75: numpy- and memory-bound ones least); over
# 60 ten-seed runs the spreads were smallest near 0.65, at 2-7%.  Raw
# times and each invocation's factor stay in the run record.
CALIBRATION_REFERENCE_S = 0.008
SPEED_ELASTICITY = 0.65
CALIBRATION_ITERATIONS = 20000
SAMPLE_ITERATIONS = 2000
SAMPLE_INTERVAL_S = 0.1

# A span's self time is charged to its layer's ``self_s``, except for the
# two moments stages that are reported on their own.
SUBSTAGES = {
    "moments.moments_to_cumulants": "moments.cumulant_recursion_s",
    "moments.moment_oracle_quadrature": "moments.quadrature_s",
}
TIMED_LAYERS = (*(f"{layer}.self_s" for layer in tracer.LAYERS), *SUBSTAGES.values())
# Counters that are pure functions of the inputs and must repeat exactly.
EXACT_COUNTERS = (*tracer.COUNTERS, "multiplicity.distinct_profiles")


@dataclass
class Invocation:
    """One finished CLI process: what it printed and what it cost."""

    argv: tuple[str, ...]
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    scale: float  # reference seconds per measured second
    trace: dict | None = None
    problem: str | None = None

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale

    def record(self) -> dict:
        return {
            "argv": list(self.argv),
            "exit": self.code,
            "stdout_sha256": sha256(self.stdout),
            "stderr": self.stderr.decode("utf-8", "replace"),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "scale": self.scale,
            "problem": self.problem,
        }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def calibration_s(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Thread CPU time of a fixed dict and 64-bit integer loop, per CALIBRATION_ITERATIONS."""
    started = time.thread_time()
    table, x = {}, 1
    for _ in range(iterations):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        table[x >> 53] = table.get(x >> 53, 0) + x
    return (time.thread_time() - started) * CALIBRATION_ITERATIONS / iterations


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LACUNA_THREADS", None)  # measure the CLI's default single thread
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts CLI processes one at a time and reaps each with its rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        OUT.mkdir(exist_ok=True)
        self.trace_path = str(OUT / f"trace-{os.getpid()}.json")  # private to this run
        self.calibration = calibration_s()

    def run(self, argv: tuple[str, ...], traced: bool = False) -> Invocation:
        if traced:
            Path(self.trace_path).unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), self.trace_path, *argv]
        else:
            cmd = [sys.executable, "-m", "lacuna.cli", *argv]
        speeds = [self.calibration]
        stop = threading.Event()

        def watch():  # samples the host's speed; kills the child past the run's limit
            while not stop.wait(SAMPLE_INTERVAL_S):
                if time.monotonic() > self.deadline:
                    proc.kill()
                    return
                speeds.append(calibration_s(SAMPLE_ITERATIONS))

        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall_s = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                stop.set()
                watcher.join()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        trace = None
        if traced and proc.returncode == 0:
            with open(self.trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.unlink(self.trace_path)
        self.calibration = calibration_s()
        speeds.append(self.calibration)
        scale = (CALIBRATION_REFERENCE_S / statistics.median(speeds)) ** SPEED_ELASTICITY
        return Invocation(
            argv, proc.returncode, stdout, stderr, wall_s, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, scale, trace,
        )


class Gate:
    """Decides whether an invocation's output is the expected one."""

    def __init__(self, expected: dict, references: dict[tuple[str, ...], str]):
        self.expected = expected["invocations"]
        self.references = references

    def problem(self, inv: Invocation) -> str | None:
        wants = []
        recorded = self.expected.get(" ".join(inv.argv))
        if recorded is not None:
            wants.append(("recorded", recorded))
        if inv.argv in self.references:
            reference = {"exit": 0, "stdout_sha256": sha256(self.references[inv.argv].encode()), "stderr": ""}
            wants.append(("reference", reference))
        if not wants:
            return "no expected output for this invocation"
        for source, want in wants:
            if inv.code != want["exit"]:
                return f"exit code {inv.code}, {source} {want['exit']}"
            if sha256(inv.stdout) != want["stdout_sha256"]:
                return f"stdout digest differs from the {source} one"
            if inv.stderr.decode("utf-8", "replace") != want["stderr"]:
                return f"unexpected stderr: {inv.stderr[:200]!r}"
        if inv.argv[0] == "oracle":
            return oracle_problem(inv.stdout)
        return None


def oracle_problem(stdout: bytes) -> str | None:
    """The quadrature value must match the exact moment (acceptance tolerance)."""
    try:
        payload = json.loads(stdout)
        exact = Fraction(payload["exact"])
        errors = (abs(payload["oracle"] - float(exact)), payload["abs_error"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable oracle output: {exc}"
    limit = ORACLE_RELATIVE_TOL * abs(float(exact)) if exact else ORACLE_ZERO_TOL
    if max(errors) > limit:
        return f"oracle error {max(errors)!r} exceeds {limit!r}"
    return None


def corrupted_stdout_is_caught(gate: Gate, done: list[Invocation]) -> bool:
    """Self-check: the gate must fail a copy of a passing invocation with one byte changed."""
    inv = next((inv for inv in done if inv.problem is None and inv.stdout), None)
    if inv is None:
        return True  # nothing passed, and every failure is already counted
    flipped = bytes([inv.stdout[0] ^ 1]) + inv.stdout[1:]
    fake = Invocation(inv.argv, inv.code, flipped, inv.stderr, 0.0, 0.0, 0.0, 1.0)
    return gate.problem(fake) is not None


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer self times (reference seconds) and counters of one traced invocation."""
    out = dict.fromkeys(TIMED_LAYERS, 0.0)
    trace = inv.trace
    functions, spans = trace["functions"], trace["spans"]
    children = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (fid, _, start, end) in enumerate(spans):
        name = functions[fid]
        out[SUBSTAGES.get(name, name.split(".")[0] + ".self_s")] += (end - start - children[i]) * inv.scale
    out["cli.import_s"] = trace["import_s"] * inv.scale
    out.update(trace["counters"])
    return out


def per_invocation_median(passes: list[list], value) -> list:
    """For each invocation of the workload, the median of ``value`` over passes."""
    return [statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0]))]


def end_to_end_metrics(passes: list[list[Invocation]], setup: list[Invocation]) -> dict:
    """A pass's cost, summed from per-invocation medians so one slow pass weighs little."""
    return {
        "wall_s": sum(per_invocation_median(passes, lambda inv: inv.ref_wall_s)),
        "cpu_s": sum(per_invocation_median(passes, lambda inv: inv.ref_cpu_s)),
        "peak_rss_mb": max(per_invocation_median(passes, lambda inv: inv.rss_mb)),
        "setup_s": statistics.median(inv.ref_wall_s for inv in setup),
    }


def per_layer_metrics(passes: list[list[Invocation]], traced: list[list[Invocation]], notes: list[str]) -> dict:
    """Layer self times (per-invocation medians, summed) and exact counters of one pass."""
    layers = [[layer_metrics(inv) for inv in p] for p in traced]
    out = {}
    for name in (*TIMED_LAYERS, "cli.import_s"):
        out[name] = sum(per_invocation_median(layers, lambda layer: layer[name]))
    for name in EXACT_COUNTERS:
        if any(p[i][name] != layers[0][i][name] for p in layers for i in range(len(p))):
            notes.append(f"counter {name} differs between traced passes")
        values = [layer[name] for layer in layers[0]]
        out[name] = max(values) if name == "laurent.max_support" else sum(values)
    calls = out["multiplicity.profile_calls"]
    out["multiplicity.profile_reuse_ratio"] = 1 - out["multiplicity.distinct_profiles"] / calls if calls else 0.0
    traced_wall = sum(per_invocation_median(traced, lambda inv: inv.ref_wall_s))
    out["trace.overhead_s"] = traced_wall - sum(per_invocation_median(passes, lambda inv: inv.ref_wall_s))
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, workload: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": time.time(),
    }


def build() -> None:
    """The package is pure Python: byte-compile it so no run pays for that."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "lacuna")],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
    )


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    return args


def measure(workload: str, args, spec: dict, gate: Gate) -> bool:
    """One run over ``workload``: print its metrics and result line, write its record."""
    record = run_record(args, workload)
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    argvs = workloads.invocations(workload, args.seed)
    done: list[Invocation] = []
    notes: list[str] = []

    def invoke(argv, traced=False):
        inv = runner.run(argv, traced)
        inv.problem = gate.problem(inv)
        done.append(inv)
        return inv

    def one_pass(traced=False):
        return [invoke(argv, traced) for argv in argvs]

    invoke(workloads.SETUP_ARGV)  # warm the file cache before anything is timed
    passes, traced_passes, setup = [], [], []
    # Shared hosts drift in speed over seconds, so samples are spread over
    # the whole window: set-up starts sit between passes, and a traced pass
    # follows each untraced one.  A round starts only if it fits the window.
    measured_from = time.monotonic()
    longest = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - measured_from + longest <= args.seconds:
        round_started = time.monotonic()
        if args.trace:
            passes.append(one_pass())
            traced_passes.append(one_pass(traced=True))
        else:
            setup += [invoke(workloads.SETUP_ARGV) for _ in range(SETUP_PER_PASS)]
            passes.append(one_pass())
        longest = max(longest, time.monotonic() - round_started)

    if not corrupted_stdout_is_caught(gate, done):
        notes.append("self-check failed: a corrupted stdout passed the gate")
    failed = sum(inv.problem is not None for inv in done)
    if args.trace:
        values = {}
        if all(inv.trace is not None for p in traced_passes for inv in p):
            values = per_layer_metrics(passes, traced_passes, notes)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(passes, setup)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if values and set(values) != set(units):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return False
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    correct = failed == 0 and not notes and bool(metrics)

    result_path = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "record": record,
                "correct": correct,
                "attempted": len(done),
                "failed": failed,
                "failed_ratio": failed / len(done),
                "notes": notes,
                "metrics": metrics,
                "setup_starts": [inv.record() for inv in setup],
                "passes": [[inv.record() for inv in p] for p in passes],
                "traced_passes": [[inv.record() for inv in p] for p in traced_passes],
            },
            fh,
            indent=1,
        )

    print(
        f"lacuna benchmark: workload={workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} traced_passes={len(traced_passes)} invocations={len(done)} "
        f"nproc={record['nproc']} load={record['loadavg_at_start'][0]:.2f}"
    )
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<34} {failed / len(done):>16.6g} 1 ({failed}/{len(done)})")
    for inv in done:
        if inv.problem:
            print(f"  FAILED {' '.join(inv.argv)[:80]}: {inv.problem}")
    for note in notes:
        print(f"  {note}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(done), "failed": failed, "metrics": metrics}), flush=True)
    return True


def main(argv=None) -> int:
    if not (ROOT / "src" / "lacuna" / "cli.py").is_file():
        print(f"error: no lacuna sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, spec)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        gate = Gate(json.load(fh), workloads.reference_outputs(args.seed))
    build()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return 0 if all(measure(name, args, spec, gate) for name in names) else 3


if __name__ == "__main__":
    sys.exit(main())
