"""Run one lacuna CLI invocation with a span at every layer boundary.

Usage: python perfbench/tracer.py TRACE.json CLI-ARG...

Behaves like ``python -m lacuna.cli CLI-ARG...`` (same stdout, stderr
and exit code) and, when the CLI returns, writes TRACE.json holding the
import time of ``lacuna.cli``, one span ``[function, parent, start,
end]`` per call of a wrapped function, and the exact work counters.

Nothing under ``src/`` is edited.  The public functions of each layer
module are wrapped from here, and because modules bind each other's
functions with ``from .x import y``, every ``lacuna.*`` namespace that
holds a reference to a wrapped function gets the wrapper; otherwise
calls such as moments -> laurent_mul or laurent_pow -> laurent_mul
would bypass it.  ``exact`` (scalar formatting) and ``parallel``
(``map_ordered``/``split_chunks``) are not layers: their time stays
with the calling layer, so the pattern sweep that runs as a closure
inside ``map_ordered`` counts as ``recurrence``.

Spans keep one stack, so they assume the CLI runs single-threaded,
which is its default.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "sequences", "laurent", "moments", "multiplicity", "partitions", "recurrence")


def _generate_terms(recorder, args, result):
    recorder.counters["sequences.terms"] += len(result)


def _laurent_mul(recorder, args, result):
    counters = recorder.counters
    counters["laurent.mul_calls"] += 1
    counters["laurent.term_products"] += len(args["a"]) * len(args["b"])
    counters["laurent.support_sum"] += len(result)
    counters["laurent.max_support"] = max(counters["laurent.max_support"], len(result))


def _moment_vector(recorder, args, result):
    recorder.counters["moments.moment_vector_calls"] += 1


def _quadrature(recorder, args, result):
    recorder.counters["moments.quadrature_nodes"] += args["m"] * max(args["terms"]) + 1


def _mult_from_profile(recorder, args, result):
    recorder.counters["multiplicity.profile_calls"] += 1
    recorder.profiles.add((args["m"], args["masks"]))


def _all_partitions(recorder, args, result):
    recorder.counters["partitions.lattice_builds"] += 1


def _structural_slope(recorder, args, result):
    recorder.counters["recurrence.slope_calls"] += 1
    recorder.counters["recurrence.patterns"] += (args["gap_bound"] + 1) ** (args["m"] - 1) * 2 ** args["m"]


# Counters recorded at the boundary of the function that does the work,
# from its arguments and result.  Each is a pure function of the inputs.
OBSERVERS = {
    "sequences.generate_terms": _generate_terms,
    "laurent.laurent_mul": _laurent_mul,
    "moments.moment_vector": _moment_vector,
    "moments.moment_oracle_quadrature": _quadrature,
    "multiplicity.mult_from_profile": _mult_from_profile,
    "partitions.all_partitions": _all_partitions,
    "recurrence.structural_slope": _structural_slope,
}

COUNTERS = (
    "sequences.terms",
    "laurent.mul_calls",
    "laurent.term_products",
    "laurent.max_support",
    "laurent.support_sum",
    "moments.moment_vector_calls",
    "moments.quadrature_nodes",
    "multiplicity.profile_calls",
    "partitions.lattice_builds",
    "recurrence.slope_calls",
    "recurrence.patterns",
)


class Recorder:
    """Spans and counters of one process, kept in memory until it ends."""

    def __init__(self):
        self.functions: list[str] = []
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.profiles: set = set()  # distinct (m, masks) keys given to mult_from_profile
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.functions)
        self.functions.append(name)
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function in every namespace that binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lacuna.{layer}"]
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{name}", value))
        missing = set(OBSERVERS) - set(self.functions)
        if missing:
            raise SystemExit(f"tracer: counted functions not found: {sorted(missing)}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "lacuna" and not module_name.startswith("lacuna."):
                continue
            for name, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, name, found[1])

    def dump(self, path: str, import_s: float) -> None:
        counters = dict(self.counters, **{"multiplicity.distinct_profiles": len(self.profiles)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"import_s": import_s, "functions": self.functions, "spans": self.spans, "counters": counters},
                fh,
            )


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    started = time.perf_counter()
    cli = importlib.import_module("lacuna.cli")
    import_s = time.perf_counter() - started
    recorder = Recorder()
    recorder.install()
    try:
        return cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        recorder.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
