#!/usr/bin/env python3
"""Benchmark of the arcfill solve pipeline.

One process, one closed-loop caller, no threads.  An operation is what
``arcfill solve`` does minus file I/O: ``cli.parse_instance(text)`` ->
``search.solve`` -> ``cli.emit_solution``.  A run builds the seeded
instances of one workload, then solves them in whole rounds (every instance
once per round) until ``--seconds`` have been measured, checks every output
against the problem definition, and prints one JSON result line last.
Before each round, outside the timed region, a fresh python3 process does
the set-up alone and is timed (``setup_s``), and this process re-imports
``arcfill``, so no module state survives from one solve of an instance to
the next.

    python3 bench/run.py --workload search-no --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics instead.  Details
of each run, and the spans of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import typing
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("search-yes", "search-no", "large-budget")
OP_LIMIT_S = 30.0  # per operation; a timeout counts as failed
RUN_LIMIT_S = 120.0  # no operation starts later, so a run ends within 180 s


class OpTimeout(BaseException):
    """Raised by the alarm when an operation exceeds its time limit.

    A BaseException, so no ``except Exception`` inside the program can
    swallow it and turn a timeout into an answer.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def import_arcfill():
    """Fresh import of the package from this checkout and of the generators."""
    for name in [m for m in sys.modules if m == "arcfill" or m.startswith("arcfill.")]:
        del sys.modules[name]
    sys.modules.pop("workloads", None)
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    import arcfill.cli
    import arcfill.flow
    import arcfill.search
    import workloads

    if Path(arcfill.__file__).resolve().parent != SRC / "arcfill":
        raise ImportError(f"arcfill imported from {arcfill.__file__}, not {SRC}")
    modules = {"cli": arcfill.cli, "search": arcfill.search, "flow": arcfill.flow}
    return modules, workloads


def reimport() -> dict:
    """Fresh arcfill modules for the next round.

    typing caches the ``Union`` aliases that arcfill defines, and through
    them every dropped copy of its modules.  Clearing those caches and
    collecting the dropped modules here keeps peak RSS from growing with the
    number of rounds, and keeps the collection out of the timed region.
    """
    modules, _ = import_arcfill()
    for clear in typing._cleanups:
        clear()
    gc.collect()
    return modules


def setup(workload: str, seed: int):
    """Import, build and serialise the instances, and parse each text once."""
    modules, workloads = import_arcfill()
    cases = workloads.build(workload, seed)
    texts = [modules["cli"].emit_instance(case.instance) for case in cases]
    for text in texts:
        modules["cli"].parse_instance(text)
    return modules, cases, texts


# What a benchmark process does from its start to its first operation,
# minus the argument parsing: every import is cold.
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.setup(sys.argv[2], int(sys.argv[3]))"
)


def cold_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh python3 process that does ``setup`` and exits."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(seed)]
    begin = time.perf_counter()
    done = subprocess.run(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60
    )
    elapsed = time.perf_counter() - begin
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr[-300:]}")
    return elapsed


def operation(modules, text: str) -> str:
    cli, search = modules["cli"], modules["search"]
    instance = cli.parse_instance(text)
    solution = search.solve(instance)
    return cli.emit_solution(instance, solution)


def timed(op, limit: float):
    """(seconds, output, error) of one call of op under a time limit.

    A timeout or any exception, RecursionError included, is an error and
    never an answer.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        output = op()
        error = None
    except OpTimeout:
        output, error = None, f"timeout after {limit} s"
    except Exception as exc:  # every fault is recorded as a failed operation
        output, error = None, f"{type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return elapsed, output, error


class Run:
    """Rounds of operations, their times, failures and output checks."""

    def __init__(self, modules, cases, texts, checks, deadline: float):
        self.modules, self.cases, self.texts = modules, cases, texts
        self.checks = checks
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.slot_times: list[list[float]] = [[] for _ in cases]
        self.first_output: list[str | None] = [None] * len(cases)
        self.problems: list[str] = []
        self.errors: list[str] = []

    def round(self, tracer=None) -> float:
        """Solve every case once; returns the summed operation time."""
        total = 0.0
        for index, (case, text) in enumerate(zip(self.cases, self.texts)):
            self.attempted += 1
            if time.perf_counter() > self.deadline:
                self.failed += 1
                self.errors.append(f"{case.name}: not started, run limit reached")
                continue
            if tracer is not None:
                tracer.begin(self.attempted)
            elapsed, output, error = timed(
                lambda: operation(self.modules, text), OP_LIMIT_S
            )
            if tracer is not None:
                tracer.end()
            if error is not None:
                self.failed += 1
                self.errors.append(f"{case.name}: {error}")
                continue
            total += elapsed
            self.times.append(elapsed)
            self.slot_times[index].append(elapsed)
            self.check(index, case, output)
        return total

    def check(self, index, case, output: str) -> None:
        first = self.first_output[index]
        try:
            if first is None:
                self.checks.check_output(case, output)
                self.first_output[index] = output
            elif output != first:
                raise self.checks.CheckFailed("output differs from the first solve")
        except self.checks.CheckFailed as exc:
            self.problems.append(f"{case.name}: {exc}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "arcfill").is_dir():
        print(f"error: no arcfill package under {SRC}", file=sys.stderr)
        return 2
    import checks  # from this script's directory, the first entry of sys.path
    import spans

    modules, cases, texts = setup(args.workload, args.seed)
    for case in cases:
        if not case.expect_yes and not checks.no_proof(case.instance):
            print(f"error: {case.name} has no proof of its no", file=sys.stderr)
            return 2

    run = Run(modules, cases, texts, checks, started + RUN_LIMIT_S)
    tracer = spans.Tracer(modules) if args.trace else None
    setups = []
    untraced = traced = 0.0
    traced_ops = 0
    measure_start = time.perf_counter()
    while True:
        setups.append(cold_setup(args.workload, args.seed))
        run.modules = reimport()
        if tracer is None:
            run.round()
        else:
            untraced += run.round()
            run.modules = reimport()
            tracer.modules = run.modules
            tracer.install()
            try:
                traced += run.round(tracer)
            finally:
                tracer.uninstall()
            traced_ops += len(cases)
        if time.perf_counter() - measure_start >= args.seconds:
            break

    if tracer is not None:
        summary = tracer.summary(traced_ops, traced, untraced)
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in summary.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "latency_p50_s": {
                "value": statistics.median(run.times) if run.times else None,
                "unit": "s",
            },
            "throughput_inst_per_s": {
                "value": len(run.times) / sum(run.times) if run.times else 0.0,
                "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_s": setups,
        "rounds": run.attempted // len(cases),
        "slots": {
            case.name: times for case, times in zip(cases, run.slot_times)
        },
        "errors": run.errors,
        "problems": run.problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")
    for line in run.problems + run.errors:
        print(line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
