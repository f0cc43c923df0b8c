#!/usr/bin/env python3
"""Reference figures for the hand-measured baseline cases, time-limited.

    python3 bench/reference.py [--only ID ...]

Solves each case once in this process under the benchmark's per-operation
time limit (``run.OP_LIMIT_S``, 30 s) and records the time, the verdict, or
the timeout or exception as the result.  The large-budget crash case is
also run through the command line (``arcfill solve``) to record its exit
code.  These cases are not a workload: most of them time out today.  Writes
``bench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys

import run

modules, workloads = run.import_arcfill()

from arcfill import DegreeListFunction, Digraph, ListCompletion  # noqa: E402
from arcfill.cli import emit_instance, generate_instance  # noqa: E402


def gen(problem, seed, n, density, budget, anonymity=2):
    """What ``arcfill gen`` builds for these options (slack 2)."""
    rng = random.Random(seed)
    return generate_instance(problem, rng, n, density, budget, anonymity, 2)


def list_no():
    lists = [[(3, 3)]] * 11 + [[(2, 3)]]
    return ListCompletion(Digraph(12), 132, DegreeListFunction(lists))


def large_sequence(n):
    rng = random.Random(f"reference/ddseqc/{n}")
    return workloads.planted_sequence(rng, n, n // 2, n // 2)


CASES = {
    "ddseqc-gen1-n32-s3": lambda: gen("ddseqc", 1, 32, 0.1, 3),
    "ddseqc-gen1-n64-s2": lambda: gen("ddseqc", 1, 64, 0.1, 2),
    "dda-k2-gen1-n16-s3": lambda: gen("dda", 1, 16, 0.1, 3),
    "dda-k2-gen1-n32-s2": lambda: gen("dda", 1, 32, 0.1, 2),
    "dda-k2-gen1-n32-s3": lambda: gen("dda", 1, 32, 0.1, 3),
    "dda-k2-gen1-n64-s2": lambda: gen("dda", 1, 64, 0.1, 2),
    "dda-k3-gen3-n20-s40": lambda: gen("dda", 3, 20, 0.05, 40, anonymity=3),
    "dda-k3-gen3-n40-s40": lambda: gen("dda", 3, 40, 0.05, 40, anonymity=3),
    "ddconc-no-empty-n12-s132": list_no,
    "ddseqc-large-n400": lambda: large_sequence(400),
    "ddseqc-large-n800": lambda: large_sequence(800),
    "ddseqc-large-n1500": lambda: large_sequence(1500),
}
CLI_CASES = ("ddseqc-large-n1500",)


def cli_exit_code(text: str, name: str) -> dict:
    """Exit code and last stderr line of ``arcfill solve`` on the instance."""
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"reference-{name}.json"
    path.write_text(text)
    code = (
        "import sys; sys.path.insert(0, sys.argv.pop(1)); "
        "from arcfill.cli import main; main()"
    )
    argv = [sys.executable, "-c", code, str(run.SRC), "solve", "--input", str(path)]
    limit = run.OP_LIMIT_S + 60
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"cli_exit": None, "cli_stderr": f"timeout after {limit} s"}
    tail = done.stderr.strip().splitlines()[-1:] or [""]
    return {"cli_exit": done.returncode, "cli_stderr": tail[0][:200]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", choices=sorted(CASES))
    args = parser.parse_args(argv)
    results = []
    for name in args.only or CASES:
        instance = CASES[name]()
        text = emit_instance(instance)
        seconds, output, error = run.timed(
            lambda: run.operation(modules, text), run.OP_LIMIT_S
        )
        row = {
            "case": name,
            "n": instance.digraph.n,
            "seconds": round(seconds, 3),
            "result": error or json.loads(output)["decision"],
        }
        if name in CLI_CASES:
            row.update(cli_exit_code(text, name))
        results.append(row)
        print(json.dumps(row), flush=True)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "reference.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
