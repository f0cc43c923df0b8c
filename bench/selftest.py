#!/usr/bin/env python3
"""Self-test of the benchmark's checks and failure accounting at toy size.

    python3 bench/selftest.py

It shows that the output checks reject tampered witnesses and flipped
verdicts, that a forced exception or timeout counts as a failed operation
and never as "no", that the counting arguments behind the no-instances
agree with the brute-force oracle, and that each workload reaches the
layers it is meant to price.  Prints one PASS or FAIL line per part and
exits 1 on any failure.
"""

from __future__ import annotations

import json
import random
import sys
import types

import checks
import run
import spans

modules, workloads = run.import_arcfill()

# arcfill is importable once run.import_arcfill has put the checkout's src
# first on sys.path.
from arcfill import (  # noqa: E402
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    ListCompletion,
    SequenceCompletion,
    verify_solution,
)
from arcfill.cli import emit_instance, generate_instance  # noqa: E402
from arcfill.oracle import brute_force_graph  # noqa: E402
from arcfill.search import Solution  # noqa: E402

W = workloads
Case = W.Case


def toy_cases(seed: int) -> list:
    rng = random.Random(f"toy/{seed}")
    return [
        Case("ddconc-star", W.star_list(rng, 6, 2, 2), True),
        Case("ddseqc-star", W.star_sequence(rng, 7, 8, 2, b=2), True),
        Case("dda-star", W.star_anonymity(rng, 2, 3, 3, 2, max_degree=2), True),
        Case("ddconc-short", W.unreachable_list(rng, 6, 2, 2), False),
        Case("ddseqc-clique", W.clique_sequence(rng, 3, 1, 4, 1, rest_degree=1), False),
        Case("dda-blocks", W.counted_anonymity(rng, 6, 5, 3, 1, max_degree=2), False),
        Case("ddconc-planted", W.planted_list(rng, 24, 10, 20), True),
        Case("ddseqc-planted", W.planted_sequence(rng, 24, 10, 20), True),
    ]


def solve_text(case) -> str:
    return run.operation(modules, emit_instance(case.instance))


def rejected(case, text) -> bool:
    try:
        checks.check_output(case, text)
    except checks.CheckFailed:
        return True
    return False


def with_decision(text, decision, arcs=None) -> str:
    data = json.loads(text)
    data["decision"] = decision
    if arcs is not None:
        data["arcs"] = [list(a) for a in arcs]
    return json.dumps(data)


def tampered(instance, arcs) -> dict:
    """Named corruptions of a non-empty witness."""
    d = instance.digraph
    present = d.sorted_arcs()
    u, v = arcs[0]
    spare = next(
        (a, b) for a in range(d.n) for b in range(d.n)
        if a != b and (a, b) not in d.arcs and (a, b) not in arcs
    )
    out = {
        "dropped arc": arcs[1:],
        "duplicate arc": arcs + [arcs[0]],
        "loop": arcs[1:] + [(u, u)],
        "extra arc": arcs + [spare],
        "moved head": arcs[1:] + [spare],
    }
    if present:
        out["arc already present"] = arcs[1:] + [present[0]]
    return out


def part_checks() -> list[str]:
    failures = []
    for seed in range(3):
        for case in toy_cases(seed):
            text = solve_text(case)
            if rejected(case, text):
                failures.append(f"{case.name}/{seed}: correct output rejected")
            if case.instance.digraph.n <= 7:
                reference = brute_force_graph(case.instance, max_vertices=7, max_budget=4)
                if (reference is not None) != case.expect_yes:
                    failures.append(f"{case.name}/{seed}: oracle disagrees")
            decision, arcs = checks.solution_text(text)
            flipped = "no" if decision == "yes" else "yes"
            if not rejected(case, with_decision(text, flipped)):
                failures.append(f"{case.name}/{seed}: flipped verdict accepted")
            if decision != "yes" or not arcs:
                continue
            for what, bad in tampered(case.instance, arcs).items():
                if not rejected(case, with_decision(text, "yes", bad)):
                    failures.append(f"{case.name}/{seed}: {what} accepted")
    return failures


def part_checker_vs_verify() -> list[str]:
    """check_witness agrees with the package's verifier on random arc sets."""
    failures = []
    rng = random.Random("checker")
    for trial in range(600):
        problem = ("ddconc", "ddseqc", "dda")[trial % 3]
        instance = generate_instance(problem, rng, rng.randint(2, 6), 0.3, rng.randint(0, 3))
        d = instance.digraph
        pairs = [(u, v) for u in range(d.n) for v in range(d.n) if u != v]
        arcs = rng.sample(pairs, rng.randint(0, min(4, len(pairs))))
        if rng.random() < 0.2 and arcs:
            arcs.append(arcs[0])
        try:
            checks.check_witness(instance, arcs)
            ours = True
        except checks.CheckFailed:
            ours = False
        theirs = len(set(arcs)) == len(arcs) and verify_solution(instance, Solution(tuple(arcs), {}))
        if ours != theirs:
            failures.append(f"trial {trial}: check_witness {ours}, verify_solution {theirs}")
    return failures


def part_proofs_vs_oracle() -> list[str]:
    """A counting proof of no never fires on an instance the oracle solves."""
    failures = []
    fired = 0
    rng = random.Random("proofs")
    for trial in range(1500):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        d = Digraph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))
        kind = trial % 3
        if kind == 0:
            lists = [
                sorted({(d.indegree(v) + rng.randint(0, 2), d.outdegree(v) + rng.randint(0, 2))
                        for _ in range(rng.randint(1, 2))})
                for v in range(n)
            ]
            instance = ListCompletion(d, rng.randint(0, 3), DegreeListFunction(lists))
        elif kind == 1:
            grown = Digraph(n, list(d.arcs) + rng.sample(
                [p for p in pairs if p not in d.arcs],
                min(rng.randint(1, 3), n * (n - 1) - d.m)))
            target = [tuple(grown.degree(v)) for v in range(n)]
            if rng.random() < 0.5:
                a, b = rng.randrange(n), rng.randrange(n)
                target[a] = (target[a][0] + 1, target[a][1])
                target[b] = (target[b][0], target[b][1] + 1)
            instance = SequenceCompletion(d, DegreeSequence(target))
        else:
            instance = AnonymityCompletion(d, rng.randint(2, 4), rng.randint(0, 3))
        if not checks.no_proof(instance):
            continue
        fired += 1
        if brute_force_graph(instance, max_vertices=6, max_budget=12) is not None:
            failures.append(f"trial {trial}: proof of no on a yes-instance {emit_instance(instance)}")
    for trial in range(60):
        # The clique argument rarely fires on random instances; test its generator.
        rest = rng.randint(1, 3)
        instance = W.clique_sequence(rng, rest, rng.randint(0, rest - 1), 4, 1, rest_degree=1)
        fired += 1
        if not checks.no_proof(instance):
            failures.append(f"clique {trial}: no proof for {emit_instance(instance)}")
        elif brute_force_graph(instance, max_vertices=7, max_budget=1) is not None:
            failures.append(f"clique {trial}: proof of no on a yes-instance {emit_instance(instance)}")
    if fired < 100:
        failures.append(f"only {fired} proofs fired; the comparison shows little")
    return failures


def part_failure_accounting() -> list[str]:
    failures = []
    case = toy_cases(0)[0]
    texts = [emit_instance(case.instance)]

    def boom(instance):
        raise RecursionError("maximum recursion depth exceeded")

    def stall(instance):
        while True:
            pass

    for label, solve, limit in (("exception", boom, 5.0), ("timeout", stall, 0.2)):
        fake = {"cli": modules["cli"], "search": types.SimpleNamespace(solve=solve)}
        saved = run.OP_LIMIT_S
        run.OP_LIMIT_S = limit
        try:
            r = run.Run(fake, [case], texts, checks, deadline=float("inf"))
            r.round()
        finally:
            run.OP_LIMIT_S = saved
        if (r.attempted, r.failed, len(r.times), r.problems) != (1, 1, 0, []):
            failures.append(f"{label}: attempted {r.attempted} failed {r.failed} problems {r.problems}")
    r = run.Run(modules, [case], texts, checks, deadline=float("inf"))
    r.round()
    r.check(0, case, r.first_output[0] + " ")
    if len(r.problems) != 1:
        failures.append("a second solve with other bytes was not flagged")
    return failures


def part_layers() -> list[str]:
    """Each workload reaches the layers it is meant to price (seed 0)."""
    failures = []
    for workload in run.WORKLOADS:
        cases = W.build(workload, 0)
        tracer = spans.Tracer(modules)
        tracer.install()
        try:
            for op, case in enumerate(cases):
                tracer.begin(op)
                run.operation(modules, emit_instance(case.instance))
                tracer.end()
        finally:
            tracer.uninstall()
        counts = tracer.counts
        ops = len(cases)
        if workload == "large-budget":
            if counts["search.calls"] or counts["flow.maxflow.calls"] != ops:
                failures.append(f"{workload}: search {counts['search.calls']}, flow {counts['flow.maxflow.calls']}")
        else:
            number = sum(counts[f"numprob.{p}.calls"] for p in ("nddcc", "nddsc", "nda"))
            if counts["search.calls"] != ops or counts["flow.realize.calls"] or number:
                failures.append(f"{workload}: search {counts['search.calls']} of {ops}, flow or number solver used")
    return failures


def main() -> int:
    parts = [
        ("checks reject tampered witnesses and flipped verdicts", part_checks),
        ("check_witness agrees with verify_solution", part_checker_vs_verify),
        ("counting proofs agree with the brute-force oracle", part_proofs_vs_oracle),
        ("exceptions and timeouts count as failed", part_failure_accounting),
        ("workloads reach their layers", part_layers),
    ]
    ok = True
    for title, part in parts:
        failures = part()
        print(f"{'PASS' if not failures else 'FAIL'}: {title}")
        for line in failures[:10]:
            print(f"    {line}")
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
