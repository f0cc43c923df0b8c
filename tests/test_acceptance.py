"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

from __future__ import annotations

import io
import json
import random
import time
from collections import Counter
from itertools import combinations

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    brute_force_graph,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
    degree_sequence,
    kernelize_dda,
    kernelize_ddconc,
    kernelize_ddseqc,
    lift_solution,
    realize_demands,
    reduce_partition_to_nda,
    solve,
    solve_bounded,
    solve_nda,
    solve_nddcc,
    solve_nddsc,
    verify_solution,
)
from arcfill.kernel import KernelVerdict
from arcfill.oracle import apply_demands
from arcfill.search import Solution
from arcfill.cli import emit_instance, emit_solution, run
from conftest import (
    add_arcs,
    anonymity_example,
    bounded_digraph,
    list_example_no,
    list_example_yes,
    random_anonymity_instance,
    random_list_instance,
    random_sequence_instance,
    realization_case,
    sequence_example,
)


def _report(tag: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {tag}: PASS ({elapsed:.2f}s)")


def test_criterion_01_sequence_fixture():
    start = time.perf_counter()
    inst = sequence_example()
    solution = solve(inst)
    assert solution is not None and len(solution.arcs) == 1
    final = degree_sequence(add_arcs(inst.digraph, solution.arcs))
    assert final.as_multiset() == Counter(
        {(0, 3): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1}
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("01 sequence-fixture", elapsed)


def test_criterion_02_anonymity_fixture():
    start = time.perf_counter()
    yes = solve(anonymity_example(k=7, budget=1))
    assert yes is not None and len(yes.arcs) == 1
    inst = anonymity_example(k=7, budget=1)
    final = degree_sequence(add_arcs(inst.digraph, yes.arcs))
    assert all(pair == (1, 1) for pair in final)
    assert solve(anonymity_example(k=2, budget=0)) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("02 anonymity-fixture", elapsed)


def test_criterion_03_list_fixtures():
    start = time.perf_counter()
    yes = solve(list_example_yes())
    assert yes is not None and len(yes.arcs) == 1
    assert yes.arcs[0][1] == 1  # the inserted arc points into the middle vertex
    assert solve(list_example_no()) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("03 list-fixtures", elapsed)


def test_criterion_04_graph_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240)
    counts = Counter()
    for build, name in (
        (random_list_instance, "ddconc"),
        (random_sequence_instance, "ddseqc"),
        (random_anonymity_instance, "dda"),
    ):
        for _ in range(200):
            inst = build(rng, max_n=6, max_budget=4, component_cap=3)
            counts[name] += 1
            mine = solve(inst)
            reference = brute_force_graph(inst, max_vertices=6, max_budget=4)
            assert (mine is None) == (reference is None), inst
            if mine is not None:
                assert verify_solution(inst, mine)
    assert all(count >= 200 for count in counts.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(f"04 graph-oracle-equivalence ({sum(counts.values())} instances)", elapsed)


def test_criterion_05_number_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(555)
    # Exhaustive slice for the list-constrained solver at n = 1.
    small_pairs = [(a, b) for a in range(3) for b in range(3)]
    for entry in small_pairs:
        sigma = DegreeSequence([entry])
        for size in (1, 2):
            for chosen in combinations(small_pairs, size):
                lists = DegreeListFunction([list(chosen)])
                for s in range(0, 4):
                    fast = solve_nddcc(sigma, s, lists)
                    slow = brute_force_nddcc(sigma, s, lists)
                    assert (fast is None) == (slow is None)
    # Randomized sweeps at the stated caps.
    for _ in range(400):
        n = rng.randint(1, 5)
        sigma = DegreeSequence(
            [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
        )
        lists = DegreeListFunction(
            [
                {
                    (rng.randint(0, 4), rng.randint(0, 4))
                    for _ in range(rng.randint(1, 4))
                }
                for _ in range(n)
            ],
            bound=4,
        )
        s = rng.randint(0, 6)
        assert (solve_nddcc(sigma, s, lists) is None) == (
            brute_force_nddcc(sigma, s, lists) is None
        )
    for _ in range(250):
        n = rng.randint(1, 7)
        sigma = DegreeSequence(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
        )
        phi = DegreeSequence(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
        )
        assert (solve_nddsc(sigma, phi) is None) == (
            brute_force_nddsc(sigma, phi) is None
        )
    for _ in range(250):
        n = rng.randint(1, 6)
        sigma = DegreeSequence(
            [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
        )
        s = rng.randint(0, 5)
        k = rng.randint(1, 4)
        cap = sigma.max_component + rng.randint(0, 3)
        assert (solve_nda(sigma, s, k, cap) is None) == (
            brute_force_nda(sigma, s, k, cap) is None
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("05 number-oracle-equivalence", elapsed)


def test_criterion_06_realization_guarantee():
    start = time.perf_counter()
    rng = random.Random(606)
    for _ in range(500):
        d, demands, cap = realization_case(rng, max_n=40)
        arcs = realize_demands(d, demands, cap)
        assert len(arcs) == demands.total_in
        assert not (arcs & d.arcs)
        assert apply_demands(d, demands, arcs)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("06 realization-guarantee (500 cases)", elapsed)


def _kernel_cases_list(rng):
    n = rng.randint(6, 12)
    d = bounded_digraph(rng, n, max_degree=1, density=0.1)
    pairs = [(0, 0), (1, 1), (0, 1), (1, 0), (2, 1), (1, 2)]
    shared = [rng.choice(pairs) for _ in range(rng.randint(1, 2))]
    lists = []
    for v in range(n):
        entries = set(shared)
        if rng.random() < 0.7:
            entries.add(tuple(d.degree(v)))
        lists.append(sorted(entries))
    from arcfill import ListCompletion

    return ListCompletion(d, rng.randint(1, 2), DegreeListFunction(lists))


def _kernel_cases_sequence(rng):
    from arcfill import SequenceCompletion

    n = rng.randint(9, 12)
    d = bounded_digraph(rng, n, max_degree=1, density=0.04)
    extras = rng.sample(d.non_arcs(), rng.randint(1, 2))
    grown = Digraph(n, list(d.arcs) + extras)
    entries = [tuple(grown.degree(v)) for v in range(n)]
    rng.shuffle(entries)
    if rng.random() < 0.25:
        v = rng.randrange(n)
        entries[v] = (entries[v][0] + 1, entries[v][1])
    return SequenceCompletion(d, DegreeSequence(entries))


def _kernel_cases_anonymity(rng):
    style = rng.randrange(3)
    if style == 0:
        d = Digraph(rng.randint(7, 12))
        return AnonymityCompletion(d, rng.randint(1, 14), rng.randint(1, 2))
    if style == 1:
        d = bounded_digraph(rng, rng.randint(33, 38), max_degree=1, density=0.06)
        return AnonymityCompletion(d, rng.randint(1, 10), 1)
    d = bounded_digraph(rng, rng.randint(4, 8), max_degree=2)
    return AnonymityCompletion(d, rng.randint(1, 4), rng.randint(1, 2))


def test_criterion_07_kernel_equivalence_and_bounds():
    start = time.perf_counter()
    rng = random.Random(707)
    totals = Counter()
    reduced = Counter()
    for _ in range(100):
        inst = _kernel_cases_list(rng)
        cap = inst.degree_cap()
        totals["ddconc"] += 1
        result = kernelize_ddconc(inst.digraph, inst.budget, inst.allowed, cap)
        original = brute_force_graph(inst, max_vertices=12, max_budget=2)
        if result.verdict is KernelVerdict.TRIVIAL_NO:
            assert original is None
            continue
        if result.verdict is KernelVerdict.TRIVIAL_YES:
            assert original is not None
            continue
        kernel_answer = brute_force_graph(
            result.instance, max_vertices=12, max_budget=2
        )
        assert (kernel_answer is None) == (original is None)
        if result.verdict is KernelVerdict.REDUCED:
            reduced["ddconc"] += 1
            alpha = 2 * inst.budget * (inst.digraph.max_degree + 1)
            assert (
                result.instance.digraph.n
                <= 2 * inst.budget + (cap + 1) ** 2 * alpha
            )
    for _ in range(100):
        inst = _kernel_cases_sequence(rng)
        totals["ddseqc"] += 1
        result = kernelize_ddseqc(inst.digraph, inst.target)
        original = brute_force_graph(inst, max_vertices=12, max_budget=4)
        if result.verdict is KernelVerdict.TRIVIAL_NO:
            assert original is None
            continue
        if result.verdict is KernelVerdict.TRIVIAL_YES:
            assert original is not None
            continue
        kernel_answer = brute_force_graph(
            result.instance, max_vertices=20, max_budget=4
        )
        assert (kernel_answer is None) == (original is None)
        if result.verdict is KernelVerdict.REDUCED:
            reduced["ddseqc"] += 1
            s = inst.implied_insertions()
            alpha = 2 * s * (inst.digraph.max_degree + 1)
            assert len(result.kept) <= alpha * (inst.digraph.max_degree + 1) ** 2
            assert len(result.added) == inst.target.max_component + 2
            kernel = result.instance.digraph
            for w in sorted(result.added):
                assert kernel.indegree(w) >= inst.target.max_component + 1
                assert kernel.outdegree(w) >= inst.target.max_component + 1
    for _ in range(100):
        inst = _kernel_cases_anonymity(rng)
        d, k, s = inst.digraph, inst.anonymity, inst.budget
        totals["dda"] += 1
        result = kernelize_dda(d, k, s)
        original = brute_force_graph(inst, max_vertices=38, max_budget=2)
        if result.verdict is KernelVerdict.TRIVIAL_NO:
            assert original is None
            continue
        if result.verdict is KernelVerdict.TRIVIAL_YES:
            assert original is not None
            continue
        kernel_answer = brute_force_graph(
            result.instance, max_vertices=90, max_budget=2
        )
        assert (kernel_answer is None) == (original is None)
        if result.verdict is KernelVerdict.REDUCED:
            reduced["dda"] += 1
            delta = d.max_degree
            beta = (delta + 2) * 2 * s
            assert result.instance.anonymity == min(k, beta)
            assert len(result.kept) <= (delta + 1) ** 2 * (beta + 2 * s)
            blocks_of: dict = {}
            for v in range(d.n):
                blocks_of.setdefault(d.degree(v), []).append(v)
            kept_by_block: dict = {}
            for orig in result.kept.values():
                kept_by_block.setdefault(d.degree(orig), []).append(orig)
            for pair, members in blocks_of.items():
                size = len(members)
                if min(k, beta) == k:
                    expected = min(size, beta + 2 * s)
                elif size <= 2 * s:
                    expected = size
                else:
                    expected = min(k, beta) + min(2 * s, size - k)
                assert len(kept_by_block.get(pair, [])) == expected
            kernel = result.instance.digraph
            floor = max(delta + s + 1, min(k, beta))
            for w in sorted(result.added):
                assert min(kernel.indegree(w), kernel.outdegree(w)) >= min(
                    delta + s + 1, floor
                )
    assert all(total >= 100 for total in totals.values())
    assert all(reduced[name] >= 10 for name in ("ddconc", "ddseqc", "dda"))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "07 kernel-equivalence "
        f"(reduced: {reduced['ddconc']}/{reduced['ddseqc']}/{reduced['dda']})",
        elapsed,
    )


def test_criterion_08_partition_operationalization():
    start = time.perf_counter()
    rng = random.Random(808)
    checked = 0
    while checked < 50:
        count = rng.randint(2, 10)
        values = [rng.randint(1, 6) for _ in range(count)]
        total = sum(values)
        if total % 2 or any(a >= total // 2 for a in values):
            continue
        checked += 1
        sigma, s, k = reduce_partition_to_nda(values)
        expected = any(
            sum(combo) == total // 2
            for r in range(len(values) + 1)
            for combo in combinations(values, r)
        )
        got = solve_nda(sigma, s, k, sigma.max_component) is not None
        assert got == expected, values
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("08 partition-reduction (50 multisets)", elapsed)


def test_criterion_09_lift_back_and_cli_verification(tmp_path):
    start = time.perf_counter()
    rng = random.Random(909)
    kernel_yes = 0
    cli_checked = 0
    for trial in range(60):
        build = (
            random_list_instance,
            random_sequence_instance,
            random_anonymity_instance,
        )[trial % 3]
        inst = build(rng, max_n=6, max_budget=3, component_cap=3)
        solution = solve(inst)
        if solution is None:
            continue
        assert verify_solution(inst, solution)
        # Replay the kernelized path explicitly and lift its answer back.
        if inst.kind == "ddconc":
            result = kernelize_ddconc(
                inst.digraph, inst.budget, inst.allowed, inst.degree_cap()
            )
        elif inst.kind == "ddseqc":
            result = kernelize_ddseqc(inst.digraph, inst.target)
        else:
            result = kernelize_dda(inst.digraph, inst.anonymity, inst.budget)
        if result.verdict in (KernelVerdict.REDUCED, KernelVerdict.UNCHANGED):
            inner = solve_bounded(result.instance)
            assert inner is not None
            lifted = lift_solution(result, inner.arcs)
            assert verify_solution(inst, Solution(tuple(lifted), {}))
            kernel_yes += 1
        # Every solve output re-verifies through the CLI verify subcommand.
        instance_path = tmp_path / f"inst{trial}.json"
        solution_path = tmp_path / f"sol{trial}.json"
        instance_path.write_text(emit_instance(inst))
        solution_path.write_text(emit_solution(inst, solution))
        out, err = io.StringIO(), io.StringIO()
        code = run(
            ["verify", "--input", str(instance_path), "--solution", str(solution_path)],
            out=out,
            err=err,
        )
        assert code == 0, err.getvalue()
        cli_checked += 1
    assert kernel_yes >= 10 and cli_checked >= 20
    elapsed = time.perf_counter() - start
    _report(
        f"09 lift-back-and-cli-verify ({kernel_yes} kernel paths, "
        f"{cli_checked} cli verifies)",
        elapsed,
    )


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    rng = random.Random(1010)
    for trial in range(15):
        build = (
            random_list_instance,
            random_sequence_instance,
            random_anonymity_instance,
        )[trial % 3]
        inst = build(rng, max_n=6, max_budget=3)
        assert solve(inst) == solve(inst)
    # Byte-identical files through the CLI, for both solving and generation.
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(emit_instance(sequence_example()))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for target in (first, second):
        code = run(
            ["solve", "--input", str(instance_path), "--output", str(target)],
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    gen_a, gen_b = tmp_path / "ga.json", tmp_path / "gb.json"
    for target in (gen_a, gen_b):
        code = run(
            [
                "gen", "--problem", "dda", "--vertices", "6",
                "--seed", "31", "--output", str(target),
            ],
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert code == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()
    elapsed = time.perf_counter() - start
    _report("10 determinism", elapsed)
