import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    ListCompletion,
    SequenceCompletion,
    brute_force_graph,
    dda_delta_star_cap,
    degree_sequence,
    solve,
    solve_bounded,
    verify_solution,
)
from arcfill import search
from arcfill.cli import generate_instance
from arcfill.search import Solution
from conftest import (
    add_arcs,
    anonymity_example,
    bounded_digraph,
    list_example_no,
    list_example_yes,
    random_anonymity_instance,
    random_list_instance,
    random_sequence_instance,
    sequence_example,
    uniform_lists,
)


def test_sequence_fixture_solved_with_one_arc():
    inst = sequence_example()
    solution = solve(inst)
    assert solution is not None and len(solution.arcs) == 1
    final = degree_sequence(add_arcs(inst.digraph, solution.arcs))
    assert final.as_multiset() == Counter({(0, 3): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1})


def test_anonymity_fixture_solved_with_one_arc():
    inst = anonymity_example(k=7, budget=1)
    solution = solve(inst)
    assert solution is not None and len(solution.arcs) == 1
    final = degree_sequence(add_arcs(inst.digraph, solution.arcs))
    assert all(pair == (1, 1) for pair in final)
    assert solve(anonymity_example(k=2, budget=0)) is None


def test_list_fixtures():
    yes = solve(list_example_yes())
    assert yes is not None and len(yes.arcs) == 1
    assert yes.arcs[0][1] == 1  # the single arc points into the middle vertex
    assert solve(list_example_no()) is None


def test_zero_budget_decides_by_current_state():
    d = Digraph(2, [(0, 1)])
    ok = ListCompletion(d, 0, DegreeListFunction([[(0, 1)], [(1, 0)]]))
    assert solve(ok) is not None and solve(ok).arcs == ()
    bad = ListCompletion(d, 0, DegreeListFunction([[(1, 1)], [(1, 0)]]))
    assert solve(bad) is None
    assert solve(SequenceCompletion(d, degree_sequence(d))).arcs == ()
    assert solve(AnonymityCompletion(d, 1, 0)).arcs == ()


def test_dda_delta_star_cap_examples():
    assert dda_delta_star_cap(Digraph(101), 1, 100) == 16
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    assert dda_delta_star_cap(two_cycle, 2, 1) == 2
    d = Digraph(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1)])
    assert d.max_degree == 2
    assert dda_delta_star_cap(d, 3, 500) == 194


def test_solve_bounded_on_fixtures():
    assert solve_bounded(list_example_yes()) is not None
    assert solve_bounded(list_example_no()) is None
    any_graph = Digraph(3, [(0, 1)])
    trivial = solve_bounded(AnonymityCompletion(any_graph, 1, 0))
    assert trivial is not None and trivial.arcs == ()


def test_solve_bounded_without_a_size_budget_is_a_no():
    # Indegrees that sum to 1 and outdegrees that sum to 0 fix no arc count.
    inst = SequenceCompletion(Digraph(2), DegreeSequence([(1, 0), (0, 0)]))
    assert inst.size_budget() is None
    assert solve_bounded(inst) is None


def test_solve_bounded_survives_low_recursion_limit():
    # The first 100 sorted pairs are the first subset of size 100 tried, so
    # the search answers at once; a recursive search would need depth 100.
    script = textwrap.dedent(
        """
        import sys
        from arcfill import Digraph, SequenceCompletion, degree_sequence
        from arcfill import solve_bounded

        pairs = sorted((u, v) for u in range(12) for v in range(12) if u != v)
        target = degree_sequence(Digraph(12, pairs[:100]))
        sys.setrecursionlimit(80)
        found = solve_bounded(SequenceCompletion(Digraph(12), target))
        print(found is not None and list(found.arcs) == pairs[:100])
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_search_with_size_floor_matches_bruteforce():
    # The search starts at each problem's size floor; below the threshold
    # it must still return the oracle's canonical minimal witness.
    rng = random.Random(2024)
    for build in (
        random_list_instance,
        random_sequence_instance,
        random_anonymity_instance,
    ):
        for _ in range(300):
            inst = build(rng, max_n=6, max_budget=4, component_cap=3)
            s = inst.size_budget()
            if s is not None and s > 2 * inst.degree_cap() ** 2:
                continue
            mine = solve(inst)
            reference = brute_force_graph(inst)
            assert (mine is None) == (reference is None), inst
            if mine is not None:
                assert mine.arcs == reference.arcs, inst
            if reference is not None:
                assert len(reference.arcs) >= inst.size_floor(), inst


def test_anonymity_floor_is_the_anonymity_and_gap_rule():
    # Every block of b < k vertices must empty or fill up to k, so the floor
    # is above 0 exactly when the digraph is not k-anonymous.  It weighs all
    # such blocks together, so it is never below the per-block count
    # ceil(min(b, k - b) / 2), and a block sized strictly between 2s and
    # k - 2s puts it above s.
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 16)
        d = bounded_digraph(rng, n, 2, density=rng.random() * 0.2)
        inst = AnonymityCompletion(d, rng.randint(1, n + 1), rng.randint(0, 3))
        k, s = inst.anonymity, inst.budget
        sizes = degree_sequence(d).as_multiset().values()
        floor = inst.size_floor()
        assert (floor > 0) != degree_sequence(d).is_k_anonymous(k), inst
        if any(2 * s < b < k - 2 * s for b in sizes):
            assert floor > s, inst
        per_block = [(min(b, k - b) + 1) // 2 for b in sizes if b < k]
        assert floor >= max(per_block, default=0), inst


def test_list_vertex_without_dominating_pair_is_not_searched(monkeypatch):
    # Vertex 0 already has outdegree 1, and its only listed pair has 0, so
    # no insertion can satisfy it and no subset may be tried.
    inst = ListCompletion(
        Digraph(3, [(0, 1)]),
        3,
        DegreeListFunction([[(0, 0)], [(1, 0)], [(0, 0), (1, 1)]]),
    )
    tried = []
    monkeypatch.setattr(search, "combinations", lambda *a: tried.append(a) or ())
    assert search.solve_bounded(inst) is None
    assert tried == []


def test_list_type_above_the_budget_needs_no_representative(monkeypatch):
    # Vertex 2 is satisfied, and its one other listed pair needs two more
    # out-arcs, more than the budget of 1 allows; vertex 3 is the one
    # unsatisfied vertex, so no pair is left to search.
    inst = ListCompletion(
        Digraph(4, [(0, 1)]),
        1,
        DegreeListFunction([[(0, 1)], [(1, 0)], [(0, 0), (0, 2)], [(1, 0)]]),
    )
    tried = []
    monkeypatch.setattr(search, "combinations", lambda *a: tried.append(a) or ())
    assert search.solve_bounded(inst) is None
    assert tried == []


def test_anonymity_quota_uses_the_max_degree_inside_the_set(monkeypatch):
    # Tails 0..7 point at heads 24..17 and 8..16 are isolated.  At budget 1
    # the first set keeps 4 vertices per degree block and no arc joins two
    # of them, so the quota drops to 2 per block: 6 vertices, 30 pairs.
    d = Digraph(25, [(i, 24 - i) for i in range(8)])
    sizes = []
    subsets = search.combinations

    def counting(pairs, size):
        sizes.append(len(pairs))
        return subsets(pairs, size)

    monkeypatch.setattr(search, "combinations", counting)
    inst = AnonymityCompletion(d, 9, 1)
    assert search.solve_bounded(inst) is None
    # The 9 isolated vertices reach k = 9, and each block of 8 fills with
    # one joiner at distance 1, so the size floor of 1 skips the empty set
    # and leaves size 1 to the search.
    assert inst.size_floor() == 1
    assert sizes == [30]


def test_sequence_large_budget_goes_through_matching_and_flow():
    # Implied budget 8 exceeds twice the squared cap (cap is 1), so the
    # degree-sequence route must fire and realization must succeed.
    inst = SequenceCompletion(Digraph(8), DegreeSequence([(1, 1)] * 8))
    solution = solve(inst)
    assert solution is not None and len(solution.arcs) == 8
    assert verify_solution(inst, solution)


def test_sequence_large_budget_matching_no_skips_the_search(monkeypatch):
    # Implied budget 9 exceeds 2 * 2**2.  Vertices 0 and 3 have outdegree 2,
    # but only one target entry does, so the matching fails, and with the
    # size forced there is nothing left to search.
    matchings = []
    original = search.solve_nddsc

    def matched(*args):
        matchings.append(original(*args))
        return matchings[-1]

    def searched(instance):
        raise AssertionError("solve_bounded must not run")

    monkeypatch.setattr(search, "solve_nddsc", matched)
    monkeypatch.setattr(search, "solve_bounded", searched)
    d = Digraph(12, [(0, 1), (0, 2), (3, 4), (3, 5)])
    inst = SequenceCompletion(d, DegreeSequence([(2, 2)] + [(1, 1)] * 11))
    assert inst.implied_insertions() == 9 and inst.degree_cap() == 2
    assert solve(inst) is None
    assert matchings == [None]


def test_list_large_budget_goes_through_dp_and_flow():
    inst = ListCompletion(Digraph(10), 12, uniform_lists(10, [(1, 1)]))
    solution = solve(inst)
    assert solution is not None and len(solution.arcs) == 10
    assert verify_solution(inst, solution)


def test_list_large_budget_runs_one_dp_pass(monkeypatch):
    # Budgets 3..12 lie above the threshold 2 * 1**2; one DP pass covers all.
    calls = []
    original = search.solve_nddcc

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search, "solve_nddcc", counted)
    inst = ListCompletion(Digraph(10), 12, uniform_lists(10, [(1, 1)]))
    assert solve(inst) is not None
    assert len(calls) == 1


def test_list_large_budget_exact_totals():
    # Reaching (2, 2) everywhere costs exactly 20 arcs: budget 20 goes
    # through the number route, budget 12 correctly fails every trial
    # budget and the shrunken bounded search settles the no.
    lists = uniform_lists(10, [(2, 2)])
    feasible = ListCompletion(Digraph(10), 20, lists)
    solution = solve(feasible)
    assert solution is not None and len(solution.arcs) == 20
    assert verify_solution(feasible, solution)
    assert solve(ListCompletion(Digraph(10), 12, lists)) is None


def test_list_unrealizable_pairs_are_ignored():
    # (3, 3) cannot exist on three vertices; the clamp must not block the
    # remaining achievable pair.
    inst = ListCompletion(
        Digraph(3), 9, uniform_lists(3, [(2, 2), (3, 3)])
    )
    got = solve(inst)
    assert got is not None and len(got.arcs) == 6  # complete digraph on 3
    assert verify_solution(inst, got)


def test_anonymity_large_budget_loop_settles():
    # Budget beyond the anonymity cap: number route rejects, search shrinks
    # the budget to the threshold and answers from the small-budget side.
    inst = AnonymityCompletion(Digraph(24), 1, 513)
    solution = solve(inst)
    assert solution is not None and solution.arcs == ()


def _above_threshold_draws(count: int):
    """Seeded ddconc and dda draws whose budget exceeds 2 * cap**2."""
    found = []
    for seed in range(10 * count):
        rng = random.Random(seed)
        kind = ("ddconc", "dda")[seed % 2]
        if kind == "dda":
            # The dda cap is at least 16, so only large, sparse inputs with
            # budgets in the hundreds or thousands get above the threshold.
            n, density, budget = rng.randint(18, 60), rng.choice([0, 0.002]), 4000
        else:
            n, density, budget = rng.randint(2, 30), rng.random() * 0.3, 600
        inst = generate_instance(
            kind, rng, n, density, rng.randint(0, budget), anonymity=rng.randint(1, 2)
        )
        work = inst.at_budget(inst.size_budget())
        cap = work.degree_cap()
        if work.size_budget() > 2 * cap * cap:
            found.append((inst, cap))
            if len(found) == count:
                return found
    raise AssertionError(f"only {len(found)} above-threshold draws")


def test_number_route_runs_once_and_keeps_the_cap(monkeypatch):
    # solve tries the number route once; if it fails, the search runs at a
    # budget of at most 2 * cap**2 with the same cap.  The search is stubbed out, since
    # at that budget it can take minutes.
    numbered = []
    searched = []
    for kind, (number_step, kernel_step) in list(search._STEPS.items()):

        def counted(work, *args, number_step=number_step):
            numbered.append(work.kind)
            return number_step(work, *args)

        monkeypatch.setitem(search._STEPS, kind, (counted, kernel_step))
    monkeypatch.setattr(search, "solve_bounded", lambda work: searched.append(work))
    draws = _above_threshold_draws(160)
    kinds = Counter(inst.kind for inst, _ in draws)
    assert kinds["ddconc"] >= 100 and kinds["dda"] >= 20
    for inst, cap in draws:
        threshold = 2 * cap * cap
        assert inst.at_budget(threshold).degree_cap() == cap
        numbered.clear()
        searched.clear()
        solve(inst)
        assert numbered == [inst.kind]
        for work in searched:
            assert work.size_budget() <= threshold
            assert work.degree_cap() == cap


def test_monotone_in_budget():
    rng = random.Random(17)
    for _ in range(25):
        inst = random_list_instance(rng, max_n=5, max_budget=3)
        if solve(inst) is not None:
            bigger = ListCompletion(inst.digraph, inst.budget + 1, inst.allowed)
            assert solve(bigger) is not None
        anon = random_anonymity_instance(rng, max_n=5, max_budget=3)
        if solve(anon) is not None:
            bigger = AnonymityCompletion(
                anon.digraph, anon.anonymity, anon.budget + 1
            )
            assert solve(bigger) is not None


def test_identical_inputs_identical_solutions():
    rng = random.Random(29)
    for _ in range(20):
        inst = random_list_instance(rng, max_n=5)
        assert solve(inst) == solve(inst)
        seq = random_sequence_instance(rng, max_n=5)
        assert solve(seq) == solve(seq)
        anon = random_anonymity_instance(rng, max_n=5)
        assert solve(anon) == solve(anon)


def test_verify_solution_examples():
    inst = sequence_example()
    assert verify_solution(inst, Solution(((3, 0),), {}))
    existing = Solution(((0, 1),), {})
    assert not verify_solution(inst, existing)
    assert not verify_solution(anonymity_example(k=7, budget=1), Solution((), {}))


def test_certificates_record_checks():
    solution = solve(sequence_example())
    assert solution.certificate == {
        "arcs_insertable": True,
        "within_budget": True,
        "target_sequence_matched": True,
    }
    anonymous = solve(anonymity_example(k=7, budget=1))
    assert anonymous.certificate["anonymity_reached"]
    listy = solve(list_example_yes())
    assert listy.certificate["degree_lists_satisfied"]


def test_end_to_end_matches_bruteforce_sample():
    rng = random.Random(1001)
    for _ in range(40):
        for build in (
            random_list_instance,
            random_sequence_instance,
            random_anonymity_instance,
        ):
            inst = build(rng, max_n=5, max_budget=3)
            mine = solve(inst)
            reference = brute_force_graph(inst)
            assert (mine is None) == (reference is None), inst
            if mine is not None:
                assert verify_solution(inst, mine)


def test_end_to_end_matches_bruteforce_seven_vertices():
    rng = random.Random(1002)
    for _ in range(15):
        for build in (
            random_list_instance,
            random_sequence_instance,
            random_anonymity_instance,
        ):
            inst = build(rng, max_n=7, max_budget=2)
            mine = solve(inst)
            reference = brute_force_graph(inst, max_vertices=7, max_budget=5)
            assert (mine is None) == (reference is None), inst


def test_sequence_reduced_kernel_path_finds_solution():
    # Ten interchangeable isolated vertices collapse to two representatives;
    # the solution must come out of the reduced instance and lift back.
    d = Digraph(12)
    target = [(0, 0)] * 12
    target[3] = (0, 1)
    target[8] = (1, 0)
    inst = SequenceCompletion(d, DegreeSequence(target))
    solution = solve(inst)
    assert solution is not None and len(solution.arcs) == 1
    assert verify_solution(inst, solution)


def test_anonymity_reduced_kernel_path_finds_solution():
    # Sixteen 2-cycles plus a 3-vertex path: big enough to shrink, and the
    # only fix closes the path ends into the big degree block.
    arcs = []
    for i in range(16):
        arcs += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)]
    arcs += [(33, 32), (34, 33)]
    d = Digraph(35, arcs)
    inst = AnonymityCompletion(d, 3, 1)
    from arcfill import kernelize_dda
    from arcfill.kernel import KernelVerdict

    assert kernelize_dda(d, 3, 1).verdict is KernelVerdict.REDUCED
    solution = solve(inst)
    assert solution is not None and solution.arcs == ((32, 34),)
    assert verify_solution(inst, solution)
    # One fewer than needed everywhere: k = n forces a no.
    assert solve(AnonymityCompletion(d, 36, 1)) is None


def test_self_check_survives_optimize_flag():
    """A failed certificate check raises even when ``python -O`` strips asserts."""
    script = textwrap.dedent(
        """
        import sys
        import arcfill.search as search
        from arcfill import AnonymityCompletion, Digraph

        if __debug__:
            sys.exit("expected to run under -O")
        search.build_certificate = lambda instance, arcs: {"arcs_insertable": False}
        digraph = Digraph(7, [(0, 1), (1, 0), (2, 3), (3, 2), (5, 4), (6, 5)])
        try:
            search.solve(AnonymityCompletion(digraph, 7, 1))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            sys.exit("an invalid solution was returned")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "raised: solver produced an invalid solution" in done.stdout
