import random

import pytest

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    KernelVerdict,
    ListCompletion,
    SequenceCompletion,
    TrivialNoReason,
    brute_force_graph,
    compute_alpha_set,
    degree_sequence,
    kernelize_dda,
    kernelize_ddconc,
    kernelize_ddseqc,
    lift_solution,
    reduce_trivial_no,
    solve,
    verify_solution,
)
from arcfill.search import Solution
from conftest import (
    anonymity_example,
    bounded_digraph,
    list_example_no,
    random_anonymity_instance,
    random_list_instance,
    random_sequence_instance,
    uniform_lists,
)


def test_alpha_set_satisfied_vertex_without_types_is_dropped():
    d = Digraph(1)
    lists = DegreeListFunction([[(0, 0)]])
    assert compute_alpha_set(d, lists, 1, cap=1) == set()


def test_alpha_set_takes_lowest_indices_up_to_quota():
    d = Digraph(3)
    lists = uniform_lists(3, [(0, 0), (1, 0)])
    assert compute_alpha_set(d, lists, 2, cap=1) == {0, 1}


def test_alpha_set_always_contains_unsatisfied():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_list_instance(rng)
        d, lists = inst.digraph, inst.allowed
        for tau in (None, lists):
            chosen = compute_alpha_set(d, tau, 2, cap=3)
            if tau is not None:
                for v in range(d.n):
                    if d.degree(v) not in lists[v]:
                        assert v in chosen


def test_alpha_set_block_quota_is_exact():
    d = Digraph(6)
    assert compute_alpha_set(d, None, 2) == {0, 1}


def test_reduce_trivial_no():
    d = Digraph(3)
    happy = uniform_lists(3, [(0, 0)])
    assert reduce_trivial_no(d, 1, happy, 2) is None
    sad = uniform_lists(3, [(1, 1)])
    assert (
        reduce_trivial_no(d, 1, sad, 2)
        is TrivialNoReason.TOO_MANY_UNSATISFIED
    )
    star = Digraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    lists = DegreeListFunction(
        [[(0, 5)]] + [[(1, 0)]] * 5, bound=5
    )
    assert (
        reduce_trivial_no(star, 1, lists, 4)
        is TrivialNoReason.DEGREE_EXCEEDS_CAP
    )


def test_kernelize_ddconc_zero_budget_paths():
    d = Digraph(2, [(0, 1)])
    good = DegreeListFunction([[(0, 1)], [(1, 0)]])
    assert kernelize_ddconc(d, 0, good, 1).verdict is KernelVerdict.TRIVIAL_YES
    bad = DegreeListFunction([[(1, 1)], [(1, 0)]])
    assert kernelize_ddconc(d, 0, bad, 1).verdict is KernelVerdict.TRIVIAL_NO


def test_kernelize_ddconc_unchanged_when_everything_kept():
    inst = list_example_no()
    result = kernelize_ddconc(
        inst.digraph, inst.budget, inst.allowed, inst.degree_cap()
    )
    # The satisfied left vertex has no nonzero type, so it is dropped.
    assert result.verdict is KernelVerdict.REDUCED
    assert sorted(result.kept.values()) == [1, 2]
    tiny = ListCompletion(
        Digraph(2), 1, uniform_lists(2, [(0, 0), (0, 1), (1, 0)])
    )
    unchanged = kernelize_ddconc(
        tiny.digraph, tiny.budget, tiny.allowed, tiny.degree_cap()
    )
    assert unchanged.verdict is KernelVerdict.UNCHANGED
    assert unchanged.instance == tiny


def test_kernelize_ddconc_no_instance_stays_no():
    inst = list_example_no()
    result = kernelize_ddconc(
        inst.digraph, inst.budget, inst.allowed, inst.degree_cap()
    )
    assert brute_force_graph(result.instance) is None


def _engineered_list_instances(rng: random.Random):
    # Many interchangeable satisfied vertices force actual reduction.
    n = rng.randint(8, 12)
    d = bounded_digraph(rng, n, max_degree=1, density=0.1)
    pairs = [(0, 0), (1, 1), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]
    shared = [rng.choice(pairs) for _ in range(rng.randint(1, 2))]
    lists = []
    for v in range(n):
        entries = set(shared)
        if rng.random() < 0.7:
            entries.add(tuple(d.degree(v)))
        lists.append(sorted(entries))
    return ListCompletion(d, rng.randint(1, 2), DegreeListFunction(lists))


def test_kernelize_ddconc_equivalence_and_bound():
    rng = random.Random(11)
    reduced_seen = 0
    for trial in range(80):
        if trial % 2:
            inst = random_list_instance(rng)
        else:
            inst = _engineered_list_instances(rng)
        cap = inst.degree_cap()
        result = kernelize_ddconc(inst.digraph, inst.budget, inst.allowed, cap)
        original = brute_force_graph(inst, max_vertices=12, max_budget=4)
        if result.verdict is KernelVerdict.TRIVIAL_NO:
            assert original is None
            continue
        if result.verdict is KernelVerdict.TRIVIAL_YES:
            assert original is not None
            continue
        kernel_answer = brute_force_graph(
            result.instance, max_vertices=14, max_budget=4
        )
        assert (kernel_answer is None) == (original is None)
        if result.verdict is KernelVerdict.REDUCED:
            reduced_seen += 1
            s = inst.budget
            alpha = 2 * s * (inst.digraph.max_degree + 1)
            assert result.instance.digraph.n <= 2 * s + (cap + 1) ** 2 * alpha
        if kernel_answer is not None:
            lifted = lift_solution(result, kernel_answer.arcs)
            assert verify_solution(inst, Solution(tuple(lifted), {}))
    assert reduced_seen >= 10


def test_kernelize_ddseqc_trivial_cases():
    d = Digraph(3, [(0, 1)])
    same = kernelize_ddseqc(d, degree_sequence(d))
    assert same.verdict is KernelVerdict.TRIVIAL_YES
    too_low = kernelize_ddseqc(d, DegreeSequence([(0, 0), (0, 0), (0, 0)]))
    assert too_low.verdict is KernelVerdict.TRIVIAL_NO
    assert too_low.reason is TrivialNoReason.TARGET_MAX_TOO_SMALL
    unbalanced = kernelize_ddseqc(d, DegreeSequence([(0, 1), (2, 0), (0, 0)]))
    assert unbalanced.verdict is KernelVerdict.TRIVIAL_NO


def test_kernelize_ddseqc_block_shrinks_too_much():
    # Three (1, 1) vertices but no (1, 1) target entry, and the target forces
    # zero insertions, so no vertex can leave the block.
    d = Digraph(6, [(0, 1), (1, 2), (2, 0)])
    inst = SequenceCompletion(d, DegreeSequence([(2, 1), (1, 2)] + [(0, 0)] * 4))
    result = kernelize_ddseqc(inst.digraph, inst.target)
    assert result.verdict is KernelVerdict.TRIVIAL_NO
    assert result.reason is TrivialNoReason.BLOCK_SHRINKS_TOO_MUCH
    assert solve(inst) is None
    assert brute_force_graph(inst) is None


def test_kernelize_ddseqc_dummy_separation():
    # Large block of isolated vertices forces a genuine reduction.
    d = Digraph(12)
    target = [(0, 0)] * 12
    target[0] = (0, 1)
    target[1] = (1, 0)
    result = kernelize_ddseqc(d, DegreeSequence(target))
    assert result.verdict is KernelVerdict.REDUCED
    kernel = result.instance.digraph
    floor = DegreeSequence(target).max_component + 1
    for w in sorted(result.added):
        assert kernel.indegree(w) >= floor
        assert kernel.outdegree(w) >= floor
    assert len(result.added) == DegreeSequence(target).max_component + 2


def test_kernelize_ddseqc_equivalence():
    rng = random.Random(23)
    reduced_seen = 0
    for trial in range(80):
        if trial % 2:
            inst = random_sequence_instance(rng)
        else:
            # Near-empty graph with a big block and a small implied budget.
            n = rng.randint(8, 12)
            d = bounded_digraph(rng, n, max_degree=1, density=0.05)
            extras = rng.sample(d.non_arcs(), rng.randint(1, 2))
            grown = Digraph(n, list(d.arcs) + extras)
            entries = [tuple(grown.degree(v)) for v in range(n)]
            rng.shuffle(entries)
            inst = SequenceCompletion(d, DegreeSequence(entries))
        result = kernelize_ddseqc(inst.digraph, inst.target)
        original = brute_force_graph(inst, max_vertices=12, max_budget=5)
        if result.verdict is KernelVerdict.TRIVIAL_NO:
            assert original is None
            continue
        if result.verdict is KernelVerdict.TRIVIAL_YES:
            assert original is not None
            continue
        kernel_answer = brute_force_graph(
            result.instance, max_vertices=20, max_budget=5
        )
        assert (kernel_answer is None) == (original is None)
        if result.verdict is KernelVerdict.REDUCED:
            reduced_seen += 1
            s = inst.size_budget()
            alpha = 2 * s * (inst.digraph.max_degree + 1)
            blocks_bound = (inst.digraph.max_degree + 1) ** 2
            kept_count = len(result.kept)
            assert kept_count <= alpha * blocks_bound
            assert len(result.added) == inst.target.max_component + 2
        if kernel_answer is not None:
            lifted = lift_solution(result, kernel_answer.arcs)
            assert verify_solution(inst, Solution(tuple(lifted), {}))
    assert reduced_seen >= 3


def test_kernelize_dda_small_instance_unchanged():
    inst = anonymity_example()
    result = kernelize_dda(inst.digraph, inst.anonymity, inst.budget)
    assert result.verdict is KernelVerdict.UNCHANGED
    assert result.instance == inst


def test_kernelize_dda_zero_budget():
    d = Digraph(7, [(0, 1), (1, 0), (2, 3), (3, 2), (5, 4), (6, 5)])
    assert kernelize_dda(d, 1, 0).verdict is KernelVerdict.TRIVIAL_YES
    assert kernelize_dda(d, 2, 0).verdict is KernelVerdict.TRIVIAL_NO


def test_kernelize_dda_block_size_gap_is_no():
    # 40 isolated vertices: block of 40; plus a block of 5 in the gap for
    # k = 12, s = 1 (2 < 5 < 10).
    arcs = [(u, u + 1) for u in range(40, 45)]
    d = Digraph(46, arcs)
    result = kernelize_dda(d, 12, 1)
    assert result.verdict is KernelVerdict.TRIVIAL_NO
    assert result.reason is TrivialNoReason.BLOCK_SIZE_GAP


def _dda_reduced_case():
    # 17 two-cycles plus 8 isolated vertices: large enough to reduce at
    # k = 10, s = 1 with input max degree 1.
    arcs = []
    for i in range(17):
        arcs += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)]
    return Digraph(42, arcs)


def test_kernelize_dda_shrinks_anonymity_level():
    d = _dda_reduced_case()
    result = kernelize_dda(d, 10, 1)
    assert result.verdict is KernelVerdict.REDUCED
    assert result.instance.anonymity == 6  # min(k, (max_degree + 2) * 2s)
    # Retention per block: cycle block 34 -> k' + min(2s, 34 - 10) = 8,
    # isolated block 8 -> k' + min(2s, 8 - 10) = 4.
    kept_original = sorted(result.kept.values())
    cycle_kept = [v for v in kept_original if d.degree(v) == (1, 1)]
    isolated_kept = [v for v in kept_original if d.degree(v) == (0, 0)]
    assert len(cycle_kept) == 8 and cycle_kept == list(range(8))
    assert len(isolated_kept) == 4


def test_kernelize_dda_repair_separation_and_counts():
    rng = random.Random(31)
    reduced_seen = 0
    for trial in range(60):
        if trial % 3 == 0:
            n = rng.randint(7, 12)
            d = Digraph(n)
            k, s = rng.randint(1, n + 4), rng.randint(1, 2)
        elif trial % 3 == 1:
            d = bounded_digraph(rng, rng.randint(33, 40), max_degree=1, density=0.08)
            k, s = rng.randint(1, 12), 1
        else:
            inst = random_anonymity_instance(rng)
            d, k, s = inst.digraph, inst.anonymity, max(1, inst.budget)
        result = kernelize_dda(d, k, s)
        delta = d.max_degree
        beta = (delta + 2) * 2 * s
        if result.verdict is not KernelVerdict.REDUCED:
            continue
        reduced_seen += 1
        kernel = result.instance.digraph
        assert result.instance.anonymity == min(k, beta)
        assert len(result.kept) <= (delta + 1) ** 2 * (beta + 2 * s)
        floor = max(delta + s + 1, min(k, beta))
        for w in sorted(result.added):
            assert kernel.indegree(w) >= floor or kernel.outdegree(w) >= floor
            assert min(kernel.indegree(w), kernel.outdegree(w)) >= min(
                delta + s + 1, floor
            )
        # Per-block retention matches the case split exactly.
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
            assert kept_by_block.get(pair, []) == sorted(members)[:expected]
    assert reduced_seen >= 10


def test_kernelize_dda_equivalence():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(7, 12)
        d = Digraph(n)
        k = rng.randint(1, n + 3)
        s = rng.randint(1, 2)
        result = kernelize_dda(d, k, s)
        inst = AnonymityCompletion(d, k, s)
        original = brute_force_graph(inst, max_vertices=12, max_budget=2)
        if result.verdict is KernelVerdict.TRIVIAL_NO:
            assert original is None
            continue
        if result.verdict is KernelVerdict.TRIVIAL_YES:
            assert original is not None
            continue
        kernel_answer = brute_force_graph(
            result.instance, max_vertices=30, max_budget=2
        )
        assert (kernel_answer is None) == (original is None)
    # The engineered shrink case is a no on both sides.
    d = _dda_reduced_case()
    result = kernelize_dda(d, 10, 1)
    kernel_answer = brute_force_graph(result.instance, max_vertices=30, max_budget=1)
    original = brute_force_graph(
        AnonymityCompletion(d, 10, 1), max_vertices=42, max_budget=1
    )
    assert kernel_answer is None and original is None


def test_lift_solution_paths():
    inst = anonymity_example()
    unchanged = kernelize_dda(inst.digraph, inst.anonymity, inst.budget)
    assert lift_solution(unchanged, [(4, 6)]) == {(4, 6)}
    assert lift_solution(unchanged, []) == set()
    d = Digraph(12)
    target = [(0, 0)] * 12
    target[0] = (0, 1)
    target[1] = (1, 0)
    reduced = kernelize_ddseqc(d, DegreeSequence(target))
    dummy = min(reduced.added)
    with pytest.raises(ValueError, match="touches a repair vertex"):
        lift_solution(reduced, [(0, dummy)])


def test_lift_solution_on_trivial_verdicts():
    d = Digraph(7, [(0, 1), (1, 0), (2, 3), (3, 2), (5, 4), (6, 5)])
    trivial_yes = kernelize_dda(d, 1, 0)
    assert trivial_yes.verdict is KernelVerdict.TRIVIAL_YES
    assert lift_solution(trivial_yes, []) == set()
    with pytest.raises(ValueError, match="empty solution"):
        lift_solution(trivial_yes, [(0, 2)])
    trivial_no = kernelize_dda(d, 2, 0)
    assert trivial_no.verdict is KernelVerdict.TRIVIAL_NO
    with pytest.raises(ValueError, match="no solutions to lift"):
        lift_solution(trivial_no, [])
