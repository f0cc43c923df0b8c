import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from arcfill import (
    Bijection,
    DegreeListFunction,
    DegreeSequence,
    ElementTooLargeError,
    LengthMismatchError,
    NegativeDemandError,
    OddSumError,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
    demands_from_solution,
    reduce_partition_to_nda,
    solve_nda,
    solve_nddcc,
    solve_nddsc,
)
from arcfill.oracle import satisfies_nda, satisfies_nddcc, satisfies_nddsc
from conftest import uniform_lists


def test_solve_nddcc_forced_unique_target():
    sol = solve_nddcc(DegreeSequence([(0, 0)]), 1, DegreeListFunction([[(1, 1)]]))
    assert sol is not None
    assert list(sol.target) == [(1, 1)]
    assert sol.demands.in_demand == (1,) and sol.demands.out_demand == (1,)


def test_solve_nddcc_no_allowed_move():
    assert solve_nddcc(DegreeSequence([(0, 0)]), 1, DegreeListFunction([[(0, 0)]])) is None


def test_solve_nddcc_splits_budget_across_entries():
    lists = uniform_lists(2, [(0, 0), (1, 0), (0, 1)])
    sol = solve_nddcc(DegreeSequence([(0, 0), (0, 0)]), 1, lists)
    assert sol is not None
    assert sorted(tuple(p) for p in sol.target) == [(0, 1), (1, 0)]
    assert satisfies_nddcc(DegreeSequence([(0, 0), (0, 0)]), 1, lists, sol)


def test_solve_nddcc_budget_two_single_entry_is_infeasible():
    # One entry moving to (1, 1) spends 1 per side; it can never spend 2.
    assert solve_nddcc(DegreeSequence([(0, 0)]), 2, DegreeListFunction([[(1, 1)]])) is None


def test_solve_nddcc_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(1, 5)
        sigma = DegreeSequence(
            [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
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
        fast = solve_nddcc(sigma, s, lists)
        slow = brute_force_nddcc(sigma, s, lists)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert satisfies_nddcc(sigma, s, lists, fast)


def test_solve_nddcc_lower_budget_takes_smallest_feasible_budget():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 6)
        sigma = DegreeSequence(
            [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
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
        s = rng.randint(0, 10)
        low = rng.randint(0, s)
        per_budget = next(
            (
                found
                for b in range(low, s + 1)
                if (found := solve_nddcc(sigma, b, lists)) is not None
            ),
            None,
        )
        assert solve_nddcc(sigma, s, lists, low) == per_budget
    one = DegreeSequence([(0, 0)])
    for low in (-1, 3):
        with pytest.raises(ValueError):
            solve_nddcc(one, 2, DegreeListFunction([[(1, 1)]]), low)


def test_solve_nddsc_identity_and_impossible():
    sigma = DegreeSequence([(1, 2), (0, 1)])
    assert solve_nddsc(sigma, sigma) is not None
    assert solve_nddsc(DegreeSequence([(1, 0)]), DegreeSequence([(0, 1)])) is None


def test_solve_nddsc_fixture_pair():
    sigma = DegreeSequence([(0, 1), (0, 2), (2, 0), (2, 1)])
    phi = DegreeSequence([(0, 3), (1, 1), (2, 0), (2, 1)])
    pi = solve_nddsc(sigma, phi)
    assert pi is not None
    assert satisfies_nddsc(sigma, phi, pi)


def test_solve_nddsc_length_mismatch():
    with pytest.raises(LengthMismatchError):
        solve_nddsc(DegreeSequence([(0, 0)]), DegreeSequence([(0, 0), (1, 1)]))


def test_bijection_value_semantics():
    pi = Bijection((1, 0, 2))
    same = Bijection((1, 0, 2))
    assert pi == same and hash(pi) == hash(same)
    assert pi != Bijection((0, 1, 2))
    assert pi.mapping == (1, 0, 2)
    assert len(pi) == 3
    assert pi[0] == 1 and pi[-1] == 2
    assert pi[1:] == (0, 2)
    assert list(pi) == [1, 0, 2]
    assert repr(pi) == "Bijection(mapping=(1, 0, 2))"
    with pytest.raises(ValueError, match="^mapping is not a permutation$"):
        Bijection((1, 2))


def test_solve_nddsc_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 6)
        sigma = DegreeSequence(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
        )
        phi = DegreeSequence(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
        )
        fast = solve_nddsc(sigma, phi)
        slow = brute_force_nddsc(sigma, phi)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert satisfies_nddsc(sigma, phi, fast)


def _naive_nddsc(sigma, phi):
    """Augmenting-path matching with a full row per entry and a fresh scan
    of that row in every frame."""
    n = len(sigma)
    rows = [[j for j in range(n) if phi[j].dominates(sigma[i])] for i in range(n)]
    match_right = [-1] * n

    def augment(i, seen):
        for j in rows[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] < 0 or augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    if not all(augment(i, [False] * n) for i in range(n)):
        return None
    mapping = [0] * n
    for j, i in enumerate(match_right):
        mapping[i] = j
    return tuple(mapping)


def test_solve_nddsc_matches_naive_matching():
    rng = random.Random(300)
    for _ in range(80):
        n = rng.randint(1, 300)
        pool = [
            (rng.randint(0, 4), rng.randint(0, 4))
            for _ in range(rng.randint(1, 16))
        ]
        sigma = DegreeSequence([rng.choice(pool) for _ in range(n)])
        phi = DegreeSequence(
            [
                (a + rng.choice((0, 0, 1, 2)), b + rng.choice((0, 0, 1, 2)))
                for (a, b) in (rng.choice(pool) for _ in range(n))
            ]
        )
        fast = solve_nddsc(sigma, phi)
        assert (None if fast is None else fast.mapping) == _naive_nddsc(sigma, phi)


def test_solve_nda_zero_budget_cases():
    doubled = DegreeSequence([(0, 0), (0, 0)])
    sol = solve_nda(doubled, 0, 2, 0)
    assert sol is not None and sol.target == doubled
    assert solve_nda(DegreeSequence([(0, 0), (1, 1)]), 0, 2, 1) is None


def test_solve_nda_on_an_empty_sequence():
    # With no entries, budget 0 gives the empty witness, and no other budget
    # can be spent.
    empty = DegreeSequence([])
    for s in (0, 1):
        fast = solve_nda(empty, s, 2, 0)
        slow = brute_force_nda(empty, s, 2, 0)
        assert (fast is None) == (slow is None) == (s == 1)
        if fast is not None:
            assert fast.target == slow.target == empty
            assert fast.demands == slow.demands


def test_solve_nda_merges_two_singletons():
    sol = solve_nda(DegreeSequence([(1, 0), (0, 1)]), 1, 2, 1)
    assert sol is not None
    assert [tuple(p) for p in sol.target] == [(1, 1), (1, 1)]


def test_solve_nda_rejects_small_max_value():
    with pytest.raises(ValueError):
        solve_nda(DegreeSequence([(2, 0)]), 1, 1, 1)


def test_solve_nda_matches_bruteforce():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 6)
        sigma = DegreeSequence(
            [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
        )
        s = rng.randint(0, 5)
        k = rng.randint(1, 3)
        cap = sigma.max_component + rng.randint(0, 3)
        fast = solve_nda(sigma, s, k, cap)
        slow = brute_force_nda(sigma, s, k, cap)
        assert (fast is None) == (slow is None), (list(sigma), s, k, cap)
        if fast is not None:
            assert satisfies_nda(sigma, s, k, fast, cap)


def test_solve_nda_witnesses_are_pinned():
    # The search's visit order decides which witness comes first; this digest
    # of 400 seeded answers (127 of them "yes") pins that order.
    rng = random.Random(14)
    answers = []
    for _ in range(400):
        n = rng.randint(1, 7)
        sigma = DegreeSequence(
            [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
        )
        s = rng.randint(0, 6)
        k = rng.randint(1, 3)
        max_value = sigma.max_component + rng.randint(0, 2)
        sol = solve_nda(sigma, s, k, max_value)
        answers.append(None if sol is None else tuple(map(tuple, sol.target)))
    assert sum(a is not None for a in answers) == 127
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == (
        "aa1173ae2db438343e3004cd61aa743ae1c68e0f1aa9c8cd6581b644f70161d0"
    )


def test_reduce_partition_layout():
    sigma, s, k = reduce_partition_to_nda([1, 1])
    assert [tuple(p) for p in sigma] == [
        (3, 0), (4, 0), (4, 0), (3, 1), (3, 1),
        (5, 0), (6, 0), (6, 0), (5, 1), (5, 1),
    ]
    assert s == 1 and k == 2


def test_reduce_partition_guards():
    with pytest.raises(ElementTooLargeError):
        reduce_partition_to_nda([1, 3])
    with pytest.raises(OddSumError):
        reduce_partition_to_nda([1, 1, 3])
    with pytest.raises(ValueError):
        reduce_partition_to_nda([])
    with pytest.raises(ValueError):
        reduce_partition_to_nda([0, 2])


def test_reduce_partition_element_equal_to_half_is_accepted():
    # {2} already sums to half the total, so this must be a yes-instance.
    sigma, s, k = reduce_partition_to_nda([1, 1, 2])
    assert s == 2 and k == 2
    assert solve_nda(sigma, s, k, sigma.max_component) is not None


def test_partition_reduction_agrees_with_subset_sum():
    rng = random.Random(2024)
    from itertools import combinations

    done = 0
    while done < 25:
        count = rng.randint(2, 6)
        values = [rng.randint(1, 5) for _ in range(count)]
        total = sum(values)
        if total % 2 or any(a > total // 2 for a in values):
            continue
        done += 1
        sigma, s, k = reduce_partition_to_nda(values)
        expected = any(
            sum(combo) == total // 2
            for r in range(len(values) + 1)
            for combo in combinations(values, r)
        )
        got = solve_nda(sigma, s, k, sigma.max_component) is not None
        assert got == expected, values


def test_demands_from_solution():
    sigma = DegreeSequence([(0, 1)])
    assert demands_from_solution(sigma, sigma).is_balanced
    demands = demands_from_solution(sigma, DegreeSequence([(1, 1)]))
    assert demands.in_demand == (1,) and demands.out_demand == (0,)
    fixture = DegreeSequence([(0, 1), (2, 1), (2, 0), (0, 2)])
    reordered_target = DegreeSequence([(1, 1), (2, 1), (2, 0), (0, 3)])
    demands = demands_from_solution(fixture, reordered_target)
    assert demands.in_demand == (1, 0, 0, 0)
    assert demands.out_demand == (0, 0, 0, 1)
    with pytest.raises(NegativeDemandError):
        demands_from_solution(DegreeSequence([(1, 0)]), DegreeSequence([(0, 1)]))
    with pytest.raises(LengthMismatchError):
        demands_from_solution(DegreeSequence([(1, 0)]), DegreeSequence(()))


def test_solve_nddsc_survives_low_recursion_limit():
    # Matching identical all-zero sequences makes every augmenting path walk
    # through all earlier rows, so a recursive search needs depth n.
    script = textwrap.dedent(
        """
        import sys
        from arcfill import DegreeSequence, solve_nddsc

        sequence = DegreeSequence([(0, 0)] * 150)
        sys.setrecursionlimit(80)
        print(solve_nddsc(sequence, sequence) is not None)
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


def test_solve_nda_survives_low_recursion_limit():
    # Thirty distinct types, each staying put: a recursive search spends a
    # few frames per block, so it needs a depth proportional to n.
    script = textwrap.dedent(
        """
        import sys
        from arcfill import DegreeSequence, solve_nda

        sequence = DegreeSequence([(i, 0) for i in range(30)])
        sys.setrecursionlimit(80)
        sol = solve_nda(sequence, 0, 1, 29)
        print(sol is not None and sol.target == sequence)
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
