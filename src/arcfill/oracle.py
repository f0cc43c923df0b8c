"""Brute-force reference solvers and definition-level checks.

Both cross-check the exact pipeline.  The solvers enumerate exhaustively
and recheck problem definitions directly, so they are only usable at desk
scale; hard size guards protect against runaway enumeration.  The
``satisfies_*`` and ``apply_demands`` checks test a claimed witness against
its definition and call no solver.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import comb

from .core import DegreeListFunction, DegreePair, DegreeSequence, Digraph
from .flow import DemandVector
from .numprob import Bijection, NumberSolution, demands_from_solution
from .problems import (
    AnonymityCompletion,
    ListCompletion,
    ProblemInstance,
    SequenceCompletion,
)
from .search import Solution, build_certificate

Arc = tuple[int, int]


class InstanceTooLargeError(ValueError):
    """The instance exceeds the configured enumeration caps."""


def brute_force_graph(
    instance: ProblemInstance,
    max_vertices: int = 7,
    max_budget: int = 5,
) -> Solution | None:
    """Minimum-cardinality solution by enumerating all insertable arc sets.

    Subsets of the insertable pairs are tried by increasing size and then
    lexicographic rank, mirroring the bounded search's order so that failing
    cases diff cleanly.
    """
    d = instance.digraph
    if d.n > max_vertices:
        raise InstanceTooLargeError(f"{d.n} vertices exceeds cap {max_vertices}")
    if isinstance(instance, ListCompletion):
        budget = instance.budget
        sizes = None
    elif isinstance(instance, SequenceCompletion):
        budget = instance.implied_insertions()
        if budget is None:
            return None
        sizes = [budget]
    elif isinstance(instance, AnonymityCompletion):
        budget = instance.budget
        sizes = None
    else:
        raise TypeError(f"unknown instance {instance!r}")
    if budget > max_budget:
        raise InstanceTooLargeError(f"budget {budget} exceeds cap {max_budget}")
    pairs = d.non_arcs()
    if sizes is None:
        sizes = range(0, min(budget, len(pairs)) + 1)
    elif any(size > len(pairs) for size in sizes):
        return None

    indeg = [d.indegree(v) for v in range(d.n)]
    outdeg = [d.outdegree(v) for v in range(d.n)]

    def valid_now() -> bool:
        if isinstance(instance, ListCompletion):
            return all(
                DegreePair(indeg[v], outdeg[v]) in instance.allowed[v]
                for v in range(d.n)
            )
        counts = Counter(zip(indeg, outdeg))
        if isinstance(instance, SequenceCompletion):
            return counts == instance.target.as_multiset()
        return all(c >= instance.anonymity for c in counts.values())

    chosen: list[Arc] = []

    def dfs(start: int, remaining: int) -> tuple[Arc, ...] | None:
        if remaining == 0:
            return tuple(chosen) if valid_now() else None
        for idx in range(start, len(pairs)):
            if len(pairs) - idx < remaining:
                break
            u, v = pairs[idx]
            outdeg[u] += 1
            indeg[v] += 1
            chosen.append((u, v))
            found = dfs(idx + 1, remaining - 1)
            chosen.pop()
            outdeg[u] -= 1
            indeg[v] -= 1
            if found is not None:
                return found
        return None

    for size in sizes:
        found = dfs(0, size)
        if found is not None:
            return Solution(found, build_certificate(instance, found))
    return None


def brute_force_nddcc(
    sigma: DegreeSequence,
    s: int,
    lists: DegreeListFunction,
    max_entries: int = 8,
    max_budget: int = 8,
) -> NumberSolution | None:
    """Enumerate all per-index allowed targets with increments summing to s."""
    n = len(sigma)
    if n > max_entries:
        raise InstanceTooLargeError(f"{n} entries exceeds cap {max_entries}")
    if s > max_budget:
        raise InstanceTooLargeError(f"budget {s} exceeds cap {max_budget}")
    choices = [
        sorted(p for p in lists[i] if p.dominates(sigma[i])) for i in range(n)
    ]
    picked: list[DegreePair] = []

    def dfs(i: int, rem_in: int, rem_out: int) -> bool:
        if i == n:
            return rem_in == 0 and rem_out == 0
        for pair in choices[i]:
            dc = pair.indeg - sigma[i].indeg
            dd = pair.outdeg - sigma[i].outdeg
            if dc <= rem_in and dd <= rem_out:
                picked.append(pair)
                if dfs(i + 1, rem_in - dc, rem_out - dd):
                    return True
                picked.pop()
        return False

    if not dfs(0, s, s):
        return None
    target = DegreeSequence(picked)
    return NumberSolution(target, demands_from_solution(sigma, target))


def brute_force_nddsc(
    sigma: DegreeSequence, phi: DegreeSequence, max_entries: int = 7
) -> Bijection | None:
    """Try all bijections and return the first dominance-respecting one."""
    n = len(sigma)
    if len(phi) != n:
        raise ValueError("sequences must have equal length")
    if n > max_entries:
        raise InstanceTooLargeError(f"{n} entries exceeds cap {max_entries}")
    for mapping in permutations(range(n)):
        if all(phi[mapping[i]].dominates(sigma[i]) for i in range(n)):
            return Bijection(mapping)
    return None


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_nda(
    sigma: DegreeSequence,
    s: int,
    k: int,
    max_value: int | None = None,
    max_entries: int = 12,
    max_budget: int = 6,
    max_states: int = 4_000_000,
) -> NumberSolution | None:
    """Enumerate all componentwise raises with both budget sums equal to s."""
    n = len(sigma)
    if n > max_entries:
        raise InstanceTooLargeError(f"{n} entries exceeds cap {max_entries}")
    if s > max_budget:
        raise InstanceTooLargeError(f"budget {s} exceeds cap {max_budget}")
    per_side = comb(s + n - 1, n - 1) if n else 1
    if per_side * per_side > max_states:
        raise InstanceTooLargeError(
            f"{per_side ** 2} candidate raises exceed cap {max_states}"
        )
    if n == 0:
        if s == 0:
            return NumberSolution(DegreeSequence(()), DemandVector((), ()))
        return None
    for raise_in in _compositions(s, n):
        if max_value is not None and any(
            sigma[i].indeg + raise_in[i] > max_value for i in range(n)
        ):
            continue
        for raise_out in _compositions(s, n):
            target = [
                DegreePair(
                    sigma[i].indeg + raise_in[i], sigma[i].outdeg + raise_out[i]
                )
                for i in range(n)
            ]
            if max_value is not None and any(
                t.max_component > max_value for t in target
            ):
                continue
            counts = Counter(target)
            if all(c >= k for c in counts.values()):
                result = DegreeSequence(target)
                return NumberSolution(result, demands_from_solution(sigma, result))
    return None


def satisfies_nddcc(
    sigma: DegreeSequence, s: int, lists: DegreeListFunction, sol: NumberSolution
) -> bool:
    """Definition-level check of a claimed degree-list number witness."""
    if len(sol.target) != len(sigma):
        return False
    spent_in = spent_out = 0
    for i, (src, dst) in enumerate(zip(sigma, sol.target)):
        if not dst.dominates(src) or dst not in lists[i]:
            return False
        spent_in += dst.indeg - src.indeg
        spent_out += dst.outdeg - src.outdeg
    return spent_in == s == spent_out


def satisfies_nddsc(
    sigma: DegreeSequence, phi: DegreeSequence, pi: Bijection
) -> bool:
    """Definition-level check of a claimed dominance bijection."""
    return len(pi) == len(sigma) == len(phi) and all(
        phi[pi[i]].dominates(sigma[i]) for i in range(len(sigma))
    )


def satisfies_nda(
    sigma: DegreeSequence,
    s: int,
    k: int,
    sol: NumberSolution,
    max_value: int | None = None,
) -> bool:
    """Definition-level check of a claimed anonymity number witness."""
    if len(sol.target) != len(sigma):
        return False
    spent_in = spent_out = 0
    for src, dst in zip(sigma, sol.target):
        if not dst.dominates(src):
            return False
        if max_value is not None and dst.max_component > max_value:
            return False
        spent_in += dst.indeg - src.indeg
        spent_out += dst.outdeg - src.outdeg
    return spent_in == s == spent_out and sol.target.is_k_anonymous(k)


def apply_demands(d: Digraph, demands: DemandVector, arcs) -> bool:
    """Check that inserting the arcs changes each vertex degree by its demand."""
    arcs = set(arcs)
    gained_in = [0] * d.n
    gained_out = [0] * d.n
    for (u, v) in arcs:
        gained_out[u] += 1
        gained_in[v] += 1
    return (
        all((u, v) not in d.arcs and u != v for (u, v) in arcs)
        and gained_in == list(demands.in_demand)
        and gained_out == list(demands.out_demand)
    )
