"""Shared fixture builders and seeded instance generators for the tests."""

from __future__ import annotations

import random

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    ListCompletion,
    LoopArcError,
    SequenceCompletion,
)


def add_arcs(d: Digraph, new_arcs) -> Digraph:
    """Return a new digraph with the given arcs inserted; d is unmodified."""
    additions = set()
    for raw in new_arcs:
        u, v = int(raw[0]), int(raw[1])
        if u == v:
            raise LoopArcError(f"loop arc ({u}, {v})")
        if not (0 <= u < d.n and 0 <= v < d.n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={d.n}")
        if (u, v) in d.arcs:
            raise ValueError(f"arc ({u}, {v}) already present")
        additions.add((u, v))
    return Digraph(d.n, list(d.arcs) + sorted(additions))


def uniform_lists(n: int, pairs, bound: int | None = None) -> DegreeListFunction:
    """The same allowed degree pairs at every one of n vertices."""
    return DegreeListFunction([tuple(pairs)] * n, bound=bound)


def sequence_example() -> SequenceCompletion:
    """Four vertices, one missing arc away from the target sequence."""
    digraph = Digraph(4, [(0, 1), (1, 2), (3, 1), (3, 2)])
    target = DegreeSequence([(0, 3), (1, 1), (2, 0), (2, 1)])
    return SequenceCompletion(digraph, target)


def anonymity_example(k: int = 7, budget: int = 1) -> AnonymityCompletion:
    """Two 2-cycles plus a 3-vertex path; one arc closes the path into a cycle."""
    digraph = Digraph(7, [(0, 1), (1, 0), (2, 3), (3, 2), (5, 4), (6, 5)])
    return AnonymityCompletion(digraph, k, budget)


def list_example_yes() -> ListCompletion:
    digraph = Digraph(3, [(0, 1)])
    lists = DegreeListFunction([[(0, 1)], [(1, 0), (2, 0)], [(0, 1)]])
    return ListCompletion(digraph, 1, lists)


def list_example_no() -> ListCompletion:
    digraph = Digraph(3, [(0, 1)])
    lists = DegreeListFunction([[(0, 1)], [(2, 0)], [(1, 1), (2, 1)]])
    return ListCompletion(digraph, 1, lists)


def bounded_digraph(rng: random.Random, n: int, max_degree: int, density: float = 0.35) -> Digraph:
    """Random digraph whose in- and outdegrees all stay within max_degree."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(pairs)
    indeg = [0] * n
    outdeg = [0] * n
    arcs = []
    for (u, v) in pairs:
        if rng.random() < density and outdeg[u] < max_degree and indeg[v] < max_degree:
            arcs.append((u, v))
            outdeg[u] += 1
            indeg[v] += 1
    return Digraph(n, arcs)


def random_list_instance(
    rng: random.Random, max_n: int = 6, max_budget: int = 4, component_cap: int = 3
) -> ListCompletion:
    """Seeded degree-list instance with all components within the cap.

    A fraction of the instances derives the lists from an actually grown
    digraph so that coordinated yes-instances show up regularly.
    """
    n = rng.randint(1, max_n)
    digraph = bounded_digraph(rng, n, max_degree=component_cap)
    budget = rng.randint(0, max_budget)
    lists = []
    if rng.random() < 0.45:
        extras = rng.randint(0, budget)
        indeg = [digraph.indegree(v) for v in range(n)]
        outdeg = [digraph.outdegree(v) for v in range(n)]
        pool = digraph.non_arcs()
        rng.shuffle(pool)
        for (u, v) in pool:
            if extras == 0:
                break
            if outdeg[u] < component_cap and indeg[v] < component_cap:
                outdeg[u] += 1
                indeg[v] += 1
                extras -= 1
        for v in range(n):
            entries = {(indeg[v], outdeg[v])}
            if rng.random() < 0.3:
                entries.add(
                    (rng.randint(0, component_cap), rng.randint(0, component_cap))
                )
            lists.append(sorted(entries))
    else:
        for v in range(n):
            deg = digraph.degree(v)
            entries = set()
            for _ in range(rng.randint(1, 3)):
                pair = (
                    min(component_cap, deg.indeg + rng.randint(0, 2)),
                    min(component_cap, deg.outdeg + rng.randint(0, 2)),
                )
                entries.add(pair)
            if rng.random() < 0.2:
                entries = {
                    (rng.randint(0, component_cap), rng.randint(0, component_cap))
                }
            lists.append(sorted(entries))
    return ListCompletion(digraph, budget, DegreeListFunction(lists, bound=component_cap))


def random_sequence_instance(
    rng: random.Random, max_n: int = 6, max_budget: int = 4, component_cap: int = 3
) -> SequenceCompletion:
    """Seeded exact-sequence instance; mostly realizable, sometimes perturbed."""
    n = rng.randint(1, max_n)
    digraph = bounded_digraph(rng, n, max_degree=component_cap - 1)
    extras = rng.randint(0, max_budget)
    grown_arcs = list(digraph.arcs)
    indeg = [digraph.indegree(v) for v in range(n)]
    outdeg = [digraph.outdegree(v) for v in range(n)]
    pool = digraph.non_arcs()
    rng.shuffle(pool)
    for (u, v) in pool:
        if extras == 0:
            break
        if outdeg[u] < component_cap and indeg[v] < component_cap:
            grown_arcs.append((u, v))
            outdeg[u] += 1
            indeg[v] += 1
            extras -= 1
    entries = [[indeg[v], outdeg[v]] for v in range(n)]
    rng.shuffle(entries)
    if rng.random() < 0.3:
        v = rng.randrange(n)
        side = rng.randrange(2)
        entries[v][side] = min(component_cap, entries[v][side] + 1)
    return SequenceCompletion(
        digraph, DegreeSequence([tuple(e) for e in entries])
    )


def random_anonymity_instance(
    rng: random.Random, max_n: int = 6, max_budget: int = 4, component_cap: int = 3
) -> AnonymityCompletion:
    n = rng.randint(1, max_n)
    digraph = bounded_digraph(rng, n, max_degree=component_cap)
    return AnonymityCompletion(
        digraph, rng.randint(1, 4), rng.randint(0, max_budget)
    )


def realization_case(rng: random.Random, max_n: int = 40):
    """Seeded (digraph, demands, cap) triple meeting the guarantee conditions.

    Degrees stay one below the cap so every vertex has demand headroom; the
    balanced total is drawn strictly above twice the squared cap.
    """
    cap = rng.randint(1, 3)
    s = 2 * cap * cap + rng.randint(1, 6)
    n = rng.randint(max(s, cap + 1, 4), max(max_n, s, cap + 1, 4))
    digraph = bounded_digraph(rng, n, max_degree=cap - 1, density=0.15)
    in_room = [cap - digraph.indegree(v) for v in range(n)]
    out_room = [cap - digraph.outdegree(v) for v in range(n)]

    def spread(total: int, caps: list[int]) -> list[int]:
        values = [0] * len(caps)
        remaining = total
        suffix = [0] * (len(caps) + 1)
        for i in range(len(caps) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + caps[i]
        for i in range(len(caps)):
            low = max(0, remaining - suffix[i + 1])
            high = min(caps[i], remaining)
            values[i] = rng.randint(low, high)
            remaining -= values[i]
        assert remaining == 0
        return values

    from arcfill import DemandVector

    demands = DemandVector(
        tuple(spread(s, in_room)), tuple(spread(s, out_room))
    )
    return digraph, demands, cap
