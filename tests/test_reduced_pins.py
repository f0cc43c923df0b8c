"""Pinned `solve` output on seeded instances that the kernel reduces.

Each family takes the first seeded draws on which `kernelize` returns
`reduced`, hashes the `emit_solution` bytes of `solve` on every one, and
counts the subsets the bounded search tries (by wrapping
`search.combinations`).  The digest pins the answers and witnesses byte for
byte; the leaf total is an upper bound, so the search may get cheaper but
not dearer.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    KernelVerdict,
    ListCompletion,
    SequenceCompletion,
    search,
)
from arcfill.cli import emit_solution

from conftest import bounded_digraph


def _listed(rng: random.Random) -> ListCompletion:
    """Degree-list instance, cap 2, with at most 2s unsatisfied vertices.

    Half of the draws plant s arcs and list the planted final degrees, so
    yes-instances are common; the rest mark up to 2s random vertices
    unsatisfied.
    """
    n = rng.randint(20, 45)
    d = bounded_digraph(rng, n, 2, density=0.1)
    s = rng.randint(1, 2)
    final = [list(d.degree(v)) for v in range(n)]
    if rng.random() < 0.5:
        pool = d.non_arcs()
        rng.shuffle(pool)
        for (u, v) in pool[:s]:
            if final[u][1] < 2 and final[v][0] < 2:
                final[u][1] += 1
                final[v][0] += 1
        changed = {v for v in range(n) if tuple(final[v]) != d.degree(v)}
    else:
        changed = set(rng.sample(range(n), rng.randint(1, 2 * s)))
    lists = []
    for v in range(n):
        deg = d.degree(v)
        entries = {
            (rng.randint(deg.indeg, 2), rng.randint(deg.outdeg, 2))
            for _ in range(rng.randint(0, 2))
        }
        entries.discard(tuple(deg))
        if v in changed:
            entries.add(tuple(final[v]))
            entries.discard(tuple(deg))
        else:
            entries.add(tuple(deg))
        lists.append(entries or {(2, 2)})
    return ListCompletion(d, s, DegreeListFunction(lists, bound=2))


def _anonymous(rng: random.Random) -> AnonymityCompletion:
    n = rng.randint(30, 70)
    d = bounded_digraph(rng, n, 1, density=0.05)
    return AnonymityCompletion(d, rng.randint(2, 4), rng.randint(1, 2))


def _sequence(rng: random.Random) -> SequenceCompletion:
    """Exact-sequence instance whose target one or two random arcs reach."""
    n = rng.randint(30, 40)
    d = bounded_digraph(rng, n, 1, density=0.05)
    extra = 1 if rng.random() < 0.8 else 2
    pool = d.non_arcs()
    rng.shuffle(pool)
    indeg = [d.indegree(v) for v in range(n)]
    outdeg = [d.outdegree(v) for v in range(n)]
    for (u, v) in pool[:extra]:
        outdeg[u] += 1
        indeg[v] += 1
    target = list(zip(indeg, outdeg))
    rng.shuffle(target)
    return SequenceCompletion(d, DegreeSequence(target))


# family -> (generator, reduced instances, digest of the solution files,
# most search leaves over the family)
FAMILIES = {
    "ddconc": (
        _listed,
        100,
        "eaae6197dbd90abd9b271b973b61a52255b689b13259d42a16020ee4b3b926b2",
        30503,
    ),
    "dda": (
        _anonymous,
        100,
        "47c88f592429b380ba03f993bb3d1a7a3534a3ceac32a9a41c4203e695e7ef42",
        31358,
    ),
    "ddseqc": (
        _sequence,
        50,
        "778945aff33ef008a1edd4a63a964d216bd8ac0fd8aa1c12802bae1acffa621c",
        149083,
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reduced_instances_keep_their_solutions(family, monkeypatch):
    build, count, digest, most_leaves = FAMILIES[family]
    leaves = 0
    subsets = search.combinations

    def counting(pairs, size):
        nonlocal leaves
        for arcs in subsets(pairs, size):
            leaves += 1
            yield arcs

    monkeypatch.setattr(search, "combinations", counting)
    h = hashlib.sha256()
    found = 0
    for seed in range(10 * count):
        instance = build(random.Random(seed))
        if search.kernelize(instance).verdict is not KernelVerdict.REDUCED:
            continue
        h.update(emit_solution(instance, search.solve(instance)).encode())
        found += 1
        if found == count:
            break
    assert found == count
    assert h.hexdigest() == digest
    assert leaves <= most_leaves
