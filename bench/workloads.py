"""Seeded instance families of the three workloads.

Every instance is built from a ``random.Random`` seeded with the workload
name, the run seed and the slot index, so one seed always yields the same
instances.  Each slot fixes the problem and the sizes that set its cost
(vertex count, arc count, budget); the seed only draws the structure.
Yes-instances are planted; every no-instance carries the counting argument
it was built with, which ``checks`` re-derives from the instance alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    ListCompletion,
    SequenceCompletion,
)

import checks

@dataclass(frozen=True)
class Case:
    """One instance of a workload and the verdict it was built to have."""

    name: str
    instance: object
    expect_yes: bool


CAP = 3  # largest in-/outdegree in any instance and any solution
# Rejection sampling needs room for the rarest accepted draw: about 1 in 285
# digraphs of the dda-blocks-n9-s3 slot passes its counting argument, so
# 1000 draws failed on about 3% of seeds (38, 106 and 116 among 0-119).
# 100000 draws make a failure far less likely than one in 10^100.
TRIES = 100_000


def _tries(what: str):
    """Bounded redraw loop: a generator that cannot meet its sizes raises."""
    yield from range(TRIES)
    raise RuntimeError(f"{what}: no instance after {TRIES} draws")


def _sample_arcs(rng, n, want, room_out, room_in, present):
    """want random new arcs (u, v) with room at both ends, or None if stuck.

    Pairs are drawn at random rather than from a shuffled list of all n^2
    pairs, so building a sparse digraph with hundreds of vertices stays
    cheap in time and memory.
    """
    arcs = []
    misses = 0
    while len(arcs) < want:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or room_out[u] == 0 or room_in[v] == 0 or (u, v) in present:
            misses += 1
            if misses > 100 * (want + n):
                return None
            continue
        present.add((u, v))
        arcs.append((u, v))
        room_out[u] -= 1
        room_in[v] -= 1
    return arcs


def _digraph(rng: random.Random, n: int, m: int, max_degree: int) -> Digraph:
    """Digraph with exactly m arcs and all in-/outdegrees within max_degree."""
    for _ in _tries("_digraph"):
        arcs = _sample_arcs(rng, n, m, [max_degree] * n, [max_degree] * n, set())
        if arcs is not None:
            return Digraph(n, arcs)


def _grow(rng: random.Random, d: Digraph, b: int) -> list[tuple[int, int]]:
    """b insertable arcs that keep every in-/outdegree within CAP."""
    for _ in _tries("_grow"):
        extra = _sample_arcs(
            rng,
            d.n,
            b,
            [CAP - d.outdegree(v) for v in range(d.n)],
            [CAP - d.indegree(v) for v in range(d.n)],
            set(d.arcs),
        )
        if extra is not None:
            return extra


# ---------------------------------------------------------------- planted yes
#
# Large-budget instances are planted at random.  Small-budget ones place the
# planted arcs first in the search's canonical order (pairs sorted by tail,
# then head; subsets by size, then rank) behind a counted lower bound, so
# the search cost of a slot is fixed by its sizes and not by the seed.


def planted_list(rng, n, m, b) -> ListCompletion:
    """ddconc: lists read off the digraph grown by b planted arcs.

    Half of the lists also hold the final pair with one gained in-arc traded
    for an out-arc or back.  A trade keeps the vertex's total gain, so budget b
    stays the only feasible one while the number problem has more states.
    """
    d = _digraph(rng, n, m, CAP - 1)
    final = checks.final_degrees(d, _grow(rng, d, b))
    lists = []
    for v, (i, o) in enumerate(final):
        entries = [(i, o)]
        if rng.random() < 0.5:
            for (ti, to) in ((i + 1, o - 1), (i - 1, o + 1)):
                if d.indegree(v) <= ti <= CAP and d.outdegree(v) <= to <= CAP:
                    entries.append((ti, to))
        lists.append(sorted(entries))
    return ListCompletion(d, b, DegreeListFunction(lists, bound=CAP))


def planted_sequence(rng, n, m, b) -> SequenceCompletion:
    """ddseqc: the target is the shuffled degree sequence after b planted arcs."""
    d = _digraph(rng, n, m, CAP - 1)
    final = checks.final_degrees(d, _grow(rng, d, b))
    rng.shuffle(final)
    return SequenceCompletion(d, DegreeSequence(final))


def _relabel(rng, n, arcs, first):
    """Arcs under a random relabelling that maps first[i] to i."""
    rest = [v for v in range(n) if v not in first]
    rng.shuffle(rest)
    label = {v: i for i, v in enumerate(list(first) + rest)}
    return [(label[u], label[v]) for (u, v) in arcs]


def star_list(rng, n, m, b) -> ListCompletion:
    """ddconc yes: vertex 0 needs b out-arcs, vertices 1..b one in-arc each.

    Every other vertex may stay or gain one in- and/or one out-arc.  The
    in-degree demand of 1..b needs b arcs, and the star 0 -> 1..b is the
    first b-subset in canonical order.
    """
    d = _digraph(rng, n, m, CAP - 2)
    centre = rng.choice([v for v in range(n) if d.outdegree(v) == 0])
    heads = rng.sample([v for v in range(n) if v != centre], b)
    d = Digraph(n, _relabel(rng, n, d.sorted_arcs(), [centre] + heads))
    lists = []
    for v in range(n):
        i, o = d.indegree(v), d.outdegree(v)
        if v == 0:
            lists.append([(i, o + b)])
        elif v <= b:
            lists.append([(i + 1, o)])
        else:
            lists.append([(i, o), (i + 1, o), (i, o + 1), (i + 1, o + 1)])
    return ListCompletion(d, b, DegreeListFunction(lists, bound=CAP))


def star_sequence(rng, n, m, saturated, b=3) -> SequenceCompletion:
    """ddseqc yes: a planted star behind a prefix of saturated tails.

    Vertices 0..saturated-1 already have outdegree CAP, the target's largest
    outdegree, so no solution has an arc leaving them.  Vertex ``saturated``
    has outdegree 0, and the target is met by its star to the b smallest
    other vertices: the first b-subset whose first arc leaves an unsaturated
    vertex.  The search therefore visits every b-subset that starts inside
    the saturated prefix before its first hit.
    """
    centre = saturated
    out_cap = [CAP] * saturated + [0] + [CAP - 1] * (n - saturated - 1)
    in_cap = [CAP - 1] * n
    for _ in _tries("star_sequence"):
        indeg = [0] * n
        outdeg = [0] * n
        arcs = []
        for t in range(saturated):
            heads = [v for v in range(n) if v != t and indeg[v] < in_cap[v]]
            for v in rng.sample(heads, CAP):
                arcs.append((t, v))
                outdeg[t] += 1
                indeg[v] += 1
        pool = [(u, v) for u in range(saturated + 1, n) for v in range(n) if u != v]
        rng.shuffle(pool)
        for (u, v) in pool:
            if len(arcs) == m:
                break
            if outdeg[u] < out_cap[u] and indeg[v] < in_cap[v]:
                arcs.append((u, v))
                outdeg[u] += 1
                indeg[v] += 1
        if len(arcs) == m:
            break
    d = Digraph(n, arcs)
    heads = [v for v in range(n) if v != centre][:b]
    final = checks.final_degrees(d, [(centre, v) for v in heads])
    rng.shuffle(final)
    return SequenceCompletion(d, DegreeSequence(final))


def star_anonymity(rng, copies, h, m_h, b, max_degree=3) -> AnonymityCompletion:
    """dda yes: k copies of one digraph, minus a star of b arcs.

    The copies make every degree pair occur a multiple of k times, so the
    removed star is a solution.  It is relabelled to 0 -> 1..b, the first
    b-subset in canonical order, and instances are drawn until the counting
    argument of ``checks.anonymity_no_proof`` rules out b - 1 arcs.
    """
    n = copies * h
    for _ in _tries("star_anonymity"):
        base = _digraph(rng, h, m_h, max_degree)
        centres = [v for v in range(h) if base.outdegree(v) >= b]
        if not centres:
            continue
        centre = rng.choice(centres)
        heads = sorted(rng.sample(base.out_neighbors(centre), b))
        arcs = [
            (c * h + u, c * h + v)
            for c in range(copies)
            for (u, v) in base.sorted_arcs()
            if c > 0 or u != centre or v not in heads
        ]
        d = Digraph(n, _relabel(rng, n, arcs, [centre] + heads))
        if checks.anonymity_no_proof(AnonymityCompletion(d, copies, b - 1)):
            return AnonymityCompletion(d, copies, b)


# ------------------------------------------------------------- counted no


def unreachable_list(rng, n, m, s) -> ListCompletion:
    """ddconc no: two vertices need s + 1 more in-arcs than the budget allows.

    Every other vertex may stay or gain one in- and/or one out-arc, so the
    unsatisfied-vertex rule never cuts the search short; the in-degree
    demand alone exceeds the budget.
    """
    d = _digraph(rng, n, m, CAP - 2)
    order = list(range(n))
    rng.shuffle(order)
    need = {order[0]: s + 1 - (s + 1) // 2, order[1]: (s + 1) // 2}
    lists = []
    for v in range(n):
        i, o = d.indegree(v), d.outdegree(v)
        if v in need:
            lists.append([(i + need[v], o)])
        else:
            lists.append([(i, o), (i + 1, o), (i, o + 1), (i + 1, o + 1)])
    return ListCompletion(d, s, DegreeListFunction(lists, bound=CAP))


def clique_sequence(rng, n_rest, m_rest, clique, s, rest_degree=2) -> SequenceCompletion:
    """ddseqc no: the target raises 2s vertices of a complete block by one.

    The number problem accepts the target, but every insertable arc leaves
    the block, and the remaining vertices are too far below the block's
    degrees to take over its targets (see ``checks.sequence_no_proof``).
    """
    rest = _digraph(rng, n_rest, m_rest, rest_degree)
    n = n_rest + clique
    labels = list(range(n))
    rng.shuffle(labels)
    arcs = [(labels[u], labels[v]) for (u, v) in rest.sorted_arcs()]
    block = labels[n_rest:]
    arcs += [(u, v) for u in block for v in block if u != v]
    d = Digraph(n, arcs)
    final = [tuple(d.degree(v)) for v in range(n)]
    for j, v in enumerate(block[: 2 * s]):
        i, o = final[v]
        final[v] = (i + 1, o) if j % 2 == 0 else (i, o + 1)
    rng.shuffle(final)
    return SequenceCompletion(d, DegreeSequence(final))


def counted_anonymity(rng, n, m, k, s, max_degree=3) -> AnonymityCompletion:
    """dda no: too many small degree blocks for s arcs to fix.

    Digraphs are drawn until ``checks.anonymity_no_proof`` proves the answer.
    """
    for _ in _tries("counted_anonymity"):
        d = _digraph(rng, n, m, max_degree)
        instance = AnonymityCompletion(d, k, s)
        if checks.anonymity_no_proof(instance):
            return instance


# ------------------------------------------------------------------ slots
#
# Each slot is (label, generator, arguments, expected verdict).  A round
# solves every slot once; slot counts are odd so the median operation falls
# inside one slot's samples rather than in the gap between two slots.

SLOTS = {
    "search-yes": (
        ("ddconc-star-n10", star_list, (10, 5, 3), True),
        ("ddconc-star-n12", star_list, (12, 6, 3), True),
        ("ddconc-star-n14", star_list, (14, 8, 3), True),
        ("dda-star-3x4-b2", star_anonymity, (3, 4, 6, 2), True),
        ("dda-star-3x4-b3", star_anonymity, (3, 4, 6, 3), True),
        ("ddseqc-star-n10-sat1", star_sequence, (10, 12, 1), True),
        ("dda-star-3x5-b3", star_anonymity, (3, 5, 8, 3), True),
        ("ddseqc-star-n11-sat1", star_sequence, (11, 14, 1), True),
        ("ddseqc-star-n10-sat2", star_sequence, (10, 14, 2), True),
    ),
    "search-no": (
        ("ddconc-short-n12-s2", unreachable_list, (12, 8, 2), False),
        ("dda-blocks-n12-s2", counted_anonymity, (12, 18, 3, 2), False),
        ("ddseqc-clique-6+8-s2", clique_sequence, (8, 10, 6, 2), False),
        ("dda-blocks-n9-s3", counted_anonymity, (9, 12, 3, 3), False),
        ("ddseqc-clique-7+4-s3", clique_sequence, (4, 3, 7, 3), False),
        ("ddconc-short-n9-s3", unreachable_list, (9, 5, 3), False),
        ("dda-blocks-n10-s3", counted_anonymity, (10, 14, 3, 3), False),
    ),
    "large-budget": (
        ("ddconc-n200-s50", planted_list, (200, 130, 50), True),
        ("ddseqc-n200-s100", planted_sequence, (200, 100, 100), True),
        ("ddseqc-n300-s150", planted_sequence, (300, 150, 150), True),
        ("ddconc-n400-s80", planted_list, (400, 260, 80), True),
        ("ddseqc-n400-s200", planted_sequence, (400, 200, 200), True),
    ),
}


def build(workload: str, seed: int) -> list[Case]:
    """The instances of one workload for one seed, in slot order."""
    cases = []
    for index, (label, make, args, expect_yes) in enumerate(SLOTS[workload]):
        rng = random.Random(f"{workload}/{seed}/{index}")
        cases.append(Case(label, make(rng, *args), expect_yes))
    return cases
