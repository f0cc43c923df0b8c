"""Output checks written from the problem definitions alone.

Nothing here calls the solver, its ``build_certificate`` or
``arcfill.verify_solution``: a yes-witness is replayed arc by arc on plain
Python lists, and a no-verdict must be backed by the counting argument the
instance was built with.
"""

from __future__ import annotations

import json
from collections import Counter


class CheckFailed(AssertionError):
    """An emitted solution contradicts the instance or its known verdict."""


def _degrees(d):
    indeg = [len(d.in_neighbors(v)) for v in range(d.n)]
    outdeg = [len(d.out_neighbors(v)) for v in range(d.n)]
    return indeg, outdeg


def final_degrees(d, arcs):
    """Degree pairs of d after inserting arcs; raises CheckFailed on a bad arc set."""
    indeg, outdeg = _degrees(d)
    seen = set()
    for (u, v) in arcs:
        if not (0 <= u < d.n and 0 <= v < d.n):
            raise CheckFailed(f"arc ({u}, {v}) leaves the vertex range")
        if u == v:
            raise CheckFailed(f"arc ({u}, {v}) is a loop")
        if (u, v) in seen:
            raise CheckFailed(f"arc ({u}, {v}) is inserted twice")
        if d.has_arc(u, v):
            raise CheckFailed(f"arc ({u}, {v}) is already present")
        seen.add((u, v))
        outdeg[u] += 1
        indeg[v] += 1
    return list(zip(indeg, outdeg))


def _budget(instance):
    if instance.kind == "ddseqc":
        d = instance.digraph
        grow_in = sum(p[0] for p in instance.target) - d.m
        grow_out = sum(p[1] for p in instance.target) - d.m
        return grow_in if grow_in == grow_out else None
    return instance.budget


def check_witness(instance, arcs) -> None:
    """Raise CheckFailed unless arcs solve the instance by its definition."""
    final = final_degrees(instance.digraph, arcs)
    budget = _budget(instance)
    if instance.kind == "ddseqc":
        if len(arcs) != budget:
            raise CheckFailed(f"{len(arcs)} arcs, the target needs {budget}")
        wanted = Counter(tuple(p) for p in instance.target)
        if Counter(final) != wanted:
            raise CheckFailed("final degrees differ from the target multiset")
        return
    if len(arcs) > budget:
        raise CheckFailed(f"{len(arcs)} arcs exceed the budget {budget}")
    if instance.kind == "ddconc":
        for v, pair in enumerate(final):
            if pair not in {tuple(p) for p in instance.allowed[v]}:
                raise CheckFailed(f"vertex {v} ends at {pair}, not in its list")
        return
    for pair, count in Counter(final).items():
        if count < instance.anonymity:
            raise CheckFailed(f"degree pair {pair} occurs {count} < k times")


def list_no_proof(instance) -> bool:
    """ddconc: the cheapest reachable list entries already need > s arcs.

    Each arc adds one indegree and one outdegree in total, so the sums of
    the smallest per-vertex in- and out-gains are lower bounds on the arcs.
    """
    indeg, outdeg = _degrees(instance.digraph)
    need_in = need_out = 0
    for v, entries in enumerate(instance.allowed.lists):
        reachable = [p for p in entries if p[0] >= indeg[v] and p[1] >= outdeg[v]]
        if not reachable:
            return True
        need_in += min(p[0] - indeg[v] for p in reachable)
        need_out += min(p[1] - outdeg[v] for p in reachable)
    return max(need_in, need_out) > instance.budget


def sequence_no_proof(instance) -> bool:
    """ddseqc: the target only raises a complete block, which takes no arc.

    Let S be the vertices with a degree component of at least q and suppose
    every other vertex stays below q - s in both components, so none of them
    can reach a target pair with a component >= q.  If the target has
    exactly |S| such pairs and they exceed S's degrees by s in both sums,
    then S takes all of the gained in- and outdegree, every inserted arc
    runs inside S, and a complete S leaves no such arc.
    """
    d = instance.digraph
    s = _budget(instance)
    if s is None or s < 0:
        return True
    if s == 0:
        return False
    indeg, outdeg = _degrees(d)
    for q in sorted(set(indeg) | set(outdeg)):
        block = [v for v in range(d.n) if max(indeg[v], outdeg[v]) >= q]
        rest = [v for v in range(d.n) if max(indeg[v], outdeg[v]) < q]
        if rest and max(max(indeg[v], outdeg[v]) for v in rest) + s >= q:
            continue
        high = [p for p in instance.target if max(p) >= q]
        if len(high) != len(block):
            continue
        gain_in = sum(p[0] for p in high) - sum(indeg[v] for v in block)
        gain_out = sum(p[1] for p in high) - sum(outdeg[v] for v in block)
        if gain_in != s or gain_out != s:
            continue
        if all(d.has_arc(u, v) for u in block for v in block if u != v):
            return True
    return False


def anonymity_no_proof(instance) -> bool:
    """dda: the degree blocks smaller than k cost more than s arcs to fix.

    With s arcs the gains |g(v)| (in plus out) over all vertices sum to at
    most 2s.  A block c of size n_c < k must either be emptied, moving n_c
    vertices with a gain of at least 1 each, or receive k - n_c vertices,
    each from a strictly dominated pair and so with a gain of at least
    dist(c).  A vertex leaves one block and enters one, so the emptied
    blocks and the filled blocks each need their own total of at most 2s.
    If no split of the small blocks fits, no solution exists.
    """
    d = instance.digraph
    k, s = instance.anonymity, instance.budget
    indeg, outdeg = _degrees(d)
    blocks = Counter(zip(indeg, outdeg))
    small = [(pair, size) for pair, size in sorted(blocks.items()) if size < k]
    limit = 2 * s
    # best[x] = least fill cost given an emptying cost of exactly x.
    best = {0: 0}
    for pair, size in small:
        below = [
            (pair[0] - p[0]) + (pair[1] - p[1])
            for p in blocks
            if p != pair and p[0] <= pair[0] and p[1] <= pair[1]
        ]
        fill = (k - size) * min(below) if below else limit + 1
        step = {}
        for empty_cost, fill_cost in best.items():
            for x, y in ((empty_cost + size, fill_cost), (empty_cost, fill_cost + fill)):
                if x <= limit and y <= limit and y < step.get(x, limit + 1):
                    step[x] = y
        best = step
        if not best:
            return True
    return False


def solution_text(text: str):
    """(decision, arcs) of an emitted solution file."""
    data = json.loads(text)
    return data["decision"], [tuple(arc) for arc in data["arcs"]]


def no_proof(instance) -> bool:
    return {
        "ddconc": list_no_proof,
        "ddseqc": sequence_no_proof,
        "dda": anonymity_no_proof,
    }[instance.kind](instance)


def check_output(case, text: str) -> None:
    """Raise CheckFailed unless text answers case correctly.

    A planted instance must be answered yes with a witness that meets the
    definition; a counted no-instance must be answered no.
    """
    decision, arcs = solution_text(text)
    if case.expect_yes:
        if decision != "yes":
            raise CheckFailed(f"planted yes-instance answered {decision!r}")
        check_witness(case.instance, arcs)
    elif decision != "no":
        raise CheckFailed(f"proven no-instance answered {decision!r}")
