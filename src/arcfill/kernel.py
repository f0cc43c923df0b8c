"""Kernelization: shrink instances to equivalent ones of bounded size.

The common engine keeps all unsatisfied vertices plus a bounded number of
satisfied representatives per interchangeability class (type or degree
block).  Interchangeable vertices can replace each other in any solution, so
a quota of ``2 * budget * (max_degree + 1)`` representatives per class
preserves the answer.  The three kernelizers differ in how they repair the
damage that deleting vertices does to the remaining degrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .core import (
    DegreeListFunction,
    DegreePair,
    DegreeSequence,
    Digraph,
    blocks,
    is_satisfied,
    vertex_types,
)
from .problems import (
    AnonymityCompletion,
    ListCompletion,
    ProblemInstance,
    SequenceCompletion,
)

Arc = tuple[int, int]


class KernelVerdict(Enum):
    REDUCED = "reduced"
    TRIVIAL_YES = "trivial_yes"
    TRIVIAL_NO = "trivial_no"
    UNCHANGED = "unchanged"


class TrivialNoReason(Enum):
    TOO_MANY_UNSATISFIED = "too_many_unsatisfied"
    DEGREE_EXCEEDS_CAP = "degree_exceeds_cap"
    TARGET_MAX_TOO_SMALL = "target_max_too_small"
    INSERTION_COUNTS_INVALID = "insertion_counts_invalid"
    BLOCK_SHRINKS_TOO_MUCH = "block_shrinks_too_much"
    BLOCK_SIZE_GAP = "block_size_gap"
    NOT_ANONYMOUS_WITHOUT_BUDGET = "not_anonymous_without_budget"


@dataclass(frozen=True)
class KernelResult:
    """Reduced instance plus the bookkeeping needed to lift solutions back.

    ``kept`` maps kernel vertex indices to original indices; ``added`` holds
    kernel vertices with no original counterpart (degree-repair vertices).
    """

    verdict: KernelVerdict
    instance: ProblemInstance | None
    kept: dict[int, int] = field(default_factory=dict)
    added: frozenset[int] = frozenset()
    reason: TrivialNoReason | None = None


def quota(s: int, max_degree: int) -> int:
    """Representatives kept per class at budget s."""
    return max(1, 2 * s * (max_degree + 1))


def compute_alpha_set(
    d: Digraph, lists: DegreeListFunction | None, alpha: int, cap: int = 0
) -> set[int]:
    """All unsatisfied vertices plus ``alpha`` representatives per class.

    Scanning vertices in ascending index order, a satisfied vertex joins the
    set while any of its classes is below the quota; every scanned vertex
    counts against all of its classes.  With ``lists`` None every vertex
    counts as satisfied and its class is its degree block; otherwise its
    classes are its vertex types up to ``cap``.
    """
    if alpha < 1:
        raise ValueError("alpha must be positive")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    result: set[int] = set()
    counters: Counter = Counter()
    for v in range(d.n):
        if lists is None:
            keys = [d.degree(v)]
        elif not is_satisfied(d, lists, v):
            result.add(v)
            continue
        else:
            keys = sorted(vertex_types(d, lists, v, cap) - {DegreePair(0, 0)})
        if any(counters[key] < alpha for key in keys):
            result.add(v)
        for key in keys:
            counters[key] += 1
    return result


def reduce_trivial_no(
    d: Digraph, s: int, lists: DegreeListFunction, delta_star: int
) -> TrivialNoReason | None:
    """Cheap no-detectors: too many unsatisfied vertices, or a degree already
    above the solution cap.  Returns None when neither applies."""
    unsatisfied = sum(1 for v in range(d.n) if not is_satisfied(d, lists, v))
    if unsatisfied > 2 * s:
        return TrivialNoReason.TOO_MANY_UNSATISFIED
    for v in range(d.n):
        if d.indegree(v) > delta_star or d.outdegree(v) > delta_star:
            return TrivialNoReason.DEGREE_EXCEEDS_CAP
    return None


def kernelize_ddconc(
    d: Digraph, s: int, lists: DegreeListFunction, delta_star: int
) -> KernelResult:
    """Kernel for degree-list completion.

    Keeps a type-set of representatives and drops everyone else, shifting
    each survivor's allowed list down by the degree contributed by dropped
    neighbors.  Kernel vertex count is at most
    ``2s + (delta_star + 1)^2 * 2s*(max_degree + 1)``.
    """
    reason = reduce_trivial_no(d, s, lists, delta_star)
    if reason is not None:
        return KernelResult(KernelVerdict.TRIVIAL_NO, None, reason=reason)
    if s == 0:
        # Rule out above left no unsatisfied vertex, so nothing is needed.
        return KernelResult(KernelVerdict.TRIVIAL_YES, None)
    chosen = compute_alpha_set(d, lists, quota(s, d.max_degree), delta_star)
    kept = sorted(chosen)
    kept_set = set(kept)
    kernel_digraph = d.induced(kept)
    adjusted = []
    for v in kept:
        lost_in = sum(1 for u in d.in_neighbors(v) if u not in kept_set)
        lost_out = sum(1 for u in d.out_neighbors(v) if u not in kept_set)
        adjusted.append(
            sorted(
                pair - (lost_in, lost_out)
                for pair in lists[v]
                if pair.indeg - lost_in >= 0
                and pair.outdeg - lost_out >= 0
                and pair.indeg - lost_in <= delta_star
                and pair.outdeg - lost_out <= delta_star
            )
        )
    kernel_lists = DegreeListFunction(adjusted, bound=delta_star)
    instance = ListCompletion(kernel_digraph, s, kernel_lists)
    kept_map = {i: orig for i, orig in enumerate(kept)}
    if len(kept) == d.n and kernel_lists == lists:
        return KernelResult(KernelVerdict.UNCHANGED, instance, kept_map)
    return KernelResult(KernelVerdict.REDUCED, instance, kept_map)


def kernelize_ddseqc(d: Digraph, target: DegreeSequence) -> KernelResult:
    """Kernel for exact-sequence completion.

    Keeps a block-set of representatives, then restores every survivor's
    original degree with arcs from/to a clique of ``max(target) + 2`` fresh
    dummy vertices.  Dummy degrees land strictly above every target
    component, so no solution of the kernel can touch them; the target is
    rewritten by dropping the degrees of deleted vertices and adding the
    dummies' degrees.
    """
    instance = SequenceCompletion(d, target)
    s = instance.size_budget()
    if s is None or instance.size_floor() > s:
        if d.max_indegree > target.max_indeg or d.max_outdegree > target.max_outdeg:
            reason = TrivialNoReason.TARGET_MAX_TOO_SMALL
        elif s is None:
            reason = TrivialNoReason.INSERTION_COUNTS_INVALID
        else:
            # Some block outnumbers its target multiplicity by more than 2s.
            reason = TrivialNoReason.BLOCK_SHRINKS_TOO_MUCH
        return KernelResult(KernelVerdict.TRIVIAL_NO, None, reason=reason)
    if s == 0:
        # The size floor's block check forces multiset equality when nothing
        # may be inserted.
        return KernelResult(KernelVerdict.TRIVIAL_YES, None)
    chosen = compute_alpha_set(d, None, quota(s, d.max_degree))
    if len(chosen) == d.n:
        return KernelResult(
            KernelVerdict.UNCHANGED, instance, {v: v for v in range(d.n)}
        )
    kept = sorted(chosen)
    kept_set = set(kept)
    base = len(kept)
    dummies = target.max_component + 2
    arcs = list(d.induced(kept).arcs)
    arcs += [
        (base + i, base + j)
        for i in range(dummies)
        for j in range(dummies)
        if i != j
    ]
    for v, orig in enumerate(kept):
        repair_in = sum(1 for u in d.in_neighbors(orig) if u not in kept_set)
        repair_out = sum(1 for u in d.out_neighbors(orig) if u not in kept_set)
        arcs += [(base + i, v) for i in range(repair_in)]
        arcs += [(v, base + i) for i in range(repair_out)]
    kernel_digraph = Digraph(base + dummies, arcs)
    removed = Counter(d.degree(v) for v in range(d.n) if v not in kept_set)
    entries = []
    for pair in target:
        if removed.get(pair, 0) > 0:
            removed[pair] -= 1
            continue
        entries.append(pair)
    entries += [kernel_digraph.degree(base + i) for i in range(dummies)]
    instance = SequenceCompletion(kernel_digraph, DegreeSequence(entries))
    return KernelResult(
        KernelVerdict.REDUCED,
        instance,
        {i: orig for i, orig in enumerate(kept)},
        frozenset(range(base, base + dummies)),
    )


def kernelize_dda(d: Digraph, k: int, s: int) -> KernelResult:
    """Kernel for anonymous completion, parameterized by budget and degree.

    Retains per block either everything (small blocks), a capped count, or
    a count preserving the block's distance to the anonymity level; restores
    survivor degrees with fresh in-/out-repair vertices; and welds the repair
    vertices into two cliques joined completely so their degrees stay out of
    reach of any s-arc solution.  Blocks sized strictly between ``2s`` and
    ``k - 2s`` are unfixable, and the anonymity level itself is lowered to
    ``(max_degree + 2) * 2s`` when larger.
    """
    instance = AnonymityCompletion(d, k, s)  # rejects k < 1 and s < 0
    delta = d.max_degree
    reduces = s > 0 and d.n > (delta + 1) ** 2 * ((delta + 2) * 2 * s + 2 * s)
    # A block sized strictly between 2s and k - 2s can neither empty nor fill
    # up to k, since an arc moves at most two vertices into or out of it; at
    # s = 0 that is any block below k.  Above 0 the rule is checked only
    # where the kernel reduces.  It stays per block, not the solver's summed
    # size floor, so that the kernel's verdicts stay as they were.
    degree_blocks = blocks(d)
    sizes = [len(members) for members in degree_blocks.values()]
    if (s == 0 or reduces) and any(2 * s < b < k - 2 * s for b in sizes):
        reason = (
            TrivialNoReason.BLOCK_SIZE_GAP
            if reduces
            else TrivialNoReason.NOT_ANONYMOUS_WITHOUT_BUDGET
        )
        return KernelResult(KernelVerdict.TRIVIAL_NO, None, reason=reason)
    if s == 0:
        # No block is smaller than k, so the digraph is k-anonymous already.
        return KernelResult(KernelVerdict.TRIVIAL_YES, None)
    if not reduces:
        return KernelResult(
            KernelVerdict.UNCHANGED, instance, {v: v for v in range(d.n)}
        )
    beta = (delta + 2) * 2 * s
    k_new = min(k, beta)
    chosen: list[int] = []
    for _, members in sorted(degree_blocks.items()):
        block = sorted(members)
        size = len(block)
        if k <= beta:
            keep = min(size, beta + 2 * s)
        elif size <= 2 * s:
            keep = size
        else:
            keep = k_new + min(2 * s, size - k)
        chosen.extend(block[:keep])
    kept = sorted(chosen)
    kept_set = set(kept)
    arcs = list(d.induced(kept).arcs)
    next_id = len(kept)
    receivers: list[int] = []  # repair vertices with one incoming arc
    senders: list[int] = []  # repair vertices with one outgoing arc
    for v, orig in enumerate(kept):
        for u in d.out_neighbors(orig):
            if u not in kept_set:
                arcs.append((v, next_id))
                receivers.append(next_id)
                next_id += 1
        for u in d.in_neighbors(orig):
            if u not in kept_set:
                arcs.append((next_id, v))
                senders.append(next_id)
                next_id += 1
    floor = max(delta + s + 1, k_new)
    while min(len(receivers), len(senders)) < floor:
        receiver, sender = next_id, next_id + 1
        next_id += 2
        arcs.append((sender, receiver))
        receivers.append(receiver)
        senders.append(sender)
    arcs += [(u, v) for u in receivers for v in receivers if u != v]
    arcs += [(u, v) for u in senders for v in senders if u != v]
    arcs += [(u, v) for u in receivers for v in senders]
    kernel_digraph = Digraph(next_id, arcs)
    instance = AnonymityCompletion(kernel_digraph, k_new, s)
    return KernelResult(
        KernelVerdict.REDUCED,
        instance,
        {i: orig for i, orig in enumerate(kept)},
        frozenset(receivers) | frozenset(senders),
    )


def lift_solution(result: KernelResult, kernel_solution) -> set[Arc]:
    """Map a kernel solution's arcs back to original vertex indices."""
    arcs = set(tuple(arc) for arc in kernel_solution)
    if result.verdict is KernelVerdict.TRIVIAL_NO:
        raise ValueError("a trivial no-instance has no solutions to lift")
    if result.verdict is KernelVerdict.TRIVIAL_YES:
        if arcs:
            raise ValueError("trivial yes-instances only admit the empty solution")
        return set()
    lifted = set()
    for (u, v) in sorted(arcs):
        if u in result.added or v in result.added:
            raise ValueError(f"kernel arc ({u}, {v}) touches a repair vertex")
        lifted.add((result.kept[u], result.kept[v]))
    return lifted
