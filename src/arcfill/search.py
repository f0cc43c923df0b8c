"""Bounded exhaustive search and the full two-stage solving pipeline.

Small budgets are handled by exhaustively trying arc sets, from the
problem's size floor up, inside a representative vertex set of the input
itself, with no kernel instance and no lift.  Budgets larger than twice the
squared degree cap of any solution are handled on the degree sequence alone:
a number-problem solver proposes per-vertex increments, which a max-flow
realization is then guaranteed to install as concrete arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import DegreeSequence, degree_sequence
from .flow import DemandVector, realize_demands
from .kernel import (
    KernelResult,
    compute_alpha_set,
    kernelize_dda,
    kernelize_ddconc,
    kernelize_ddseqc,
    quota,
)
# Not called here: the benchmark tracer (bench/spans.py) wraps it by name.
from .kernel import lift_solution  # noqa: F401
from .numprob import demands_from_solution, solve_nda, solve_nddcc, solve_nddsc
from .problems import ProblemInstance

Arc = tuple[int, int]

__all__ = [
    "Solution",
    "solve",
    "solve_bounded",
    "verify_solution",
    "build_certificate",
    "kernelize",
]


@dataclass(frozen=True)
class Solution:
    """Inserted arcs plus a machine-checkable certificate of the checks run."""

    arcs: tuple[Arc, ...]
    certificate: dict[str, bool]

    def __post_init__(self):
        object.__setattr__(
            self, "arcs", tuple(sorted((int(u), int(v)) for (u, v) in self.arcs))
        )


def build_certificate(instance: ProblemInstance, arcs) -> dict[str, bool]:
    """Re-check a claimed solution directly against the problem definition."""
    d = instance.digraph
    arcs = [tuple(arc) for arc in arcs]
    unique = set(arcs)
    insertable = (
        len(unique) == len(arcs)
        and all(
            u != v and 0 <= u < d.n and 0 <= v < d.n and (u, v) not in d.arcs
            for (u, v) in unique
        )
    )
    size = instance.size_budget()
    within = size is not None and (
        len(unique) == size if instance.exact_size else len(unique) <= size
    )
    cert = {"arcs_insertable": insertable, "within_budget": within}
    final_ok = False
    if insertable:
        indeg = [d.indegree(v) for v in range(d.n)]
        outdeg = [d.outdegree(v) for v in range(d.n)]
        for (u, v) in unique:
            outdeg[u] += 1
            indeg[v] += 1
        final_ok = instance.final_check()(indeg, outdeg)
    cert[instance.final_key] = final_ok
    return cert


def verify_solution(instance: ProblemInstance, solution: Solution) -> bool:
    """Independent pass/fail re-check of a solution."""
    return all(build_certificate(instance, solution.arcs).values())


def _finish(instance: ProblemInstance, arcs) -> Solution:
    cert = build_certificate(instance, arcs)
    # An explicit raise, so the self-check also runs under ``python -O``.
    if not all(cert.values()):
        raise AssertionError(f"solver produced an invalid solution: {cert}")
    return Solution(tuple(arcs), cert)


def solve_bounded(instance: ProblemInstance) -> Solution | None:
    """Exhaustive search over arc sets inside a representative vertex set.

    A ``size_floor()`` above the budget is a "no" before any set is built.
    Candidate arcs are the insertable pairs within the representative set,
    sorted by (tail, head).  ``itertools.combinations`` yields their subsets
    by increasing cardinality, starting at the floor, and then lexicographic
    rank, so the first valid hit is the canonical minimal solution.
    ``solve`` runs it on the input itself, once the budget is at most twice
    the squared degree cap.
    """
    d = instance.digraph
    budget = instance.size_budget()
    floor = instance.size_floor()
    # An exact-sequence target with invalid totals has no budget at all.
    if budget is None or floor > budget:
        return None
    # No vertex gains more than the budget on either side, so types above it
    # lie in no solution and need no representatives.
    cap = min(instance.degree_cap(), budget)
    chosen = compute_alpha_set(d, instance.lists, quota(budget, d.max_degree), cap)
    # The quota's swap argument counts only arcs between chosen vertices, so
    # the max degree inside the set sizes a quota that keeps the first hit.
    inner = d.induced(chosen).max_degree
    if inner < d.max_degree:
        chosen = compute_alpha_set(d, instance.lists, quota(budget, inner), cap)
    pairs = sorted(
        (u, v)
        for u in chosen
        for v in chosen
        if u != v and (u, v) not in d.arcs
    )
    indeg = [d.indegree(v) for v in range(d.n)]
    outdeg = [d.outdegree(v) for v in range(d.n)]
    valid_now = instance.final_check()
    for size in range(floor, min(budget, len(pairs)) + 1):
        for arcs in combinations(pairs, size):
            for (u, v) in arcs:
                outdeg[u] += 1
                indeg[v] += 1
            found = valid_now(indeg, outdeg)
            for (u, v) in arcs:
                outdeg[u] -= 1
                indeg[v] -= 1
            if found:
                return _finish(instance, arcs)
    return None


def _listed_demands(work, sequence, low, high, cap) -> DemandVector | None:
    number = solve_nddcc(sequence, high, work.allowed, low)
    return None if number is None else number.demands


def _matched_demands(work, sequence, low, high, cap) -> DemandVector | None:
    matching = solve_nddsc(sequence, work.target)
    if matching is None:
        return None
    target = DegreeSequence(work.target[j] for j in matching)
    return demands_from_solution(sequence, target)


def _anonymous_demands(work, sequence, low, high, cap) -> DemandVector | None:
    for budget in range(low, high + 1):
        number = solve_nda(sequence, budget, work.anonymity, cap)
        if number is not None:
            return number.demands
    return None


# Per problem: the number step (instance, degree sequence, low, high, cap) ->
# demands at the smallest feasible budget in low..high, or None; and the
# kernel step (instance, cap) -> KernelResult, used only by ``kernelize``,
# whose trivial-no rules ``solve`` leaves to the size floors.  Both look the
# solvers up as module globals at call time.
_STEPS = {
    "ddconc": (
        _listed_demands,
        lambda work, cap: kernelize_ddconc(
            work.digraph, work.budget, work.allowed, cap
        ),
    ),
    "ddseqc": (
        _matched_demands,
        lambda work, cap: kernelize_ddseqc(work.digraph, work.target),
    ),
    "dda": (
        _anonymous_demands,
        lambda work, cap: kernelize_dda(work.digraph, work.anonymity, work.budget),
    ),
}


def kernelize(instance: ProblemInstance) -> KernelResult:
    """The kernel of an instance at its own budget (``arcfill kernelize``)."""
    return _STEPS[instance.kind][1](instance, instance.degree_cap())


def solve(instance: ProblemInstance) -> Solution | None:
    """Exact decision and witness for any of the three completion problems.

    A budget above twice the squared degree cap gets one try on the
    degree-sequence route (number problem plus flow realization).  Failing
    that, a forced size is a no, and any other budget drops to the threshold,
    where bounded search on the input decides, starting at the problem's
    size floor.  Every returned solution re-verifies against the original
    instance; identical inputs produce identical solutions.
    """
    work = instance.at_budget(instance.size_budget())
    if work is None:
        return None
    d = instance.digraph
    number_step, _ = _STEPS[instance.kind]
    s = work.size_budget()
    cap = work.degree_cap()
    threshold = 2 * cap * cap
    if s > threshold:
        demands = number_step(work, degree_sequence(d), threshold + 1, s, cap)
        if demands is not None:
            return _finish(instance, realize_demands(d, demands, cap))
        if work.exact_size:
            # The size is forced, so no smaller budget is left to try.
            return None
        # Lowering the budget to the threshold keeps the cap (see _Problem).
        work = work.at_budget(threshold)
    inner = solve_bounded(work)
    if inner is None:
        return None
    return _finish(instance, inner.arcs)
