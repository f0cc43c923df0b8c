"""Instance types for the three digraph completion problems.

Wire names (used by the CLI and file formats): ``ddconc`` for per-vertex
degree-list completion, ``ddseqc`` for exact-target-sequence completion,
``dda`` for k-anonymous completion.

Each type tells the pipeline what differs between the problems: the cap on
solution degrees, the budget that sizes the search, the least size the search
starts at, the instance actually solved at a budget, the final-degree
condition, and its file fields.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from .core import DegreeListFunction, DegreeSequence, Digraph, degree_sequence


def _free_pairs(d: Digraph) -> int:
    """Number of insertable arcs: ordered vertex pairs that are not arcs."""
    return d.n * (d.n - 1) - d.m


def _roof(d: Digraph) -> int:
    # No simple digraph on n vertices has a degree above n - 1.
    return max(d.n - 1, 0)


class _Problem:
    """Defaults shared by the instance types.

    Each type's ``degree_cap()`` bounds the max in-/outdegree of any solution
    digraph.  It is always clamped to n - 1, since no simple digraph on n
    vertices can exceed it; this keeps demand realization applicable whenever
    the cap is beaten by the budget.

    For ddconc and dda the cap is min(budget-free term, max_degree + s, n - 1),
    so lowering a budget s > 2 * cap**2 to min(2 * cap**2, free pairs) keeps
    it: 2 * cap**2 >= cap, and max_degree + free pairs >= n - 1, as every
    vertex misses n - 1 - max_degree out-arcs or more.
    """

    exact_size = False  # True when the budget fixes the size, not bounds it
    lists = None  # per-vertex allowed degree pairs, when the problem has them

    def size_budget(self) -> int | None:
        return self.budget


@dataclass(frozen=True)
class ListCompletion(_Problem):
    """Insert at most ``budget`` arcs so every vertex hits an allowed pair."""

    digraph: Digraph
    budget: int
    allowed: DegreeListFunction

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if len(self.allowed) != self.digraph.n:
            raise ValueError("allowed lists must cover every vertex")

    kind = "ddconc"
    final_key = "degree_lists_satisfied"

    @property
    def lists(self) -> DegreeListFunction:
        return self.allowed

    def degree_cap(self) -> int:
        d = self.digraph
        return min(self.allowed.bound, d.max_degree + self.budget, _roof(d))

    def size_floor(self) -> int:
        """A lower bound on the arc count of any solution."""
        # Each inserted arc adds one indegree and one outdegree, so a solution
        # needs at least the summed least in-gains, and the summed least
        # out-gains, to listed pairs that dominate the current degrees.  An
        # arc touches two vertices, so it also needs half the unsatisfied
        # ones.  With no such pair at some vertex (a degree above the cap
        # leaves none), no solution exists, so the bound goes above the
        # number of insertable pairs.
        d = self.digraph
        need_in = need_out = unsatisfied = 0
        for v, entry in enumerate(self.allowed):
            have = d.degree(v)
            gains = [p - have for p in entry if p.dominates(have)]
            if not gains:
                return _free_pairs(d) + 1
            need_in += min(g.indeg for g in gains)
            need_out += min(g.outdeg for g in gains)
            unsatisfied += have not in entry
        return max(need_in, need_out, (unsatisfied + 1) // 2)

    def at_budget(self, s: int) -> "ListCompletion":
        # Degree pairs beyond n - 1 per component can never be realized in a
        # simple digraph, so dropping them preserves the answer and keeps the
        # number-problem route aligned with what flows can install.
        d = self.digraph
        roof = _roof(d)
        trimmed = DegreeListFunction(
            [
                [p for p in self.allowed[v] if p.max_component <= roof]
                for v in range(d.n)
            ],
            bound=min(self.allowed.bound, roof),
        )
        return ListCompletion(d, min(s, _free_pairs(d)), trimmed)

    def final_check(self):
        lists = self.allowed
        return lambda indeg, outdeg: all(
            (i, o) in allowed for i, o, allowed in zip(indeg, outdeg, lists)
        )

    def wire_fields(self) -> dict:
        return {
            "budget": self.budget,
            "degree_bound": self.allowed.bound,
            "degree_lists": [
                [list(p) for p in sorted(entry)] for entry in self.allowed
            ],
        }


@dataclass(frozen=True)
class SequenceCompletion(_Problem):
    """Insert arcs so the degree sequence equals ``target`` as a multiset."""

    digraph: Digraph
    target: DegreeSequence

    def __post_init__(self):
        if len(self.target) != self.digraph.n:
            raise ValueError("target length must equal vertex count")

    kind = "ddseqc"
    final_key = "target_sequence_matched"
    exact_size = True

    def implied_insertions(self) -> int | None:
        """Arc count forced by the target, or None if the totals are invalid."""
        # Indegrees and outdegrees of a digraph each sum to its arc count.
        grow_in = self.target.sum_indeg - self.digraph.m
        grow_out = self.target.sum_outdeg - self.digraph.m
        if grow_in != grow_out or grow_in < 0:
            return None
        return grow_in

    def degree_cap(self) -> int:
        return min(self.target.max_component, _roof(self.digraph))

    def size_budget(self) -> int | None:
        return self.implied_insertions()

    def size_floor(self) -> int:
        """The forced size, or more when no solution exists."""
        # Degrees only grow, so a current max above the target's rules every
        # solution out.  An arc moves at most two vertices out of a degree
        # block, so a block that the target holds e fewer times needs e / 2
        # arcs.
        d, target = self.digraph, self.target
        s = self.implied_insertions()
        if s is None:
            return _free_pairs(d) + 1
        if d.max_indegree > target.max_indeg or d.max_outdegree > target.max_outdeg:
            return s + 1
        wanted = target.as_multiset()
        have = degree_sequence(d).as_multiset()
        return max([s] + [(count - wanted[p] + 1) // 2 for p, count in have.items()])

    def at_budget(self, s: int | None) -> "SequenceCompletion | None":
        d = self.digraph
        if s is None or s > _free_pairs(d) or self.target.max_component > _roof(d):
            return None
        return self

    def final_check(self):
        # A plain dict, so comparing a Counter against it runs dict equality.
        target = dict(self.target.as_multiset())
        return lambda indeg, outdeg: Counter(zip(indeg, outdeg)) == target

    def wire_fields(self) -> dict:
        return {"target_sequence": [list(p) for p in self.target]}


@dataclass(frozen=True)
class AnonymityCompletion(_Problem):
    """Insert at most ``budget`` arcs so every degree pair occurs >= k times."""

    digraph: Digraph
    anonymity: int
    budget: int

    def __post_init__(self):
        if self.anonymity < 1:
            raise ValueError("anonymity level must be positive")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    kind = "dda"
    final_key = "anonymity_reached"

    def degree_cap(self) -> int:
        d = self.digraph
        return min(dda_delta_star_cap(d, self.anonymity, self.budget), _roof(d))

    def size_floor(self) -> int:
        """A lower bound on the arc count of any solution.

        Each arc adds exactly 2 to the summed gains |Δin| + |Δout| over all
        vertices.  A degree block of b < k vertices must either empty or
        fill up to k.  Emptying moves its b vertices, each with a gain of at
        least 1.  Filling takes k - b joiners.  Degrees only grow, so each
        joiner comes from a present pair that the block strictly dominates,
        and its gain is at least the least L1 distance to such a pair; with
        no such pair the block cannot be filled.  A vertex leaves at most one
        block and joins at most one, so the emptying total E and the filling
        total F are each at most 2 * arcs.  The floor is therefore the least
        ceil(max(E, F) / 2) over all splits of the small blocks into emptied
        and filled ones.  It is above 0 exactly when the digraph is not
        k-anonymous, and never below ceil(min(b, k - b) / 2) for any block.
        """
        k = self.anonymity
        have = degree_sequence(self.digraph).as_multiset()
        # Least filling total for each emptying total, over the blocks so far;
        # an emptying total is at most n, so the map holds at most n + 1 keys.
        best = {0: 0}
        for pair, b in have.items():
            if b >= k:
                continue
            dists = [sum(pair - p) for p in have if p != pair and pair.dominates(p)]
            options = [(b, 0)] + ([(0, (k - b) * min(dists))] if dists else [])
            step: dict[int, int] = {}
            for empty, fill in best.items():
                for e, f in options:
                    if fill + f < step.get(empty + e, fill + f + 1):
                        step[empty + e] = fill + f
            best = step
        return min((max(empty, fill) + 1) // 2 for empty, fill in best.items())

    def at_budget(self, s: int) -> "AnonymityCompletion":
        d = self.digraph
        return AnonymityCompletion(d, self.anonymity, min(s, _free_pairs(d)))

    def final_check(self):
        k = self.anonymity
        return lambda indeg, outdeg: all(
            c >= k for c in Counter(zip(indeg, outdeg)).values()
        )

    def wire_fields(self) -> dict:
        return {"anonymity": self.anonymity, "budget": self.budget}


ProblemInstance = Union[ListCompletion, SequenceCompletion, AnonymityCompletion]


def dda_delta_star_cap(d: Digraph, k: int, s: int) -> int:
    """Upper bound on the max in-/outdegree of any minimal anonymized digraph.

    Minimum-size solutions never raise the maximum degree beyond
    4*k*(max_degree + 2)^2 + max_degree, and s insertions can add at most s
    to any single degree; the cap is the smaller of the two.
    """
    delta = d.max_degree
    return min(delta + s, 4 * k * (delta + 2) * (delta + 2) + delta)
