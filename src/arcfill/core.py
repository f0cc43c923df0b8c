"""Digraph and degree-sequence data model.

Vertices are dense integer indices ``0..n-1``.  All containers iterate in
ascending index order, so every operation built on top of this module is
deterministic.  The sequence types are tuples and equal the plain tuple of
their entries.  Values are immutable after construction.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

Arc = tuple[int, int]


class DegreePair(NamedTuple):
    """An (indegree, outdegree) pair with componentwise arithmetic."""

    indeg: int
    outdeg: int

    def __add__(self, other) -> "DegreePair":
        return DegreePair(self.indeg + other[0], self.outdeg + other[1])

    def __sub__(self, other) -> "DegreePair":
        return DegreePair(self.indeg - other[0], self.outdeg - other[1])

    def dominates(self, other) -> bool:
        """Componentwise >= comparison."""
        return self.indeg >= other[0] and self.outdeg >= other[1]

    @property
    def max_component(self) -> int:
        return max(self.indeg, self.outdeg)


def _as_pair(value) -> DegreePair:
    pair = DegreePair(int(value[0]), int(value[1]))
    if pair.indeg < 0 or pair.outdeg < 0:
        raise ValueError(f"degree pair must be nonnegative, got {tuple(pair)}")
    return pair


class Digraph:
    """Loop-free, multiarc-free directed graph on vertices ``0..n-1``.

    Arc membership is O(1); per-vertex in/out adjacency is kept sorted.
    """

    __slots__ = ("n", "arcs", "_in", "_out")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        arc_set = set()
        ins: list[list[int]] = [[] for _ in range(n)]
        outs: list[list[int]] = [[] for _ in range(n)]
        for raw in arcs:
            u, v = int(raw[0]), int(raw[1])
            if u == v:
                raise ValueError(f"loop arc ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if (u, v) in arc_set:
                continue
            arc_set.add((u, v))
            outs[u].append(v)
            ins[v].append(u)
        self.arcs: frozenset[Arc] = frozenset(arc_set)
        self._in = tuple(tuple(sorted(vs)) for vs in ins)
        self._out = tuple(tuple(sorted(vs)) for vs in outs)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def indegree(self, v: int) -> int:
        return len(self._in[v])

    def outdegree(self, v: int) -> int:
        return len(self._out[v])

    def degree(self, v: int) -> DegreePair:
        return DegreePair(len(self._in[v]), len(self._out[v]))

    @property
    def max_indegree(self) -> int:
        return max((len(vs) for vs in self._in), default=0)

    @property
    def max_outdegree(self) -> int:
        return max((len(vs) for vs in self._out), default=0)

    @property
    def max_degree(self) -> int:
        return max(self.max_indegree, self.max_outdegree)

    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)

    def non_arcs(self) -> list[Arc]:
        """All insertable arcs (ordered pairs, no loops), sorted by (tail, head)."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(self.n)
            if u != v and (u, v) not in self.arcs
        ]

    def induced(self, vertices: Iterable[int]) -> "Digraph":
        """Subgraph on the given vertices, reindexed in ascending original order."""
        kept = sorted(set(vertices))
        index = {orig: i for i, orig in enumerate(kept)}
        arcs = [
            (index[u], index[v])
            for (u, v) in self.arcs
            if u in index and v in index
        ]
        return Digraph(len(kept), arcs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs()!r})"


class DegreeSequence(tuple[DegreePair, ...]):
    """Tuple of degree pairs; entry order carries vertex identity.

    Equality is order-sensitive; use :meth:`as_multiset` for the multiset
    view.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable):
        return super().__new__(cls, (_as_pair(e) for e in entries))

    def __repr__(self) -> str:
        return f"DegreeSequence({[tuple(e) for e in self]!r})"

    @property
    def max_indeg(self) -> int:
        return max((e.indeg for e in self), default=0)

    @property
    def max_outdeg(self) -> int:
        return max((e.outdeg for e in self), default=0)

    @property
    def max_component(self) -> int:
        return max(self.max_indeg, self.max_outdeg)

    @property
    def sum_indeg(self) -> int:
        return sum(e.indeg for e in self)

    @property
    def sum_outdeg(self) -> int:
        return sum(e.outdeg for e in self)

    def as_multiset(self) -> Counter:
        return Counter(self)

    def is_k_anonymous(self, k: int) -> bool:
        """True iff every occurring pair occurs at least k times."""
        if k <= 1:
            return True
        return all(count >= k for count in self.as_multiset().values())


class DegreeListFunction(tuple[frozenset[DegreePair], ...]):
    """Per-vertex sets of permitted final degree pairs, components <= bound.

    ``bound`` is read-only and takes no part in equality.
    """

    def __new__(cls, lists: Iterable[Iterable], bound: int | None = None):
        sets = (frozenset(_as_pair(p) for p in entry) for entry in lists)
        self = super().__new__(cls, sets)
        derived = max((p.max_component for entry in self for p in entry), default=0)
        if bound is not None and bound < derived:
            raise ValueError(
                f"degree bound {bound} smaller than listed component {derived}"
            )
        self._bound = derived if bound is None else bound
        return self

    @property
    def bound(self) -> int:
        return self._bound

    @property
    def lists(self) -> tuple[frozenset[DegreePair], ...]:
        return tuple(self)

    def __repr__(self) -> str:
        shown = [sorted(tuple(p) for p in entry) for entry in self]
        return f"DegreeListFunction({shown!r}, bound={self.bound})"


def degree_sequence(d: Digraph) -> DegreeSequence:
    """Degree pairs of all vertices, in canonical vertex order."""
    return DegreeSequence(d.degree(v) for v in range(d.n))


def blocks(d: Digraph) -> dict[DegreePair, set[int]]:
    """Partition of the vertices into groups of equal degree pair."""
    result: dict[DegreePair, set[int]] = {}
    for v in range(d.n):
        result.setdefault(d.degree(v), set()).add(v)
    return result


def vertex_types(
    d: Digraph, lists: DegreeListFunction, v: int, cap: int
) -> set[DegreePair]:
    """Increments t with components in 0..cap such that deg(v) + t is allowed.

    The pair (0, 0) is a member exactly when v already has an allowed degree.
    """
    deg = d.degree(v)
    types = set()
    for pair in lists[v]:
        t = pair - deg
        if 0 <= t.indeg <= cap and 0 <= t.outdeg <= cap:
            types.add(t)
    return types


def is_satisfied(d: Digraph, lists: DegreeListFunction, v: int) -> bool:
    """True iff v's current degree pair is in its allowed list."""
    return d.degree(v) in lists[v]
