"""Realizing per-vertex degree demands through a max-flow network.

Each vertex i of the input digraph gets two copies in the network: an
out-copy fed from the source with capacity ``out_demand[i]`` and an in-copy
draining to the sink with capacity ``in_demand[i]``.  A unit-capacity arc
connects out-copy i to in-copy j for every insertable digraph arc (i, j)
with ``out_demand[i] > 0`` and ``in_demand[j] > 0``; no flow could use an
arc at any other pair.  A unit of flow across such an arc corresponds to
inserting (i, j), so an integral maximum flow of value s yields an arc set
meeting all demands exactly whenever one exists.

The headline guarantee implemented by :func:`realize_demands`: when the
demands are balanced at total s, every per-vertex final degree stays within
a cap that is at most n - 1, and s exceeds twice the square of that cap,
a realizing arc set always exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Arc, Digraph


class PreconditionViolatedError(ValueError):
    """A guaranteed-realization precondition failed; `.condition` names it."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"condition {condition}: {message}")
        self.condition = condition


@dataclass(frozen=True)
class DemandVector:
    """Per-vertex nonnegative indegree/outdegree increments."""

    in_demand: tuple[int, ...]
    out_demand: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "in_demand", tuple(int(x) for x in self.in_demand))
        object.__setattr__(self, "out_demand", tuple(int(y) for y in self.out_demand))
        if len(self.in_demand) != len(self.out_demand):
            raise ValueError("demand vectors must have equal length")
        if any(x < 0 for x in self.in_demand) or any(y < 0 for y in self.out_demand):
            raise ValueError("demands must be nonnegative")

    def __len__(self) -> int:
        return len(self.in_demand)

    @property
    def total_in(self) -> int:
        return sum(self.in_demand)

    @property
    def total_out(self) -> int:
        return sum(self.out_demand)

    @property
    def is_balanced(self) -> bool:
        return self.total_in == self.total_out


@dataclass(frozen=True)
class FlowNetwork:
    """Demand network for a digraph.

    Node numbering: source = 0, out-copy of vertex i = 1 + i, in-copy of
    vertex i = 1 + n + i, sink = 1 + 2n.  ``unit_arcs`` lists, sorted, the
    insertable digraph arcs (i, j) backing the unit-capacity network arcs:
    those whose tail has positive out-demand and whose head has positive
    in-demand.
    """

    n: int
    source_caps: tuple[int, ...]
    sink_caps: tuple[int, ...]
    unit_arcs: tuple[Arc, ...]

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 1 + 2 * self.n

    def out_copy(self, i: int) -> int:
        return 1 + i

    def in_copy(self, i: int) -> int:
        return 1 + self.n + i

    def node_count(self) -> int:
        return 2 * self.n + 2

    def edges(self):
        """Yield every network edge as (tail, head, capacity), in canonical order.

        Source edges come first, then sink edges, then one unit edge per
        entry of ``unit_arcs``.
        """
        for i in range(self.n):
            yield self.source, self.out_copy(i), self.source_caps[i]
        for i in range(self.n):
            yield self.in_copy(i), self.sink, self.sink_caps[i]
        for i, j in self.unit_arcs:
            yield self.out_copy(i), self.in_copy(j), 1


def build_network(d: Digraph, demands: DemandVector) -> FlowNetwork:
    """Build the demand network for d; deterministic node numbering.

    Unit arcs join only live copies: an out-copy without supply is never
    reached and an in-copy without sink capacity is a dead end, so leaving
    their arcs out changes neither the BFS levels of the other nodes, nor
    the order of their remaining edges, nor the augmenting paths.
    """
    if len(demands) != d.n:
        raise ValueError("demand vector length must equal vertex count")
    heads = [j for j, x in enumerate(demands.in_demand) if x > 0]
    return FlowNetwork(
        n=d.n,
        source_caps=demands.out_demand,
        sink_caps=demands.in_demand,
        unit_arcs=tuple(
            (i, j)
            for i, y in enumerate(demands.out_demand)
            if y > 0
            for j in heads
            if i != j and (i, j) not in d.arcs
        ),
    )


def max_flow(net: FlowNetwork) -> tuple[int, frozenset[Arc]]:
    """Maximum integral s-t flow and the digraph arcs of saturated unit arcs.

    Dinic's algorithm on the edges of ``net.edges()``: edge 2e is the e-th
    edge and 2e + 1 its reverse, and each node's adjacency keeps that order,
    which keeps the saturated set deterministic.  Every source-to-sink path
    crosses a unit edge or its reverse, so each augmenting path carries
    exactly one unit.
    """
    nodes = net.node_count()
    adj: list[list[int]] = [[] for _ in range(nodes)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, capacity in net.edges():
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (capacity, 0)
    s, t = net.source, net.sink
    value = 0
    while True:
        level = [-1] * nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            for k in adj[u]:
                if cap[k] > 0 and level[to[k]] < 0:
                    level[to[k]] = level[u] + 1
                    queue.append(to[k])
        if level[t] < 0:
            break
        # Blocking flow: ``path`` holds the edges from s to u, and it[u] is
        # the first edge of u not yet found to lead to a dead end.
        it = [0] * nodes
        path: list[int] = []
        u = s
        while True:
            if u == t:
                for k in path:
                    cap[k] -= 1
                    cap[k ^ 1] += 1
                value += 1
                path.clear()
                u = s
            out = adj[u]
            for i in range(it[u], len(out)):
                k = out[i]
                if cap[k] > 0 and level[to[k]] == level[u] + 1:
                    it[u] = i
                    path.append(k)
                    u = to[k]
                    break
            else:
                it[u] = len(out)
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1
    first_unit = 4 * net.n
    saturated = frozenset(
        arc
        for e, arc in enumerate(net.unit_arcs)
        if cap[first_unit + 2 * e] == 0
    )
    return value, saturated


def try_realize_demands(d: Digraph, demands: DemandVector) -> set[Arc] | None:
    """Arc set meeting the demands exactly, or None if none exists.

    Succeeds iff the maximum flow of the demand network equals the balanced
    demand total.
    """
    net = build_network(d, demands)
    if not demands.is_balanced:
        raise ValueError(
            f"total in {demands.total_in} != total out {demands.total_out}"
        )
    value, saturated = max_flow(net)
    if value != demands.total_in:
        return None
    return set(saturated)


def realize_demands(d: Digraph, demands: DemandVector, delta_star: int) -> set[Arc]:
    """Arc set meeting the demands exactly; guaranteed when preconditions hold.

    Preconditions (checked in order, first failure reported):
      I    delta_star <= n - 1
      II   indegree(v_i) + in_demand[i] <= delta_star for all i
      III  outdegree(v_i) + out_demand[i] <= delta_star for all i
      IV   sum(in_demand) == sum(out_demand) =: s
      V    s > 2 * delta_star**2

    Under I-V a realizing arc set of size exactly s always exists and is
    returned; the combinatorial argument is that any flow of smaller value
    would leave a pair of unsaturated copies whose residual neighborhoods,
    each of size at least n - delta_star, force an augmenting path.
    """
    if len(demands) != d.n:
        raise ValueError("demand vector length must equal vertex count")
    if delta_star > d.n - 1:
        raise PreconditionViolatedError(
            "I", f"delta_star {delta_star} exceeds n - 1 = {d.n - 1}"
        )
    for i in range(d.n):
        if d.indegree(i) + demands.in_demand[i] > delta_star:
            raise PreconditionViolatedError(
                "II",
                f"vertex {i}: indegree {d.indegree(i)} + demand "
                f"{demands.in_demand[i]} exceeds {delta_star}",
            )
    for i in range(d.n):
        if d.outdegree(i) + demands.out_demand[i] > delta_star:
            raise PreconditionViolatedError(
                "III",
                f"vertex {i}: outdegree {d.outdegree(i)} + demand "
                f"{demands.out_demand[i]} exceeds {delta_star}",
            )
    if not demands.is_balanced:
        raise PreconditionViolatedError(
            "IV", f"total in {demands.total_in} != total out {demands.total_out}"
        )
    s = demands.total_in
    if s <= 2 * delta_star * delta_star:
        raise PreconditionViolatedError(
            "V", f"s = {s} is not larger than 2 * {delta_star}**2"
        )
    arcs = try_realize_demands(d, demands)
    if arcs is None:
        raise AssertionError(
            "realization guarantee violated despite satisfied preconditions"
        )
    return arcs
