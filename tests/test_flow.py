import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from arcfill import (
    DemandVector,
    Digraph,
    FlowNetwork,
    PreconditionViolatedError,
    build_network,
    degree_sequence,
    max_flow,
    realize_demands,
    try_realize_demands,
)
from arcfill.oracle import apply_demands
from conftest import add_arcs, bounded_digraph, realization_case, sequence_example


def test_demand_vector_validation():
    with pytest.raises(ValueError):
        DemandVector((1,), (1, 0))
    with pytest.raises(ValueError):
        DemandVector((-1,), (0,))
    demands = DemandVector((1, 0), (0, 1))
    assert demands.total_in == demands.total_out == 1
    assert demands.is_balanced


def test_build_network_two_vertices():
    net = build_network(Digraph(2), DemandVector((1, 0), (0, 1)))
    # Only vertex 1 has out-demand and only vertex 0 has in-demand.
    assert net.unit_arcs == ((1, 0),)
    edges = dict(((u, v), cap) for (u, v, cap) in net.edges())
    # out-copies are nodes 1..n, in-copies n+1..2n
    assert edges[(net.source, net.out_copy(0))] == 0
    assert edges[(net.source, net.out_copy(1))] == 1
    assert edges[(net.in_copy(0), net.sink)] == 1
    assert edges[(net.in_copy(1), net.sink)] == 0
    assert (net.out_copy(0), net.in_copy(1)) not in edges
    assert edges[(net.out_copy(1), net.in_copy(0))] == 1


def test_build_network_complete_digraph_has_no_unit_arcs():
    complete = Digraph(2, [(0, 1), (1, 0)])
    net = build_network(complete, DemandVector((1, 1), (1, 1)))
    assert net.unit_arcs == ()


def test_build_network_counts_oriented_non_arcs():
    net = build_network(Digraph(3), DemandVector((0,) * 3, (0,) * 3))
    assert len(net.unit_arcs) == 0
    net = build_network(Digraph(3), DemandVector((1,) * 3, (1,) * 3))
    assert len(net.unit_arcs) == 6


def test_live_copy_network_keeps_the_full_network_flow():
    # The full network also joins copies without supply or sink capacity;
    # no flow crosses those arcs, so the maximum flow and its saturated
    # arcs must not change when they are left out.
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 12)
        d = bounded_digraph(rng, n, max_degree=n - 1, density=rng.random())
        demands = DemandVector(
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)),
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)),
        )
        full = FlowNetwork(
            n, demands.out_demand, demands.in_demand, tuple(d.non_arcs())
        )
        live = build_network(d, demands)
        assert max_flow(live) == max_flow(full)
        assert len(live.unit_arcs) == sum(
            1
            for (i, j) in d.non_arcs()
            if demands.out_demand[i] > 0 and demands.in_demand[j] > 0
        )


def test_node_numbering_is_contiguous():
    net = build_network(Digraph(3), DemandVector((0,) * 3, (0,) * 3))
    assert net.source == 0
    assert [net.out_copy(i) for i in range(3)] == [1, 2, 3]
    assert [net.in_copy(i) for i in range(3)] == [4, 5, 6]
    assert net.sink == 7


def test_max_flow_zero_supply():
    value, saturated = max_flow(build_network(Digraph(3), DemandVector((0,) * 3, (0,) * 3)))
    assert value == 0
    assert saturated == frozenset()


def test_max_flow_unique_path():
    value, saturated = max_flow(
        build_network(Digraph(2), DemandVector((1, 0), (0, 1)))
    )
    assert value == 1
    assert saturated == frozenset({(1, 0)})


def test_max_flow_three_cycle_demand():
    value, saturated = max_flow(
        build_network(Digraph(3), DemandVector((1, 1, 1), (1, 1, 1)))
    )
    assert value == 3
    assert len(saturated) == 3


def test_max_flow_survives_low_recursion_limit():
    # Each i < m matches m + 1 + i in the first phase, which leaves m stuck.
    # The second phase then needs one augmenting path through every pair, so
    # a recursive search needs depth 2m + 3.
    script = textwrap.dedent(
        """
        import sys
        from arcfill import DemandVector, Digraph, build_network, max_flow

        m = 50
        n = 2 * m + 2
        missing = {(i, m + 1 + i) for i in range(m)}
        missing |= {(i, m + 2 + i) for i in range(m)} | {(m, m + 1)}
        arcs = [
            (u, v)
            for u in range(m + 1)
            for v in range(m + 1, n)
            if (u, v) not in missing
        ]
        demands = DemandVector(
            (0,) * (m + 1) + (1,) * (m + 1), (1,) * (m + 1) + (0,) * (m + 1)
        )
        net = build_network(Digraph(n, arcs), demands)
        sys.setrecursionlimit(80)
        value, saturated = max_flow(net)
        expected = {(i, m + 2 + i) for i in range(m)} | {(m, m + 1)}
        print(value, saturated == expected)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "51 True\n"


def test_realize_demands_small_cycle():
    d = Digraph(4)
    demands = DemandVector((1, 1, 1, 0), (1, 1, 1, 0))
    arcs = realize_demands(d, demands, 1)
    assert len(arcs) == 3
    assert apply_demands(d, demands, arcs)


def test_realize_demands_rejects_zero_budget():
    with pytest.raises(PreconditionViolatedError) as excinfo:
        realize_demands(Digraph(4), DemandVector((0,) * 4, (0,) * 4), 1)
    assert excinfo.value.condition == "V"


def test_realize_demands_ten_vertices():
    d = Digraph(10)
    demands = DemandVector((1,) * 10, (1,) * 10)
    arcs = realize_demands(d, demands, 2)
    assert len(arcs) == 10
    assert apply_demands(d, demands, arcs)


def test_realize_demands_identifies_first_failed_condition():
    d = Digraph(3)
    with pytest.raises(PreconditionViolatedError) as excinfo:
        realize_demands(d, DemandVector((3, 3, 3), (3, 3, 3)), 3)
    assert excinfo.value.condition == "I"
    with pytest.raises(PreconditionViolatedError) as excinfo:
        realize_demands(Digraph(9), DemandVector((3,) + (0,) * 8, (1,) * 8 + (0,)), 2)
    assert excinfo.value.condition == "II"
    with pytest.raises(PreconditionViolatedError) as excinfo:
        realize_demands(Digraph(9), DemandVector((1,) * 8 + (0,), (3,) + (0,) * 8), 2)
    assert excinfo.value.condition == "III"
    with pytest.raises(PreconditionViolatedError) as excinfo:
        realize_demands(Digraph(9), DemandVector((1,) * 9, (1,) * 8 + (0,)), 2)
    assert excinfo.value.condition == "IV"


def test_try_realize_zero_demands():
    assert try_realize_demands(Digraph(3), DemandVector((0,) * 3, (0,) * 3)) == set()


def test_try_realize_complete_digraph_fails():
    complete = Digraph(2, [(0, 1), (1, 0)])
    assert try_realize_demands(complete, DemandVector((1, 0), (0, 1))) is None


def test_try_realize_fixture_demands():
    fixture = sequence_example().digraph
    result = try_realize_demands(fixture, DemandVector((1, 0, 0, 0), (0, 0, 0, 1)))
    assert result == {(3, 0)}


def test_try_realize_rejects_unbalanced():
    with pytest.raises(ValueError, match="total in 1 != total out 0"):
        try_realize_demands(Digraph(3), DemandVector((1, 0, 0), (0, 0, 0)))


def test_realization_soundness_random():
    rng = random.Random(1234)
    for _ in range(60):
        d, demands, cap = realization_case(rng, max_n=25)
        arcs = realize_demands(d, demands, cap)
        assert len(arcs) == demands.total_in
        assert not (arcs & d.arcs)
        assert apply_demands(d, demands, arcs)
        final = degree_sequence(add_arcs(d, arcs))
        for v in range(d.n):
            assert final[v].max_component <= cap


def _max_insertable(d: Digraph, demands: DemandVector) -> int:
    """Reference maximum: largest insertable arc set within per-vertex caps."""
    pairs = d.non_arcs()
    best = 0

    def dfs(idx: int, used_in, used_out, size: int):
        nonlocal best
        best = max(best, size)
        if idx == len(pairs):
            return
        if size + (len(pairs) - idx) <= best:
            return
        u, v = pairs[idx]
        if (
            used_out[u] < demands.out_demand[u]
            and used_in[v] < demands.in_demand[v]
        ):
            used_out[u] += 1
            used_in[v] += 1
            dfs(idx + 1, used_in, used_out, size + 1)
            used_out[u] -= 1
            used_in[v] -= 1
        dfs(idx + 1, used_in, used_out, size)

    dfs(0, [0] * d.n, [0] * d.n, 0)
    return best


def test_max_flow_matches_bruteforce_maximum():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = bounded_digraph(rng, n, max_degree=n - 1, density=0.4)
        demands = DemandVector(
            tuple(rng.randint(0, 2) for _ in range(n)),
            tuple(rng.randint(0, 2) for _ in range(n)),
        )
        value, saturated = max_flow(build_network(d, demands))
        assert value == _max_insertable(d, demands)
        assert len(saturated) == value


def test_flow_integrality_assignment_size():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        d = bounded_digraph(rng, n, max_degree=2)
        demands = DemandVector(
            tuple(rng.randint(0, 2) for _ in range(n)),
            tuple(rng.randint(0, 2) for _ in range(n)),
        )
        value, saturated = max_flow(build_network(d, demands))
        assert len(saturated) == value
