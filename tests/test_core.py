from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcfill import (
    DegreeListFunction,
    DegreePair,
    DegreeSequence,
    Digraph,
    LoopArcError,
    blocks,
    degree_sequence,
    is_satisfied,
    vertex_types,
)
from conftest import add_arcs, sequence_example


@st.composite
def digraphs(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not possible:
        return Digraph(n)
    arcs = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    return Digraph(n, set(arcs))


def test_digraph_rejects_loops_and_bad_range():
    with pytest.raises(LoopArcError):
        Digraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])


def test_digraph_drops_a_repeated_arc():
    d = Digraph(2, [(0, 1), (0, 1)])
    assert d.m == 1
    assert d.out_neighbors(0) == (1,)
    assert d.in_neighbors(1) == (0,)


def test_degree_sequence_examples():
    assert list(degree_sequence(Digraph(2, [(0, 1)]))) == [(0, 1), (1, 0)]
    assert list(degree_sequence(Digraph(2))) == [(0, 0), (0, 0)]
    fixture = sequence_example().digraph
    assert degree_sequence(fixture).as_multiset() == Counter(
        {(0, 1): 1, (0, 2): 1, (2, 0): 1, (2, 1): 1}
    )


def test_blocks_examples():
    assert blocks(Digraph(2, [(0, 1), (1, 0)])) == {(1, 1): {0, 1}}
    assert blocks(Digraph(2, [(0, 1)])) == {(0, 1): {0}, (1, 0): {1}}
    seven = Digraph(7, [(0, 1), (1, 0), (2, 3), (3, 2), (5, 4), (6, 5)])
    grouped = blocks(seven)
    assert grouped[(1, 0)] == {4}
    assert grouped[(0, 1)] == {6}
    assert grouped[(1, 1)] == {0, 1, 2, 3, 5}


def test_vertex_types_examples():
    isolated = Digraph(1)
    assert vertex_types(isolated, DegreeListFunction([[(0, 0)]]), 0, 1) == {(0, 0)}
    assert vertex_types(
        isolated, DegreeListFunction([[(1, 0), (0, 1)]]), 0, 1
    ) == {(1, 0), (0, 1)}
    d = Digraph(2, [(1, 0)])
    lists = DegreeListFunction([[(1, 0), (2, 0)], [(0, 1)]])
    assert vertex_types(d, lists, 0, 2) == {(0, 0), (1, 0)}


def test_vertex_types_respects_cap():
    d = Digraph(3)
    lists = DegreeListFunction([[(2, 0)], [(0, 0)], [(0, 0)]])
    assert vertex_types(d, lists, 0, 1) == set()
    assert vertex_types(d, lists, 0, 2) == {(2, 0)}


def test_is_satisfied_examples():
    isolated = Digraph(1)
    assert is_satisfied(isolated, DegreeListFunction([[(0, 0)]]), 0)
    assert not is_satisfied(isolated, DegreeListFunction([[(1, 1)]]), 0)
    middle = Digraph(3, [(0, 1)])
    assert not is_satisfied(middle, DegreeListFunction([[(0, 1)], [(2, 0)], [(1, 1)]]), 1)


def test_is_k_anonymous_examples():
    seven_equal = DegreeSequence([(1, 1)] * 7)
    assert seven_equal.is_k_anonymous(7)
    mixed = DegreeSequence([(0, 1), (1, 0), (1, 1)])
    assert not mixed.is_k_anonymous(2)
    assert DegreeSequence(()).is_k_anonymous(3)


def test_add_arcs_examples():
    d = Digraph(3, [(0, 1)])
    assert add_arcs(d, []) == d
    grown = add_arcs(Digraph(2), [(0, 1)])
    assert list(degree_sequence(grown)) == [(0, 1), (1, 0)]
    fixture = sequence_example().digraph
    completed = add_arcs(fixture, [(3, 0)])
    assert degree_sequence(completed).as_multiset() == Counter(
        {(0, 3): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1}
    )
    with pytest.raises(ValueError, match="already present"):
        add_arcs(d, [(0, 1)])
    with pytest.raises(LoopArcError):
        add_arcs(d, [(2, 2)])


def test_degree_pair_arithmetic():
    assert DegreePair(1, 2) + (3, 4) == (4, 6)
    assert DegreePair(3, 4) - (1, 1) == (2, 3)
    assert DegreePair(2, 2).dominates((2, 1))
    assert not DegreePair(2, 2).dominates((3, 0))


def test_degree_list_function_size_and_bound():
    lists = DegreeListFunction([[(0, 1), (1, 1)], [(2, 0)]])
    assert sum(len(entry) for entry in lists.lists) == 3
    assert lists.bound == 2
    with pytest.raises(ValueError):
        DegreeListFunction([[(3, 0)]], bound=2)


def test_degree_sequence_value_semantics():
    seq = DegreeSequence([(1, 0), DegreePair(0, 2)])
    same = DegreeSequence([DegreePair(1, 0), [0, 2]])
    assert seq == same and hash(seq) == hash(same)
    assert seq != DegreeSequence([(0, 2), (1, 0)])
    assert seq != DegreeSequence([(1, 0)])
    assert len(seq) == 2
    assert seq[0] == (1, 0) and isinstance(seq[0], DegreePair)
    assert seq[-1] == DegreePair(0, 2)
    assert seq[1:] == (DegreePair(0, 2),)
    assert list(seq) == [(1, 0), (0, 2)]
    assert repr(seq) == "DegreeSequence([(1, 0), (0, 2)])"
    assert repr(DegreeSequence(())) == "DegreeSequence([])"


def test_degree_list_function_value_semantics():
    lists = DegreeListFunction([[(1, 0), (0, 1)], [(2, 2)]])
    same = DegreeListFunction([[(0, 1), (1, 0)], [(2, 2)]], bound=5)
    assert lists == same and hash(lists) == hash(same)
    assert lists.bound == 2 and same.bound == 5
    assert lists != DegreeListFunction([[(2, 2)], [(1, 0), (0, 1)]])
    assert len(lists) == 2
    assert lists[1] == frozenset({DegreePair(2, 2)})
    assert lists[-1] == lists[1]
    assert lists[:1] == (frozenset({(1, 0), (0, 1)}),)
    assert list(lists) == [frozenset({(1, 0), (0, 1)}), frozenset({(2, 2)})]
    assert lists.lists == (frozenset({(1, 0), (0, 1)}), frozenset({(2, 2)}))
    assert repr(lists) == "DegreeListFunction([[(0, 1), (1, 0)], [(2, 2)]], bound=2)"
    assert repr(same) == "DegreeListFunction([[(0, 1), (1, 0)], [(2, 2)]], bound=5)"


def test_degree_list_function_bound_is_read_only():
    lists = DegreeListFunction([[(0, 1)]], bound=3)
    with pytest.raises(AttributeError):
        lists.bound = 4
    with pytest.raises(AttributeError):
        del lists.bound
    assert lists.bound == 3


@given(digraphs())
def test_handshake(d: Digraph):
    seq = degree_sequence(d)
    assert seq.sum_indeg == seq.sum_outdeg == d.m


@given(digraphs())
def test_blocks_partition(d: Digraph):
    grouped = blocks(d)
    union = set()
    for pair, members in grouped.items():
        assert all(d.degree(v) == pair for v in members)
        assert not (union & members)
        union |= members
    assert union == set(range(d.n))


@given(digraphs(), st.data())
@settings(max_examples=60)
def test_degree_sequence_additive_under_insertion(d: Digraph, data):
    insertable = d.non_arcs()
    if not insertable:
        return
    extra = data.draw(
        st.lists(st.sampled_from(insertable), max_size=len(insertable), unique=True)
    )
    before = degree_sequence(d)
    after = degree_sequence(add_arcs(d, extra))
    for v in range(d.n):
        gained_in = sum(1 for (_, h) in extra if h == v)
        gained_out = sum(1 for (t, _) in extra if t == v)
        assert after[v] == before[v] + (gained_in, gained_out)


@given(digraphs(), st.data())
@settings(max_examples=60)
def test_satisfaction_matches_zero_type(d: Digraph, data):
    lists = DegreeListFunction(
        [
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=0,
                    max_size=3,
                )
            )
            for _ in range(d.n)
        ]
    )
    cap = data.draw(st.integers(min_value=0, max_value=4))
    for v in range(d.n):
        zero_member = (0, 0) in vertex_types(d, lists, v, cap)
        assert zero_member == is_satisfied(d, lists, v)


@given(digraphs())
def test_one_anonymous_always(d: Digraph):
    assert degree_sequence(d).is_k_anonymous(1)
