import pytest

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    InstanceTooLargeError,
    brute_force_graph,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
    verify_solution,
)
from arcfill.oracle import satisfies_nda, satisfies_nddcc, satisfies_nddsc
from conftest import anonymity_example, list_example_no, sequence_example, uniform_lists


def test_graph_oracle_fixture_answers():
    seq = sequence_example()
    found = brute_force_graph(seq)
    assert found is not None and len(found.arcs) == 1
    assert verify_solution(seq, found)
    assert brute_force_graph(list_example_no()) is None
    empty_pair = AnonymityCompletion(Digraph(2), 2, 0)
    trivial = brute_force_graph(empty_pair)
    assert trivial is not None and trivial.arcs == ()


def test_graph_oracle_returns_minimum_cardinality():
    inst = anonymity_example(k=7, budget=3)
    found = brute_force_graph(inst)
    assert found is not None and len(found.arcs) == 1


def test_graph_oracle_guards():
    with pytest.raises(InstanceTooLargeError):
        brute_force_graph(AnonymityCompletion(Digraph(9), 2, 1))
    with pytest.raises(InstanceTooLargeError):
        brute_force_graph(AnonymityCompletion(Digraph(4), 2, 9))
    assert (
        brute_force_graph(AnonymityCompletion(Digraph(9), 2, 1), max_vertices=9)
        is not None
    )


def test_number_oracle_nddcc():
    sigma = DegreeSequence([(0, 0)])
    assert brute_force_nddcc(sigma, 1, DegreeListFunction([[(1, 1)]])) is not None
    assert brute_force_nddcc(sigma, 2, DegreeListFunction([[(1, 1)]])) is None
    pair = DegreeSequence([(0, 0), (0, 0)])
    lists = uniform_lists(2, [(0, 0), (1, 0), (0, 1)])
    found = brute_force_nddcc(pair, 1, lists)
    assert found is not None and satisfies_nddcc(pair, 1, lists, found)


def test_number_oracle_nddsc():
    same = DegreeSequence([(2, 1), (0, 0)])
    assert brute_force_nddsc(same, same) is not None
    assert (
        brute_force_nddsc(DegreeSequence([(2, 2)]), DegreeSequence([(1, 1)])) is None
    )
    sigma = DegreeSequence([(0, 1), (0, 2), (2, 0), (2, 1)])
    phi = DegreeSequence([(0, 3), (1, 1), (2, 0), (2, 1)])
    pi = brute_force_nddsc(sigma, phi)
    assert pi is not None and satisfies_nddsc(sigma, phi, pi)


def test_number_oracle_nda():
    merged = brute_force_nda(DegreeSequence([(1, 0), (0, 1)]), 1, 2)
    assert merged is not None
    assert [tuple(p) for p in merged.target] == [(1, 1), (1, 1)]
    assert brute_force_nda(DegreeSequence([(0, 0), (1, 1)]), 0, 2) is None
    triple = DegreeSequence([(0, 0)] * 3)
    unchanged = brute_force_nda(triple, 0, 3)
    assert unchanged is not None and unchanged.target == triple
    assert satisfies_nda(triple, 0, 3, unchanged)


def test_number_oracle_guards():
    big = DegreeSequence([(0, 0)] * 9)
    with pytest.raises(InstanceTooLargeError):
        brute_force_nddcc(big, 1, uniform_lists(9, [(0, 0)]))
    with pytest.raises(InstanceTooLargeError):
        brute_force_nddsc(big, big)
    with pytest.raises(InstanceTooLargeError):
        brute_force_nda(DegreeSequence([(0, 0)] * 13), 1, 2)
    with pytest.raises(InstanceTooLargeError):
        brute_force_nda(DegreeSequence([(0, 0)] * 12), 6, 2)
