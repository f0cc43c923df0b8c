import pytest

from arcfill import (
    AnonymityCompletion,
    Bijection,
    DegreeListFunction,
    DegreeSequence,
    DemandVector,
    Digraph,
    InstanceTooLargeError,
    NumberSolution,
    brute_force_graph,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
    verify_solution,
)
from arcfill.oracle import (
    apply_demands,
    satisfies_nda,
    satisfies_nddcc,
    satisfies_nddsc,
)
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


def _claim(*target) -> NumberSolution:
    # The satisfies_* checks read only the target, so the demands are a
    # placeholder that also fits targets below their source.
    zeros = (0,) * len(target)
    return NumberSolution(DegreeSequence(target), DemandVector(zeros, zeros))


# sigma (0, 0), (1, 0) with s = 1: the lists admit the witness (1, 1), (1, 0)
# and, entry by entry, the pairs of every wrong witness below except (2, 0).
_LIST_SIGMA = DegreeSequence([(0, 0), (1, 0)])
_LISTS = DegreeListFunction([[(0, 1), (1, 0), (1, 1), (2, 1)], [(0, 0), (1, 0)]])
# sigma (1, 0), (0, 1) with s = 1 and k = 2 is met by (1, 1), (1, 1).
_ANON_SIGMA = DegreeSequence([(1, 0), (0, 1)])
_DOM_SIGMA = DegreeSequence([(0, 1), (2, 0)])
_DOM_PHI = DegreeSequence([(2, 1), (0, 1)])
_PATH3 = Digraph(3, [(0, 1)])
# Inserting (1, 2) into the path 0 -> 1 on three vertices.
_ONE_ARC = DemandVector((0, 0, 1), (0, 1, 0))

RIGHT_WITNESSES = {
    "nddcc": (satisfies_nddcc, (_LIST_SIGMA, 1, _LISTS, _claim((1, 1), (1, 0)))),
    "nddsc": (satisfies_nddsc, (_DOM_SIGMA, _DOM_PHI, Bijection((1, 0)))),
    "nda": (satisfies_nda, (_ANON_SIGMA, 1, 2, _claim((1, 1), (1, 1)), 1)),
    "apply-demands": (apply_demands, (_PATH3, _ONE_ARC, [(1, 2)])),
}

# Each wrong witness breaks exactly one condition of its definition.
WRONG_WITNESSES = {
    "nddcc-short-target": (
        satisfies_nddcc, (_LIST_SIGMA, 1, _LISTS, _claim((2, 1)))
    ),
    "nddcc-entry-below-source": (
        satisfies_nddcc, (_LIST_SIGMA, 1, _LISTS, _claim((2, 1), (0, 0)))
    ),
    "nddcc-pair-outside-list": (
        satisfies_nddcc, (_LIST_SIGMA, 1, _LISTS, _claim((0, 1), (2, 0)))
    ),
    "nddcc-in-spending-short": (
        satisfies_nddcc, (_LIST_SIGMA, 1, _LISTS, _claim((0, 1), (1, 0)))
    ),
    "nddcc-out-spending-short": (
        satisfies_nddcc, (_LIST_SIGMA, 1, _LISTS, _claim((1, 0), (1, 0)))
    ),
    "nddsc-image-below-source": (
        satisfies_nddsc, (_DOM_SIGMA, _DOM_PHI, Bijection((0, 1)))
    ),
    "nddsc-short-bijection": (
        satisfies_nddsc, (_DOM_SIGMA, _DOM_PHI, Bijection((0,)))
    ),
    "nda-short-target": (satisfies_nda, (_ANON_SIGMA, 1, 1, _claim((1, 1)))),
    "nda-entry-below-source": (
        satisfies_nda, (_ANON_SIGMA, 1, 1, _claim((0, 1), (2, 1)))
    ),
    "nda-in-spending-short": (
        satisfies_nda, (_ANON_SIGMA, 1, 1, _claim((1, 1), (0, 1)))
    ),
    "nda-out-spending-short": (
        satisfies_nda, (_ANON_SIGMA, 1, 1, _claim((1, 0), (1, 1)))
    ),
    "nda-above-max-value": (
        satisfies_nda, (_ANON_SIGMA, 1, 1, _claim((2, 1), (0, 1)), 1)
    ),
    "nda-not-k-anonymous": (
        satisfies_nda, (_ANON_SIGMA, 1, 2, _claim((2, 1), (0, 1)))
    ),
    "apply-demands-arc-present": (
        apply_demands, (_PATH3, DemandVector((0, 1, 0), (1, 0, 0)), [(0, 1)])
    ),
    "apply-demands-loop": (
        apply_demands, (_PATH3, DemandVector((0, 0, 1), (0, 0, 1)), [(2, 2)])
    ),
    "apply-demands-in-gain-differs": (apply_demands, (_PATH3, _ONE_ARC, [(1, 0)])),
    "apply-demands-out-gain-differs": (apply_demands, (_PATH3, _ONE_ARC, [(0, 2)])),
}


@pytest.mark.parametrize("case", sorted(RIGHT_WITNESSES))
def test_definition_checks_accept_a_right_witness(case):
    check, args = RIGHT_WITNESSES[case]
    assert check(*args) is True


@pytest.mark.parametrize("case", sorted(WRONG_WITNESSES))
def test_definition_checks_reject_a_wrong_witness(case):
    check, args = WRONG_WITNESSES[case]
    assert check(*args) is False
