"""Pinned "no" answers on instances that a kernelizer screens out.

Each case is a below-threshold instance on which ``kernelize``, run at the
budget ``solve`` searches, answers ``trivial_no``.  ``solve`` must answer
"no" on every one without building a representative set
(``search.compute_alpha_set``) or trying a single subset
(``search.combinations``).  Seeded families pin how many draws each
trivial-no reason catches, and one hand-built case per reason names it.
``insertion_counts_invalid`` is left out: such a target has no size budget,
so ``solve`` answers "no" before any screen or search.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    KernelVerdict,
    ListCompletion,
    SequenceCompletion,
    TrivialNoReason,
    degree_sequence,
    search,
)
from arcfill.cli import generate_instance, random_digraph

from conftest import bounded_digraph


def _below_threshold(instance) -> bool:
    work = instance.at_budget(instance.size_budget())
    if work is None:
        return False
    cap = work.degree_cap()
    return work.size_budget() <= 2 * cap * cap


def _screen(instance) -> TrivialNoReason | None:
    """The trivial-no reason of the kernel at the budget ``solve`` uses."""
    result = search.kernelize(instance.at_budget(instance.size_budget()))
    if result.verdict is not KernelVerdict.TRIVIAL_NO:
        return None
    return result.reason


def _generated(kind: str):
    def build(rng: random.Random):
        n = rng.randint(2, 9)
        return generate_instance(
            kind, rng, n, rng.random() * 0.5, rng.randint(0, 4),
            anonymity=rng.randint(1, n), slack=rng.randint(0, 2),
        )

    return build


def _listed(rng: random.Random) -> ListCompletion:
    """Degree lists under a bound that some current degree may exceed."""
    n = rng.randint(3, 9)
    d = bounded_digraph(rng, n, 3)
    bound = rng.randint(1, 3)
    lists = []
    for v in range(n):
        deg = d.degree(v)
        entries = {
            (rng.randint(0, bound), rng.randint(0, bound))
            for _ in range(rng.randint(1, 2))
        }
        if deg.max_component <= bound and rng.random() < 0.7:
            entries.add(tuple(deg))
        lists.append(entries)
    return ListCompletion(d, rng.randint(0, 3), DegreeListFunction(lists, bound=bound))


def _sequence(rng: random.Random) -> SequenceCompletion:
    """A target taken from an unrelated digraph with at least as many arcs."""
    n = rng.randint(3, 9)
    d = random_digraph(rng, n, rng.random() * 0.3)
    while True:
        other = random_digraph(rng, n, rng.random() * 0.4)
        if d.m <= other.m <= d.m + 4:
            return SequenceCompletion(d, degree_sequence(other))


def _anonymous(rng: random.Random) -> AnonymityCompletion:
    """Sparse digraphs, large enough for ``kernelize_dda`` to reduce."""
    n = rng.randint(8, 40)
    d = bounded_digraph(rng, n, 1, density=rng.random() * 0.01)
    return AnonymityCompletion(d, rng.randint(2, n), rng.randint(0, 2))


# family -> (generator, screened draws by reason among seeds 0..299)
FAMILIES = {
    "ddconc-generated": (
        _generated("ddconc"),
        {TrivialNoReason.TOO_MANY_UNSATISFIED: 82},
    ),
    "ddconc-bounded": (
        _listed,
        {
            TrivialNoReason.TOO_MANY_UNSATISFIED: 132,
            TrivialNoReason.DEGREE_EXCEEDS_CAP: 32,
        },
    ),
    "ddseqc": (
        _sequence,
        {
            TrivialNoReason.TARGET_MAX_TOO_SMALL: 51,
            TrivialNoReason.BLOCK_SHRINKS_TOO_MUCH: 23,
        },
    ),
    "dda-generated": (
        _generated("dda"),
        {TrivialNoReason.NOT_ANONYMOUS_WITHOUT_BUDGET: 37},
    ),
    "dda-sparse": (
        _anonymous,
        {
            TrivialNoReason.NOT_ANONYMOUS_WITHOUT_BUDGET: 55,
            TrivialNoReason.BLOCK_SIZE_GAP: 19,
        },
    ),
}


HAND_BUILT = {
    # Every vertex needs an arc, and one arc reaches two.
    TrivialNoReason.TOO_MANY_UNSATISFIED: ListCompletion(
        Digraph(3), 1, DegreeListFunction([[(1, 1)]] * 3)
    ),
    # The centre's outdegree 3 is above the bound 2.
    TrivialNoReason.DEGREE_EXCEEDS_CAP: ListCompletion(
        Digraph(4, [(0, 1), (0, 2), (0, 3)]),
        2,
        DegreeListFunction([[(0, 2)]] + [[(1, 0)]] * 3, bound=2),
    ),
    # Vertex 1 already has indegree 2.
    TrivialNoReason.TARGET_MAX_TOO_SMALL: SequenceCompletion(
        Digraph(3, [(0, 1), (2, 1)]), DegreeSequence([(1, 1)] * 3)
    ),
    # Three (1, 1) vertices, none in the target, and nothing to insert.
    TrivialNoReason.BLOCK_SHRINKS_TOO_MUCH: SequenceCompletion(
        Digraph(6, [(0, 1), (1, 2), (2, 0)]),
        DegreeSequence([(2, 1), (1, 2)] + [(0, 0)] * 4),
    ),
    TrivialNoReason.NOT_ANONYMOUS_WITHOUT_BUDGET: AnonymityCompletion(
        Digraph(3, [(0, 1)]), 2, 0
    ),
    # A block of 5 lies between 2s = 2 and k - 2s = 10.
    TrivialNoReason.BLOCK_SIZE_GAP: AnonymityCompletion(
        Digraph(46, [(u, u + 1) for u in range(40, 45)]), 12, 1
    ),
}


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test if ``solve`` builds a set or tries a subset."""

    def forbidden(*args):
        raise AssertionError("the search ran on a screened instance")

    monkeypatch.setattr(search, "compute_alpha_set", forbidden)
    monkeypatch.setattr(search, "combinations", forbidden)


@pytest.mark.parametrize("reason", list(HAND_BUILT), ids=lambda r: r.value)
def test_hand_built_screened_instance_is_a_quick_no(reason, no_search):
    instance = HAND_BUILT[reason]
    assert _below_threshold(instance)
    assert _screen(instance) is reason
    assert search.solve(instance) is None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_screened_draws_are_quick_noes(family, no_search):
    build, expected = FAMILIES[family]
    reasons = Counter()
    for seed in range(300):
        instance = build(random.Random(seed))
        if not _below_threshold(instance):
            continue
        reason = _screen(instance)
        if reason is None:
            continue
        reasons[reason] += 1
        assert search.solve(instance) is None, (seed, instance)
    assert dict(reasons) == expected
