"""The dda size floor: pinned quick "no" answers and an oracle sweep.

``AnonymityCompletion.size_floor()`` weighs all degree blocks smaller than k
together: each must empty or fill up to k, and the movers' and joiners'
gains each sum to at most twice the arc count.  On the pinned instances
that floor is above the budget, so ``solve`` must answer "no" without
building a representative set (``search.compute_alpha_set``) or trying a
single subset (``search.combinations``).  The sweep checks the floor
against the brute-force oracle and against the one-block-at-a-time count.
"""

from __future__ import annotations

import random

import pytest

from arcfill import AnonymityCompletion, brute_force_graph, degree_sequence, search
from arcfill.cli import generate_instance, random_digraph

from conftest import bounded_digraph


def _drawn(seed: str) -> AnonymityCompletion:
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    d = random_digraph(rng, n, rng.random() * 0.3)
    return AnonymityCompletion(d, rng.randint(3, n), rng.randint(0, 3))


def _generated(n: int, s: int) -> AnonymityCompletion:
    return generate_instance("dda", random.Random(1), n, 0.1, s, 2, 2)


def _per_block(instance: AnonymityCompletion) -> int:
    """The larger of ceil(min(b, k - b) / 2) over blocks of b < k vertices."""
    k = instance.anonymity
    sizes = degree_sequence(instance.digraph).as_multiset().values()
    return max(((min(b, k - b) + 1) // 2 for b in sizes if b < k), default=0)


# name -> (instance builder, its size floor).  The two draws have n 14, k 11
# and s 3, and their largest blocks hold 2 and 3 vertices; the search used to
# try 708,723 and 833,340 subsets on them.  The three generated ones are the
# dda rows of bench/reference.py with n 32 and 64.
PINS = {
    "draw-dda/92": (lambda: _drawn("dda/92"), 6),
    "draw-dda/112": (lambda: _drawn("dda/112"), 6),
    "gen1-n32-s2": (lambda: _generated(32, 2), 4),
    "gen1-n32-s3": (lambda: _generated(32, 3), 4),
    "gen1-n64-s2": (lambda: _generated(64, 2), 10),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_floor_answers_no_before_the_search(name, monkeypatch):
    build, floor = PINS[name]
    instance = build()

    def searched(*args):
        raise AssertionError("the search must not run")

    monkeypatch.setattr(search, "compute_alpha_set", searched)
    monkeypatch.setattr(search, "combinations", searched)
    assert instance.size_floor() == floor > instance.budget
    assert search.solve(instance) is None


def test_floor_is_sound_and_beats_the_per_block_count():
    rng = random.Random(13)
    sharper = 0
    for _ in range(1000):
        n = rng.randint(2, 7)
        d = bounded_digraph(rng, n, 2, density=rng.random() * 0.4)
        instance = AnonymityCompletion(d, rng.randint(2, n), rng.randint(0, 3))
        floor = instance.size_floor()
        reference = brute_force_graph(instance)
        if reference is not None:
            assert floor <= len(reference.arcs), instance
        old = _per_block(instance)
        assert floor >= old, instance
        sharper += floor > old
    assert sharper > 0
