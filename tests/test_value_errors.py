"""Every constructor and solver rejects a malformed argument with a ValueError
whose message names the fault."""

from __future__ import annotations

import random

import pytest

from arcfill import (
    AnonymityCompletion,
    Bijection,
    DegreeListFunction,
    DegreeSequence,
    DemandVector,
    Digraph,
    ListCompletion,
    SequenceCompletion,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
    build_network,
    compute_alpha_set,
    kernelize_dda,
    realize_demands,
    solve_nda,
    solve_nddcc,
)
from arcfill.cli import generate_instance

_PATH = Digraph(2, [(0, 1)])
_ONE = DegreeSequence([(0, 0)])
_NO_DEMAND = DemandVector((0,), (0,))

# (call, message)
CASES = {
    "list-negative-budget": (
        lambda: ListCompletion(_PATH, -1, DegreeListFunction([[(0, 1)], [(1, 0)]])),
        "budget must be nonnegative",
    ),
    "list-short-lists": (
        lambda: ListCompletion(_PATH, 1, DegreeListFunction([[(0, 1)]])),
        "allowed lists must cover every vertex",
    ),
    "sequence-short-target": (
        lambda: SequenceCompletion(_PATH, _ONE),
        "target length must equal vertex count",
    ),
    "anonymity-zero-level": (
        lambda: AnonymityCompletion(_PATH, 0, 1),
        "anonymity level must be positive",
    ),
    "anonymity-negative-budget": (
        lambda: AnonymityCompletion(_PATH, 1, -1),
        "budget must be nonnegative",
    ),
    "alpha-set-zero-quota": (
        lambda: compute_alpha_set(_PATH, None, 0),
        "alpha must be positive",
    ),
    "alpha-set-negative-cap": (
        lambda: compute_alpha_set(_PATH, None, 1, -1),
        "cap must be nonnegative",
    ),
    "kernel-dda-zero-level": (
        lambda: kernelize_dda(_PATH, 0, 1),
        "anonymity level must be positive",
    ),
    "kernel-dda-negative-budget": (
        lambda: kernelize_dda(_PATH, 1, -1),
        "budget must be nonnegative",
    ),
    "network-short-demands": (
        lambda: build_network(_PATH, _NO_DEMAND),
        "demand vector length must equal vertex count",
    ),
    "realize-short-demands": (
        lambda: realize_demands(_PATH, _NO_DEMAND, 1),
        "demand vector length must equal vertex count",
    ),
    "bijection-not-a-permutation": (
        lambda: Bijection((0, 0)),
        "mapping is not a permutation",
    ),
    "nddcc-short-lists": (
        lambda: solve_nddcc(_ONE, 1, DegreeListFunction([[(0, 0)], [(0, 0)]])),
        "list function covers 2 entries, sequence has 1",
    ),
    "nddcc-negative-budget": (
        lambda: solve_nddcc(_ONE, -1, DegreeListFunction([[(0, 0)]])),
        "budget must be nonnegative",
    ),
    "nda-zero-level": (
        lambda: solve_nda(_ONE, 1, 0, 1),
        "anonymity level must be positive",
    ),
    "nda-negative-budget": (
        lambda: solve_nda(_ONE, -1, 1, 1),
        "budget must be nonnegative",
    ),
    "digraph-negative-vertices": (
        lambda: Digraph(-1),
        "vertex count must be nonnegative",
    ),
    "sequence-negative-pair": (
        lambda: DegreeSequence([(0, 0), (-1, 2)]),
        "degree pair must be nonnegative, got (-1, 2)",
    ),
    "generate-unknown-problem": (
        lambda: generate_instance("ddx", random.Random(1), 2, 0.5, 1),
        "unknown problem 'ddx'",
    ),
    "oracle-nddcc-budget-cap": (
        lambda: brute_force_nddcc(_ONE, 9, DegreeListFunction([[(0, 0)]])),
        "budget 9 exceeds cap 8",
    ),
    "oracle-nda-budget-cap": (
        lambda: brute_force_nda(_ONE, 7, 1),
        "budget 7 exceeds cap 6",
    ),
    "oracle-nddsc-short-target": (
        lambda: brute_force_nddsc(_ONE, DegreeSequence([(0, 0), (0, 0)])),
        "sequences must have equal length",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_argument_raises_value_error(case):
    call, message = CASES[case]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
