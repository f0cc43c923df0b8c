"""Golden bytes of `arcfill solve`, `kernelize`, `numprob` and `gen` output.

Each graph case pins the exit codes of `solve` and `kernelize` and a digest
of the solution file and the kernel file they write.  The cases cover every
problem on every route of the pipeline: rejection before the kernel,
trivial kernel verdicts, kernel `unchanged` plus search, kernel `reduced`
plus search plus lift, and the number problem plus flow realization.  The
anonymity number route needs a budget above 512 even on an empty digraph,
so its case has 33 vertices and budget 513.

Each number case pins the exit code of `numprob --oracle` and a digest of
its stdout and solution file; each `gen` and `network` case pins the exit
code and a digest of its stdout and output file.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    ListCompletion,
    SequenceCompletion,
)
from arcfill.cli import NumberInstance, emit_instance, emit_number_instance, run
from conftest import (
    anonymity_example,
    list_example_no,
    list_example_yes,
    random_anonymity_instance,
    random_list_instance,
    random_sequence_instance,
    sequence_example,
    uniform_lists,
)


def _two_phase_flow() -> SequenceCompletion:
    """s = 12 > 2 * 2**2; its max flow takes two Dinic phases, so the witness
    shows the order in which augmenting paths use reverse arcs."""
    return SequenceCompletion(
        Digraph(10, [(0, 1), (1, 2), (2, 1), (4, 2), (5, 3), (5, 4), (8, 0)]),
        DegreeSequence([(2, 2)] * 6 + [(2, 1), (2, 2), (1, 2), (2, 2)]),
    )


def _cases():
    def seeded(generator, seed):
        return generator(random.Random(seed))

    return {
        # ddconc
        "ddconc-trivial-no": seeded(random_list_instance, 7),
        "ddconc-trivial-yes": seeded(random_list_instance, 2),
        "ddconc-unchanged-search-no": seeded(random_list_instance, 0),
        "ddconc-unchanged-search-yes": seeded(random_list_instance, 6),
        "ddconc-reduced-search-no": seeded(random_list_instance, 1),
        "ddconc-reduced-search-yes": seeded(random_list_instance, 3),
        "ddconc-reduced-search-planted": ListCompletion(
            Digraph(10),
            1,
            DegreeListFunction([[(0, 1)], [(1, 0)]] + [[(0, 0), (1, 0)]] * 8),
        ),
        "ddconc-number-flow": ListCompletion(
            Digraph(8), 3, uniform_lists(8, [(0, 0), (1, 1)])
        ),
        "ddconc-fixture-yes": list_example_yes(),
        "ddconc-fixture-no": list_example_no(),
        # ddseqc
        "ddseqc-rejected": seeded(random_sequence_instance, 0),
        "ddseqc-trivial-no": SequenceCompletion(
            Digraph(3, [(0, 1), (0, 2)]), DegreeSequence([(1, 1)] * 3)
        ),
        "ddseqc-trivial-yes": seeded(random_sequence_instance, 7),
        "ddseqc-unchanged-search": seeded(random_sequence_instance, 1),
        "ddseqc-reduced-search": SequenceCompletion(
            Digraph(12), DegreeSequence([(1, 0), (0, 1)] + [(0, 0)] * 10)
        ),
        "ddseqc-number-flow": SequenceCompletion(
            Digraph(8), DegreeSequence([(1, 1)] * 3 + [(0, 0)] * 5)
        ),
        "ddseqc-number-flow-two-phases": _two_phase_flow(),
        "ddseqc-fixture": sequence_example(),
        # dda
        "dda-trivial-no": seeded(random_anonymity_instance, 4),
        "dda-trivial-yes": seeded(random_anonymity_instance, 2),
        "dda-unchanged-search-no": seeded(random_anonymity_instance, 0),
        "dda-unchanged-search-yes": seeded(random_anonymity_instance, 3),
        "dda-reduced-search": AnonymityCompletion(Digraph(40, [(0, 1)]), 2, 1),
        "dda-number-flow": AnonymityCompletion(Digraph(33), 1, 513),
        "dda-fixture": anonymity_example(),
    }


# case -> (solve exit code, kernelize exit code, digest of both output files)
GOLDEN = {
    "ddconc-trivial-no": (1, 1, "8f8b9641265f8abb"),
    "ddconc-trivial-yes": (0, 0, "64917221fdded839"),
    "ddconc-unchanged-search-no": (1, 0, "3e5481a3ee6f39c1"),
    "ddconc-unchanged-search-yes": (0, 0, "f72e3ddb51df029a"),
    "ddconc-reduced-search-no": (1, 0, "2197edf7a3ad03f3"),
    "ddconc-reduced-search-yes": (0, 0, "899230a8ea1c0aa4"),
    "ddconc-reduced-search-planted": (0, 0, "fdef9a86d9e5265f"),
    "ddconc-number-flow": (0, 0, "6c76ae3b6b325992"),
    "ddconc-fixture-yes": (0, 0, "8bf22f5cbe6e120f"),
    "ddconc-fixture-no": (1, 0, "30c63c54b6bc3363"),
    "ddseqc-rejected": (1, 1, "438d228f7c56e4ef"),
    "ddseqc-trivial-no": (1, 1, "7b16882a919da147"),
    "ddseqc-trivial-yes": (0, 0, "1a1d8ef68daf8681"),
    "ddseqc-unchanged-search": (0, 0, "97a93c1d24af1366"),
    "ddseqc-reduced-search": (0, 0, "fe57ed9533e210a7"),
    "ddseqc-number-flow": (0, 0, "cdbf52dda3aca46d"),
    "ddseqc-number-flow-two-phases": (0, 0, "8089f3fddcf8e942"),
    "ddseqc-fixture": (0, 0, "5af3662155378296"),
    "dda-trivial-no": (1, 1, "973745abfca6951d"),
    "dda-trivial-yes": (0, 0, "949f27ffbf0162ad"),
    "dda-unchanged-search-no": (1, 0, "3268946eda86f972"),
    "dda-unchanged-search-yes": (0, 0, "16fd8c0be659318f"),
    "dda-reduced-search": (0, 0, "3cfe0c6a9ca8c490"),
    "dda-number-flow": (0, 0, "f7f125df74b969b6"),
    "dda-fixture": (0, 0, "54e11b686542db65"),
}


def _outputs(tmp_path, instance):
    source = tmp_path / "instance.json"
    solution = tmp_path / "solution.json"
    kernel = tmp_path / "kernel.json"
    source.write_text(emit_instance(instance))
    quiet = io.StringIO()
    solved = run(
        ["solve", "--input", str(source), "--output", str(solution)], quiet, quiet
    )
    kernelized = run(
        ["kernelize", "--input", str(source), "--output", str(kernel)], quiet, quiet
    )
    digest = hashlib.sha256(
        solution.read_bytes() + b"\0" + kernel.read_bytes()
    ).hexdigest()[:16]
    return solved, kernelized, digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, name):
    assert _outputs(tmp_path, _cases()[name]) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(_cases())


NUMBER_CASES = {
    "nddcc-yes": NumberInstance(
        "nddcc",
        DegreeSequence([(0, 0), (1, 0), (0, 1), (1, 1)]),
        budget=2,
        lists=DegreeListFunction(
            [[(0, 0), (1, 1)], [(1, 0), (1, 1)], [(1, 1), (0, 2)], [(1, 1)]]
        ),
    ),
    "nddcc-no": NumberInstance(
        "nddcc",
        DegreeSequence([(0, 0), (1, 0), (0, 1), (1, 1)]),
        budget=2,
        lists=DegreeListFunction(
            [[(0, 0), (1, 1)], [(1, 0), (2, 1)], [(1, 1), (0, 2)], [(1, 1)]]
        ),
    ),
    "nddsc-yes": NumberInstance(
        "nddsc",
        DegreeSequence([(0, 1), (1, 0), (0, 0), (2, 1)]),
        target=DegreeSequence([(1, 1), (2, 1), (0, 1), (1, 0)]),
    ),
    "nddsc-no": NumberInstance(
        "nddsc",
        DegreeSequence([(2, 2), (2, 0)]),
        target=DegreeSequence([(1, 1), (3, 3)]),
    ),
    "nda-yes": NumberInstance(
        "nda",
        DegreeSequence([(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]),
        budget=3,
        anonymity=2,
        max_value=3,
    ),
    # Without max_value the largest sequence component, 0, caps every raise.
    "nda-default-max-value": NumberInstance(
        "nda", DegreeSequence([(0, 0), (0, 0)]), budget=2, anonymity=2
    ),
    "nda-max-value": NumberInstance(
        "nda", DegreeSequence([(0, 0), (0, 0)]), budget=2, anonymity=2, max_value=1
    ),
    "nda-no": NumberInstance(
        "nda", DegreeSequence([(0, 0), (2, 2)]), budget=1, anonymity=2
    ),
}

# case -> (numprob exit code, digest of stdout and the solution file)
NUMBER_GOLDEN = {
    "nda-default-max-value": (1, "c421db4ba22489bd"),
    "nda-max-value": (0, "7d344452fb533df2"),
    "nda-no": (1, "c421db4ba22489bd"),
    "nda-yes": (0, "5b73faa8be1e1c6b"),
    "nddcc-no": (1, "1b9319cafb7d6a10"),
    "nddcc-yes": (0, "1bb2343aa91ba4d2"),
    "nddsc-no": (1, "667edc7d91d99455"),
    "nddsc-yes": (0, "5e4d603ccccaee0d"),
}

GEN_CASES = {
    "gen-ddconc": ["--problem", "ddconc", "--vertices", "7", "--seed", "11"],
    "gen-ddseqc": ["--problem", "ddseqc", "--vertices", "7", "--seed", "12",
                   "--budget", "3"],
    "gen-dda": ["--problem", "dda", "--vertices", "5", "--seed", "13",
                "--anonymity", "3", "--density", "0.5"],
    "gen-partition": ["--partition", "3,1,2,2"],
}

# case -> (gen exit code, digest of stdout and the output file)
GEN_GOLDEN = {
    "gen-dda": (0, "1c3f226497758ebc"),
    "gen-ddconc": (0, "f949c4431d459983"),
    "gen-ddseqc": (0, "89aaba56648875fd"),
    "gen-partition": (0, "c8bf75e4df200609"),
}


# The demands of the two-phase case's witness, one arc per unit.
NETWORK_CASES = {
    "network-two-phases": ["--demands-in", "0,0,0,1,1,2,2,2,1,2",
                           "--demands-out", "1,1,1,1,1,0,2,2,1,2"],
}

# case -> (network exit code, digest of stdout and the output file); the dump
# holds unit arcs only from copies with out-demand to copies with in-demand.
NETWORK_GOLDEN = {
    "network-two-phases": (0, "15b3a6a1eb33492c"),
}


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


def _run_to_file(tmp_path, argv):
    output = tmp_path / "output.json"
    out, err = io.StringIO(), io.StringIO()
    code = run(argv + ["--output", str(output)], out, err)
    written = output.read_bytes() if output.exists() else b""
    return code, _digest(out.getvalue().encode(), written)


@pytest.mark.parametrize("name", sorted(NUMBER_GOLDEN))
def test_numprob_golden_bytes(tmp_path, name):
    source = tmp_path / "number.json"
    source.write_text(emit_number_instance(NUMBER_CASES[name]))
    argv = ["numprob", "--input", str(source), "--oracle"]
    assert _run_to_file(tmp_path, argv) == NUMBER_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GEN_GOLDEN))
def test_gen_golden_bytes(tmp_path, name):
    assert _run_to_file(tmp_path, ["gen"] + GEN_CASES[name]) == GEN_GOLDEN[name]
    # Without --output the same bytes go to stdout.
    out = io.StringIO()
    assert run(["gen"] + GEN_CASES[name], out, io.StringIO()) == 0
    assert out.getvalue().encode() == (tmp_path / "output.json").read_bytes()


@pytest.mark.parametrize("name", sorted(NETWORK_GOLDEN))
def test_network_golden_bytes(tmp_path, name):
    source = tmp_path / "instance.json"
    source.write_text(emit_instance(_two_phase_flow()))
    argv = ["network", "--input", str(source)] + NETWORK_CASES[name]
    assert _run_to_file(tmp_path, argv) == NETWORK_GOLDEN[name]


def test_every_number_and_gen_case_is_pinned():
    assert sorted(NUMBER_GOLDEN) == sorted(NUMBER_CASES)
    assert sorted(GEN_GOLDEN) == sorted(GEN_CASES)
    assert sorted(NETWORK_GOLDEN) == sorted(NETWORK_CASES)
