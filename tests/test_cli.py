import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from arcfill import (
    AnonymityCompletion,
    DegreeListFunction,
    DegreeSequence,
    Digraph,
    SequenceCompletion,
)
from arcfill import cli
from arcfill.cli import (
    NumberInstance,
    ParseError,
    SemanticError,
    emit_instance,
    emit_number_instance,
    parse_instance,
    parse_number_instance,
    parse_solution,
    run,
)
from conftest import (
    anonymity_example,
    list_example_no,
    list_example_yes,
    sequence_example,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_instance_round_trip_all_kinds():
    for inst in (
        sequence_example(),
        anonymity_example(),
        list_example_yes(),
        list_example_no(),
    ):
        text = emit_instance(inst)
        assert parse_instance(text) == inst
        assert emit_instance(parse_instance(text)) == text


def test_number_instance_round_trip():
    inst = NumberInstance(
        "nda",
        DegreeSequence([(0, 0), (1, 1)]),
        budget=1,
        anonymity=2,
        max_value=2,
    )
    text = emit_number_instance(inst)
    assert parse_number_instance(text) == inst
    assert emit_number_instance(parse_number_instance(text)) == text


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_instance('{\n  "format": "arcfill-instance",\n  broken\n}')
    assert excinfo.value.line == 3


def test_semantic_errors():
    base = json.loads(emit_instance(anonymity_example()))
    loop = dict(base)
    loop["arcs"] = [[3, 3]]
    with pytest.raises(SemanticError):
        parse_instance(json.dumps(loop))
    dupe = dict(base)
    dupe["arcs"] = [[0, 1], [0, 1]]
    with pytest.raises(SemanticError):
        parse_instance(json.dumps(dupe))
    listy = json.loads(emit_instance(list_example_yes()))
    listy["degree_lists"][0] = [[5, 0]]
    with pytest.raises(SemanticError):
        parse_instance(json.dumps(listy))
    seq = json.loads(emit_instance(sequence_example()))
    seq["target_sequence"] = seq["target_sequence"][:-1]
    with pytest.raises(SemanticError):
        parse_instance(json.dumps(seq))


def test_solve_and_verify_round_trip(tmp_path):
    instance_path = tmp_path / "instance.json"
    solution_path = tmp_path / "solution.json"
    instance_path.write_text(emit_instance(anonymity_example()))
    code, out, err = _run(
        ["solve", "--input", str(instance_path), "--output", str(solution_path)]
    )
    assert code == 0 and "decision: yes" in out
    payload = json.loads(solution_path.read_text())
    assert payload["decision"] == "yes" and len(payload["arcs"]) == 1
    code, out, err = _run(
        ["verify", "--input", str(instance_path), "--solution", str(solution_path)]
    )
    assert code == 0 and "pass" in out


def test_solve_reports_no(tmp_path):
    instance_path = tmp_path / "no.json"
    instance_path.write_text(emit_instance(list_example_no()))
    code, out, err = _run(["solve", "--input", str(instance_path)])
    assert code == 1 and "decision: no" in out


def test_solve_with_oracle_cross_check(tmp_path):
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(emit_instance(sequence_example()))
    code, out, err = _run(["solve", "--input", str(instance_path), "--oracle"])
    assert code == 0 and "oracle agreement: ok" in out


def test_verify_rejects_tampered_solution(tmp_path):
    instance_path = tmp_path / "instance.json"
    solution_path = tmp_path / "solution.json"
    instance_path.write_text(emit_instance(sequence_example()))
    _run(["solve", "--input", str(instance_path), "--output", str(solution_path)])
    payload = json.loads(solution_path.read_text())
    payload["arcs"] = [[0, 2]]
    solution_path.write_text(json.dumps(payload))
    code, out, err = _run(
        ["verify", "--input", str(instance_path), "--solution", str(solution_path)]
    )
    assert code == 1 and "FAIL" in out


def test_verify_rejects_non_integer_endpoints(tmp_path):
    instance_path = tmp_path / "instance.json"
    solution_path = tmp_path / "solution.json"
    instance_path.write_text(emit_instance(sequence_example()))
    _run(["solve", "--input", str(instance_path), "--output", str(solution_path)])
    payload = json.loads(solution_path.read_text())
    assert payload["arcs"] == [[3, 0]]
    for endpoint in (None, [0], "0", 0.0, True):
        payload["arcs"] = [[3, endpoint]]
        text = json.dumps(payload)
        with pytest.raises(ParseError):
            parse_solution(text)
        solution_path.write_text(text)
        code, out, err = _run(
            ["verify", "--input", str(instance_path), "--solution", str(solution_path)]
        )
        assert code == 2 and "error:" in err, endpoint


def test_boolean_budget_exits_2(tmp_path):
    # JSON true loads as a bool, which Python counts as the integer 1.
    payload = json.loads(emit_instance(anonymity_example()))
    payload["budget"] = True
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    code, out, err = _run(["solve", "--input", str(path)])
    assert code == 2 and "field 'budget' has the wrong type" in err


def test_non_list_degree_list_entry_exits_2(tmp_path):
    listy = json.loads(emit_instance(list_example_yes()))
    listy["degree_lists"][0] = 7
    number = json.loads(
        emit_number_instance(
            NumberInstance(
                "nddcc",
                DegreeSequence([(0, 0)]),
                budget=1,
                lists=DegreeListFunction([[(1, 1)]]),
            )
        )
    )
    number["degree_lists"][0] = 7
    for command, payload in (("solve", listy), ("numprob", number)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(payload))
        code, out, err = _run([command, "--input", str(path)])
        assert code == 2 and "degree_lists[0] must be a list" in err, command


def test_kernelize_emits_maps(tmp_path):
    instance_path = tmp_path / "instance.json"
    kernel_path = tmp_path / "kernel.json"
    instance_path.write_text(emit_instance(anonymity_example()))
    code, out, err = _run(
        ["kernelize", "--input", str(instance_path), "--output", str(kernel_path)]
    )
    assert code == 0
    payload = json.loads(kernel_path.read_text())
    assert payload["verdict"] == "unchanged"
    assert payload["kept"] == [[v, v] for v in range(7)]
    assert payload["added"] == []
    # A reduced kernel carries a parseable instance.
    big = SequenceCompletion(
        Digraph(12), DegreeSequence([(0, 1), (1, 0)] + [(0, 0)] * 10)
    )
    instance_path.write_text(emit_instance(big))
    code, out, err = _run(
        ["kernelize", "--input", str(instance_path), "--output", str(kernel_path)]
    )
    assert code == 0
    payload = json.loads(kernel_path.read_text())
    assert payload["verdict"] == "reduced"
    inner = parse_instance(json.dumps(payload["instance"]))
    assert inner.digraph.n == len(payload["kept"]) + len(payload["added"])


def test_gen_is_reproducible(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["gen", "--problem", "ddconc", "--vertices", "6", "--seed", "9"]
    assert _run(argv + ["--output", str(first)])[0] == 0
    assert _run(argv + ["--output", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    parsed = parse_instance(first.read_text())
    assert parsed.digraph.n == 6


def test_generated_instances_round_trip(tmp_path):
    for problem in ("ddconc", "ddseqc", "dda"):
        for seed in (1, 2, 3):
            path = tmp_path / f"{problem}-{seed}.json"
            code, out, err = _run(
                [
                    "gen", "--problem", problem, "--vertices", "7",
                    "--seed", str(seed), "--output", str(path),
                ]
            )
            assert code == 0
            text = path.read_text()
            assert emit_instance(parse_instance(text)) == text


def test_gen_requires_seed(tmp_path):
    code, out, err = _run(["gen", "--problem", "dda"])
    assert code == 2 and "seed" in err


def test_gen_partition_then_numprob(tmp_path):
    seq_path = tmp_path / "partition.json"
    code, out, err = _run(
        ["gen", "--partition", "1,1", "--output", str(seq_path)]
    )
    assert code == 0
    instance = parse_number_instance(seq_path.read_text())
    assert instance.problem == "nda" and instance.budget == 1
    code, out, err = _run(["numprob", "--input", str(seq_path), "--oracle"])
    assert code == 0 and "decision: yes" in out


def test_oracle_mismatch_exits_2(tmp_path, monkeypatch):
    # A brute force that always answers "no" contradicts both solvers' "yes".
    monkeypatch.setattr("arcfill.cli.brute_force_graph", lambda *a, **k: None)
    solver, _, fields = cli._NUMBER_PROBLEMS["nda"]
    monkeypatch.setitem(
        cli._NUMBER_PROBLEMS, "nda", (solver, lambda *a: None, fields)
    )
    solver, _, fields = cli._NUMBER_PROBLEMS["nddsc"]
    monkeypatch.setitem(
        cli._NUMBER_PROBLEMS, "nddsc", (solver, lambda *a: None, fields)
    )
    graph_path = tmp_path / "instance.json"
    graph_path.write_text(emit_instance(sequence_example()))
    number_path = tmp_path / "partition.json"
    assert _run(["gen", "--partition", "1,1", "--output", str(number_path)])[0] == 0
    # The empty matching is a "yes" even though it has length 0.
    empty_path = tmp_path / "empty.json"
    empty_path.write_text(
        emit_number_instance(
            NumberInstance(
                "nddsc", DegreeSequence([]), target=DegreeSequence([])
            )
        )
    )
    for command, path in (
        ("solve", graph_path),
        ("numprob", number_path),
        ("numprob", empty_path),
    ):
        code, out, err = _run([command, "--input", str(path), "--oracle"])
        assert code == 2, command
        assert err == "oracle mismatch: solver said yes, brute force said no\n"
        assert "decision" not in out


def test_numprob_oracle_skips_oversized_cross_checks(tmp_path):
    # Four elements make 20 sequence entries: beyond brute-force reach, so
    # the cross-check is skipped with a note but the answer still lands.
    seq_path = tmp_path / "partition.json"
    assert _run(["gen", "--partition", "3,1,2,2", "--output", str(seq_path)])[0] == 0
    code, out, err = _run(["numprob", "--input", str(seq_path), "--oracle"])
    assert code == 0 and "decision: yes" in out
    assert "oracle skipped" in err


def test_numprob_all_problems(tmp_path):
    for problem, payload in (
        (
            "nddcc",
            NumberInstance(
                "nddcc",
                DegreeSequence([(0, 0)]),
                budget=1,
                lists=DegreeListFunction([[(1, 1)]]),
            ),
        ),
        (
            "nddsc",
            NumberInstance(
                "nddsc",
                DegreeSequence([(0, 1)]),
                target=DegreeSequence([(1, 1)]),
            ),
        ),
    ):
        path = tmp_path / f"{problem}.json"
        path.write_text(emit_number_instance(payload))
        code, out, err = _run(["numprob", "--input", str(path), "--output",
                               str(tmp_path / f"{problem}-out.json")])
        assert code == 0, (problem, err)
        solved = json.loads((tmp_path / f"{problem}-out.json").read_text())
        assert solved["decision"] == "yes"


def test_numprob_nda_answers_on_many_distinct_types(tmp_path):
    # 400 distinct types that are already 1-anonymous: a trivial "yes" whose
    # block search is 400 levels deep.
    path = tmp_path / "nda.json"
    path.write_text(
        emit_number_instance(
            NumberInstance(
                "nda",
                DegreeSequence([(i, 0) for i in range(400)]),
                budget=0,
                anonymity=1,
                max_value=399,
            )
        )
    )
    code, out, err = _run(["numprob", "--input", str(path)])
    assert code == 0, err
    assert "decision: yes" in out


def test_network_dump(tmp_path):
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(emit_instance(sequence_example()))
    code, out, err = _run(
        [
            "network",
            "--input",
            str(instance_path),
            "--demands-in",
            "1,0,0,0",
            "--demands-out",
            "0,0,0,1",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 10 and payload["source"] == 0 and payload["sink"] == 9
    unit_edges = [e for e in payload["edges"] if e[2] == 1 and e[0] != 0 and e[1] != 9]
    assert [4, 5, 1] in [[u, v, c] for (u, v, c) in unit_edges]


def test_oracle_subcommand(tmp_path):
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(emit_instance(list_example_yes()))
    code, out, err = _run(["oracle", "--input", str(instance_path)])
    assert code == 0 and "decision: yes" in out


def test_usage_and_io_errors(tmp_path):
    assert _run([])[0] == 2
    assert _run(["frobnicate"])[0] == 2
    assert _run(["solve", "--input", str(tmp_path / "missing.json")])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = _run(["solve", "--input", str(bad)])
    assert code == 2 and "error:" in err


def test_internal_error_exits_3(tmp_path, monkeypatch):
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(emit_instance(sequence_example()))

    def overflow(instance):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("arcfill.cli.solve", overflow)
    code, out, err = _run(["solve", "--input", str(instance_path)])
    assert code == 3
    assert "internal error: RecursionError" in err
    assert "decision" not in out


# The degree cap is 16 here, so budget 513 > 2 * 16**2 takes the number + flow
# route, which realizes its demands by max flow.
_FLOW_ROUTE = AnonymityCompletion(Digraph(33), 1, 513)


def test_short_max_flow_is_an_internal_error(tmp_path, monkeypatch):
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(emit_instance(_FLOW_ROUTE))
    monkeypatch.setattr("arcfill.flow.max_flow", lambda net: (0, frozenset()))
    code, out, err = _run(["solve", "--input", str(instance_path)])
    assert code == 3
    assert "internal error: AssertionError" in err
    assert "decision" not in out


def test_short_max_flow_raises_under_optimize_flag():
    """The realization check raises even when ``python -O`` strips asserts."""
    script = textwrap.dedent(
        """
        import sys
        import arcfill.flow as flow
        from arcfill import AnonymityCompletion, Digraph, solve

        if __debug__:
            sys.exit("expected to run under -O")
        flow.max_flow = lambda net: (0, frozenset())
        try:
            solve(AnonymityCompletion(Digraph(33), 1, 513))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            sys.exit("a short max flow went unnoticed")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "raised: realization guarantee violated" in done.stdout


def _edited(instance, **fields) -> str:
    """An instance file with some fields replaced."""
    payload = json.loads(emit_instance(instance))
    payload.update(fields)
    return json.dumps(payload)


_NDA = emit_number_instance(
    NumberInstance("nda", DegreeSequence([(1, 1)]), budget=0, anonymity=1)
)
_DDA = emit_instance(anonymity_example())
_NO_DDCONC = cli.emit_solution(list_example_yes(), None)


# (argv with "@name" for a file, file texts by name, the error line)
ERROR_EXITS = {
    "missing-field": (
        ["solve", "--input", "@in"],
        {"in": _DDA.replace('"budget"', '"spent"')},
        "dda: missing field 'budget'",
    ),
    "nested-too-deeply": (
        ["solve", "--input", "@in"], {"in": "[" * 100_000},
        "value nested too deeply",
    ),
    "top-level-list": (
        ["solve", "--input", "@in"], {"in": "[]"},
        "top-level value must be an object",
    ),
    "wrong-format": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), format="arcfill-solution")},
        "header: expected format 'arcfill-instance', got 'arcfill-solution'",
    ),
    "wrong-version": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), version=2)},
        "header: unsupported version 2",
    ),
    "unknown-problem": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), problem="ddx")},
        "unknown problem 'ddx'",
    ),
    "arc-not-a-pair": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), arcs=[[0]])},
        "digraph: each arc must be a pair",
    ),
    "arc-out-of-range": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), arcs=[[0, 9]])},
        "digraph: arc (0, 9) out of range",
    ),
    "negative-component": (
        ["solve", "--input", "@in"],
        {"in": _edited(sequence_example(), target_sequence=[[-1, 0]] * 4)},
        "target_sequence: negative component in (-1, 0)",
    ),
    "negative-budget": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), budget=-1)},
        "budget must be nonnegative",
    ),
    "zero-anonymity": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), anonymity=0)},
        "anonymity level must be positive",
    ),
    "negative-vertices": (
        ["solve", "--input", "@in"],
        {"in": _edited(anonymity_example(), vertices=-1)},
        "vertex count must be nonnegative",
    ),
    "max-value-too-small": (
        ["numprob", "--input", "@in"],
        {"in": _NDA.replace('"anonymity": 1', '"anonymity": 1, "max_value": 0')},
        "max_value below the largest sequence component",
    ),
    "unknown-decision": (
        ["verify", "--input", "@in", "--solution", "@sol"],
        {"in": _DDA, "sol": _NO_DDCONC.replace('"no"', '"maybe"')},
        "unknown decision 'maybe'",
    ),
    "solution-for-another-problem": (
        ["verify", "--input", "@in", "--solution", "@sol"],
        {"in": _DDA, "sol": _NO_DDCONC},
        "solution is for 'ddconc' but instance is 'dda'",
    ),
    "partition-not-integers": (
        ["gen", "--partition", "1,x"], {},
        "--partition: expected comma-separated integers",
    ),
    "gen-without-problem": (
        ["gen", "--seed", "1"], {},
        "--problem is required for random generation",
    ),
    "demands-too-short": (
        ["network", "--input", "@in", "--demands-in", "1", "--demands-out", "1"],
        {"in": _DDA},
        "demand lists must cover every vertex",
    ),
    **{
        f"gen-{problem}-negative-{option}": (
            ["gen", "--problem", problem, "--seed", "1", f"--{option}", "-1"],
            {},
            f"{option} must be nonnegative",
        )
        for problem in ("ddconc", "ddseqc", "dda")
        for option in ("budget", "slack")
    },
}


@pytest.mark.parametrize("case", sorted(ERROR_EXITS))
def test_error_exits_print_one_error_line(case, tmp_path):
    argv, files, message = ERROR_EXITS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = _run(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_on_a_no_file_exits_1(tmp_path):
    instance_path = tmp_path / "instance.json"
    solution_path = tmp_path / "solution.json"
    instance_path.write_text(_DDA)
    solution_path.write_text(cli.emit_solution(anonymity_example(), None))
    code, out, err = _run(
        ["verify", "--input", str(instance_path), "--solution", str(solution_path)]
    )
    assert (code, out, err) == (1, "nothing to verify: solution file claims no\n", "")
