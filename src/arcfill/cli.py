"""Command-line interface: JSON instance files, solving, verification,
kernelization, seeded generation, and brute-force cross-checking.

Exit codes: 0 = yes/pass, 1 = no/fail, 2 = usage, parse, or semantic error,
3 = internal error.
All emitted JSON uses a fixed key order and two-space indentation, so equal
objects serialize to identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from .core import DegreeListFunction, DegreeSequence, Digraph
from .flow import DemandVector, build_network
from .kernel import KernelResult, KernelVerdict
from .numprob import reduce_partition_to_nda, solve_nda, solve_nddcc, solve_nddsc
from .oracle import (
    InstanceTooLargeError,
    brute_force_graph,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
)
from .problems import (
    AnonymityCompletion,
    ListCompletion,
    ProblemInstance,
    SequenceCompletion,
)
from .search import Solution, kernelize, solve, verify_solution

INSTANCE_FORMAT = "arcfill-instance"
SOLUTION_FORMAT = "arcfill-solution"
SEQUENCE_FORMAT = "arcfill-sequence-instance"
SEQUENCE_SOLUTION_FORMAT = "arcfill-sequence-solution"
KERNEL_FORMAT = "arcfill-kernel"
FORMAT_VERSION = 1

GRAPH_PROBLEMS = ("ddconc", "ddseqc", "dda")


class ParseError(ValueError):
    """Malformed file; `.line` locates the first offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


class SemanticError(ValueError):
    """Well-formed file describing an invalid instance."""


@dataclass(frozen=True)
class NumberInstance:
    """A parsed number-problem file."""

    problem: str
    sequence: DegreeSequence
    budget: int | None = None
    lists: DegreeListFunction | None = None
    target: DegreeSequence | None = None
    anonymity: int | None = None
    max_value: int | None = None

    @property
    def value_cap(self) -> int:
        """``max_value``, defaulting to the largest sequence component."""
        if self.max_value is None:
            return self.sequence.max_component
        return self.max_value


# problem -> (solver, brute-force oracle, the NumberInstance fields both take
# after the sequence, in order)
_NUMBER_PROBLEMS = {
    "nddcc": (solve_nddcc, brute_force_nddcc, ("budget", "lists")),
    "nddsc": (solve_nddsc, brute_force_nddsc, ("target",)),
    "nda": (solve_nda, brute_force_nda, ("budget", "anonymity", "value_cap")),
}


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _header(fmt: str, problem: str | None = None) -> dict:
    data = {"format": fmt, "version": FORMAT_VERSION}
    if problem is not None:
        data["problem"] = problem
    return data


def _pairs(pairs) -> list[list[int]]:
    return [list(p) for p in pairs]


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(data: dict, key: str, kind, context: str):
    if key not in data:
        raise ParseError(f"{context}: missing field {key!r}")
    value = data[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"{context}: field {key!r} has the wrong type")
    return value


def _load(text: str, fmt: str, problems, noun: str) -> tuple[dict, str]:
    """Decode a file, check its header and return it with its problem."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("value nested too deeply") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    found = _expect(data, "format", str, "header")
    if found != fmt:
        raise ParseError(f"header: expected format {fmt!r}, got {found!r}")
    version = _expect(data, "version", int, "header")
    if version != FORMAT_VERSION:
        raise ParseError(f"header: unsupported version {version}")
    problem = _expect(data, "problem", str, "header")
    if problem not in problems:
        raise ParseError(f"unknown {noun} {problem!r}")
    return data, problem


def _int_pair(item, context: str, arc: bool) -> tuple[int, int]:
    unit, parts = ("arc", "arc endpoints") if arc else ("entry", "pair components")
    if not (isinstance(item, list) and len(item) == 2):
        raise ParseError(f"{context}: each {unit} must be a pair")
    if not (_is_int(item[0]) and _is_int(item[1])):
        raise ParseError(f"{context}: {parts} must be integers")
    return item[0], item[1]


def _parse_arc_list(raw, n: int) -> list[tuple[int, int]]:
    arcs = []
    seen = set()
    for item in raw:
        u, v = _int_pair(item, "digraph", arc=True)
        if u == v:
            raise SemanticError(f"digraph: loop arc ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise SemanticError(f"digraph: arc ({u}, {v}) out of range")
        if (u, v) in seen:
            raise SemanticError(f"digraph: duplicate arc ({u}, {v})")
        seen.add((u, v))
        arcs.append((u, v))
    return arcs


def _parse_pair_list(raw, context: str) -> list[tuple[int, int]]:
    pairs = []
    for item in raw:
        a, b = _int_pair(item, context, arc=False)
        if a < 0 or b < 0:
            raise SemanticError(f"{context}: negative component in ({a}, {b})")
        pairs.append((a, b))
    return pairs


# One reader per file field, shared by instance files (whose entries cover the
# digraph's vertices) and number files (whose entries cover the sequence).


def _check_length(key: str, items, n: int, owner: str) -> None:
    if len(items) != n:
        raise SemanticError(f"{key} has {len(items)} entries, {owner} has {n}")


def _budget(data: dict, context: str) -> int:
    budget = _expect(data, "budget", int, context)
    if budget < 0:
        raise SemanticError("budget must be nonnegative")
    return budget


def _anonymity(data: dict, context: str) -> int:
    anonymity = _expect(data, "anonymity", int, context)
    if anonymity < 1:
        raise SemanticError("anonymity level must be positive")
    return anonymity


def _degree_lists(data: dict, context: str, n: int, owner: str) -> DegreeListFunction:
    bound = _expect(data, "degree_bound", int, context)
    raw = _expect(data, "degree_lists", list, context)
    _check_length("degree_lists", raw, n, owner)
    lists = []
    for v, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise ParseError(f"degree_lists[{v}] must be a list")
        pairs = _parse_pair_list(entry, f"degree_lists[{v}]")
        for (a, b) in pairs:
            if a > bound or b > bound:
                raise SemanticError(
                    f"degree_lists[{v}]: pair ({a}, {b}) exceeds bound {bound}"
                )
        lists.append(pairs)
    return DegreeListFunction(lists, bound=bound)


def _target(data: dict, context: str, n: int, owner: str) -> DegreeSequence:
    raw = _expect(data, "target_sequence", list, context)
    target = _parse_pair_list(raw, "target_sequence")
    _check_length("target_sequence", target, n, owner)
    return DegreeSequence(target)


def parse_instance(text: str) -> ProblemInstance:
    """Parse a graph-problem instance file."""
    data, problem = _load(text, INSTANCE_FORMAT, GRAPH_PROBLEMS, "problem")
    n = _expect(data, "vertices", int, "digraph")
    if n < 0:
        raise SemanticError("vertex count must be nonnegative")
    digraph = Digraph(n, _parse_arc_list(_expect(data, "arcs", list, "digraph"), n))
    if problem == "ddconc":
        return ListCompletion(
            digraph, _budget(data, problem), _degree_lists(data, problem, n, "digraph")
        )
    if problem == "ddseqc":
        return SequenceCompletion(digraph, _target(data, problem, n, "digraph"))
    return AnonymityCompletion(
        digraph, _anonymity(data, problem), _budget(data, problem)
    )


def _instance_payload(instance: ProblemInstance) -> dict:
    data = _header(INSTANCE_FORMAT, instance.kind)
    data["vertices"] = instance.digraph.n
    data["arcs"] = _pairs(instance.digraph.sorted_arcs())
    data.update(instance.wire_fields())
    return data


def emit_instance(instance: ProblemInstance) -> str:
    """Canonical byte-stable serialization of an instance."""
    return _dump(_instance_payload(instance))


def parse_number_instance(text: str) -> NumberInstance:
    """Parse a number-problem (raw sequence) instance file."""
    data, problem = _load(text, SEQUENCE_FORMAT, _NUMBER_PROBLEMS, "number problem")
    sequence = DegreeSequence(
        _parse_pair_list(_expect(data, "sequence", list, "sequence"), "sequence")
    )
    n = len(sequence)
    if problem == "nddcc":
        return NumberInstance(
            problem, sequence, budget=_budget(data, problem),
            lists=_degree_lists(data, problem, n, "sequence"),
        )
    if problem == "nddsc":
        return NumberInstance(
            problem, sequence, target=_target(data, problem, n, "sequence")
        )
    budget = _budget(data, problem)
    anonymity = _anonymity(data, problem)
    max_value = None
    if data.get("max_value") is not None:
        max_value = _expect(data, "max_value", int, problem)
        if max_value < sequence.max_component:
            raise SemanticError("max_value below the largest sequence component")
    return NumberInstance(
        problem, sequence, budget=budget, anonymity=anonymity, max_value=max_value
    )


def emit_number_instance(instance: NumberInstance) -> str:
    data = _header(SEQUENCE_FORMAT, instance.problem)
    data["sequence"] = _pairs(instance.sequence)
    if instance.problem == "nddcc":
        data["budget"] = instance.budget
        data["degree_bound"] = instance.lists.bound
        data["degree_lists"] = [_pairs(sorted(entry)) for entry in instance.lists]
    elif instance.problem == "nddsc":
        data["target_sequence"] = _pairs(instance.target)
    else:
        data["budget"] = instance.budget
        data["anonymity"] = instance.anonymity
        if instance.max_value is not None:
            data["max_value"] = instance.max_value
    return _dump(data)


def emit_solution(instance: ProblemInstance, solution: Solution | None) -> str:
    data = _header(SOLUTION_FORMAT, instance.kind)
    data["decision"] = "yes" if solution is not None else "no"
    data["arcs"] = _pairs(solution.arcs) if solution else []
    data["certificate"] = dict(solution.certificate) if solution else {}
    return _dump(data)


def parse_solution(text: str) -> tuple[str, str, list[tuple[int, int]]]:
    """Parse a solution file into (problem, decision, arcs)."""
    data, problem = _load(text, SOLUTION_FORMAT, GRAPH_PROBLEMS, "problem")
    decision = _expect(data, "decision", str, "solution")
    if decision not in ("yes", "no"):
        raise ParseError(f"unknown decision {decision!r}")
    raw = _expect(data, "arcs", list, "solution")
    return problem, decision, [_int_pair(item, "solution", arc=True) for item in raw]


def emit_kernel(instance: ProblemInstance, result: KernelResult) -> str:
    data = _header(KERNEL_FORMAT, instance.kind)
    data["verdict"] = result.verdict.value
    data["reason"] = result.reason.value if result.reason else None
    data["instance"] = (
        _instance_payload(result.instance) if result.instance else None
    )
    data["kept"] = [[kernel, orig] for kernel, orig in sorted(result.kept.items())]
    data["added"] = sorted(result.added)
    return _dump(data)


def emit_number_solution(instance: NumberInstance, result) -> str:
    data = _header(SEQUENCE_SOLUTION_FORMAT, instance.problem)
    data["decision"] = "yes" if result is not None else "no"
    if result is not None:
        if instance.problem == "nddsc":
            data["assignment"] = list(result)
        else:
            data["target_sequence"] = _pairs(result.target)
            data["demand_in"] = list(result.demands.in_demand)
            data["demand_out"] = list(result.demands.out_demand)
    return _dump(data)


def random_digraph(rng: random.Random, n: int, density: float) -> Digraph:
    """Independent arc sampling at the given density."""
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]
    return Digraph(n, arcs)


def generate_instance(
    problem: str,
    rng: random.Random,
    n: int,
    density: float,
    budget: int,
    anonymity: int = 2,
    slack: int = 2,
) -> ProblemInstance:
    """Seeded random instance of the requested problem.

    Allowed-degree lists are sampled around current degrees within ``slack``;
    sequence targets come from actually inserting up to ``budget`` random
    arcs, so they are realizable reasonably often.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    digraph = random_digraph(rng, n, density)
    if problem == "ddconc":
        lists = []
        for v in range(n):
            deg = digraph.degree(v)
            count = rng.randint(1, 3)
            entries = set()
            for _ in range(count):
                entries.add(
                    (deg.indeg + rng.randint(0, slack), deg.outdeg + rng.randint(0, slack))
                )
            lists.append(sorted(entries))
        return ListCompletion(digraph, budget, DegreeListFunction(lists))
    if problem == "ddseqc":
        insertable = digraph.non_arcs()
        extras = rng.sample(insertable, min(rng.randint(0, budget), len(insertable)))
        grown = Digraph(digraph.n, list(digraph.arcs) + extras)
        entries = [tuple(grown.degree(v)) for v in range(n)]
        rng.shuffle(entries)
        return SequenceCompletion(digraph, DegreeSequence(entries))
    if problem == "dda":
        return AnonymityCompletion(digraph, anonymity, budget)
    raise ValueError(f"unknown problem {problem!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_or_print(path: str | None, text: str, out) -> None:
    if path:
        _write(path, text)
    else:
        out.write(text)


def _cross_check(result, oracle, out, err) -> bool:
    """Compare a verdict with brute force; False when the two disagree."""
    try:
        reference = oracle()
    except InstanceTooLargeError as exc:
        print(f"oracle skipped: {exc}", file=err)
        return True
    if (reference is None) != (result is None):
        print(
            "oracle mismatch: solver said "
            f"{'yes' if result is not None else 'no'}, brute force said "
            f"{'yes' if reference is not None else 'no'}",
            file=err,
        )
        return False
    print("oracle agreement: ok", file=out)
    return True


def _answer(args, instance, solution: Solution | None, out) -> int:
    """Report a graph-problem answer, write its file, return the exit code."""
    if solution is None:
        print("decision: no", file=out)
    else:
        print("decision: yes", file=out)
        print(f"arcs ({len(solution.arcs)}):", file=out)
        for (u, v) in solution.arcs:
            print(f"  {u} -> {v}", file=out)
        for name, passed in solution.certificate.items():
            print(f"check {name}: {'pass' if passed else 'FAIL'}", file=out)
    if args.output:
        _write(args.output, emit_solution(instance, solution))
    return 0 if solution is not None else 1


def _cmd_solve(args, out, err) -> int:
    instance = parse_instance(_read(args.input))
    solution = solve(instance)
    if args.oracle and not _cross_check(
        solution,
        lambda: brute_force_graph(
            instance,
            max_vertices=args.oracle_max_vertices,
            max_budget=args.oracle_max_budget,
        ),
        out,
        err,
    ):
        return 2
    return _answer(args, instance, solution, out)


def _cmd_oracle(args, out, err) -> int:
    instance = parse_instance(_read(args.input))
    solution = brute_force_graph(
        instance, max_vertices=args.max_vertices, max_budget=args.max_budget
    )
    return _answer(args, instance, solution, out)


def _cmd_verify(args, out, err) -> int:
    instance = parse_instance(_read(args.input))
    problem, decision, arcs = parse_solution(_read(args.solution))
    if problem != instance.kind:
        raise SemanticError(
            f"solution is for {problem!r} but instance is {instance.kind!r}"
        )
    if decision == "no":
        print("nothing to verify: solution file claims no", file=out)
        return 1
    solution = Solution(tuple(arcs), {})
    if verify_solution(instance, solution):
        print("verification: pass", file=out)
        return 0
    print("verification: FAIL", file=out)
    return 1


def _cmd_kernelize(args, out, err) -> int:
    instance = parse_instance(_read(args.input))
    result = kernelize(instance)
    print(f"verdict: {result.verdict.value}", file=out)
    if result.reason:
        print(f"reason: {result.reason.value}", file=out)
    if result.instance is not None:
        print(f"kernel vertices: {result.instance.digraph.n}", file=out)
    if args.output:
        _write(args.output, emit_kernel(instance, result))
    return 1 if result.verdict is KernelVerdict.TRIVIAL_NO else 0


def _cmd_numprob(args, out, err) -> int:
    instance = parse_number_instance(_read(args.input))
    solver, oracle, fields = _NUMBER_PROBLEMS[instance.problem]
    arguments = [instance.sequence] + [getattr(instance, f) for f in fields]
    result = solver(*arguments)
    if args.oracle and not _cross_check(
        result, lambda: oracle(*arguments), out, err
    ):
        return 2
    print(f"decision: {'yes' if result is not None else 'no'}", file=out)
    if args.output:
        _write(args.output, emit_number_solution(instance, result))
    return 0 if result is not None else 1


def _parse_int_list(text: str, context: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"{context}: expected comma-separated integers") from exc


def _cmd_gen(args, out, err) -> int:
    if args.partition:
        values = _parse_int_list(args.partition, "--partition")
        sequence, budget, anonymity = reduce_partition_to_nda(values)
        instance = NumberInstance(
            "nda",
            sequence,
            budget=budget,
            anonymity=anonymity,
            max_value=sequence.max_component,
        )
        text = emit_number_instance(instance)
    else:
        if args.seed is None:
            raise SemanticError("--seed is required for random generation")
        if args.problem is None:
            raise SemanticError("--problem is required for random generation")
        rng = random.Random(args.seed)
        instance = generate_instance(
            args.problem,
            rng,
            n=args.vertices,
            density=args.density,
            budget=args.budget,
            anonymity=args.anonymity,
            slack=args.slack,
        )
        text = emit_instance(instance)
    _write_or_print(args.output, text, out)
    return 0


def _cmd_network(args, out, err) -> int:
    instance = parse_instance(_read(args.input))
    d = instance.digraph
    in_demand = _parse_int_list(args.demands_in, "--demands-in")
    out_demand = _parse_int_list(args.demands_out, "--demands-out")
    if len(in_demand) != d.n or len(out_demand) != d.n:
        raise SemanticError("demand lists must cover every vertex")
    network = build_network(d, DemandVector(tuple(in_demand), tuple(out_demand)))
    data = _header("arcfill-network")
    data["nodes"] = network.node_count()
    data["source"] = network.source
    data["sink"] = network.sink
    data["edges"] = [[u, v, cap] for (u, v, cap) in network.edges()]
    _write_or_print(args.output, _dump(data), out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcfill",
        description="Exact solvers for degree-constrained arc insertion in digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write the solution file here")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    p.add_argument("--oracle-max-vertices", type=int, default=7)
    p.add_argument("--oracle-max-budget", type=int, default=5)

    p = sub.add_parser("oracle", help="solve a small instance by brute force")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--max-vertices", type=int, default=7)
    p.add_argument("--max-budget", type=int, default=5)

    p = sub.add_parser("verify", help="check a solution file against its instance")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)

    p = sub.add_parser("kernelize", help="emit an equivalent reduced instance")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("numprob", help="solve a raw degree-sequence problem")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")

    p = sub.add_parser("gen", help="generate a seeded random or reduction instance")
    p.add_argument("--problem", choices=GRAPH_PROBLEMS)
    p.add_argument("--vertices", type=int, default=6)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--anonymity", type=int, default=2)
    p.add_argument("--slack", type=int, default=2)
    p.add_argument("--seed", type=int)
    p.add_argument("--partition", help="comma-separated positive integers")
    p.add_argument("--output")

    p = sub.add_parser("network", help="dump the demand flow network of an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--demands-in", required=True)
    p.add_argument("--demands-out", required=True)
    p.add_argument("--output")
    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "kernelize": _cmd_kernelize,
    "numprob": _cmd_numprob,
    "gen": _cmd_gen,
    "network": _cmd_network,
}


def run(argv, out=None, err=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse writes usage and help straight to the process streams.
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args, out, err)
    except (ParseError, SemanticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except Exception as exc:
        # Anything else is a fault of the program, never an answer.
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
