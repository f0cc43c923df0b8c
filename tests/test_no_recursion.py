"""No solver function may recurse, directly or through other functions.

A recursive solver crashes on a Python limit once its input is deep enough,
so the call graph of the pipeline's solver modules must be acyclic.  The
naive oracle (``oracle.py``) is exempt on purpose: it stays a plain
brute force that only runs on tiny inputs.
"""

from __future__ import annotations

import ast
import graphlib
import textwrap
from pathlib import Path

import pytest

SOLVER_MODULES = ("search", "numprob", "flow", "kernel", "problems", "core")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arcfill"


def _own_nodes(func: ast.AST):
    """Nodes of ``func``'s body, not descending into nested functions.

    Nested function definitions themselves are yielded, their bodies not.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))


def _call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Map every function to the functions it names.

    Nested functions and methods are nodes of their own, qualified by their
    module and enclosing definitions.  A name resolves lexically: to a nested
    definition of the function or of an enclosing function, then to a
    definition at module level, then to a function imported from another of
    ``sources``.  ``self.name`` and ``cls.name`` resolve to the enclosing
    class's methods.  A name the function binds itself, as an argument or by
    assignment, resolves to nothing.
    """
    tops: dict[str, dict[str, str]] = {}
    trees = {}
    for module, text in sources.items():
        trees[module] = tree = ast.parse(text)
        tops[module] = {
            node.name: f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
    graph: dict[str, set[str]] = {}
    for module, tree in trees.items():
        imported = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module in sources
            for alias in node.names
        }
        # (definition, qualified name, enclosing scopes, class methods)
        pending = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                pending.append((node, f"{module}.{node.name}", [], {}))
            elif isinstance(node, ast.ClassDef):
                methods = {
                    item.name: f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                pending.extend(
                    (item, methods[item.name], [], methods)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
        while pending:
            func, qualname, enclosing, methods = pending.pop()
            nodes = list(_own_nodes(func))
            nested = {
                node.name: f"{qualname}.{node.name}"
                for node in nodes
                if isinstance(node, ast.FunctionDef)
            }
            scopes = [nested, *enclosing]
            bound = {node.arg for node in nodes if isinstance(node, ast.arg)}
            bound |= {
                node.id
                for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            callees = graph.setdefault(qualname, set())
            for node in nodes:
                if isinstance(node, ast.FunctionDef):
                    pending.append((node, nested[node.name], scopes, {}))
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in bound and node.id not in nested:
                        continue
                    for table in (*scopes, tops[module], imported):
                        if node.id in table:
                            callees.add(table[node.id])
                            break
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                    and node.attr in methods
                ):
                    callees.add(methods[node.attr])
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as error:
        return error.args[1]
    return None


def test_solver_modules_have_no_recursive_function():
    sources = {
        module: (PACKAGE / f"{module}.py").read_text()
        for module in SOLVER_MODULES
    }
    graph = _call_graph(sources)
    # The graph must see across modules and into nested functions, or an
    # empty graph would pass vacuously.
    assert "numprob.solve_nda" in graph["search._anonymous_demands"]
    assert "flow.max_flow" in graph["flow.try_realize_demands"]
    assert any(name.count(".") >= 2 for name in graph)
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


@pytest.mark.parametrize(
    "source",
    [
        # mutual recursion between nested functions
        """
        def outer(n):
            def even(m):
                return m == 0 or odd(m - 1)
            def odd(m):
                return m != 0 and even(m - 1)
            return even(n)
        """,
        # direct recursion at module level
        """
        def countdown(n):
            return n if n == 0 else countdown(n - 1)
        """,
        # a method calling itself through self
        """
        class Walker:
            def walk(self, n):
                return n and self.walk(n - 1)
        """,
    ],
)
def test_guard_finds_cycles(source):
    assert _cycle(_call_graph({"m": textwrap.dedent(source)})) is not None


def test_guard_ignores_locally_bound_names():
    source = """
    def total(values):
        total = 0
        for value in values:
            total += value
        return total

    def key(item, key=None):
        return key(item) if key else item
    """
    assert _cycle(_call_graph({"m": textwrap.dedent(source)})) is None
