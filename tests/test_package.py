"""Promises the package makes as a whole.

``src/`` depends on the standard library only, and ``import arcfill`` loads
neither the command line nor the modules that only it needs, so the cold
import stays small.  The library quick start in ``README.md`` runs as
printed.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_source_imports_only_the_standard_library():
    for path in sorted((SRC / "arcfill").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path, name)


def test_import_loads_no_command_line_modules():
    # Interpreter start-up may load some of these already, so only the
    # modules that the import itself adds count.
    script = (
        "import sys; before = set(sys.modules); import arcfill; "
        "print([m for m in ('arcfill.cli', 'argparse', 'json', 'random') "
        "if m in set(sys.modules) - before])"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_quick_start_runs_as_printed(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["solution"].arcs == ((4, 6),)
    assert capsys.readouterr().out.startswith("((4, 6),)\n")
