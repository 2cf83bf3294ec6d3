"""Every name that a module of ``src/fleetdr`` or ``tests`` imports is used
in that module.

Each module is parsed with ``ast``: a name an import binds must occur as a
name elsewhere in the module. Two kinds of import are kept on purpose and
skipped: one on a line marked ``# noqa: F401`` (``coordinator`` imports
``build_subproblem`` and ``solve`` only so the benchmark can wrap them
there), and those of the package ``__init__``, which imports to re-export.
"""

import ast
import glob
import os

from conftest import REPO_ROOT


def unused_imports(path):
    """``"<line>: <name>"`` for each name ``path``'s imports bind that the
    module never uses."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in sorted(
        (line, name) for name, line in imported.items() if name not in used)]


def modules(root):
    """The modules the check covers under the checkout ``root``."""
    paths = (glob.glob(os.path.join(root, "src", "fleetdr", "*.py"))
             + glob.glob(os.path.join(root, "tests", "*.py")))
    return sorted(p for p in paths if os.path.basename(p) != "__init__.py")


def test_every_imported_name_is_used():
    found = {os.path.relpath(path, REPO_ROOT): unused_imports(path)
             for path in modules(REPO_ROOT)}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_check_sees_a_name_used_only_in_an_annotation(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\n"
                    "from typing import List, Dict  # noqa: F401\n"
                    "from x import (a,\n"
                    "               b)\n"
                    "import p.q\n"
                    "def f(v: a) -> List[int]:\n"
                    "    return p.q\n")
    assert unused_imports(str(path)) == ["2: os", "4: b"]
