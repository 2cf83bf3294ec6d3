"""The library exports only what the program uses.

Every public top-level function and class of ``src/fleetdr``, and every
public method and property of a public class, must be named by the program
itself, its demos or its benchmark; a name only the tests use is API that
nothing calls. The package's ``__init__`` re-exports do not
count as uses, and the benchmark's string references (the names it wraps
by ``getattr``) do.
"""

import ast
import os

import pytest

from conftest import REPO_ROOT

SRC = os.path.join(REPO_ROOT, "src", "fleetdr")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def callers():
    paths = [os.path.join(SRC, m) for m in MODULES if m != "__init__.py"]
    for folder in ("demos", "perfbench"):
        root = os.path.join(REPO_ROOT, folder)
        paths += [os.path.join(root, f) for f in sorted(os.listdir(root))
                  if f.endswith(".py")]
    return paths


@pytest.fixture(scope="module")
def used():
    return {name for path in callers() for name in names_used(parse(path))}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller_outside_the_tests(module, used):
    tree = parse(os.path.join(SRC, module))
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [name for name in public if name not in used] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_has_a_caller_outside_the_tests(module, used):
    tree = parse(os.path.join(SRC, module))
    public = [(cls.name, node.name) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    assert [f"{cls}.{name}" for cls, name in public if name not in used] == []
