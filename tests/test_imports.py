"""Every imported name is used.

A small stand-in for a linter's unused-import rule, over the package, the
tests and the demos: a module fails when it imports a name that no
expression in it reads.  A name listed in the module's ``__all__`` counts as
used, so re-exports stay legal.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src/lockstepsim", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def imported_names(tree: ast.Module):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            yield from (elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))


def unused_imports(source: str):
    tree = ast.parse(source)
    used = set(used_names(tree))
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(source) == [("path", 1), ("json", 2)]
