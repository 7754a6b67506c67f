"""No module imports a name it never uses (stdlib-only, over the AST).

A name bound by ``import`` or ``from ... import`` in a module under
``src/repro`` or ``tests`` must be read somewhere in that module, be listed
in its ``__all__`` (a package re-export), or appear in a string that parses
as an expression (a quoted annotation).  ``from __future__`` imports bind
nothing the module reads and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src/repro", "tests")


def _imported_names(tree: ast.Module) -> Iterator[tuple]:
    """Yield ``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _read_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, re-exports through ``__all__`` or quotes."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _unused_imports(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(encoding="utf8"))
    read = _read_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in _imported_names(tree)
        if name not in read
    ]


@pytest.mark.parametrize("tree", TREES)
def test_every_import_is_used(tree):
    unused = [
        finding
        for path in sorted((ROOT / tree).rglob("*.py"))
        for finding in _unused_imports(path)
    ]
    assert unused == []
