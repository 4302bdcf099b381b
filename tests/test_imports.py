"""Every module of the package, every ``bench/`` script and every test
module uses each name it imports.

No linter ships with the project, so this walks the syntax trees. A
package ``__init__`` re-exports by importing, and an import marked
``# noqa: F401`` is a deliberate re-export; both are exempt.
"""

import ast
from pathlib import Path

import pytest

import sagetok

PACKAGE = Path(sagetok.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(BENCH.glob("*.py"))
           + sorted(TESTS.glob("*.py")))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line of every import not marked as a re-export."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it does not use: {unused}"


def test_check_sees_an_unused_import():
    source = 'import os\nfrom x import y, z, w\nimport a.b\ndef f(q: "w") -> None: print(z, a, "os")\n'
    tree = ast.parse(source)
    unused = set(_imported(tree, source.splitlines())) - _used(tree)
    assert unused == {"os", "y"}  # a string outside an annotation is no use
