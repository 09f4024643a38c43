"""Every name a module under src/starvol, or the tests' oracles module, imports is used
there or exported."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "starvol"
MODULES = sorted(SRC.rglob("*.py")) + [TESTS / "oracles.py"]


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement anywhere in the module, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(_bound_names(tree).items())
        if name not in used and name not in exported
    ]


def test_modules_are_found():
    names = {path.name for path in SRC.rglob("*.py")}
    assert {"__init__.py", "geometry.py", "mlp.py"} <= names
    # the oracles serve only the tests, so they live beside them
    assert "oracles.py" not in names and (TESTS / "oracles.py").is_file()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC if SRC in p.parents else TESTS)))
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nfrom os import path, sep\n"
        "__all__ = ['sep']\n"
        "def f():\n    from json import dumps\n    return np.ones(1)\n"
    )
    assert _unused_imports(module) == ["dumps (line 7)", "math (line 2)", "path (line 4)"]
