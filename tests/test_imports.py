"""Every name a module under src/starvol, or the tests' oracles module, imports is used
there or exported, and every private module-level name under src/starvol is used."""

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


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each private name that a top-level def, class or assignment binds, with its statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        defined |= {name: node for name in names if name.startswith("_") and not name.startswith("__")}
    return defined


def _unreferenced_private_names(paths: list[Path]) -> list[str]:
    """``module:name`` of each private module-level name that no module of ``paths``
    mentions outside the statement defining it, as a name, an attribute or an import."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    mentions = []  # (path, node id, name) of every mention
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                mentions.append((path, id(node), name))
    unreferenced = []
    for path, tree in trees.items():
        for name, statement in _private_definitions(tree).items():
            own = {id(node) for node in ast.walk(statement)}
            if not any(n == name and not (p == path and i in own) for p, i, n in mentions):
                unreferenced.append(f"{path.stem}:{name}")
    return sorted(unreferenced)


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


def test_no_unreferenced_private_name():
    # a deletion that leaves a private helper without its caller leaves it here
    assert _unreferenced_private_names(sorted(SRC.rglob("*.py"))) == []


def test_detects_an_unreferenced_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n_orphan = _used = 1\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _used\n"
        "def _helper():\n    return _LIMIT\n"
        "class _Kept:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from a import _helper\nimport a\nprint(a._Kept)\n")
    assert _unreferenced_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == ["a:_orphan", "a:_recursive"]
