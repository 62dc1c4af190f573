"""Every top-level import and private name of a library module is used by that module."""

import ast
from pathlib import Path

import pytest

import election_forensics

MODULES = sorted(Path(election_forensics.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind and nothing else in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b\nfrom c import d as e\nsys.exit()\n"
    assert unused_imports(source) == ["os", "a", "e"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """The private names (``_x``) a module's top-level functions, classes and assignments bind that no other top-level statement reads."""
    tree = ast.parse(source)
    bound, reads = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            names = []
        bound.append([name for name in names if name.startswith("_") and not name.startswith("__")])
        reads.append({name.id for name in ast.walk(node) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)})
    return [name for i, names in enumerate(bound) for name in names
            if not any(name in read for j, read in enumerate(reads) if j != i)]


def test_the_check_finds_an_unread_private_name():
    source = ("_A = 1\n_B, c = 2, 3\n_C: int = _A\n__all__ = []\n"
              "def _f():\n    return _f()\nclass _K:\n    pass\ndef g():\n    return _C\n")
    assert unread_private_names(source) == ["_B", "_f", "_K"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_top_level_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
