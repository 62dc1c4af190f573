"""Every top-level import of a library module is used by that module."""

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
