"""Every name a package module imports is used in it: a stdlib `ast` scan
that stands in for a linter's unused-import rule."""

import ast
from pathlib import Path

import pytest

import kadaryu

MODULES = sorted(Path(kadaryu.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every imported name that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from itertools import count as c, chain\nprint(math.pi, chain)\n")
    assert unused_imports(source) == [("c", 3), ("os", 2)]
