"""Every name a module imports is used in it (no linter is a test
dependency, so this stands in for the unused-import check)."""

import ast
from pathlib import Path

import pytest

import monosphere

MODULES = sorted(p for p in Path(monosphere.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert _unused_imports("import math\nfrom os import path as p, sep\nprint(sep)\n") == ["math", "p"]
