"""Every name a module imports is used in it, and every private name a
module defines is read somewhere in the package (no linter is a test
dependency, so this stands in for the unused-import and dead-code
checks)."""

import ast
from pathlib import Path

import pytest

import monosphere

PACKAGE = sorted(Path(monosphere.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private names (_x) of the sources that no source reads."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


def test_no_unread_private_names():
    assert _unread_private_names([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_detects_an_unread_private_name():
    sources = ["def _a():\n    return _b()\n\ndef _b():\n    pass\n\n_C = 1\n_D: int = 2\n", "import m\nm._D\n"]
    assert _unread_private_names(sources) == ["_a", "_C"]
