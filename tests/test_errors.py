"""Every leaf error class is raised somewhere in the package and named in
a pytest.raises of the test suite, so no error class is dead or untested."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ERRORS = ROOT / "src" / "monosphere" / "errors.py"


def _trees(directory):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(directory.rglob("*.py"))]


def _name(node):
    """The class name an expression like X, X(...) or errors.X refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _leaf_errors():
    classes = [n for n in ast.parse(ERRORS.read_text()).body if isinstance(n, ast.ClassDef)]
    bases = {c.name: {_name(b) for b in c.bases} for c in classes}

    def is_error(name):
        return name == "MonosphereError" or any(is_error(b) for b in bases.get(name, ()))

    parents = set().union(*bases.values())
    return sorted(name for name in bases if is_error(name) and name not in parents)


def _raised(trees):
    return {_name(n.exc) for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc}


def _expected(trees):
    names = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and _name(n.func) == "raises" and n.args:
                arg = n.args[0]
                names.update(_name(e) for e in (arg.elts if isinstance(arg, ast.Tuple) else [arg]))
    return names


LEAVES = _leaf_errors()
RAISED = _raised(_trees(ROOT / "src"))
EXPECTED = _expected(_trees(ROOT / "tests"))


def test_errors_module_has_leaf_classes():
    assert "SchemaError" in LEAVES and "NonFiniteResult" in LEAVES
    assert "ValidationError" not in LEAVES and "MonosphereError" not in LEAVES


@pytest.mark.parametrize("name", LEAVES)
def test_error_class_is_raised_and_tested(name):
    assert name in RAISED, f"{name} is raised nowhere in src/"
    assert name in EXPECTED, f"{name} is named in no pytest.raises in tests/"
