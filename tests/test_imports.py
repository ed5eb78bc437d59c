"""Every name a module imports is used in it, every private name a
module defines is read somewhere in the package (no linter is a test
dependency, so this stands in for the unused-import and dead-code
checks), arrays are made read-only in one place, a curve is scaled and
folded into its bidegree coefficients in one place, the CLI reads its
input in one place, the public API is pinned, every package name
the benchmark imports exists, and the tests import no third-party
module beyond their pinned set."""

import ast
import importlib
import sys
import types
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


def _users(source: str, name: str) -> list[str]:
    """The top-level definitions of source that reach for name, as a
    name or an attribute, by name, or by line for a statement."""
    return [
        getattr(node, "name", f"line {node.lineno}")
        for node in ast.parse(source).body
        if any(
            isinstance(n, ast.Attribute) and n.attr == name or isinstance(n, ast.Name) and n.id == name
            for n in ast.walk(node)
        )
    ]


def _package_users(name: str) -> dict[str, list[str]]:
    users = {p.name: _users(p.read_text(encoding="utf-8"), name) for p in PACKAGE}
    return {module: found for module, found in users.items() if found}


def test_only_frozen_sets_array_flags():
    assert _package_users("setflags") == {"projective.py": ["frozen"]}


def test_detects_a_setflags_call():
    source = (
        "class A:\n    def f(self, m):\n        m.setflags(write=False)\n\n"
        "def frozen(m):\n    m.setflags(write=False)\n\nflags = m.setflags\n"
    )
    assert _users(source, "setflags") == ["A", "frozen", "line 8"]


def test_only_the_curve_form_scales_psi_and_reads_its_bidegree():
    # SpectralMatrix._scaled is the one scaled form of a curve; proj_roots
    # scales one polynomial of its own
    assert _package_users("frexp") == {"curves.py": ["SpectralMatrix"], "projective.py": ["proj_roots"]}
    assert _package_users("bidegree") == {"curves.py": ["SpectralMatrix"]}


def test_detects_a_second_scaled_form():
    source = (
        "import math\nfrom .curves import bidegree\n\n"
        "def _bidegree(S):\n"
        "    return bidegree(np.ldexp(S.psi.view(float), -math.frexp(np.abs(S.psi).max())[1]).view(complex))\n"
    )
    assert _users(source, "frexp") == _users(source, "bidegree") == ["_bidegree"]


def _cli_input_faults(source: str) -> list[str]:
    """Where source departs from one input pass: a read_document call
    count other than 1, and each cmd_* handler that reads args.input or
    raises SchemaError (the decoder and the flag check raise it before
    any handler runs)."""
    tree = ast.parse(source)
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "read_document"
    ]
    faults = [] if len(reads) == 1 else [f"{len(reads)} read_document calls"]
    for handler in tree.body:
        if not (isinstance(handler, ast.FunctionDef) and handler.name.startswith("cmd_")):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Attribute) and node.attr == "input" and getattr(node.value, "id", None) == "args":
                faults.append(f"{handler.name} reads args.input")
            if isinstance(node, ast.Raise) and any(
                isinstance(n, ast.Name) and n.id == "SchemaError" for n in ast.walk(node)
            ):
                faults.append(f"{handler.name} raises SchemaError")
    return faults


def test_cli_reads_its_input_once_before_any_handler():
    cli = Path(monosphere.__file__).parent / "cli.py"
    assert _cli_input_faults(cli.read_text(encoding="utf-8")) == []


def test_detects_a_handler_that_reads_its_own_input():
    source = (
        "def main(args):\n    return ser.read_document(args.input)\n\n"
        "def cmd_a(_, args):\n    return read_document(args.input)\n\n"
        "def cmd_b(_, args):\n    if args.grid < 1:\n        raise SchemaError('--grid')\n\n"
        "def _helper(args):\n    raise SchemaError(args.input)\n"
    )
    assert _cli_input_faults(source) == [
        "2 read_document calls", "cmd_a reads args.input", "cmd_b raises SchemaError"
    ]


# The package's public API; a name added or removed here is a decision.
PUBLIC_NAMES = set("""
    AxialField CoeffTuple ConvergenceError FlowResult GaugeSample H_matrix HoloSphere Mobius MomentValue
    MonosphereError PSequence PonceletPolygon ProjLine RationalMap ResidualReport SpectralMatrix
    SpherePoint Su2Triple ValidationError ZLattice act_sl2 antipode axial_spectral bog_residual bracket
    center_flow centre_point chordal connection_at_infinity curvature_density curve_spectrum
    degree_integral diagonal_quartic estimate_mass eval_psi eval_sphere factor_sphere find_line
    from_su2_triple fullness_check gauge_fields is_centred mass_flow_check mass_profile massless_curve
    metric_h metric_scale_residual moment_map norm2 normalize_reality p_sequence pairing
    poncelet positivity_check proj_roots project_map reconstruct_psi_from_metric sech_field
    spectral_from_sphere spectral_slice sphere_of_sech sphere_to_tuple to_su2_triple
    triple_product tuple_to_sphere z_lattice zero_mass_field
""".split())


def _public_names(module) -> set[str]:
    """The names a module exports: not private and not a submodule."""
    return {
        name for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 67
    assert _public_names(monosphere) == PUBLIC_NAMES


def test_detects_a_new_public_name():
    module = types.ModuleType("m")
    vars(module).update(vars(monosphere))
    module.extra, module._private, module.sub = 1, 2, types.ModuleType("m.sub")
    assert _public_names(module) ^ PUBLIC_NAMES == {"extra"}


BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def _missing_package_names(source: str) -> list[str]:
    """The names that source takes from the package, by `from monosphere...
    import` anywhere (function-local imports included) or as an attribute
    of a package module so imported, that do not resolve."""
    tree = ast.parse(source)
    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "monosphere":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                try:
                    value = getattr(module, alias.name) if hasattr(module, alias.name) else importlib.import_module(name)
                except ImportError:
                    missing.append(name)
                    continue
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if not hasattr(modules[node.value.id], node.attr):
                missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.name)
def test_every_package_name_the_benchmark_imports_resolves(path):
    assert _missing_package_names(path.read_text(encoding="utf-8")) == []


def test_detects_a_missing_package_name():
    source = (
        "from monosphere import curve_spectrum, no_such_name\n"
        "def f():\n    from monosphere.curves import gone\n    from monosphere import cli\n"
        "    return cli.main, cli.no_such_helper\n"
    )
    assert _missing_package_names(source) == [
        "monosphere.no_such_name", "monosphere.curves.gone", "monosphere.cli.no_such_helper"
    ]


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# The third-party modules the tests may import; the test modules may also
# import one another.
TEST_DEPENDENCIES = {"hypothesis", "monosphere", "mpmath", "numpy", "pytest"}


def _foreign_imports(source: str, local: set[str]) -> list[str]:
    """The top-level modules that source imports anywhere (function-local
    imports and importorskip or import_module by a literal name included)
    that are neither the standard library, local nor TEST_DEPENDENCIES."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module.split(".")[0])
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("importorskip", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            imported.append(node.args[0].value.split(".")[0])
    allowed = set(sys.stdlib_module_names) | local | TEST_DEPENDENCIES
    return [name for name in imported if name not in allowed]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_only_their_pinned_dependencies(path):
    assert _foreign_imports(path.read_text(encoding="utf-8"), {p.stem for p in TESTS}) == []


def test_detects_a_function_local_foreign_import():
    source = (
        "import math, numpy as np\nfrom . import sibling\nimport test_other\n"
        "def f(h):\n    from scipy.linalg import expm\n    import sympy\n    return expm(h)\n"
        "def g():\n    return pytest.importorskip('scipy.linalg'), importlib.import_module('json')\n"
    )
    assert _foreign_imports(source, {"test_other"}) == ["scipy", "sympy", "scipy"]
