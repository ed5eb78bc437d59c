"""Property test of the CLI contract: for any document and any values of
its own flags, every command exits 0, 2 or 3 and writes a JSON report."""

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosphere.axial import sphere_of_sech
from monosphere import serialize as ser
from monosphere.cli import _reconstruct_input, build_parser, main
from monosphere.curves import axial_spectral
from monosphere.serialize import encode
from monosphere.spheres import factor_sphere, sphere_to_tuple

# An overflow must end as an exit-3 report, not as a numpy warning on stderr.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Mostly moderate numbers, with the extremes of the float range mixed in.
numbers = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-320, 1e-300, 1e300, 1.7e308]),
)


def _cx(z) -> list:
    return [float(z.real), float(z.imag)]


@st.composite
def matrices(draw, k):
    n = k + 1
    flat = draw(st.lists(st.tuples(numbers, numbers), min_size=n * n, max_size=n * n))
    a = np.array([complex(x, y) for x, y in flat]).reshape(n, n)
    if draw(st.booleans()):
        # Hermitian positive definite (or overflowing to a non-finite entry)
        with np.errstate(all="ignore"):
            a = a @ a.conj().T + np.eye(n)
    return [[_cx(z) for z in row] for row in a]


def _keyed(kind):
    charges = st.integers(1, 8)
    return charges.flatmap(lambda k: st.fixed_dictionaries({"k": st.just(k), kind: matrices(k)}))


curves = st.one_of(
    _keyed("psi"),
    st.builds(lambda k, m: encode(axial_spectral(k, m)), st.integers(1, 8), st.sampled_from([0.25, 0.37, 0.5, 1.0])),
)
spheres = _keyed("Q")
tuples = _keyed("v")
ratmaps = st.integers(1, 8).flatmap(
    lambda n: st.fixed_dictionaries({
        "num": st.lists(st.tuples(numbers, numbers).map(list), min_size=n, max_size=n),
        "den": st.lists(st.tuples(numbers, numbers).map(list), min_size=n, max_size=n),
    })
)
triples = st.fixed_dictionaries({r: st.lists(numbers, min_size=3, max_size=3) for r in ("r0", "r1", "r2")})
samples = st.fixed_dictionaries({
    "k": st.integers(1, 2),
    "samples": st.lists(st.tuples(st.tuples(numbers, numbers).map(list), numbers).map(list), max_size=12),
})
points = st.sampled_from(["0", "1", "0.3+0.2j", "2j", "inf", "nan"])
CSV = "<csv>"  # replaced by a path in the run's temporary directory


def _rarely(valid, refused: str):
    """A value drawn from valid, or about one time in 15 the out-of-range
    value refused.  The CLI refuses that before any command runs, so a
    frequent draw would spend the examples on the range checks, which
    the range tests of test_cli.py cover bound by bound."""
    return st.integers(0, 14).flatmap(lambda i: st.just(refused) if i == 14 else valid)


# Values drawn for each flag a leaf declares; a flag missing here makes
# the test fail, so it follows the parser.
FLAG_VALUES = {
    "--tol": _rarely(st.sampled_from(["0", "1e-20", "1e-12", "1e-8", "1e-3", "0.5"]), "nan"),
    "--max-iter": _rarely(st.integers(0, 40).map(str), "-1"),
    "--grid": _rarely(st.integers(1, 24).map(str), "0"),
    "--csv": st.just(CSV),
    "--w": points,
    "--z0": points,
    "--z": st.sampled_from(["0", "0.5+0.2j", "0.1-3.9j", "5", "nope"]),
    "--r": st.sampled_from(["1", "0.1", "2.5", "-1", "nan", "1000"]),
    "--profile": st.sampled_from(["sech", "zero-mass"]),
}
# Documents drawn for each decoder a leaf declares.
DOCUMENTS = {
    ser.curve_from_json: curves,
    ser.sphere_from_json: spheres,
    ser.tuple_from_json: tuples,
    ser.ratmap_from_json: ratmaps,
    ser.triple_from_json: triples,
    _reconstruct_input: st.one_of(curves, samples),
}


def _leaves(parser, path=()):
    """(command path, leaf parser) for every leaf of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, leaf in sub.choices.items():
            yield from _leaves(leaf, path + (name,))


PARSERS = dict(_leaves(build_parser()))
# {option: required} and the document decoder (None: no document) of each leaf
LEAVES = {
    path: {a.option_strings[-1]: a.required for a in leaf._actions if a.option_strings}
    for path, leaf in PARSERS.items()
}
DECODERS = {path: leaf.get_default("decode") for path, leaf in PARSERS.items()}
DOCUMENT_LEAVES = sorted(path for path, decode in DECODERS.items() if decode)


@st.composite
def jobs(draw):
    """argv of one leaf with a random subset of its own flags, and its document."""
    path = draw(st.sampled_from(sorted(LEAVES)))
    argv = list(path)
    for flag, required in sorted(LEAVES[path].items()):
        if flag in ("--help", "--input", "--output"):
            continue
        if required or draw(st.booleans()):
            argv += [flag, draw(FLAG_VALUES[flag])]
    return argv, draw(DOCUMENTS[DECODERS[path]]) if DECODERS[path] else None


def _readme_table() -> dict:
    """(command path, {flag}) for every row of the README command table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[tuple(cells[0].strip("`").split())] = set(re.findall(r"--[a-z0-9-]+", cells[2]))
    return rows


def test_readme_command_table_matches_the_parser():
    own = {
        path: set(options) - {"--help", "--input", "--output"}
        for path, options in LEAVES.items()
    }
    assert _readme_table() == own


def test_document_strategies_cover_exactly_the_commands_with_input():
    with_input = {path for path, options in LEAVES.items() if "--input" in options}
    assert set(DOCUMENT_LEAVES) == with_input
    assert set(DOCUMENTS) == {DECODERS[path] for path in with_input}


_CURVE = encode(axial_spectral(2, 0.5))
_SPHERE = encode(sphere_of_sech())

# The keys of each leaf's report on a fixed valid job, nested objects as
# dotted paths.  Reports are written from dataclass fields, so renaming a
# field renames a key; this pins them.
REPORT_KEYS = {
    ("normalize",): ([], _CURVE, "k psi"),
    ("check",): ([], _CURVE, "k eigenvalues determinant condition_estimate degenerate"),
    ("factor",): ([], _CURVE, "k Q"),
    ("boundary",): ([], _CURVE, "k degree error_bound"),
    ("reconstruct",): ([], _CURVE, "k psi max_abs_deviation"),
    ("center",): (
        [],
        encode(sphere_to_tuple(factor_sphere(axial_spectral(2, 0.5)))),
        "k v iterations norm2 mu mu.r mu.c mu.magnitude",
    ),
    ("ratmap",): (["--w", "0.3+0.2j"], _SPHERE, "w num den scale poles zeros line line.u1 line.u2"),
    ("massless",): ([], {"num": [[1, 0], [0, 1]], "den": [[0, 0], [1, 0]]}, "k psi"),
    ("charge2", "lattice"): ([], _SPHERE, "points closed period initial_roots"),
    ("charge2", "pseq"): ([], _CURVE, "start points closed period max_residual"),
    ("charge2", "poncelet"): ([], _CURVE, "vertices conic closed vertex_residuals"),
    ("charge2", "mass"): ([], _CURVE, "mass"),
    ("charge2", "involution"): (
        [],
        {"r0": [2.0, 0.5, 0], "r1": [0, 2.0, 0], "r2": [0.3, 0, 1.0]},
        "bracket bracket.r0 bracket.r1 bracket.r2 triple_product quartic first_order_invariant max_derivative full",
    ),
    ("field", "residual"): ([], None, "profile points max_frobenius"),
    ("field", "mass"): ([], None, "profile r m limit_estimate"),
    ("field", "sample"): ([], None, "profile z r H det_H A_z A_r Phi trace_phi_sq"),
    ("pipeline",): (
        [],
        _CURVE,
        "k eigenvalues mu_initial mu_initial.r mu_initial.c mu_initial.magnitude mu_centred mu_centred.r "
        "mu_centred.c mu_centred.magnitude norm2_centred center_iterations degree_integral degree_error_bound",
    ),
}


def _key_paths(report: dict, prefix: str = "") -> set:
    keys = set()
    for key, value in report.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= _key_paths(value, prefix + key + ".")
    return keys


@pytest.mark.parametrize("path", sorted(LEAVES), ids=" ".join)
def test_every_leaf_reports_its_pinned_keys(tmp_path, path):
    extra, doc, keys = REPORT_KEYS[path]
    argv = [*path, *extra, "--output", str(tmp_path / "out.json")]
    if doc is not None:
        (tmp_path / "in.json").write_text(json.dumps(doc))
        argv += ["--input", str(tmp_path / "in.json")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert _key_paths(report) == set(keys.split()) | {"command", "status"}


def _audit_document(path, k: int, case: str) -> dict:
    """A document for the leaf at charge k: random positive definite (a
    random map or triple for massless and involution), with its first
    row zero, or scaled to entries near 1e300 or 1e-300."""
    rng = np.random.default_rng(k)
    a = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    a = a @ a.conj().T + np.eye(k + 1)
    a = a / np.max(np.abs(a)) * {"random": 1.0, "zero-row": 1.0, "1e300": 1e300, "1e-300": 1e-300}[case]
    if case == "zero-row":
        a[0] = 0.0
    if path == ("massless",):
        return {"num": [_cx(z) for z in a[0]], "den": [_cx(z) for z in a[1]]}
    if path == ("charge2", "involution"):
        return {r: a[i, :3].real.tolist() for i, r in enumerate(("r0", "r1", "r2"))}
    kind = {("center",): "v", ("ratmap",): "Q", ("charge2", "lattice"): "Q"}.get(path, "psi")
    return {"k": k, kind: [[_cx(z) for z in row] for row in a]}


@pytest.mark.parametrize("k", [16, 32])
@pytest.mark.parametrize("path", DOCUMENT_LEAVES, ids=" ".join)
def test_documents_above_charge_8_exit_0_2_or_3_with_a_json_report(tmp_path, capfd, path, k):
    # the property test draws k <= 8; a library ValueError would end in
    # exit 1.  The report goes to --output, so anything on the file
    # descriptors, such as LAPACK's own messages, is a fault.
    for case in ("random", "zero-row", "1e300", "1e-300"):
        (tmp_path / "in.json").write_text(json.dumps(_audit_document(path, k, case)))
        argv = [*path, *REPORT_KEYS[path][0], "--input", str(tmp_path / "in.json")]
        code = main(argv + ["--output", str(tmp_path / "out.json")])
        assert code in (0, 2, 3), case
        assert json.loads((tmp_path / "out.json").read_text())["status"] == ("ok" if code == 0 else "error"), case
        assert capfd.readouterr() == ("", ""), case


IDENTITY_TUPLE = {"k": 1, "v": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
# Charge 3 metric samples at |z| = 1e60, where |z|^6 overflows: LAPACK
# printed to stdout ahead of the report.
FAR_SAMPLES = {"k": 3, "samples": [[[1e60 * np.cos(a), 1e60 * np.sin(a)], 1.0] for a in np.arange(20) * np.pi / 10]}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(job=jobs())
@example(job=(["center", "--max-iter", "0"], IDENTITY_TUPLE))
@example(job=(["center", "--max-iter", "-2"], IDENTITY_TUPLE))
@example(job=(["pipeline", "--max-iter", "0"], encode(axial_spectral(2, 0.5))))
@example(job=(["massless"], {"num": [[1, 0], [0, 0]], "den": [[1e-320, 0], [0, 0]]}))
@example(job=(["massless"], {"num": [[1.7e308, 1.7e308], [1, 0]], "den": [[1, 0], [1, 0]]}))
@example(job=(["field", "residual", "--grid", "-3"], None))
@example(job=(["field", "mass", "--grid", "-1"], None))
@example(job=(["field", "sample", "--r", "1000"], None))
@example(job=(["reconstruct"], FAR_SAMPLES))
def test_any_document_exits_0_2_or_3_with_a_json_report(job):
    argv, doc = job
    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(Path(tmp) / "out.csv") if a == CSV else a for a in argv]
        if doc is not None:
            path = Path(tmp) / "in.json"
            path.write_text(json.dumps(doc))
            argv += ["--input", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 2, 3)
    report = json.loads(out.getvalue())
    assert report["status"] == ("ok" if code == 0 else "error")


_CURVE_COMMANDS = ("check", "factor", "normalize", "pipeline", "boundary")
# diag(1, 1e-15, 1) is positive definite at --tol 1e-20 and at no default
_THIN_CURVE = {"k": 2, "psi": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1e-15, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}
_AGREEMENT_CASES = {
    f"{case}-k{k}": (_audit_document(("check",), k, case), [])
    for k in (16, 32)
    for case in ("random", "zero-row", "1e300", "1e-300")
}
_AGREEMENT_CASES["thin-tol-1e-20"] = (_THIN_CURVE, ["--tol", "1e-20"])


@pytest.mark.parametrize("doc, extra", list(_AGREEMENT_CASES.values()), ids=list(_AGREEMENT_CASES))
def test_curve_commands_reach_one_verdict(tmp_path, doc, extra):
    # check exited 3 on the 1e300 documents, which the others accept, when
    # its determinant was an LU determinant of Psi; pipeline exited 2 on
    # the thin curve when its factor gated at the default tolerance
    (tmp_path / "in.json").write_text(json.dumps(doc))
    verdicts = {}
    for command in _CURVE_COMMANDS:
        if command == "boundary" and extra:
            continue  # its --tol is the degree tolerance, not the gate's
        code = main([command, *extra, "--input", str(tmp_path / "in.json"), "--output", str(tmp_path / "out.json")])
        report = json.loads((tmp_path / "out.json").read_text())
        verdicts[command] = (code, report.get("error", {}).get("code"))
    assert len(set(verdicts.values())) == 1, verdicts
