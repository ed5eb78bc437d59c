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

from monosphere.cli import build_parser, main
from monosphere.curves import axial_spectral
from monosphere.serialize import curve_to_json

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
    st.builds(lambda k, m: curve_to_json(axial_spectral(k, m)), st.integers(1, 8), st.sampled_from([0.25, 0.37, 0.5, 1.0])),
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

# Values drawn for each flag a leaf declares; a flag missing here makes
# the test fail, so it follows the parser.
FLAG_VALUES = {
    "--tol": st.sampled_from(["-1", "0", "1e-20", "1e-12", "1e-8", "1e-3", "0.5", "nan"]),
    "--max-iter": st.integers(-3, 40).map(str),
    "--grid": st.integers(-3, 24).map(str),
    "--csv": st.just(CSV),
    "--w": points,
    "--z0": points,
    "--z": st.sampled_from(["0", "0.5+0.2j", "0.1-3.9j", "5", "nope"]),
    "--r": st.sampled_from(["1", "0.1", "2.5", "-1", "nan", "1000"]),
    "--profile": st.sampled_from(["sech", "zero-mass"]),
}
DOCUMENTS = {
    ("normalize",): curves,
    ("check",): curves,
    ("factor",): curves,
    ("boundary",): curves,
    ("reconstruct",): st.one_of(curves, samples),
    ("center",): tuples,
    ("ratmap",): spheres,
    ("massless",): ratmaps,
    ("charge2", "lattice"): spheres,
    ("charge2", "pseq"): curves,
    ("charge2", "poncelet"): curves,
    ("charge2", "mass"): curves,
    ("charge2", "involution"): triples,
    ("pipeline",): curves,
}


def _leaves(parser, path=()):
    """(command path, {option: required}) for every leaf of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, {a.option_strings[-1]: a.required for a in parser._actions if a.option_strings}
    for sub in subs:
        for name, leaf in sub.choices.items():
            yield from _leaves(leaf, path + (name,))


LEAVES = dict(_leaves(build_parser()))


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
    return argv, draw(DOCUMENTS[path]) if path in DOCUMENTS else None


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
    assert set(DOCUMENTS) == {path for path, options in LEAVES.items() if "--input" in options}


IDENTITY_TUPLE = {"k": 1, "v": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(job=jobs())
@example(job=(["center", "--max-iter", "0"], IDENTITY_TUPLE))
@example(job=(["center", "--max-iter", "-2"], IDENTITY_TUPLE))
@example(job=(["pipeline", "--max-iter", "0"], curve_to_json(axial_spectral(2, 0.5))))
@example(job=(["massless"], {"num": [[1, 0], [0, 0]], "den": [[1e-320, 0], [0, 0]]}))
@example(job=(["massless"], {"num": [[1.7e308, 1.7e308], [1, 0]], "den": [[1, 0], [1, 0]]}))
@example(job=(["field", "residual", "--grid", "-3"], None))
@example(job=(["field", "mass", "--grid", "-1"], None))
@example(job=(["field", "sample", "--r", "1000"], None))
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
