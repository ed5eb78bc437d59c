"""Property test of the CLI contract: for any document and flags, every
document-reading command exits 0, 2 or 3 and writes a JSON report."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosphere.cli import main
from monosphere.curves import axial_spectral
from monosphere.serialize import curve_to_json

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
points = st.sampled_from(["0", "1", "0.3+0.2j", "2j", "inf"])

COMMANDS = [
    (["normalize"], curves),
    (["check"], curves),
    (["factor"], curves),
    (["boundary"], curves),
    (["reconstruct"], st.one_of(curves, samples)),
    (["center"], tuples),
    (["massless"], ratmaps),
    (["pipeline"], curves),
    (["charge2", "pseq"], curves),
    (["charge2", "poncelet"], curves),
    (["charge2", "mass"], curves),
    (["charge2", "involution"], triples),
]
jobs = st.one_of(
    *(st.tuples(st.just(argv), docs) for argv, docs in COMMANDS),
    st.tuples(points.map(lambda w: ["ratmap", "--w", w]), spheres),
    st.tuples(points.map(lambda z: ["charge2", "lattice", "--z0", z]), spheres),
)
flags = st.fixed_dictionaries({
    "--max-iter": st.none() | st.integers(-3, 40),
    "--grid": st.none() | st.integers(-3, 24),
    "--tol": st.none() | st.sampled_from([-1.0, 0.0, 1e-20, 1e-12, 1e-8, 1e-3, 0.5, float("nan")]),
})

IDENTITY_TUPLE = {"k": 1, "v": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
NO_FLAGS = {"--max-iter": None, "--grid": None, "--tol": None}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(job=jobs, options=flags)
@example(job=(["center"], IDENTITY_TUPLE), options={**NO_FLAGS, "--max-iter": 0})
@example(job=(["center"], IDENTITY_TUPLE), options={**NO_FLAGS, "--max-iter": -2})
@example(job=(["pipeline"], curve_to_json(axial_spectral(2, 0.5))), options={**NO_FLAGS, "--max-iter": 0})
@example(job=(["massless"], {"num": [[1, 0], [0, 0]], "den": [[1e-320, 0], [0, 0]]}), options=NO_FLAGS)
@example(job=(["massless"], {"num": [[1.7e308, 1.7e308], [1, 0]], "den": [[1, 0], [1, 0]]}), options=NO_FLAGS)
def test_any_document_exits_0_2_or_3_with_a_json_report(job, options):
    argv, doc = job
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
        for flag, value in options.items():
            if value is not None:
                argv += [flag, str(value)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 2, 3)
    report = json.loads(out.getvalue())
    assert report["status"] == ("ok" if code == 0 else "error")
