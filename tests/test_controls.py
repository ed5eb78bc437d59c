"""Controls: for each report verdict, an input under which it must read
false (or true where the usual reading is false), so that no verdict is
an identity that passes on every input."""

import json

import numpy as np
import pytest

from monosphere.cli import main
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.serialize import curve_to_json, dumps_report, sphere_to_json
from monosphere.spheres import factor_sphere


def _run(tmp_path, argv, doc):
    path = tmp_path / "in.json"
    path.write_text(dumps_report(doc))
    out = tmp_path / "out.json"
    code = main(argv + ["--input", str(path), "--output", str(out)])
    return code, json.loads(out.read_text())


def _check(tmp_path, psi):
    return _run(tmp_path, ["check"], curve_to_json(SpectralMatrix(len(psi) - 1, np.diag(psi))))


@pytest.mark.parametrize(
    "psi, degenerate",
    [([1.0, 1.0, 1.0], False), ([1.0, 1e-9, 1e-9], True)],
    ids=["identity", "det-1e-18"],
)
def test_check_degenerate_reads_both_ways(tmp_path, psi, degenerate):
    # diag(1, 1e-9, 1e-9) passes the gate (eigenvalue ratio 1e-9 > 1e-10)
    # while its unit-norm determinant 1e-18 lies below the 1e-10 tolerance
    code, report = _check(tmp_path, psi)
    assert code == 0
    assert report["degenerate"] is degenerate


@pytest.mark.parametrize(
    "command, document",
    [("lattice", "sphere"), ("pseq", "curve"), ("poncelet", "curve")],
)
@pytest.mark.parametrize(
    "m, closed",
    [(1.0, True), (0.37, False)],
    ids=[
        "m-1",  # every walk returns to its start after 4m + 4 = 8 steps
        "m-0.37",  # 4m + 4 = 5.48 = 137/25: no return within the default step budgets
    ],
)
def test_charge2_walks_read_closed_both_ways(tmp_path, command, document, m, closed):
    S = axial_spectral(2, m)
    doc = sphere_to_json(factor_sphere(S)) if document == "sphere" else curve_to_json(S)
    code, report = _run(tmp_path, ["charge2", command], doc)
    assert code == 0
    assert report["closed"] is closed
