"""Controls: for each report verdict, an input under which it must read
false (or true where the usual reading is false), so that no verdict is
an identity that passes on every input."""

import json

import numpy as np
import pytest

from monosphere.cli import main
from monosphere.curves import SpectralMatrix
from monosphere.serialize import curve_to_json, dumps_report


def _check(tmp_path, psi):
    path = tmp_path / "in.json"
    path.write_text(dumps_report(curve_to_json(SpectralMatrix(len(psi) - 1, np.diag(psi)))))
    out = tmp_path / "out.json"
    code = main(["check", "--input", str(path), "--output", str(out)])
    return code, json.loads(out.read_text())


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
