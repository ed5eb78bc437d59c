import json
import subprocess
import sys

import numpy as np
import pytest

from monosphere.axial import sphere_of_sech
from monosphere.cli import main
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.serialize import (
    curve_to_json,
    dumps_report,
    sphere_to_json,
    triple_to_json,
    tuple_to_json,
)
from monosphere.charge2 import Su2Triple
from monosphere.spheres import factor_sphere, sphere_to_tuple


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_report(doc))
    return str(path)


def run_cli(tmp_path, argv, doc=None):
    """Run main() against file input/output; returns (exit code, report)."""
    argv = list(argv)
    if doc is not None:
        argv += ["--input", write_doc(tmp_path, "in.json", doc)]
    out = tmp_path / "out.json"
    argv += ["--output", str(out)]
    code = main(argv)
    return code, json.loads(out.read_text())


def half_mass_curve():
    return curve_to_json(axial_spectral(2, 0.5))


def random_pd_curve(seed=5, k=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
    return curve_to_json(SpectralMatrix(k, np.conj(A).T @ A + (k + 2) * np.eye(k + 1)))


class TestValidationAndExitCodes:
    def test_check_rejects_indefinite_matrix(self, tmp_path):
        doc = {"k": 1, "psi": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
        code, report = run_cli(tmp_path, ["check"], doc)
        assert code == 2
        assert report["status"] == "error"
        assert report["error"]["code"] == "NotPositiveDefinite"

    def test_malformed_document_is_schema_error(self, tmp_path):
        code, report = run_cli(tmp_path, ["normalize"], {"k": 2, "psi": "nope"})
        assert code == 2
        assert report["error"]["code"] == "SchemaError"

    def test_missing_input_file(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(["check", "--input", str(tmp_path / "absent.json"), "--output", str(out)])
        assert code == 2

    @pytest.mark.parametrize(
        "num, den",
        [([[2, 0], [2, 0]], [[1, 0], [1, 0]]), ([[2, 0]], [[1, 0]])],
        ids=["constant", "degree-0"],
    )
    def test_degenerate_massless_map_exits_2(self, tmp_path, num, den):
        code, report = run_cli(tmp_path, ["massless"], {"num": num, "den": den})
        assert code == 2
        assert report["error"]["code"] == "DegenerateMap"

    def test_non_finite_tuple_is_schema_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"k": 1, "v": [[[NaN, 0], [1, 0]], [[0, 0], [1, 0]]]}')
        out = tmp_path / "out.json"
        assert main(["center", "--input", str(path), "--output", str(out)]) == 2
        assert json.loads(out.read_text())["error"]["code"] == "SchemaError"

    def test_non_finite_sample_is_schema_error(self, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text('{"k": 1, "samples": [[[0, 0], Infinity]]}')
        out = tmp_path / "out.json"
        assert main(["reconstruct", "--input", str(path), "--output", str(out)]) == 2
        assert json.loads(out.read_text())["error"]["code"] == "SchemaError"

    def test_unwritable_output_reports_on_stdout(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "c.json", half_mass_curve())
        code = main(["check", "--input", doc, "--output", str(tmp_path / "absent" / "out.json")])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["error"]["code"] == "SchemaError"

    def test_non_convergence_exits_3(self, tmp_path):
        code, report = run_cli(tmp_path, ["charge2", "mass"], curve_to_json(axial_spectral(2, 0.37)))
        assert code == 3
        assert report["error"]["code"] == "NoEstimate"

    def test_unreachable_degree_tolerance_exits_3(self, tmp_path):
        code, report = run_cli(tmp_path, ["boundary", "--tol", "1e-20"], half_mass_curve())
        assert code == 3
        assert report["status"] == "error"
        assert report["command"] == "boundary"
        assert report["error"]["code"] == "QuadratureNotConverged"
        assert "1.00e-20" in report["error"]["message"]

    def test_overflowing_degree_integral_exits_3(self, tmp_path):
        doc = {"k": 1, "psi": [[[1, 0], [0, 0]], [[0, 0], [1e300, 0]]]}
        code, report = run_cli(tmp_path, ["boundary"], doc)
        assert code == 3
        assert report["error"]["code"] == "QuadratureNotConverged"

    def test_check_accepts_positive_curve(self, tmp_path):
        code, report = run_cli(tmp_path, ["check"], half_mass_curve())
        assert code == 0
        assert report["positive_definite"] is True
        assert np.allclose(report["eigenvalues"], [1.0, 1.0, 1.0])


class TestTransformChain:
    def test_normalize_then_factor(self, tmp_path):
        code, normalized = run_cli(tmp_path, ["normalize"], random_pd_curve())
        assert code == 0 and normalized["normalized"] is True
        code, sphere = run_cli(tmp_path, ["factor"], normalized)
        assert code == 0 and sphere["canonical"] is True and sphere["k"] == 2

    def test_center_reports_moment_map(self, tmp_path):
        t = sphere_to_tuple(factor_sphere(SpectralMatrix(2, np.eye(3))))
        code, report = run_cli(tmp_path, ["center"], tuple_to_json(t))
        assert code == 0
        assert report["mu"]["magnitude"] < 1e-12
        assert report["iterations"] == 0

    def test_center_trace_csv(self, tmp_path):
        t = sphere_to_tuple(factor_sphere(SpectralMatrix(2, np.eye(3))))
        csv_path = tmp_path / "trace.csv"
        doc = write_doc(tmp_path, "t.json", tuple_to_json(t))
        out = tmp_path / "out.json"
        code = main(["center", "--input", doc, "--output", str(out), "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.read_text().splitlines()[0] == "iter,norm2,mu_abs"

    def test_reconstruct_from_curve(self, tmp_path):
        code, report = run_cli(tmp_path, ["reconstruct"], random_pd_curve())
        assert code == 0
        assert report["max_abs_deviation"] < 1e-8

    def test_reconstruct_from_samples(self, tmp_path):
        from monosphere.boundary import metric_h
        from monosphere.serialize import curve_from_json

        S = curve_from_json(random_pd_curve(seed=9, k=1))
        zs = [0.5 * np.exp(2j * np.pi * j / 9) for j in range(9)] + [
            1.5 * np.exp(2j * np.pi * j / 9) for j in range(9)
        ]
        doc = {
            "k": 1,
            "samples": [[[z.real, z.imag], metric_h(S, z)] for z in zs],
        }
        code, report = run_cli(tmp_path, ["reconstruct"], doc)
        assert code == 0
        got = np.array([[complex(*c) for c in row] for row in report["psi"]])
        assert np.allclose(got, S.psi, atol=1e-8)

    def test_boundary_report_and_csv(self, tmp_path):
        csv_path = tmp_path / "b.csv"
        doc = write_doc(tmp_path, "c.json", half_mass_curve())
        out = tmp_path / "out.json"
        code = main(
            ["boundary", "--input", doc, "--output", str(out), "--csv", str(csv_path), "--grid", "8"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["degree"] - 2.0) < 1e-6
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "re_z,im_z,h,re_A_z,im_A_z,F_density"
        assert len(lines) == 1 + 3 * 8


class TestRatmapAndMassless:
    def test_ratmap_report(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            ["ratmap", "--w", "0.3+0.2j"],
            sphere_to_json(sphere_of_sech()),
        )
        assert code == 0
        assert len(report["num"]) == 3 and len(report["den"]) == 3
        assert len(report["poles"]) == 2 and report["iterations"] >= 1
        u1 = np.array([complex(*c) for c in report["line"]["u1"]])
        assert abs(np.linalg.norm(u1) - 1.0) < 1e-9

    def test_massless_consumes_ratmap_output(self, tmp_path):
        code, ratmap_report = run_cli(
            tmp_path,
            ["ratmap", "--w", "0.3+0.2j"],
            sphere_to_json(sphere_of_sech()),
        )
        assert code == 0
        code, curve = run_cli(tmp_path, ["massless"], ratmap_report)
        assert code == 0
        assert curve["k"] == 2 and curve["massless"] is True


class TestCharge2Commands:
    def test_mass_of_unit_mass_curve(self, tmp_path):
        code, report = run_cli(
            tmp_path, ["charge2", "mass"], curve_to_json(axial_spectral(2, 1.0))
        )
        assert code == 0
        assert report["mass"] == 1.0

    def test_pseq_hexagon(self, tmp_path):
        code, report = run_cli(tmp_path, ["charge2", "pseq"], half_mass_curve())
        assert code == 0
        assert report["closed"] is True and report["period"] == 6
        assert report["max_residual"] < 1e-9

    def test_poncelet_csv(self, tmp_path):
        csv_path = tmp_path / "verts.csv"
        doc = write_doc(tmp_path, "c.json", half_mass_curve())
        out = tmp_path / "out.json"
        code = main(
            ["charge2", "poncelet", "--input", doc, "--output", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["closed"] is True and len(report["vertices"]) == 6
        assert max(report["tangency_residuals"]) < 1e-8
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "re_u,im_u,re_v,im_v"
        assert len(lines) == 7

    def test_lattice_period_three(self, tmp_path):
        code, report = run_cli(
            tmp_path, ["charge2", "lattice"], sphere_to_json(sphere_of_sech())
        )
        assert code == 0
        assert report["closed"] is True and report["period"] == 3
        assert len(report["points"]) == 3

    def test_involution_report(self, tmp_path):
        nu = Su2Triple([2.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0])
        code, report = run_cli(tmp_path, ["charge2", "involution"], triple_to_json(nu))
        assert code == 0
        assert report["triple_product"] == 4.0
        assert report["first_order_invariant"] is True
        assert report["full"] is True


class TestFieldCommands:
    def test_residual_report(self, tmp_path):
        code, report = run_cli(tmp_path, ["field", "residual", "--grid", "4"])
        assert code == 0
        assert report["max_frobenius"] < 1e-5
        assert report["profile"] == "sech"

    def test_residual_zero_mass_control(self, tmp_path):
        code, report = run_cli(
            tmp_path, ["field", "residual", "--profile", "zero-mass", "--grid", "4"]
        )
        assert code == 0
        assert report["max_frobenius"] > 1.0

    def test_mass_csv(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        out = tmp_path / "out.json"
        code = main(
            ["field", "mass", "--grid", "5", "--output", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["limit_estimate"] - 0.5) < 1e-3
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "r,re_z,im_z,residual,m"
        assert len(lines) == 6

    def test_sample_report(self, tmp_path):
        code, report = run_cli(
            tmp_path, ["field", "sample", "--z", "0.5+0.2j", "--r", "1.5"]
        )
        assert code == 0
        det = complex(*report["det_H"])
        assert abs(det - 1.0) < 1e-12
        phi = np.array([[complex(*c) for c in row] for row in report["Phi"]])
        a_r = np.array([[complex(*c) for c in row] for row in report["A_r"]])
        assert np.allclose(phi, -1j * a_r)


class TestPipelineAndDeterminism:
    def test_pipeline_on_half_mass_curve(self, tmp_path):
        code, report = run_cli(tmp_path, ["pipeline"], half_mass_curve())
        assert code == 0
        assert report["k"] == 2
        assert np.allclose(report["eigenvalues"], [1.0, 1.0, 1.0])
        assert report["mu_centred"]["magnitude"] < 1e-12
        assert abs(report["degree_integral"] - 2.0) < 1e-5

    def test_identical_jobs_identical_bytes(self, tmp_path):
        doc = write_doc(tmp_path, "c.json", half_mass_curve())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["pipeline", "--input", doc, "--output", str(out1)]) == 0
        assert main(["pipeline", "--input", doc, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_console_entry_point(self, tmp_path):
        doc = dumps_report(half_mass_curve())
        proc = subprocess.run(
            [sys.executable, "-m", "monosphere.cli", "charge2", "mass"],
            input=doc,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mass"] == 0.5


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = (
        "import sys, monosphere, monosphere.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
