import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from monosphere.axial import sphere_of_sech
from monosphere.boundary import metric_h, reconstruct_psi_from_metric
from monosphere.cli import _boundary_rings, main
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.projective import hom_vector
from monosphere.serialize import (
    curve_from_json,
    curve_to_json,
    dumps_report,
    point_from_json,
    sphere_from_json,
    sphere_to_json,
    triple_to_json,
    tuple_to_json,
)
from monosphere.charge2 import Su2Triple
from monosphere.errors import NotPositiveDefinite
from monosphere.spheres import CoeffTuple, HoloSphere, factor_sphere, sphere_to_tuple

# An overflow must end as an exit-3 report, not as a numpy warning on stderr.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    def test_boundary_rejects_indefinite_matrix(self, tmp_path):
        # h > 0 on the unit circle, so the degree integral alone would give 2
        doc = curve_to_json(SpectralMatrix(2, np.diag([1.0, -1.0, 1.0])))
        code, report = run_cli(tmp_path, ["boundary"], doc)
        assert code == 2
        assert report["command"] == "boundary"
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
        [
            ([[2, 0], [2, 0]], [[1, 0], [1, 0]]),
            ([[2, 0]], [[1, 0]]),
            ([[1, 0], [0, 0]], [[1e-320, 0], [0, 0]]),
            ([[1.7e308, 1.7e308], [1, 0]], [[1, 0], [1, 0]]),
        ],
        ids=["constant", "degree-0", "subnormal-den", "overflowing-num"],
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

    @pytest.mark.parametrize("command, budget", [("center", "0"), ("center", "-2"), ("pipeline", "0")])
    def test_empty_flow_budget_exits_3(self, tmp_path, command, budget):
        doc = tuple_to_json(sphere_to_tuple(factor_sphere(axial_spectral(2, 0.5))))
        if command == "pipeline":
            doc = half_mass_curve()
        code, report = run_cli(tmp_path, [command, "--max-iter", budget], doc)
        assert code == 3
        assert report["error"]["code"] == "MaxIterExceeded"

    def test_flow_tolerance_below_floor_exits_3(self, tmp_path):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        code, report = run_cli(tmp_path, ["center", "--tol", "0"], tuple_to_json(CoeffTuple(8, v)))
        assert code == 3
        assert report["error"]["code"] == "MaxIterExceeded"
        assert "below the attainable floor" in report["error"]["message"]

    def test_overflowing_report_exits_3(self, tmp_path):
        doc = {"r0": [0, 0, 0], "r1": [0, 0, 0], "r2": [0, 0, 1e300]}
        code, report = run_cli(tmp_path, ["charge2", "involution"], doc)
        assert code == 3
        assert report["error"]["code"] == "NonFiniteResult"

    @pytest.mark.parametrize(
        "command, code",
        [("normalize", 0), ("factor", 0), ("boundary", 0), ("check", 3), ("reconstruct", 3), ("pipeline", 3)],
    )
    def test_positive_curve_near_the_largest_double(self, tmp_path, command, code):
        # Psi^* is added at half scale, so the Hermitian part stays finite;
        # check then reports det = 1e616, which no double holds, reconstruct
        # samples h = 2e308 and pipeline a tuple with norm2 = 2e308, while
        # the degree integral is scale-free.  The overflow shows in the
        # report, not as a warning.
        doc = curve_to_json(SpectralMatrix(1, np.diag([1e308, 1e308])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, report = run_cli(tmp_path, [command], doc)
        assert [str(w.message) for w in caught] == []
        assert got == code
        if code:
            assert report["error"]["code"] == "NonFiniteResult"
        if command == "boundary":
            assert report["degree"] == pytest.approx(1.0, abs=1e-7)

    def test_lapack_failure_exits_3(self, tmp_path):
        samples = [
            [[1e-09, -5.960464477539063e-08], 1e-300],
            [[-2.037049791317448, 0.0], 3.345402395167215e277],
            [[1e-300, 1.7e308], 3.9948586049514976],
            [[3.5786261093645564, 1.92618603980502e231], 0.2],
        ]
        code, report = run_cli(tmp_path, ["reconstruct"], {"k": 2, "samples": samples * 3})
        assert code == 3
        assert report["error"]["code"] == "LinAlgError"

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["field", "residual", "--grid", "-3"], None),
            (["field", "mass", "--grid", "-1"], None),
            (["field", "mass", "--grid", "0"], None),
            (["reconstruct", "--grid", "0"], random_pd_curve()),
        ],
    )
    def test_grid_below_one_is_schema_error(self, tmp_path, argv, doc):
        # negative grids ended in a numpy traceback and 0 silently meant the default
        code, report = run_cli(tmp_path, argv, doc)
        assert code == 2
        assert report["error"]["code"] == "SchemaError"
        assert "--grid must be at least 1" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ratmap", "--w", "1", "--tol", "1e-3"],
            ["reconstruct", "--tol", "1e-3"],
            ["field", "sample", "--grid", "4"],
            ["field", "mass", "--input", "in.json"],
            ["charge2", "involution", "--max-iter", "3"],
            ["charge2", "involution", "--step", "1e-3"],
            ["field", "residual", "--step", "1e-3"],
            ["field", "sample", "--step", "1e-3"],
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["ratmap", "--w", "nan"], sphere_to_json(sphere_of_sech())),
            (["charge2", "pseq", "--w", "nan"], half_mass_curve()),
            (["charge2", "poncelet", "--w", "nan+1j"], half_mass_curve()),
            (["charge2", "lattice", "--z0", "nan"], sphere_to_json(sphere_of_sech())),
            (["ratmap", "--w", "inf+nanj"], sphere_to_json(sphere_of_sech())),
        ],
        ids=["ratmap", "pseq", "poncelet", "lattice", "infinite-and-nan"],
    )
    def test_nan_point_is_schema_error(self, tmp_path, argv, doc):
        code, report = run_cli(tmp_path, argv, doc)
        assert code == 2
        assert report["error"]["code"] == "SchemaError"

    def test_check_accepts_positive_curve(self, tmp_path):
        code, report = run_cli(tmp_path, ["check"], half_mass_curve())
        assert code == 0
        assert "positive_definite" not in report  # the only other verdict is exit 2
        assert np.allclose(report["eigenvalues"], [1.0, 1.0, 1.0])


class TestTransformChain:
    def test_normalize_then_factor(self, tmp_path):
        code, normalized = run_cli(tmp_path, ["normalize"], random_pd_curve())
        assert code == 0
        psi = curve_from_json(normalized).psi
        assert np.array_equal(psi, np.conj(psi).T)
        code, sphere = run_cli(tmp_path, ["factor"], normalized)
        assert code == 0 and sphere["k"] == 2
        Q = sphere_from_json(sphere).Q
        assert not np.any(np.tril(Q, -1))
        assert np.all(np.diag(Q).real > 0) and not np.any(np.diag(Q).imag)

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

    # bounds about ten times the deviation measured on these curves
    @pytest.mark.parametrize(
        "k, bound",
        [(1, 1e-12), (2, 1e-8), (3, 1e-11), (4, 1e-11), (5, 1e-9), (6, 1e-8), (7, 1e-5), (8, 1e-5), (9, 1e-4)],
        ids=[str(k) for k in range(1, 10)],
    )
    def test_reconstruct_from_curve(self, tmp_path, k, bound):
        code, report = run_cli(tmp_path, ["reconstruct"], random_pd_curve(k=k))
        assert code == 0
        assert report["max_abs_deviation"] < bound

    def test_reconstruct_from_curve_charge10_underdetermined(self, tmp_path):
        code, report = run_cli(tmp_path, ["reconstruct"], random_pd_curve(k=10))
        assert code == 2
        assert report["error"]["code"] == "Underdetermined"

    def test_reconstruct_from_samples(self, tmp_path):
        from monosphere.boundary import metric_h

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
        assert len(report["poles"]) == 2
        assert set(report) == {"command", "status", "w", "num", "den", "scale", "poles", "zeros", "line"}
        u1 = np.array([complex(*c) for c in report["line"]["u1"]])
        assert abs(np.linalg.norm(u1) - 1.0) < 1e-9

    def test_ratmap_at_charge24(self, tmp_path):
        # the axial k = 24 sphere at this w refused to project while the
        # line was found by a zero-span sweep
        S = axial_spectral(24, 0.5)
        code, report = run_cli(tmp_path, ["ratmap", "--w", "0.3+0.2j"], sphere_to_json(factor_sphere(S)))
        assert code == 0
        assert len(report["poles"]) == 24
        vw = hom_vector(0.3 + 0.2j, 24)
        scale = np.linalg.norm(S.psi, 2) * np.linalg.norm(vw)
        for p in report["poles"]:
            vp = hom_vector(point_from_json(p), 24)
            assert abs(vw.conj() @ S.psi @ vp) <= 1e-8 * scale * np.linalg.norm(vp)

    def test_massless_consumes_ratmap_output(self, tmp_path):
        code, ratmap_report = run_cli(
            tmp_path,
            ["ratmap", "--w", "0.3+0.2j"],
            sphere_to_json(sphere_of_sech()),
        )
        assert code == 0
        code, curve = run_cli(tmp_path, ["massless"], ratmap_report)
        assert code == 0
        S = curve_from_json(curve)
        assert S.k == 2 and np.linalg.matrix_rank(S.psi) == 2  # conj(C)^T C, C the 2 x 3 stack of den and num


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
        assert max(report["vertex_residuals"]) < 1e-8
        assert "tangency_residuals" not in report and "edge_incidence_residuals" not in report
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
        assert report["max_derivative"] < 1e-12
        assert report["full"] is True

    def test_mass_off_charge_two_exits_2(self, tmp_path):
        code, report = run_cli(tmp_path, ["charge2", "mass"], curve_to_json(SpectralMatrix(3, np.eye(4))))
        assert code == 2
        assert report["error"]["code"] == "DomainViolation"


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

    def test_sample_overflow_exits_3(self, tmp_path):
        # cosh(1000) overflows the float range inside the sech profile
        code, report = run_cli(tmp_path, ["field", "sample", "--r", "1000"])
        assert code == 3
        assert report["error"]["code"] == "OverflowError"

    @pytest.mark.parametrize("r", ["360", "1000"])
    def test_sample_zero_mass_underflow_exits_3(self, tmp_path, r):
        # e^(-2r) is subnormal at 360 and 0 at 1000: 1/a overflows, the profile stays positive
        code, report = run_cli(tmp_path, ["field", "sample", "--r", r, "--profile", "zero-mass"])
        assert code == 3
        assert report["error"]["code"] == "NonFiniteResult"

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


@pytest.mark.parametrize(
    "psi",
    [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1e-11, 1.0])],
    ids=["indefinite", "eigenvalue-ratio-1e-11"],
)
def test_one_gate_refuses_a_curve_that_is_not_positive_definite(tmp_path, psi):
    # the ratio 1e-11 lies below the gate's 1e-10
    S = SpectralMatrix(2, psi)
    for command in ("check", "factor", "boundary", "pipeline"):
        code, report = run_cli(tmp_path, [command], curve_to_json(S))
        assert (code, report["error"]["code"]) == (2, "NotPositiveDefinite")
    with pytest.raises(NotPositiveDefinite):
        factor_sphere(S)
    z = np.array(list(_boundary_rings(2, 9)))
    for sign in (1.0, -1.0):  # -h is the metric of -Psi, positive definite in neither case
        with pytest.raises(NotPositiveDefinite):
            reconstruct_psi_from_metric(list(zip(z, sign * metric_h(S, z))), 2)


@pytest.mark.parametrize("command", ["check", "factor", "boundary", "pipeline", "normalize"])
@pytest.mark.parametrize(
    "psi, error",
    [(-np.diag([2.0, 1.0]), "NotPositiveDefinite"), (1j * np.diag([2.0, 1.0]), "NotHermitian")],
    ids=["negated", "phase-rotated"],
)
def test_gate_comes_before_any_normalization(tmp_path, command, psi, error):
    # normalize turns both into diag(2, 1), so a command that normalized
    # before the gate accepted them
    code, report = run_cli(tmp_path, [command], curve_to_json(SpectralMatrix(1, psi)))
    if command == "normalize":
        assert code == 0
        assert np.array_equal(curve_from_json(report).psi, np.diag([2.0, 1.0]))
    else:
        assert (code, report["error"]["code"]) == (2, error)


@pytest.mark.parametrize("tol, code", [(None, 0), ("1e-8", 2)])
def test_normalize_applies_the_gate_at_its_tolerance(tmp_path, tol, code):
    # the eigenvalue ratio 1e-9 lies above the default 1e-10 and below 1e-8
    argv = ["normalize"] + (["--tol", tol] if tol else [])
    got, report = run_cli(tmp_path, argv, curve_to_json(SpectralMatrix(1, np.diag([1.0, 1e-9]))))
    assert got == code
    if code:
        assert report["error"]["code"] == "NotPositiveDefinite"
    else:
        assert np.array_equal(curve_from_json(report).psi, np.diag([1.0, 1e-9]))


@pytest.mark.parametrize("psi", [[[2, 1], [0, 2]], [[1, 2], [0, 1]]], ids=["definite-part", "indefinite-part"])
def test_reconstruct_refuses_a_curve_that_is_not_hermitian(tmp_path, psi):
    # the samples of h see only the Hermitian part of Psi
    code, report = run_cli(tmp_path, ["reconstruct"], curve_to_json(SpectralMatrix(1, np.array(psi))))
    assert (code, report["error"]["code"]) == (2, "NotHermitian")


def _flag_jobs():
    """argv and document by name for every command that reads one; the curve
    of normalize is not Hermitian and the sphere Q is not triangular, so
    a true normalized or canonical claim on them is false."""
    rot = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    sphere = sphere_to_json(HoloSphere(2, rot @ sphere_of_sech().Q))
    triple = triple_to_json(Su2Triple([2.0, 0.5, 0], [0, 2.0, 0], [0.3, 0, 1.0]))
    t = tuple_to_json(sphere_to_tuple(factor_sphere(SpectralMatrix(2, np.eye(3)))))
    phased = curve_to_json(SpectralMatrix(2, np.exp(0.7j) * curve_from_json(random_pd_curve()).psi))
    return {
        "normalize": (["normalize"], phased),
        "check": (["check"], random_pd_curve()),
        "factor": (["factor"], random_pd_curve()),
        "boundary": (["boundary"], random_pd_curve()),
        "reconstruct": (["reconstruct"], random_pd_curve(k=3)),
        "center": (["center"], t),
        "ratmap": (["ratmap", "--w", "0.3+0.2j"], sphere),
        "massless": (["massless"], {"num": [[1, 0], [0, 1]], "den": [[0, 0], [1, 0]]}),
        "charge2-lattice": (["charge2", "lattice"], sphere),
        "charge2-pseq": (["charge2", "pseq"], half_mass_curve()),
        "charge2-poncelet": (["charge2", "poncelet"], half_mass_curve()),
        "charge2-mass": (["charge2", "mass"], half_mass_curve()),
        "charge2-involution": (["charge2", "involution"], triple),
        "pipeline": (["pipeline"], random_pd_curve()),
    }


FLAG_JOBS = _flag_jobs()


@pytest.mark.parametrize(
    "value", [True, False, None, "yes", 3, [1], {"x": 1}],
    ids=["true", "false", "null", "string", "number", "array", "object"],
)
@pytest.mark.parametrize("job", sorted(FLAG_JOBS))
def test_flag_keys_are_ignored(tmp_path, job, value):
    # a curve is its Psi and a sphere its Q: old flag keys parse and change nothing
    argv, doc = FLAG_JOBS[job]
    flagged = dict(doc, normalized=value, massless=value, canonical=value)
    code, report = run_cli(tmp_path, argv, flagged)
    assert code == 0
    assert (code, report) == run_cli(tmp_path, argv, doc)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone,
    # and numpy.fft loads only when a degree integral runs
    code = (
        "import sys, monosphere, monosphere.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
