import argparse
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from monosphere import axial, boundary, cli
from monosphere.axial import mass_profile, sech_field, sphere_of_sech
from monosphere.boundary import degree_integral, metric_h, reconstruct_psi_from_metric
from monosphere.centering import Mobius, act_sl2
from monosphere.cli import GRID_MAX, _boundary_rings, main
from monosphere.curves import SpectralMatrix, axial_spectral, normalize_reality, positivity_check
from monosphere.projective import SpherePoint, hom_vector
from monosphere.serialize import (
    curve_from_json,
    dumps_report,
    encode,
    sphere_from_json,
)
from monosphere.charge2 import Su2Triple, from_su2_triple
from monosphere.errors import NotPositiveDefinite
from monosphere.spheres import (
    CoeffTuple,
    HoloSphere,
    factor_sphere,
    spectral_from_sphere,
    sphere_to_tuple,
    tuple_to_sphere,
)

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
    return encode(axial_spectral(2, 0.5))


def random_pd_curve(seed=5, k=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
    return encode(SpectralMatrix(k, np.conj(A).T @ A + (k + 2) * np.eye(k + 1)))


def samples_doc(seed=9, k=1):
    """A samples document: the boundary metric of random_pd_curve on its rings."""
    S = curve_from_json(random_pd_curve(seed, k))
    zs = np.array(list(_boundary_rings(k, 9)))
    return {"k": k, "samples": [[[z.real, z.imag], h] for z, h in zip(zs, metric_h(S, zs))]}


class TestValidationAndExitCodes:
    def test_check_rejects_indefinite_matrix(self, tmp_path):
        doc = {"k": 1, "psi": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
        code, report = run_cli(tmp_path, ["check"], doc)
        assert code == 2
        assert report["status"] == "error"
        assert report["error"]["code"] == "NotPositiveDefinite"

    def test_boundary_rejects_indefinite_matrix(self, tmp_path):
        # h > 0 on the unit circle, so the degree integral alone would give 2
        doc = encode(SpectralMatrix(2, np.diag([1.0, -1.0, 1.0])))
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
        code, report = run_cli(tmp_path, ["charge2", "mass"], encode(axial_spectral(2, 0.37)))
        assert code == 3
        assert report["error"]["code"] == "NoEstimate"

    def test_unreachable_degree_tolerance_exits_3(self, tmp_path):
        code, report = run_cli(tmp_path, ["boundary", "--tol", "1e-20"], half_mass_curve())
        assert code == 3
        assert report["status"] == "error"
        assert report["command"] == "boundary"
        assert report["error"]["code"] == "QuadratureNotConverged"
        assert "1.00e-20" in report["error"]["message"]

    @pytest.mark.parametrize("command, budget", [("center", "0"), ("pipeline", "0")])
    def test_empty_flow_budget_exits_3(self, tmp_path, command, budget):
        doc = encode(sphere_to_tuple(factor_sphere(axial_spectral(2, 0.5))))
        if command == "pipeline":
            doc = half_mass_curve()
        code, report = run_cli(tmp_path, [command, "--max-iter", budget], doc)
        assert code == 3
        assert report["error"]["code"] == "MaxIterExceeded"

    def test_flow_tolerance_below_floor_exits_3(self, tmp_path):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        code, report = run_cli(tmp_path, ["center", "--tol", "0"], encode(CoeffTuple(8, v)))
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
        [("normalize", 0), ("factor", 0), ("boundary", 0), ("check", 0), ("reconstruct", 3), ("pipeline", 3)],
    )
    def test_positive_curve_near_the_largest_double(self, tmp_path, command, code):
        # Psi^* is added at half scale, so the Hermitian part stays finite;
        # check reports det = 1e616, which no double holds, as "inf",
        # reconstruct samples h = 2e308 and pipeline a tuple with
        # norm2 = 2e308, while the degree integral is scale-free.  The
        # overflow shows in the report, not as a warning.
        doc = encode(SpectralMatrix(1, np.diag([1e308, 1e308])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, report = run_cli(tmp_path, [command], doc)
        assert [str(w.message) for w in caught] == []
        assert got == code
        if code:
            assert report["error"]["code"] == "NonFiniteResult"
        if command == "boundary":
            assert report["degree"] == pytest.approx(1.0, abs=1e-7)
        if command == "check":
            assert report["determinant"] == "inf"
            assert report["eigenvalues"] == [1e308, 1e308]
            assert report["degenerate"] is False

    def test_overflowing_design_exits_3_before_lapack(self, tmp_path):
        # |z|^4 overflows at the last two points; the SVD of that design
        # did not converge (LinAlgError)
        samples = [
            [[1e-09, -5.960464477539063e-08], 1e-300],
            [[-2.037049791317448, 0.0], 3.345402395167215e277],
            [[1e-300, 1.7e308], 3.9948586049514976],
            [[3.5786261093645564, 1.92618603980502e231], 0.2],
        ]
        code, report = run_cli(tmp_path, ["reconstruct"], {"k": 2, "samples": samples * 3})
        assert code == 3
        assert report["error"]["code"] == "NonFiniteResult"

    @pytest.mark.parametrize("radius", [1e60, 1e200])
    def test_overflowing_design_leaves_stdout_a_json_report(self, radius):
        # LAPACK printed "** On entry to DLASCL parameter number 4 had an
        # illegal value" on stdout ahead of the report at 1e60, where
        # |z|^6 overflows, and the SVD failed at 1e200
        z = radius * np.exp(2j * np.pi * np.arange(20) / 20)
        doc = {"k": 3, "samples": [[[w.real, w.imag], 1.0] for w in z.tolist()]}
        proc = subprocess.run(
            [sys.executable, "-m", "monosphere.cli", "reconstruct"],
            input=dumps_report(doc),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"]["code"] == "NonFiniteResult"

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["field", "residual", "--grid", "-3"], None),
            (["field", "mass", "--grid", "-1"], None),
            (["field", "mass", "--grid", "0"], None),
        ],
    )
    def test_grid_below_one_is_schema_error(self, tmp_path, argv, doc):
        # negative grids ended in a numpy traceback and 0 silently meant the default
        code, report = run_cli(tmp_path, argv, doc)
        assert code == 2
        assert report["error"]["code"] == "SchemaError"
        assert "--grid must be at least 1" in report["error"]["message"]

    @pytest.mark.parametrize("grid", [GRID_MAX + 1, 10**20])
    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["boundary", "--csv", "rings.csv"], random_pd_curve()),
            (["field", "residual"], None),
            (["field", "mass"], None),
        ],
        ids=["boundary", "field-residual", "field-mass"],
    )
    def test_grid_above_the_cap_is_refused_before_any_grid_is_built(self, tmp_path, monkeypatch, argv, doc, grid):
        # 1e20 ended in a numpy traceback from linspace, and the boundary rings
        # would have been listed point by point
        def built(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.chdir(tmp_path)
        for name in ("_boundary_rings", "bog_residual", "mass_profile"):
            monkeypatch.setattr(cli, name, built)
        monkeypatch.setattr(cli.np, "linspace", built)
        code, report = run_cli(tmp_path, argv + ["--grid", str(grid)], doc)
        assert code == 2
        assert report["error"]["code"] == "SchemaError"
        assert report["error"]["message"] == f"--grid must be at most {GRID_MAX}, got {grid}"
        assert not (tmp_path / "rings.csv").exists()

    def test_grid_at_the_cap_is_accepted(self, tmp_path):
        code, report = run_cli(tmp_path, ["field", "mass", "--grid", str(GRID_MAX)])
        assert code == 0
        assert len(report["m"]) == GRID_MAX

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            # an uncentred tuple reported as centred after 0 iterations
            (["center", "--tol", "inf"], "moved-tuple", "--tol must be finite and at least 0, got inf"),
            # a Hermitian curve reported as NotHermitian
            (["check", "--tol", "-1"], "curve", "--tol must be finite and at least 0, got -1.0"),
            (["factor", "--tol", "-1"], "curve", "--tol must be finite and at least 0, got -1.0"),
            # a positive-definite curve reported as NotPositiveDefinite
            (["check", "--tol", "inf"], "curve", "--tol must be finite and at least 0, got inf"),
            (["check", "--tol", "nan"], "curve", "--tol must be finite and at least 0, got nan"),
            # a one-point walk, exit 0
            (["charge2", "pseq", "--max-iter", "-2"], "curve", "--max-iter must be at least 0, got -2"),
            # "no convergence in -3 iterations", exit 3
            (["center", "--max-iter", "-3"], "moved-tuple", "--max-iter must be at least 0, got -3"),
        ],
        ids=["center-tol-inf", "check-tol-neg", "factor-tol-neg", "check-tol-inf", "check-tol-nan",
             "pseq-max-iter-neg", "center-max-iter-neg"],
    )
    def test_out_of_range_tol_or_max_iter_is_schema_error(self, tmp_path, argv, doc, message):
        if doc == "curve":
            doc = half_mass_curve()
        else:
            t = sphere_to_tuple(factor_sphere(axial_spectral(2, 0.5)))
            doc = encode(act_sl2(Mobius.from_matrix([[1.05, 0.02], [0.01, 0.96]]), t))
        code, report = run_cli(tmp_path, argv, doc)
        assert (code, report["error"]) == (2, {"code": "SchemaError", "message": message})

    def test_flag_range_is_checked_before_the_document_is_read(self, tmp_path):
        # with no --input the document would come from stdin
        out = tmp_path / "out.json"
        assert main(["center", "--max-iter", "-1", "--output", str(out)]) == 2
        assert json.loads(out.read_text())["error"]["message"] == "--max-iter must be at least 0, got -1"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--tol", "nan"], "--tol must be finite and at least 0, got nan"),
            (["charge2", "mass", "--max-iter", "-1"], "--max-iter must be at least 0, got -1"),
            (["boundary", "--grid", "8"], "--grid sets the --csv samples and is not read without --csv"),
            (["boundary", "--csv", "b.csv", "--grid", "0"], "--grid must be at least 1, got 0"),
            (["boundary", "--csv", "b.csv", "--grid", "5000"], f"--grid must be at most {GRID_MAX}, got 5000"),
            (["ratmap", "--w", "nan"], "--w: not a number: 'nan'"),
            (["charge2", "pseq", "--w", "x"], "--w: complex() arg is a malformed string"),
            (["charge2", "poncelet", "--w", "nan"], "--w: not a number: 'nan'"),
            (["charge2", "lattice", "--z0", "nope"], "--z0: complex() arg is a malformed string"),
            (["field", "sample", "--z", "nope"], "--z: complex() arg is a malformed string"),
        ],
        ids=["tol", "max-iter", "grid-without-csv", "grid-below-1", "grid-above-cap", "ratmap-w", "pseq-w",
             "poncelet-w", "lattice-z0", "sample-z"],
    )
    def test_every_flag_is_refused_before_the_document_is_read(self, tmp_path, monkeypatch, argv, message):
        # the point flags and --grid were read after the document, so a
        # malformed document hid them
        def read(path):
            raise AssertionError("the document was read")

        monkeypatch.setattr(cli.ser, "read_document", read)
        monkeypatch.chdir(tmp_path)
        code, report = run_cli(tmp_path, argv)
        assert (code, report["error"]) == (2, {"code": "SchemaError", "message": message})
        assert not (tmp_path / "b.csv").exists()

    def test_document_that_is_not_json_is_schema_error(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{"k": 1, "psi": [')
        code, report = run_cli(tmp_path, ["check", "--input", str(path)])
        assert (code, report["error"]["code"]) == (2, "SchemaError")
        assert report["error"]["message"].startswith("invalid JSON: ")

    def test_unwritable_csv_is_schema_error_on_the_output(self, tmp_path):
        # the CSV path is a directory; the error report still goes to --output
        code, report = run_cli(tmp_path, ["boundary", "--csv", str(tmp_path)], random_pd_curve())
        assert (code, report["error"]["code"]) == (2, "SchemaError")
        assert report["error"]["message"].startswith("cannot write CSV: ")

    @pytest.mark.parametrize("grid", ["99999999", "8"])
    def test_grid_boundary_will_not_read_is_refused(self, tmp_path, grid):
        # boundary exited 0 with the grid, in range or not, ignored
        code, report = run_cli(tmp_path, ["boundary", "--grid", grid], random_pd_curve())
        assert code == 2
        assert report["error"]["code"] == "SchemaError"
        assert report["error"]["message"].endswith("not read without --csv")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ratmap", "--w", "1", "--tol", "1e-3"],
            ["reconstruct", "--tol", "1e-3"],
            ["reconstruct", "--grid", "8"],
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
            (["ratmap", "--w", "nan"], encode(sphere_of_sech())),
            (["charge2", "pseq", "--w", "nan"], half_mass_curve()),
            (["charge2", "poncelet", "--w", "nan+1j"], half_mass_curve()),
            (["charge2", "lattice", "--z0", "nan"], encode(sphere_of_sech())),
            (["ratmap", "--w", "inf+nanj"], encode(sphere_of_sech())),
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


def _library_chain():
    # the benchmark's chain: the phase of a Hermitian curve is 1, so
    # normalize_reality gates the curve itself, and the Hermitian part it
    # returns carries the spectrum into factor_sphere and degree_integral
    S = axial_spectral(8, 0.5)
    positivity_check(S)
    N = normalize_reality(S)
    factor_sphere(N)
    degree_integral(N)


# One job per path through the curve gate and the eigvalsh calls it
# makes: one per curve, two for curve-input reconstruct (the input's
# gate and the recovered curve's), and none for a degree integral,
# which tests Hermiticity alone.
EIGVALSH_JOBS = {
    "check": (["check"], 1),
    "check-tol": (["check", "--tol", "1e-6"], 1),
    "normalize": (["normalize"], 1),
    "factor": (["factor"], 1),
    "boundary": (["boundary"], 1),
    "pipeline": (["pipeline"], 1),
    "pipeline-tol": (["pipeline", "--tol", "1e-6"], 1),
    "reconstruct": (["reconstruct"], 2),
    "library-chain": (_library_chain, 1),
    "degree-of-a-fresh-curve": (lambda: degree_integral(axial_spectral(8, 0.5)), 0),
}


@pytest.mark.parametrize("job", list(EIGVALSH_JOBS))
def test_each_curve_path_counts_its_eigvalsh_calls(tmp_path, monkeypatch, job):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    run, want = EIGVALSH_JOBS[job]
    if callable(run):
        run()
    else:
        assert run_cli(tmp_path, run, random_pd_curve())[0] == 0
    assert len(calls) == want


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
        code, report = run_cli(tmp_path, ["center"], encode(t))
        assert code == 0
        assert report["mu"]["magnitude"] < 1e-12
        assert report["iterations"] == 0

    def test_center_rank_one_tuple_is_not_stable(self, tmp_path):
        # v_0 and v_k are nonzero; the rows are equal, so the tuple is singular
        rows = [[[1, 0], [0, 0], [0, 0]]] * 3
        code, report = run_cli(tmp_path, ["center"], {"k": 2, "v": rows})
        assert code == 2
        assert report["error"]["code"] == "NotStable"

    def test_center_is_scale_invariant(self, tmp_path):
        # |mu|^2 of the tuple scaled by 1e140 overflows a float
        v = np.random.default_rng(3).standard_normal((4, 4)) + 0j
        (c1, r1), (c2, r2) = (run_cli(tmp_path, ["center"], encode(CoeffTuple(3, s * v))) for s in (1.0, 1e140))
        assert (c1, c2) == (0, 0)
        assert r1["iterations"] == r2["iterations"]
        assert r2["mu"]["magnitude"] <= 1e-10 * r2["norm2"]

    def test_center_trace_csv(self, tmp_path):
        t = sphere_to_tuple(factor_sphere(SpectralMatrix(2, np.eye(3))))
        csv_path = tmp_path / "trace.csv"
        doc = write_doc(tmp_path, "t.json", encode(t))
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

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_reconstruct_samples_2k_plus_2_angles_on_each_of_k_plus_1_rings(self, tmp_path, monkeypatch, k):
        # the rings held max(6, (k + 1)^2) angles each, (k + 1)^3 samples
        counts = []

        def counted(samples, charge):
            samples = list(samples)
            counts.append(len(samples))
            return reconstruct_psi_from_metric(samples, charge)

        monkeypatch.setattr(cli, "reconstruct_psi_from_metric", counted)
        code, _ = run_cli(tmp_path, ["reconstruct"], random_pd_curve(k=k))
        assert code == 0
        assert counts == [(k + 1) * (2 * k + 2)]

    @pytest.mark.parametrize("doc", [random_pd_curve(k=3), samples_doc()], ids=["curve", "samples"])
    def test_reconstruct_takes_its_rank_from_the_least_squares_svd(self, tmp_path, monkeypatch, doc):
        # a second SVD of the design, np.linalg.matrix_rank, counted the rank
        def second_svd(*args, **kwargs):
            raise AssertionError("np.linalg.matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", second_svd)
        code, report = run_cli(tmp_path, ["reconstruct"], doc)
        assert code == 0
        assert report["k"] == doc["k"]

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

    def test_boundary_csv_evaluates_its_samples_once(self, tmp_path, monkeypatch):
        # metric_h, connection_at_infinity and curvature_density built
        # vander three times and its derivative, the jets of h, twice
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)

            return wrapper

        for name in ("vander", "vander_derivative"):
            monkeypatch.setattr(boundary, name, counted(name, getattr(boundary, name)))
        csv_path = tmp_path / "b.csv"
        code, report = run_cli(tmp_path, ["boundary", "--csv", str(csv_path), "--grid", "5"], random_pd_curve())
        assert code == 0
        assert calls == ["vander", "vander_derivative"]
        monkeypatch.undo()
        rows = np.array([[float(x) for x in line.split(",")] for line in csv_path.read_text().splitlines()[1:]])
        S = curve_from_json(random_pd_curve())
        z = rows[:, 0] + 1j * rows[:, 1]
        a_z = boundary.connection_at_infinity(S, z)
        assert rows[:, 2].tolist() == metric_h(S, z).tolist()
        assert rows[:, 3].tolist() == a_z.real.tolist() and rows[:, 4].tolist() == a_z.imag.tolist()
        assert rows[:, 5].tolist() == boundary.curvature_density(S, z).tolist()

    def test_boundary_csv_of_a_large_curve_is_that_of_the_curve(self, tmp_path):
        # the fields were evaluated on Psi itself, and F_density came out NaN
        S = axial_spectral(3, 0.5)
        rows = {}
        for scale in (1.0, 2.0**900):
            csv_path = tmp_path / f"{scale:.0e}.csv"
            doc = encode(SpectralMatrix(3, S.psi * scale))
            code, report = run_cli(tmp_path, ["boundary", "--csv", str(csv_path)], doc)
            assert code == 0 and report["status"] == "ok"
            lines = csv_path.read_text().splitlines()[1:]
            rows[scale] = np.array([[float(x) for x in line.split(",")] for line in lines])
        small, large = rows.values()
        assert not np.isnan(large).any()
        assert large[:, 2].tolist() == (small[:, 2] * 2.0**900).tolist()
        assert large[:, [0, 1, 3, 4, 5]].tolist() == small[:, [0, 1, 3, 4, 5]].tolist()


class TestRatmapAndMassless:
    def test_ratmap_report(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            ["ratmap", "--w", "0.3+0.2j"],
            encode(sphere_of_sech()),
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
        code, report = run_cli(tmp_path, ["ratmap", "--w", "0.3+0.2j"], encode(factor_sphere(S)))
        assert code == 0
        assert len(report["poles"]) == 24
        vw = hom_vector(0.3 + 0.2j, 24)
        scale = np.linalg.norm(S.psi, 2) * np.linalg.norm(vw)
        for p in report["poles"]:
            vp = hom_vector(SpherePoint.of(p if p == "inf" else complex(*p)), 24)
            assert abs(vw.conj() @ S.psi @ vp) <= 1e-8 * scale * np.linalg.norm(vp)

    def test_massless_consumes_ratmap_output(self, tmp_path):
        code, ratmap_report = run_cli(
            tmp_path,
            ["ratmap", "--w", "0.3+0.2j"],
            encode(sphere_of_sech()),
        )
        assert code == 0
        code, curve = run_cli(tmp_path, ["massless"], ratmap_report)
        assert code == 0
        S = curve_from_json(curve)
        assert S.k == 2 and np.linalg.matrix_rank(S.psi) == 2  # conj(C)^T C, C the 2 x 3 stack of den and num


class TestCharge2Commands:
    def test_mass_of_unit_mass_curve(self, tmp_path):
        code, report = run_cli(
            tmp_path, ["charge2", "mass"], encode(axial_spectral(2, 1.0))
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
            tmp_path, ["charge2", "lattice"], encode(sphere_of_sech())
        )
        assert code == 0
        assert report["closed"] is True and report["period"] == 3
        assert len(report["points"]) == 3

    def test_involution_report(self, tmp_path):
        nu = Su2Triple([2.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0])
        code, report = run_cli(tmp_path, ["charge2", "involution"], encode(nu))
        assert code == 0
        assert report["triple_product"] == 4.0
        assert report["first_order_invariant"] is True
        assert report["max_derivative"] < 1e-12
        assert report["full"] is True

    def test_poncelet_vertex_at_infinity_exits_2(self, tmp_path):
        # a centred curve; the walk starts at w = inf, a vertex with no affine image
        nu = Su2Triple(*np.random.default_rng(3).standard_normal((3, 3)))
        doc = encode(spectral_from_sphere(tuple_to_sphere(from_su2_triple(nu))))
        code, report = run_cli(tmp_path, ["charge2", "poncelet", "--w", "inf"], doc)
        assert code == 2
        assert report["error"] == {"code": "DomainViolation", "message": "vertex at infinity has no affine image"}

    def test_mass_off_charge_two_exits_2(self, tmp_path):
        code, report = run_cli(tmp_path, ["charge2", "mass"], encode(SpectralMatrix(3, np.eye(4))))
        assert code == 2
        assert report["error"]["code"] == "DomainViolation"


@pytest.mark.parametrize("k", [2, 8, 32])
@pytest.mark.parametrize("s", [5e-11, 2e-10])
def test_fullness_is_read_on_the_tuple_by_every_command(tmp_path, k, s):
    # the centred tuple diag(1, ..., s, ..., 1), s at index k/2, and its
    # sphere: below FULL_TOL = 1e-10 ratmap and lattice refuse the sphere
    # as NotFull and center the tuple as NotStable, above it they run
    v = np.ones(k + 1)
    v[k // 2] = s
    t = CoeffTuple(k, np.diag(v))
    sphere = encode(tuple_to_sphere(t))
    runs = {
        "ratmap": run_cli(tmp_path, ["ratmap", "--w", "0.3+0.1j"], sphere),
        "lattice": run_cli(tmp_path, ["charge2", "lattice"], sphere),
        "center": run_cli(tmp_path, ["center"], encode(t)),
    }
    errors = {name: report.get("error", {}).get("code") for name, (_, report) in runs.items()}
    if s < 1e-10:
        assert errors == {"ratmap": "NotFull", "lattice": "NotFull", "center": "NotStable"}
    else:
        assert errors == {"ratmap": None, "lattice": None if k == 2 else "DomainViolation", "center": None}
        assert runs["center"][1]["iterations"] == 0
    assert {name: code for name, (code, _) in runs.items()} == {
        name: 0 if error is None else 2 for name, error in errors.items()
    }


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
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows[:, 0].tolist() == report["r"]
        assert not np.any(rows[:, 1:3])
        assert rows[:, 4].tolist() == report["m"]

    @pytest.mark.parametrize("command", ["mass", "residual"])
    def test_csv_makes_one_mass_profile_call(self, tmp_path, monkeypatch, command):
        calls = []

        def counted(field, radii):
            calls.append(len(radii))
            return mass_profile(field, radii)

        monkeypatch.setattr(cli, "mass_profile", counted)
        code, _ = run_cli(tmp_path, ["field", command, "--grid", "5", "--csv", str(tmp_path / "grid.csv")])
        assert code == 0
        assert calls == [5]

    def test_residual_csv_masses_are_the_mass_profile(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        code, report = run_cli(tmp_path, ["field", "residual", "--grid", "5", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "r,re_z,im_z,residual,m" and len(lines) == 1 + report["points"] == 46
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        radii = list(dict.fromkeys(row[0] for row in rows))
        assert radii == [float(r) for r in np.linspace(0.2, 4.0, 5)]
        masses = dict(zip(radii, mass_profile(sech_field(), radii)))
        assert [row[4] for row in rows] == [masses[row[0]] for row in rows]

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

    @pytest.mark.parametrize("r", ["20", "30"])
    def test_sample_ill_conditioned_metric_exits_3(self, tmp_path, r):
        # |H|_F^2 eps is 8.6 at r = 20 (tr Phi^2 read -1.47 for -0.5 there)
        # and H is singular to rounding at r = 30
        code, report = run_cli(tmp_path, ["field", "sample", "--r", r, "--z", "0.5"])
        assert code == 3
        assert report["error"]["code"] == "NonFiniteResult"

    def test_sample_makes_one_metric_call(self, tmp_path, monkeypatch):
        # H_matrix evaluated the metric a second time for H and det H
        calls = []
        metric = axial._metric

        def counted(*args, **kwargs):
            calls.append(kwargs.get("invert", True))
            return metric(*args, **kwargs)

        monkeypatch.setattr(axial, "_metric", counted)
        code, report = run_cli(tmp_path, ["field", "sample", "--z", "0.5+0.2j", "--r", "1.5"])
        assert code == 0
        assert calls == [True]
        monkeypatch.undo()
        H = axial.H_matrix(sech_field(), 0.5 + 0.2j, 1.5)
        assert report["H"] == [[[x.real, x.imag] for x in row] for row in H.tolist()]

    @pytest.mark.parametrize(
        "flag, value",
        [("--z", "nan"), ("--z", "nan+1j"), ("--z", "inf"), ("--z", "oo"), ("--z", "1e400"),
         ("--r", "nan"), ("--r", "inf"), ("--r", "-inf"), ("--r", "1e400")],
    )
    def test_sample_refuses_a_non_finite_point_before_the_metric(self, tmp_path, monkeypatch, flag, value):
        # the kernel's own refusals (DomainViolation) name no flag
        calls = []
        metric = axial._metric

        def counted(*args, **kwargs):
            calls.append(args)
            return metric(*args, **kwargs)

        monkeypatch.setattr(axial, "_metric", counted)
        code, report = run_cli(tmp_path, ["field", "sample", f"{flag}={value}"])
        assert (code, report["error"]["code"]) == (2, "SchemaError")
        assert report["error"]["message"].startswith(flag)
        assert calls == []

    def test_sample_keeps_the_sign_of_a_zero_chart_value(self, tmp_path):
        code, report = run_cli(tmp_path, ["field", "sample", "--z", "-0.0"])
        assert code == 0
        assert [math.copysign(1.0, x) for x in report["z"]] == [-1.0, 1.0]

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

    @pytest.mark.parametrize("k", [8, 16, 24, 32])
    @pytest.mark.parametrize("kind", ["axial", "random", "moved"])
    def test_pipeline_centres_up_to_charge32(self, tmp_path, kind, k):
        if kind == "axial":
            S = axial_spectral(k, 0.5)
        else:
            S = curve_from_json(random_pd_curve(seed=100 + k, k=k))
        if kind == "moved":
            t = act_sl2(Mobius.from_matrix([[1.05, 0.02], [0.01, 0.96]]), sphere_to_tuple(factor_sphere(S)))
            S = spectral_from_sphere(tuple_to_sphere(t))
        code, report = run_cli(tmp_path, ["pipeline"], encode(S))
        assert code == 0
        assert report["mu_centred"]["magnitude"] <= 1e-10 * report["norm2_centred"]
        assert abs(report["degree_integral"] - k) <= 1e-6

    @pytest.mark.parametrize("command, degree, bound", [
        ("boundary", "degree", "error_bound"),
        ("pipeline", "degree_integral", "degree_error_bound"),
    ])
    def test_near_zero_curve_degree_2(self, tmp_path, command, degree, bound):
        # Psi = p p* + 1e-4 max|p|^2 I, p(z) = (z - 1)(z - 2): cond 1.6e4,
        # accepted by check; h nearly vanishes at z = 1 on the unit circle
        p = np.array([2.0, -3.0, 1.0])
        S = SpectralMatrix(2, np.outer(p, p) + 1e-4 * np.max(p**2) * np.eye(3))
        assert run_cli(tmp_path, ["check"], encode(S))[0] == 0
        code, report = run_cli(tmp_path, [command], encode(S))
        assert code == 0
        assert abs(report[degree] - 2.0) <= report[bound] <= 1e-7

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
        code, report = run_cli(tmp_path, [command], encode(S))
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
    code, report = run_cli(tmp_path, [command], encode(SpectralMatrix(1, psi)))
    if command == "normalize":
        assert code == 0
        assert np.array_equal(curve_from_json(report).psi, np.diag([2.0, 1.0]))
    else:
        assert (code, report["error"]["code"]) == (2, error)


@pytest.mark.parametrize("tol, code", [(None, 0), ("1e-8", 2)])
def test_normalize_applies_the_gate_at_its_tolerance(tmp_path, tol, code):
    # the eigenvalue ratio 1e-9 lies above the default 1e-10 and below 1e-8
    argv = ["normalize"] + (["--tol", tol] if tol else [])
    got, report = run_cli(tmp_path, argv, encode(SpectralMatrix(1, np.diag([1.0, 1e-9]))))
    assert got == code
    if code:
        assert report["error"]["code"] == "NotPositiveDefinite"
    else:
        assert np.array_equal(curve_from_json(report).psi, np.diag([1.0, 1e-9]))


@pytest.mark.parametrize("psi", [[[2, 1], [0, 2]], [[1, 2], [0, 1]]], ids=["definite-part", "indefinite-part"])
def test_reconstruct_refuses_a_curve_that_is_not_hermitian(tmp_path, psi):
    # the samples of h see only the Hermitian part of Psi
    code, report = run_cli(tmp_path, ["reconstruct"], encode(SpectralMatrix(1, np.array(psi))))
    assert (code, report["error"]["code"]) == (2, "NotHermitian")


def _flag_jobs():
    """argv and document by name for every command that reads one; the curve
    of normalize is not Hermitian and the sphere Q is not triangular, so
    a true normalized or canonical claim on them is false."""
    rot = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    sphere = encode(HoloSphere(2, rot @ sphere_of_sech().Q))
    triple = encode(Su2Triple([2.0, 0.5, 0], [0, 2.0, 0], [0.3, 0, 1.0]))
    t = encode(sphere_to_tuple(factor_sphere(SpectralMatrix(2, np.eye(3)))))
    phased = encode(SpectralMatrix(2, np.exp(0.7j) * curve_from_json(random_pd_curve()).psi))
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


def _leaves(parser, path=()):
    """(argv prefix, parser) of every leaf command under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))
            return
    yield list(path), parser


# The point flags whose value may be the point at infinity.
ACCEPTS_INFINITY = {"--w", "--z0"}


def _numeric_flag_cases():
    """(argv, flag) for NaN in every float flag and point flag of
    every leaf, and for +-inf where the flag takes no infinity; a point
    flag is a string flag that is neither a path nor a choice."""
    cases = []
    for prefix, leaf in _leaves(cli.build_parser()):
        required = [f"{a.option_strings[0]}=1" for a in leaf._actions if a.required]
        for action in leaf._actions:
            point = action.type is None and action.nargs is None and not action.choices
            if action.type is not float and not (point and action.dest not in ("input", "output", "csv")):
                continue
            flag = action.option_strings[0]
            values = ["nan"] if flag in ACCEPTS_INFINITY else ["nan", "inf", "-inf"]
            for value in values:
                argv = prefix + [a for a in required if not a.startswith(flag + "=")] + [f"{flag}={value}"]
                cases.append(pytest.param(argv, flag, id=f"{'-'.join(prefix)}{flag}={value}"))
    return cases


NUMERIC_FLAG_CASES = _numeric_flag_cases()


def test_every_numeric_flag_is_covered():
    flags = {case.values[1] for case in NUMERIC_FLAG_CASES}
    assert flags == {"--tol", "--r", "--w", "--z0", "--z"}


@pytest.mark.parametrize("argv, flag", NUMERIC_FLAG_CASES)
def test_non_finite_numeric_flag_is_refused_at_the_flag_check(tmp_path, monkeypatch, argv, flag):
    # neither the document nor the field kernel may be reached, so a flag
    # added later cannot leave its check to the command
    def fail(*args, **kwargs):
        raise AssertionError("the flag check was passed")

    monkeypatch.setattr(cli.ser, "read_document", fail)
    monkeypatch.setattr(axial, "_metric", fail)
    code, report = run_cli(tmp_path, argv)
    assert (code, report["error"]["code"]) == (2, "SchemaError")
    assert report["error"]["message"].startswith(flag)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency, scipy serves only the benchmark
    # harness, and numpy.fft loads only when a degree integral runs
    code = (
        "import sys, monosphere, monosphere.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
