import json

import numpy as np
import pytest

from monosphere.charge2 import Su2Triple
from monosphere.curves import SpectralMatrix
from monosphere.errors import SchemaError
from monosphere.ratmap import RationalMap
from monosphere.projective import SpherePoint
from monosphere.ratmap import ProjLine
from monosphere.serialize import (
    complex_from_json,
    curve_from_json,
    dumps_report,
    encode,
    loads_document,
    loads_payload,
    parse_payload,
    ratmap_from_json,
    sphere_from_json,
    triple_from_json,
    tuple_from_json,
    write_csv,
)
from monosphere.spheres import CoeffTuple, HoloSphere, factor_sphere, sphere_to_tuple


def random_curve(seed=11, k=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
    return SpectralMatrix(k, np.conj(A).T @ A + (k + 2) * np.eye(k + 1))


class TestComplexAndPoints:
    def test_complex_round_trip(self):
        c = 1.25 - 3.5j
        assert complex_from_json(encode(c)) == c

    def test_bad_pairs_rejected(self):
        for bad in ([1.0], [1.0, 2.0, 3.0], ["a", 0.0], [True, 0.0], "1+2j", 7):
            with pytest.raises(SchemaError):
                complex_from_json(bad)

    def test_non_finite_numbers_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bad in ([nan, 0.0], [0.0, inf], [-inf, 0.0], [10**400, 0]):
            with pytest.raises(SchemaError):
                complex_from_json(bad)
        with pytest.raises(SchemaError):
            triple_from_json({"r0": [1, 0, nan], "r1": [0, 1, 0], "r2": [0, 0, 1]})


ROUND_TRIPS = {
    "curve": (lambda: random_curve(), curve_from_json, ("k", "psi")),
    "sphere": (lambda: factor_sphere(random_curve()), sphere_from_json, ("k", "Q")),
    "tuple": (lambda: sphere_to_tuple(factor_sphere(random_curve())), tuple_from_json, ("k", "v")),
    "triple": (
        lambda: Su2Triple([1.0, 2.0, 3.0], [0.5, -1.0, 0.0], [0.0, 0.25, -2.0]),
        triple_from_json,
        ("r0", "r1", "r2"),
    ),
    # the decoder renormalizes and leaves scale at 1
    "ratmap": (
        lambda: RationalMap.normalized([1.0, 2.0, 1.0], [1.0, 0.0, -1.0]),
        ratmap_from_json,
        ("num", "den"),
    ),
}


class TestDocumentRoundTrips:
    @pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
    def test_document_round_trip(self, kind):
        # value -> report bytes -> document -> decoder gives the value back
        make, decode, names = ROUND_TRIPS[kind]
        value = make()
        back = decode(loads_document(dumps_report(encode(value))))
        for name in names:
            assert np.array_equal(getattr(back, name), getattr(value, name)), name

    def test_dispatch_by_signature(self):
        S = random_curve()
        assert isinstance(parse_payload(encode(S)), SpectralMatrix)
        assert isinstance(parse_payload(encode(factor_sphere(S))), HoloSphere)
        t = sphere_to_tuple(factor_sphere(S))
        assert isinstance(parse_payload(encode(t)), CoeffTuple)
        assert isinstance(parse_payload({"r0": [1, 0, 0], "r1": [0, 1, 0], "r2": [0, 0, 1]}), Su2Triple)
        assert isinstance(parse_payload({"num": [[1, 0], [0, 1]], "den": [[0, 0], [1, 0]]}), RationalMap)
        with pytest.raises(SchemaError):
            parse_payload({"what": 1})

    def test_loads_payload_reads_text(self):
        S = random_curve()
        back = loads_payload(dumps_report(encode(S)))
        assert isinstance(back, SpectralMatrix) and np.array_equal(back.psi, S.psi)
        with pytest.raises(SchemaError, match="must be a JSON object"):
            loads_payload("[1, 2]")

    def test_extra_keys_tolerated(self):
        doc = encode(random_curve())
        doc["status"] = "ok"
        doc["command"] = "normalize"
        assert curve_from_json(doc).k == 2


class TestSchemaValidation:
    def test_bad_charge(self):
        for bad_k in (0, -1, 1.5, "2", True):
            with pytest.raises(SchemaError):
                curve_from_json({"k": bad_k, "psi": [[[1, 0]]]})

    def test_shape_mismatch(self):
        doc = encode(random_curve(k=2))
        doc["k"] = 3
        with pytest.raises(SchemaError):
            curve_from_json(doc)

    def test_ragged_matrix(self):
        with pytest.raises(SchemaError):
            curve_from_json({"k": 1, "psi": [[[1, 0], [0, 0]], [[0, 0]]]})

    def test_triple_needs_three_reals(self):
        with pytest.raises(SchemaError):
            triple_from_json({"r0": [1, 2], "r1": [0, 0, 0], "r2": [0, 0, 0]})
        with pytest.raises(SchemaError):
            triple_from_json({"r0": [1, 2, "x"], "r1": [0, 0, 0], "r2": [0, 0, 0]})

    def test_ratmap_length_mismatch(self):
        with pytest.raises(SchemaError):
            ratmap_from_json({"num": [[1, 0]], "den": [[1, 0], [0, 0]]})


class TestEncode:
    def test_numpy_scalars_become_python_numbers(self):
        for value, expected in ((np.bool_(True), True), (np.int64(-3), -3), (np.float64(0.25), 0.25)):
            got = encode(value)
            assert got == expected and type(got) is type(expected)

    def test_complex_scalars_become_pairs(self):
        assert encode(1.5 - 2j) == [1.5, -2.0]
        assert encode(np.complex128(-0.5 + 4j)) == [-0.5, 4.0]

    def test_real_array_against_complex_array(self):
        assert encode(np.array([[1.0, -2.0]])) == [[1.0, -2.0]]
        assert encode(np.array([[1.0, -2.0]], dtype=complex)) == [[[1.0, 0.0], [-2.0, 0.0]]]

    def test_tuple_of_sphere_points(self):
        pts = (SpherePoint.of("inf"), SpherePoint.of(0.5 - 2j), SpherePoint.of(0))
        assert encode(pts) == ["inf", [0.5, -2.0], [0.0, 0.0]]

    def test_nested_dataclass(self):
        line = ProjLine(np.array([1.0, 0.0]), np.array([0.0, 1j]))
        report = encode({"line": line, "period": None, "closed": np.bool_(False)})
        assert report == {
            "line": {"u1": [[1.0, 0.0], [0.0, 0.0]], "u2": [[0.0, 0.0], [0.0, 1.0]]},
            "period": None,
            "closed": False,
        }
        assert json.loads(dumps_report(report)) == report

    @pytest.mark.parametrize("bad", [np.float64("inf"), float("-inf"), float("nan")])
    def test_non_finite_report_is_refused(self, bad):
        # the CLI turns this ValueError into a NonFiniteResult report, exit 3
        with pytest.raises(ValueError):
            dumps_report(encode({"mass": bad, "trace": np.array([1.0 + 0j, complex(bad, 0.0)])}))


class TestReportsAndCsv:
    def test_dumps_is_deterministic_and_sorted(self):
        a = dumps_report({"b": 1, "a": [2.5, 3]})
        b = dumps_report({"a": [2.5, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [2.5, 3], "b": 1}

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as fh:
            write_csv(fh, ["x", "y"], [(0.5, 1), (1.0 / 3.0, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "0.5,1"
        assert float(lines[2].split(",")[0]) == 1.0 / 3.0
