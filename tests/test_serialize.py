import json

import numpy as np
import pytest

from monosphere.charge2 import Su2Triple
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.errors import SchemaError
from monosphere.ratmap import RationalMap
from monosphere.serialize import (
    complex_from_json,
    complex_to_json,
    curve_from_json,
    curve_to_json,
    dumps_report,
    parse_payload,
    point_from_json,
    point_to_json,
    ratmap_from_json,
    ratmap_to_json,
    sphere_from_json,
    sphere_to_json,
    triple_from_json,
    triple_to_json,
    tuple_from_json,
    tuple_to_json,
    write_csv,
)
from monosphere.spheres import CoeffTuple, HoloSphere, factor_sphere, sphere_to_tuple


def random_curve(seed=11, k=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
    return SpectralMatrix(k, np.conj(A).T @ A + (k + 2) * np.eye(k + 1), normalized=True)


class TestComplexAndPoints:
    def test_complex_round_trip(self):
        c = 1.25 - 3.5j
        assert complex_from_json(complex_to_json(c)) == c

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

    def test_point_infinity_token(self):
        p = point_from_json("inf")
        assert p.is_infinity
        assert point_to_json(p) == "inf"

    def test_point_finite_round_trip(self):
        p = point_from_json([0.5, -2.0])
        assert point_to_json(p) == [0.5, -2.0]

    def test_point_unknown_token(self):
        with pytest.raises(SchemaError):
            point_from_json("nan")


class TestDocumentRoundTrips:
    def test_curve(self):
        S = random_curve()
        back = curve_from_json(curve_to_json(S))
        assert back.k == S.k and back.normalized == S.normalized
        assert np.array_equal(back.psi, S.psi)

    def test_massless_flag_travels(self):
        S = axial_spectral(2, 0.0)
        assert curve_from_json(curve_to_json(S)).massless

    def test_sphere(self):
        q = factor_sphere(random_curve())
        back = sphere_from_json(sphere_to_json(q))
        assert back.canonical and np.array_equal(back.Q, q.Q)

    def test_tuple(self):
        t = sphere_to_tuple(factor_sphere(random_curve()))
        back = tuple_from_json(tuple_to_json(t))
        assert np.array_equal(back.v, t.v)

    def test_triple(self):
        nu = Su2Triple([1.0, 2.0, 3.0], [0.5, -1.0, 0.0], [0.0, 0.25, -2.0])
        back = triple_from_json(triple_to_json(nu))
        assert np.array_equal(back.stack(), nu.stack())

    def test_ratmap(self):
        f = RationalMap.normalized([1.0, 2.0, 1.0], [1.0, 0.0, -1.0])
        back = ratmap_from_json(ratmap_to_json(f))
        assert np.allclose(back.num, f.num) and np.allclose(back.den, f.den)

    def test_dispatch_by_signature(self):
        S = random_curve()
        assert isinstance(parse_payload(curve_to_json(S)), SpectralMatrix)
        assert isinstance(parse_payload(sphere_to_json(factor_sphere(S))), HoloSphere)
        t = sphere_to_tuple(factor_sphere(S))
        assert isinstance(parse_payload(tuple_to_json(t)), CoeffTuple)
        with pytest.raises(SchemaError):
            parse_payload({"what": 1})

    def test_extra_keys_tolerated(self):
        doc = curve_to_json(random_curve())
        doc["status"] = "ok"
        doc["command"] = "normalize"
        assert curve_from_json(doc).k == 2


class TestSchemaValidation:
    def test_bad_charge(self):
        for bad_k in (0, -1, 1.5, "2", True):
            with pytest.raises(SchemaError):
                curve_from_json({"k": bad_k, "psi": [[[1, 0]]]})

    def test_shape_mismatch(self):
        doc = curve_to_json(random_curve(k=2))
        doc["k"] = 3
        with pytest.raises(SchemaError):
            curve_from_json(doc)

    def test_ragged_matrix(self):
        with pytest.raises(SchemaError):
            curve_from_json({"k": 1, "psi": [[[1, 0], [0, 0]], [[0, 0]]]})

    def test_false_canonical_claim(self):
        q = HoloSphere(1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        doc = sphere_to_json(q)
        doc["canonical"] = True
        with pytest.raises(SchemaError):
            sphere_from_json(doc)

    def test_triple_needs_three_reals(self):
        with pytest.raises(SchemaError):
            triple_from_json({"r0": [1, 2], "r1": [0, 0, 0], "r2": [0, 0, 0]})
        with pytest.raises(SchemaError):
            triple_from_json({"r0": [1, 2, "x"], "r1": [0, 0, 0], "r2": [0, 0, 0]})

    def test_ratmap_length_mismatch(self):
        with pytest.raises(SchemaError):
            ratmap_from_json({"num": [[1, 0]], "den": [[1, 0], [0, 0]]})


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
