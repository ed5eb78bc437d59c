"""JSON and CSV interchange for the library's value types.

Complex numbers travel as [re, im] pairs; points of P^1 additionally
admit the string "inf".  The curve format

    {"k": int, "psi": [[[re, im], ...], ...], "normalized": bool}

is the interchange unit consumed and produced by every command;
spheres use {"k", "Q", "canonical"}, coefficient tuples {"k", "v"},
real triples {"r0", "r1", "r2"}, rational maps {"num", "den"}.
Decoders are strict about structure (SchemaError on anything
malformed) but tolerate extra keys, so command reports that extend a
payload with diagnostics still re-parse as the payload type.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .charge2 import Su2Triple
from .curves import SpectralMatrix
from .errors import SchemaError
from .projective import SpherePoint
from .ratmap import RationalMap
from .spheres import CoeffTuple, HoloSphere


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_number(x) -> bool:
    """A finite JSON number: no boolean, NaN, infinity or integer beyond
    the float range (Python compares int and float exactly)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def complex_to_json(c) -> list[float]:
    c = complex(c)
    return [float(c.real), float(c.imag)]


def complex_from_json(obj, name: str = "value") -> complex:
    _require(
        isinstance(obj, (list, tuple)) and len(obj) == 2 and all(_is_number(x) for x in obj),
        f"{name} must be a [re, im] pair of finite numbers, got {obj!r}",
    )
    return complex(float(obj[0]), float(obj[1]))


def vector_to_json(v) -> list[list[float]]:
    return [complex_to_json(c) for c in np.asarray(v, dtype=complex)]


def vector_from_json(obj, name: str = "vector") -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) > 0, f"{name} must be a non-empty list")
    return np.array([complex_from_json(x, name) for x in obj], dtype=complex)


def matrix_to_json(m) -> list[list[list[float]]]:
    return [vector_to_json(row) for row in np.asarray(m, dtype=complex)]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) > 0, f"{name} must be a non-empty list of rows")
    rows = [vector_from_json(row, name) for row in obj]
    width = {row.size for row in rows}
    _require(len(width) == 1, f"{name} rows must have equal length")
    return np.stack(rows)


def point_to_json(p) -> object:
    p = SpherePoint.of(p)
    if p.is_infinity:
        return "inf"
    return complex_to_json(p.chart)


def point_from_json(obj, name: str = "point") -> SpherePoint:
    if isinstance(obj, str):
        _require(obj.strip().lower() in ("inf", "infinity"), f"{name}: unknown token {obj!r}")
        return SpherePoint.of("inf")
    return SpherePoint.of(complex_from_json(obj, name))


def _read_charge(d: dict) -> int:
    _require("k" in d, "missing charge field 'k'")
    k = d["k"]
    _require(isinstance(k, int) and not isinstance(k, bool) and k >= 1, f"k must be an integer >= 1, got {k!r}")
    return k


def _read_flag(d: dict, key: str) -> bool:
    val = d.get(key, False)
    _require(isinstance(val, bool), f"{key} must be a boolean, got {val!r}")
    return val


def curve_to_json(S: SpectralMatrix) -> dict:
    return {
        "k": S.k,
        "psi": matrix_to_json(S.psi),
        "normalized": bool(S.normalized),
        "massless": bool(S.massless),
    }


def curve_from_json(d: dict) -> SpectralMatrix:
    _require(isinstance(d, dict), "curve document must be a JSON object")
    k = _read_charge(d)
    _require("psi" in d, "missing curve field 'psi'")
    psi = matrix_from_json(d["psi"], "psi")
    _require(psi.shape == (k + 1, k + 1), f"psi must be {(k + 1, k + 1)}, got {psi.shape}")
    return SpectralMatrix(k, psi, normalized=_read_flag(d, "normalized"), massless=_read_flag(d, "massless"))


def sphere_to_json(q: HoloSphere) -> dict:
    return {"k": q.k, "Q": matrix_to_json(q.Q), "canonical": bool(q.canonical)}


def sphere_from_json(d: dict) -> HoloSphere:
    _require(isinstance(d, dict), "sphere document must be a JSON object")
    k = _read_charge(d)
    _require("Q" in d, "missing sphere field 'Q'")
    Q = matrix_from_json(d["Q"], "Q")
    _require(Q.shape == (k + 1, k + 1), f"Q must be {(k + 1, k + 1)}, got {Q.shape}")
    try:
        return HoloSphere(k, Q, canonical=_read_flag(d, "canonical"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def tuple_to_json(t: CoeffTuple) -> dict:
    return {"k": t.k, "v": matrix_to_json(t.v)}


def tuple_from_json(d: dict) -> CoeffTuple:
    _require(isinstance(d, dict), "tuple document must be a JSON object")
    k = _read_charge(d)
    _require("v" in d, "missing tuple field 'v'")
    v = matrix_from_json(d["v"], "v")
    _require(v.shape == (k + 1, k + 1), f"v must be {(k + 1, k + 1)}, got {v.shape}")
    return CoeffTuple(k, v)


def triple_to_json(nu: Su2Triple) -> dict:
    return {
        "r0": [float(x) for x in nu.r0],
        "r1": [float(x) for x in nu.r1],
        "r2": [float(x) for x in nu.r2],
    }


def triple_from_json(d: dict) -> Su2Triple:
    _require(isinstance(d, dict), "triple document must be a JSON object")
    vecs = []
    for name in ("r0", "r1", "r2"):
        _require(name in d, f"missing triple field {name!r}")
        v = d[name]
        _require(
            isinstance(v, list) and len(v) == 3 and all(_is_number(x) for x in v),
            f"{name} must be a list of 3 finite real numbers, got {v!r}",
        )
        vecs.append([float(x) for x in v])
    return Su2Triple(*vecs)


def samples_from_json(d: dict) -> tuple[int, list[tuple[complex, float]]]:
    """Charge k and the (z, h) metric samples of a reconstruct document."""
    k = _read_charge(d)
    raw = d["samples"]
    _require(isinstance(raw, list), "'samples' must be a list of [[re, im], h] pairs")
    for entry in raw:
        _require(isinstance(entry, list) and len(entry) == 2, f"bad sample {entry!r}; expected [[re, im], h]")
        _require(_is_number(entry[1]), f"metric value must be a finite number, got {entry[1]!r}")
    return k, [(complex_from_json(z, "sample point"), float(h)) for z, h in raw]


def ratmap_to_json(f: RationalMap) -> dict:
    return {
        "num": vector_to_json(f.num),
        "den": vector_to_json(f.den),
        "scale": complex_to_json(f.scale),
    }


def ratmap_from_json(d: dict) -> RationalMap:
    """Rational map from ascending coefficient lists, renormalized."""
    _require(isinstance(d, dict), "rational map document must be a JSON object")
    for name in ("num", "den"):
        _require(name in d, f"missing rational map field {name!r}")
    num = vector_from_json(d["num"], "num")
    den = vector_from_json(d["den"], "den")
    _require(num.size == den.size, "num and den must have equal length")
    return RationalMap.normalized(num, den)


def parse_payload(d: dict):
    """Dispatch a JSON object to its value type by its key signature."""
    _require(isinstance(d, dict), "input document must be a JSON object")
    if "psi" in d:
        return curve_from_json(d)
    if "Q" in d:
        return sphere_from_json(d)
    if "v" in d:
        return tuple_from_json(d)
    if "r0" in d:
        return triple_from_json(d)
    if "num" in d:
        return ratmap_from_json(d)
    raise SchemaError("unrecognized document: expected one of psi/Q/v/r0/num")


def loads_document(text: str) -> dict:
    """The JSON object in text; SchemaError on invalid JSON or a non-object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "input document must be a JSON object")
    return doc


def read_document(path: str | None) -> dict:
    """The JSON object in the file at path, or on stdin without a path."""
    try:
        text = Path(path).read_text(encoding="utf-8") if path else sys.stdin.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    return loads_document(text)


def loads_payload(text: str):
    return parse_payload(loads_document(text))


def dumps_report(d: dict) -> str:
    """Deterministic bytes: sorted keys, fixed indent, trailing newline."""
    return json.dumps(d, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_csv(handle, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with a header row; floats via repr for lossless round-trip."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
