"""JSON and CSV interchange for the library's value types.

encode writes every value as JSON: complex numbers travel as [re, im]
pairs, points of P^1 as a pair or the string "inf", arrays as nested
lists and any dataclass as the object of its fields, so the curve is

    {"k": int, "psi": [[[re, im], ...], ...]}

and spheres are {"k", "Q"}, coefficient tuples {"k", "v"}, real
triples {"r0", "r1", "r2"} and rational maps {"num", "den", "scale"}.
The decoders read the same forms back, except points of P^1, which no
document holds.  They are strict about structure (SchemaError on
anything malformed) but tolerate extra keys, so command reports that
extend a payload with diagnostics still re-parse as the payload type.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .charge2 import Su2Triple
from .curves import SpectralMatrix, require_charge
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


def encode(x):
    """The JSON form of x.  Complex numbers (Python or numpy) become
    [re, im], a SpherePoint "inf" or its chart value, an array its
    tolist(), numpy scalars Python numbers, lists and tuples lists,
    dicts and dataclasses objects, entry by entry; anything else is
    left for json.dumps, which refuses a non-finite float."""
    if isinstance(x, SpherePoint):
        return "inf" if x.is_infinity else encode(x.chart)
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.ndarray, np.generic)):
        return encode(x.tolist())
    if isinstance(x, dict):
        return {key: encode(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(value) for value in x]
    if is_dataclass(x):
        return {f.name: encode(getattr(x, f.name)) for f in fields(x)}
    return x


def complex_from_json(obj, name: str = "value") -> complex:
    _require(
        isinstance(obj, (list, tuple)) and len(obj) == 2 and all(_is_number(x) for x in obj),
        f"{name} must be a [re, im] pair of finite numbers, got {obj!r}",
    )
    return complex(float(obj[0]), float(obj[1]))


def vector_from_json(obj, name: str = "vector") -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) > 0, f"{name} must be a non-empty list")
    return np.array([complex_from_json(x, name) for x in obj], dtype=complex)


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) > 0, f"{name} must be a non-empty list of rows")
    rows = [vector_from_json(row, name) for row in obj]
    width = {row.size for row in rows}
    _require(len(width) == 1, f"{name} rows must have equal length")
    return np.stack(rows)


def _read_charge(d: dict) -> int:
    _require("k" in d, "missing charge field 'k'")
    try:
        return require_charge(d["k"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _square_from_json(d: dict, kind: str, field: str) -> tuple[int, np.ndarray]:
    """Charge k and the (k+1) x (k+1) matrix under field of a kind document."""
    _require(isinstance(d, dict), f"{kind} document must be a JSON object")
    k = _read_charge(d)
    _require(field in d, f"missing {kind} field {field!r}")
    m = matrix_from_json(d[field], field)
    _require(m.shape == (k + 1, k + 1), f"{field} must be {(k + 1, k + 1)}, got {m.shape}")
    return k, m


def curve_from_json(d: dict) -> SpectralMatrix:
    return SpectralMatrix(*_square_from_json(d, "curve", "psi"))


def sphere_from_json(d: dict) -> HoloSphere:
    return HoloSphere(*_square_from_json(d, "sphere", "Q"))


def tuple_from_json(d: dict) -> CoeffTuple:
    return CoeffTuple(*_square_from_json(d, "tuple", "v"))


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
