"""Command-line entry point.

One binary, subcommand style; each command takes only the flags it
reads.  Input documents are JSON in the formats of the serialize
module, read from --input or stdin (the field commands take none); the
report JSON goes to --output or stdout with sorted keys and a fixed
layout, so a repeated job produces identical bytes.  Transform commands
(normalize, factor, center, massless, reconstruct) emit the payload
type itself extended with diagnostic keys, so their output feeds the
next command directly.  Exit status: 0 success, 2 validation failure,
3 numerical non-convergence or overflow.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import serialize as ser
from .axial import (
    AxialField,
    H_matrix,
    bog_residual,
    gauge_fields,
    mass_profile,
    sech_field,
    zero_mass_field,
)
from .boundary import (
    connection_at_infinity,
    curvature_density,
    degree_integral,
    metric_h,
    reconstruct_psi_from_metric,
)
from .centering import center_flow, moment_map, norm2
from .charge2 import (
    bracket,
    diagonal_quartic,
    estimate_mass,
    mass_flow_check,
    p_sequence,
    poncelet,
    start_point,
    triple_product,
    z_lattice,
)
from .curves import (
    SpectralMatrix,
    hermitian_part,
    nondegeneracy_check,
    normalize_reality,
    require_positive_definite,
)
from .errors import ConvergenceError, NonFiniteResult, SchemaError, ValidationError
from .projective import SpherePoint
from .ratmap import find_line, massless_curve, project_map
from .spheres import factor_sphere, sphere_to_tuple


def _opt(**pairs) -> dict:
    """Keyword arguments for the values that were actually supplied."""
    return {k: v for k, v in pairs.items() if v is not None}


def _finite(x: float):
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _grid(args, default: int) -> int:
    """--grid, or default when it is not given; below 1 is a SchemaError."""
    if args.grid is None:
        return default
    if args.grid < 1:
        raise SchemaError(f"--grid must be at least 1, got {args.grid}")
    return args.grid


def _parse_point(text: str, name: str) -> SpherePoint:
    """A chart value or 'inf'; an infinite part is the point at infinity,
    and a NaN part, which a complex literal spells only as 'nan', is a
    SchemaError."""
    if "nan" in text.lower():
        raise SchemaError(f"{name}: not a number: {text!r}")
    try:
        return SpherePoint.of(text)
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from exc


def _parse_complex(text: str, name: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise SchemaError(f"{name}: not a complex literal: {text!r}") from exc


def _mu_json(mu) -> dict:
    return {
        "r": float(mu.mu_r),
        "c": ser.complex_to_json(mu.mu_c),
        "magnitude": float(mu.magnitude),
    }


def _write_csv_file(path: str, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            ser.write_csv(fh, header, rows)
    except OSError as exc:
        raise SchemaError(f"cannot write CSV: {exc}") from exc


# ---------------------------------------------------------------- commands


def cmd_normalize(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    out = normalize_reality(S, **_opt(tol=args.tol))
    return ser.curve_to_json(out)


def _gated_curve(args) -> tuple[np.ndarray, SpectralMatrix]:
    """Eigenvalues and Hermitian part of the input curve, which must pass
    the positive-definite gate; a rotated curve goes through normalize."""
    S = ser.curve_from_json(ser.read_document(args.input))
    vals = require_positive_definite(S, **_opt(tol=args.tol))
    return vals, SpectralMatrix(S.k, hermitian_part(S.psi))


def cmd_check(args) -> dict:
    vals, S = _gated_curve(args)
    deg = nondegeneracy_check(S, **_opt(tol=args.tol))
    return {
        "k": S.k,
        "eigenvalues": [float(v) for v in vals],
        "determinant": ser.complex_to_json(deg.determinant),
        "condition_estimate": _finite(deg.condition_estimate),
        "degenerate": bool(deg.degenerate),
    }


def cmd_factor(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    return ser.sphere_to_json(factor_sphere(S, **_opt(tol=args.tol)))


def _boundary_rings(k: int, angles: int):
    """Points on max(3, k + 1) rings symmetric under r -> 1/r: on a ring
    h has frequencies |m| <= k, and the m-th fixes k + 1 - |m| unknowns."""
    for radius in np.geomspace(0.5, 2.0, max(3, k + 1)):
        for j in range(angles):
            yield radius * np.exp(2j * np.pi * j / angles)


def cmd_boundary(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    require_positive_definite(S)  # --tol is the degree tolerance
    value, bound = degree_integral(S, **_opt(tol=args.tol))
    report = {"k": S.k, "degree": float(value), "error_bound": float(bound)}
    if args.csv:
        z = np.array(list(_boundary_rings(S.k, _grid(args, 16))))
        a_z = connection_at_infinity(S, z)
        _write_csv_file(
            args.csv,
            ["re_z", "im_z", "h", "re_A_z", "im_A_z", "F_density"],
            zip(z.real, z.imag, metric_h(S, z), a_z.real, a_z.imag, curvature_density(S, z)),
        )
        report["csv"] = args.csv
        report["samples"] = z.size
    return report


def cmd_reconstruct(args) -> dict:
    doc = ser.read_document(args.input)
    if "samples" in doc:
        k, pairs = ser.samples_from_json(doc)
        return ser.curve_to_json(reconstruct_psi_from_metric(pairs, k))
    # Curve input: gate it, sample its own boundary metric, then recover.
    S = ser.curve_from_json(doc)
    require_positive_definite(S)
    angles = _grid(args, max(6, (S.k + 1) ** 2))
    pts = list(_boundary_rings(S.k, angles))
    pairs = list(zip(pts, metric_h(S, np.array(pts))))
    out = reconstruct_psi_from_metric(pairs, S.k)
    result = ser.curve_to_json(out)
    result["max_abs_deviation"] = float(np.max(np.abs(out.psi - S.psi)))
    return result


def cmd_center(args) -> dict:
    t = ser.tuple_from_json(ser.read_document(args.input))
    flow = center_flow(t, **_opt(tol=args.tol, max_iter=args.max_iter))
    centred = flow.tuple_centred
    if args.csv:
        _write_csv_file(
            args.csv,
            ["iter", "norm2", "mu_abs"],
            [(int(i), float(n), float(m)) for i, n, m in flow.trace],
        )
    result = ser.tuple_to_json(centred)
    result["iterations"] = flow.iterations
    result["norm2"] = norm2(centred)
    result["mu"] = _mu_json(moment_map(centred))
    return result


def cmd_ratmap(args) -> dict:
    q = ser.sphere_from_json(ser.read_document(args.input))
    w = _parse_point(args.w, "--w")
    line, _ = find_line(q, w)
    f = project_map(q, w, line)
    return {
        "w": ser.point_to_json(w),
        "num": ser.vector_to_json(f.num),
        "den": ser.vector_to_json(f.den),
        "scale": ser.complex_to_json(f.scale),
        "poles": [ser.point_to_json(p) for p in f.poles()],
        "zeros": [ser.point_to_json(p) for p in f.zeros()],
        "line": {
            "u1": ser.vector_to_json(line.u1),
            "u2": ser.vector_to_json(line.u2),
        },
    }


def cmd_massless(args) -> dict:
    f = ser.ratmap_from_json(ser.read_document(args.input))
    S = massless_curve(f, **_opt(tol=args.tol))
    return ser.curve_to_json(S)


def cmd_charge2_lattice(args) -> dict:
    q = ser.sphere_from_json(ser.read_document(args.input))
    z0 = _parse_point(args.z0, "--z0")
    lat = z_lattice(q, z0, **_opt(max_steps=args.max_iter, tol=args.tol))
    return {
        "points": [ser.point_to_json(p) for p in lat.points],
        "closed": bool(lat.closed),
        "period": lat.period,
        "initial_roots": [ser.point_to_json(p) for p in lat.initial_roots],
    }


def cmd_charge2_pseq(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    p0 = start_point(S, _parse_point(args.w, "--w"))
    seq = p_sequence(S, p0, **_opt(max_steps=args.max_iter, tol=args.tol))
    return {
        "start": [ser.point_to_json(p0[0]), ser.point_to_json(p0[1])],
        "points": [
            [ser.point_to_json(w), ser.point_to_json(z)] for w, z in seq.points
        ],
        "closed": bool(seq.closed),
        "period": seq.period,
        "max_residual": float(seq.max_residual),
    }


def cmd_charge2_poncelet(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    p0 = start_point(S, _parse_point(args.w, "--w"))
    poly = poncelet(S, p0, **_opt(steps=args.max_iter, tol=args.tol))
    if args.csv:
        _write_csv_file(
            args.csv,
            ["re_u", "im_u", "re_v", "im_v"],
            [(u.real, u.imag, v.real, v.imag) for u, v in poly.vertices],
        )
    return {
        "vertices": [
            [ser.complex_to_json(u), ser.complex_to_json(v)] for u, v in poly.vertices
        ],
        "conic": ser.vector_to_json(poly.conic),
        "closed": bool(poly.closed),
        "vertex_residuals": [float(x) for x in poly.vertex_residuals],
    }


def cmd_charge2_mass(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    mass = estimate_mass(S, **_opt(max_steps=args.max_iter))
    return {"mass": float(mass)}


def cmd_charge2_involution(args) -> dict:
    nu = ser.triple_from_json(ser.read_document(args.input))
    br = bracket(nu)
    flow = mass_flow_check(nu)
    return {
        "bracket": ser.triple_to_json(br),
        "triple_product": float(triple_product(nu)),
        "quartic": ser.vector_to_json(diagonal_quartic(nu)),
        "first_order_invariant": bool(flow.first_order_invariant),
        "max_derivative": float(flow.max_derivative),
        "full": bool(flow.full),
    }


_PROFILES = {"sech": sech_field, "zero-mass": zero_mass_field}


def _field_for(args) -> AxialField:
    return _PROFILES[args.profile]()


def _field_rows(field: AxialField, report):
    """CSV rows (r, re z, im z, residual, m) with the axis mass per r."""
    masses: dict[float, float] = {}
    for p in report.per_point:
        if p.r not in masses:
            (masses[p.r],) = mass_profile(field, [p.r])
        yield (p.r, p.z.real, p.z.imag, p.residual, masses[p.r])


def cmd_field_residual(args) -> dict:
    field = _field_for(args)
    grid = [
        (radius * np.exp(2j * np.pi * j / 4) if radius else 0j, r)
        for r in np.linspace(0.2, 4.0, _grid(args, 8))
        for radius in (0.0, 1.0, 2.0)
        for j in range(4 if radius else 1)
    ]
    report = bog_residual(field, grid)
    if args.csv:
        _write_csv_file(
            args.csv,
            ["r", "re_z", "im_z", "residual", "m"],
            _field_rows(field, report),
        )
    return {
        "profile": args.profile,
        "points": len(report.per_point),
        "max_frobenius": report.max_frobenius,
    }


def cmd_field_mass(args) -> dict:
    field = _field_for(args)
    rs = [float(r) for r in np.linspace(0.5, 6.0, _grid(args, 12))]
    masses = mass_profile(field, rs)
    if args.csv:
        residuals = bog_residual(field, [(0j, r) for r in rs])
        _write_csv_file(
            args.csv,
            ["r", "re_z", "im_z", "residual", "m"],
            [
                (r, 0.0, 0.0, p.residual, m)
                for r, p, m in zip(rs, residuals.per_point, masses)
            ],
        )
    return {
        "profile": args.profile,
        "r": rs,
        "m": [float(m) for m in masses],
        "limit_estimate": float(masses[-1]),
    }


def cmd_field_sample(args) -> dict:
    field = _field_for(args)
    z = _parse_complex(args.z, "--z")
    sample = gauge_fields(field, z, args.r)
    H = H_matrix(field, z, args.r)
    return {
        "profile": args.profile,
        "z": ser.complex_to_json(z),
        "r": float(args.r),
        "H": ser.matrix_to_json(H),
        "det_H": ser.complex_to_json(np.linalg.det(H)),
        "A_z": ser.matrix_to_json(sample.A_z),
        "A_r": ser.matrix_to_json(sample.A_r),
        "Phi": ser.matrix_to_json(sample.Phi),
        "trace_phi_sq": ser.complex_to_json(sample.trace_phi_sq),
    }


def cmd_pipeline(args) -> dict:
    vals, S = _gated_curve(args)
    q = factor_sphere(S)
    t = sphere_to_tuple(q)
    mu0 = moment_map(t)
    flow = center_flow(t, **_opt(max_iter=args.max_iter))
    mu1 = moment_map(flow.tuple_centred)
    degree, bound = degree_integral(S)
    return {
        "k": S.k,
        "eigenvalues": [float(v) for v in vals],
        "mu_initial": _mu_json(mu0),
        "mu_centred": _mu_json(mu1),
        "norm2_centred": norm2(flow.tuple_centred),
        "center_iterations": flow.iterations,
        "degree_integral": float(degree),
        "degree_error_bound": float(bound),
    }


# ---------------------------------------------------------------- wiring


_FLAGS = {
    "--tol": {"type": float, "help": "tolerance override"},
    "--max-iter": {"type": int, "dest": "max_iter", "help": "iteration/step budget"},
    "--grid": {"type": int, "help": "grid resolution (at least 1)"},
}


def _leaf(sub, name: str, handler, *flags: str, document: bool = True) -> argparse.ArgumentParser:
    """Subcommand running handler with --output, --input when it reads a
    document, and exactly the shared flags named; any other flag is a
    usage error."""
    leaf = sub.add_parser(name)
    if document:
        leaf.add_argument("--input", help="input JSON path (default: stdin)")
    leaf.add_argument("--output", help="report path (default: stdout)")
    for flag in flags:
        leaf.add_argument(flag, **_FLAGS[flag])
    leaf.set_defaults(handler=handler)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monosphere",
        description="Spectral curves, holomorphic spheres and fields of SU(2) hyperbolic monopoles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _leaf(sub, "normalize", cmd_normalize, "--tol")
    _leaf(sub, "check", cmd_check, "--tol")
    _leaf(sub, "factor", cmd_factor, "--tol")
    boundary = _leaf(sub, "boundary", cmd_boundary, "--tol", "--grid")
    boundary.add_argument("--csv", help="boundary sample CSV path")
    _leaf(sub, "reconstruct", cmd_reconstruct, "--grid")
    center = _leaf(sub, "center", cmd_center, "--tol", "--max-iter")
    center.add_argument("--csv", help="flow trace CSV path")
    ratmap = _leaf(sub, "ratmap", cmd_ratmap)
    ratmap.add_argument("--w", required=True, help="boundary point (complex literal or 'inf')")
    _leaf(sub, "massless", cmd_massless, "--tol")

    charge2 = sub.add_parser("charge2").add_subparsers(dest="subcommand", required=True)
    lattice = _leaf(charge2, "lattice", cmd_charge2_lattice, "--tol", "--max-iter")
    lattice.add_argument("--z0", default="1", help="lattice start (complex literal or 'inf')")
    pseq = _leaf(charge2, "pseq", cmd_charge2_pseq, "--tol", "--max-iter")
    pseq.add_argument("--w", default="1", help="starting vertical line")
    ponc = _leaf(charge2, "poncelet", cmd_charge2_poncelet, "--tol", "--max-iter")
    ponc.add_argument("--w", default="1", help="starting vertical line")
    ponc.add_argument("--csv", help="polygon vertex CSV path")
    _leaf(charge2, "mass", cmd_charge2_mass, "--max-iter")
    _leaf(charge2, "involution", cmd_charge2_involution)

    field = sub.add_parser("field").add_subparsers(dest="subcommand", required=True)
    residual = _leaf(field, "residual", cmd_field_residual, "--grid", document=False)
    mass = _leaf(field, "mass", cmd_field_mass, "--grid", document=False)
    sample = _leaf(field, "sample", cmd_field_sample, document=False)
    for leaf in (residual, mass, sample):
        leaf.add_argument("--profile", choices=sorted(_PROFILES), default="sech")
    for leaf in (residual, mass):
        leaf.add_argument("--csv", help="grid CSV path")
    sample.add_argument("--z", default="0", help="chart point (complex literal)")
    sample.add_argument("--r", type=float, default=1.0, help="hyperbolic radius")

    _leaf(sub, "pipeline", cmd_pipeline, "--tol", "--max-iter")
    return parser


def _emit(args, report: dict, code: int) -> int:
    """Write the report to --output, or stdout, and return the exit code;
    an unwritable output gives an error report on stdout and exit 2, and
    a report holding a non-finite number (an overflow) an error report
    and exit 3."""
    try:
        text = ser.dumps_report(report)
    except ValueError as exc:
        error = NonFiniteResult(f"report holds a non-finite number: {exc}")
        report, code = _error_report(args, error), 3
        text = ser.dumps_report(report)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            error = SchemaError(f"cannot write output: {exc}")
            sys.stdout.write(ser.dumps_report(_error_report(args, error)))
            return 2
    else:
        sys.stdout.write(text)
    return code


def _command_name(args) -> str:
    name = getattr(args, "command", "?")
    subname = getattr(args, "subcommand", None)
    return f"{name} {subname}" if subname else name


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # An overflow ends in exit 3, so numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            report = args.handler(args)
    except ValidationError as exc:
        return _emit(args, _error_report(args, exc), 2)
    except (ConvergenceError, np.linalg.LinAlgError, OverflowError) as exc:
        # LAPACK failures, such as an SVD that does not converge on
        # overflowed entries, and overflow in math functions such as cosh
        return _emit(args, _error_report(args, exc), 3)
    report.setdefault("command", _command_name(args))
    report.setdefault("status", "ok")
    return _emit(args, report, 0)


def _error_report(args, exc: Exception) -> dict:
    return {
        "command": _command_name(args),
        "status": "error",
        "error": {"code": type(exc).__name__, "message": str(exc)},
    }


if __name__ == "__main__":
    sys.exit(main())
