"""Command-line entry point.

One binary, subcommand style.  Input documents are JSON in the formats
of the serialize module, read from --input or stdin; the report JSON
goes to --output or stdout with sorted keys and a fixed layout, so a
repeated job produces identical bytes.  Transform commands (normalize,
factor, center, massless, reconstruct) emit the payload type itself
extended with diagnostic keys, so their output feeds the next command
directly.  Exit status: 0 success, 2 validation failure, 3 numerical
non-convergence.
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
from .boundary import degree_integral, metric_h, reconstruct_psi_from_metric, sample_boundary
from .centering import center_flow, moment_map, norm2
from .charge2 import (
    bracket,
    diagonal_quartic,
    estimate_mass,
    mass_flow_check,
    p_sequence,
    poncelet,
    triple_product,
    z_lattice,
)
from .curves import (
    SpectralMatrix,
    metric_scale_residual,
    nondegeneracy_check,
    normalize_reality,
    positivity_check,
)
from .errors import (
    ConvergenceError,
    NotPositiveDefinite,
    SchemaError,
    ValidationError,
)
from .projective import SpherePoint, folded_vector, proj_roots
from .ratmap import find_line, massless_curve, project_map
from .spheres import factor_sphere, sphere_to_tuple


def _opt(**pairs) -> dict:
    """Keyword arguments for the values that were actually supplied."""
    return {k: v for k, v in pairs.items() if v is not None}


def _finite(x: float):
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _parse_point(text: str, name: str) -> SpherePoint:
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


def cmd_check(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    vals, ok = positivity_check(S, **_opt(tol=args.tol))
    if not ok:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {vals[0]:.6e} of {vals[-1]:.6e}"
        )
    norm = normalize_reality(S, **_opt(tol=args.tol))
    deg = nondegeneracy_check(norm, **_opt(tol=args.tol))
    return {
        "k": S.k,
        "eigenvalues": [float(v) for v in vals],
        "positive_definite": True,
        "determinant": ser.complex_to_json(deg.determinant),
        "condition_estimate": _finite(deg.condition_estimate),
        "degenerate": bool(deg.degenerate),
    }


def cmd_factor(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    norm = normalize_reality(S, **_opt(tol=args.tol))
    return ser.sphere_to_json(factor_sphere(norm, **_opt(tol=args.tol)))


def _boundary_rings(k: int, angles: int):
    for radius in (0.5, 1.0, 2.0):
        for j in range(angles):
            yield radius * np.exp(2j * np.pi * j / angles)


def cmd_boundary(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    value, bound = degree_integral(S, **_opt(tol=args.tol))
    report = {"k": S.k, "degree": float(value), "error_bound": float(bound)}
    if args.csv:
        angles = args.grid or 16
        samples = sample_boundary(S, list(_boundary_rings(S.k, angles)))
        _write_csv_file(
            args.csv,
            ["re_z", "im_z", "h", "re_A_z", "im_A_z", "F_density"],
            [
                (s.z.real, s.z.imag, s.h, s.a_z.real, s.a_z.imag, s.f_density)
                for s in samples
            ],
        )
        report["csv"] = args.csv
        report["samples"] = len(samples)
    return report


def cmd_reconstruct(args) -> dict:
    doc = ser.read_document(args.input)
    if "samples" in doc:
        k, pairs = ser.samples_from_json(doc)
        return ser.curve_to_json(reconstruct_psi_from_metric(pairs, k))
    # Curve input: sample its own boundary metric, then recover.
    S = ser.curve_from_json(doc)
    angles = args.grid or max(6, (S.k + 1) ** 2)
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
    line, iterations = find_line(q, w, **_opt(tol=args.tol, max_iter=args.max_iter))
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
        "iterations": iterations,
    }


def cmd_massless(args) -> dict:
    f = ser.ratmap_from_json(ser.read_document(args.input))
    S = massless_curve(f, **_opt(tol=args.tol))
    return ser.curve_to_json(S)


def _curve_start_point(S: SpectralMatrix, w: SpherePoint):
    """(w, z) on the curve: z the first vertical root over w, ordered
    deterministically (finite points by chart value, infinity last)."""
    roots = proj_roots(folded_vector(w, S.k) @ S.psi)

    def key(p: SpherePoint):
        if p.is_infinity:
            return (1, 0.0, 0.0)
        c = p.chart
        return (0, round(c.real, 12), round(c.imag, 12))

    return w, sorted(roots, key=key)[0]


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
    p0 = _curve_start_point(S, _parse_point(args.w, "--w"))
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
    p0 = _curve_start_point(S, _parse_point(args.w, "--w"))
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
        "edge_incidence_residuals": [float(x) for x in poly.edge_incidence_residuals],
        "tangency_residuals": [float(x) for x in poly.tangency_residuals],
    }


def cmd_charge2_mass(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    mass = estimate_mass(S, **_opt(max_steps=args.max_iter))
    return {"mass": float(mass)}


def cmd_charge2_involution(args) -> dict:
    nu = ser.triple_from_json(ser.read_document(args.input))
    br = bracket(nu)
    flow = mass_flow_check(nu, **_opt(step=args.step))
    return {
        "bracket": ser.triple_to_json(br),
        "triple_product": float(triple_product(nu)),
        "quartic": ser.vector_to_json(diagonal_quartic(nu)),
        "first_order_invariant": bool(flow.first_order_invariant),
        "max_extrapolated": float(flow.max_extrapolated),
        "full": bool(flow.full),
    }


_PROFILES = {"sech": sech_field, "zero-mass": zero_mass_field}


def _field_for(args) -> AxialField:
    return _PROFILES[args.profile]()


def _field_rows(field: AxialField, report, step: float):
    """CSV rows (r, re z, im z, residual, m) with the axis mass per r."""
    masses: dict[float, float] = {}
    for p in report.per_point:
        if p.r not in masses:
            (masses[p.r],) = mass_profile(field, [p.r], step)
        yield (p.r, p.z.real, p.z.imag, p.residual, masses[p.r])


def cmd_field_residual(args) -> dict:
    field = _field_for(args)
    step = args.step if args.step is not None else 1e-3
    n_r = args.grid or 8
    grid = [
        (radius * np.exp(2j * np.pi * j / 4) if radius else 0j, r)
        for r in np.linspace(0.2, 4.0, n_r)
        for radius in (0.0, 1.0, 2.0)
        for j in range(4 if radius else 1)
    ]
    report = bog_residual(field, grid, step)
    if args.csv:
        _write_csv_file(
            args.csv,
            ["r", "re_z", "im_z", "residual", "m"],
            _field_rows(field, report, step),
        )
    return {
        "profile": args.profile,
        "step": step,
        "points": len(report.per_point),
        "max_frobenius": report.max_frobenius,
    }


def cmd_field_mass(args) -> dict:
    field = _field_for(args)
    step = args.step if args.step is not None else 1e-3
    rs = [float(r) for r in np.linspace(0.5, 6.0, args.grid or 12)]
    masses = mass_profile(field, rs, step)
    if args.csv:
        residuals = bog_residual(field, [(0j, r) for r in rs], step)
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
        "step": step,
        "r": rs,
        "m": [float(m) for m in masses],
        "limit_estimate": float(masses[-1]),
    }


def cmd_field_sample(args) -> dict:
    field = _field_for(args)
    step = args.step if args.step is not None else 1e-3
    z = _parse_complex(args.z, "--z")
    sample = gauge_fields(field, z, args.r, step)
    H = H_matrix(field, z, args.r)
    return {
        "profile": args.profile,
        "z": ser.complex_to_json(z),
        "r": float(args.r),
        "step": step,
        "H": ser.matrix_to_json(H),
        "det_H": ser.complex_to_json(np.linalg.det(H)),
        "A_z": ser.matrix_to_json(sample.A_z),
        "A_r": ser.matrix_to_json(sample.A_r),
        "Phi": ser.matrix_to_json(sample.Phi),
        "trace_phi_sq": ser.complex_to_json(sample.trace_phi_sq),
        "derivative_check": float(sample.derivative_check),
    }


def cmd_pipeline(args) -> dict:
    S = ser.curve_from_json(ser.read_document(args.input))
    vals, ok = positivity_check(S, **_opt(tol=args.tol))
    if not ok:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {vals[0]:.6e} of {vals[-1]:.6e}"
        )
    norm = normalize_reality(S)
    q = factor_sphere(norm)
    t = sphere_to_tuple(q)
    mu0 = moment_map(t)
    flow = center_flow(t, **_opt(max_iter=args.max_iter))
    mu1 = moment_map(flow.tuple_centred)
    degree, bound = degree_integral(norm)
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


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input JSON path (default: stdin)")
    common.add_argument("--output", help="report path (default: stdout)")
    common.add_argument("--tol", type=float, help="tolerance override")
    common.add_argument("--max-iter", type=int, dest="max_iter", help="iteration/step budget")
    common.add_argument("--grid", type=int, help="grid resolution")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="monosphere",
        description="Spectral curves, holomorphic spheres and fields of SU(2) hyperbolic monopoles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("normalize", parents=[common]).set_defaults(handler=cmd_normalize)
    sub.add_parser("check", parents=[common]).set_defaults(handler=cmd_check)
    sub.add_parser("factor", parents=[common]).set_defaults(handler=cmd_factor)

    boundary = sub.add_parser("boundary", parents=[common])
    boundary.add_argument("--csv", help="boundary sample CSV path")
    boundary.set_defaults(handler=cmd_boundary)

    sub.add_parser("reconstruct", parents=[common]).set_defaults(handler=cmd_reconstruct)

    center = sub.add_parser("center", parents=[common])
    center.add_argument("--csv", help="flow trace CSV path")
    center.set_defaults(handler=cmd_center)

    ratmap = sub.add_parser("ratmap", parents=[common])
    ratmap.add_argument("--w", required=True, help="boundary point (complex literal or 'inf')")
    ratmap.set_defaults(handler=cmd_ratmap)

    sub.add_parser("massless", parents=[common]).set_defaults(handler=cmd_massless)

    charge2 = sub.add_parser("charge2").add_subparsers(dest="subcommand", required=True)
    lattice = charge2.add_parser("lattice", parents=[common])
    lattice.add_argument("--z0", default="1", help="lattice start (complex literal or 'inf')")
    lattice.set_defaults(handler=cmd_charge2_lattice)
    pseq = charge2.add_parser("pseq", parents=[common])
    pseq.add_argument("--w", default="1", help="starting vertical line")
    pseq.set_defaults(handler=cmd_charge2_pseq)
    ponc = charge2.add_parser("poncelet", parents=[common])
    ponc.add_argument("--w", default="1", help="starting vertical line")
    ponc.add_argument("--csv", help="polygon vertex CSV path")
    ponc.set_defaults(handler=cmd_charge2_poncelet)
    charge2.add_parser("mass", parents=[common]).set_defaults(handler=cmd_charge2_mass)
    involution = charge2.add_parser("involution", parents=[common])
    involution.add_argument("--step", type=float, help="finite-difference step")
    involution.set_defaults(handler=cmd_charge2_involution)

    field = sub.add_parser("field").add_subparsers(dest="subcommand", required=True)
    for name, handler, extra_csv in (
        ("residual", cmd_field_residual, True),
        ("mass", cmd_field_mass, True),
        ("sample", cmd_field_sample, False),
    ):
        leaf = field.add_parser(name, parents=[common])
        leaf.add_argument("--profile", choices=sorted(_PROFILES), default="sech")
        leaf.add_argument("--step", type=float, help="finite-difference step")
        if extra_csv:
            leaf.add_argument("--csv", help="grid CSV path")
        if name == "sample":
            leaf.add_argument("--z", default="0", help="chart point (complex literal)")
            leaf.add_argument("--r", type=float, default=1.0, help="hyperbolic radius")
        leaf.set_defaults(handler=handler)

    sub.add_parser("pipeline", parents=[common]).set_defaults(handler=cmd_pipeline)
    return parser


def _emit(args, report: dict, code: int) -> int:
    """Write the report to --output, or stdout, and return the exit code;
    an unwritable output gives an error report on stdout and exit 2."""
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
        report = args.handler(args)
    except ValidationError as exc:
        return _emit(args, _error_report(args, exc), 2)
    except ConvergenceError as exc:
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
