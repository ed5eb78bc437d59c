"""Command-line entry point.

One binary, subcommand style; each command takes only the flags it
reads.  main makes one pass: it checks every flag (_check_flags), reads
the input document from --input or stdin and decodes it with the
decoder its leaf declares (the field commands read none), runs the
command on the decoded value, and writes the report JSON to --output or
stdout with sorted keys and a fixed layout, so a repeated job produces
identical bytes.  A command returns library values, which
serialize.encode writes once.  Transform commands
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
from .axial import bog_residual, gauge_fields, mass_profile, sech_field, zero_mass_field
from .boundary import degree_integral, fields_at_infinity, metric_h, reconstruct_psi_from_metric
from .centering import center_flow, moment_map, norm2
from .charge2 import (
    PonceletPolygon,
    Su2Triple,
    ZLattice,
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
from .curves import SpectralMatrix, normalize_reality, require_positive_definite
from .errors import ConvergenceError, NonFiniteResult, SchemaError, ValidationError
from .projective import SpherePoint
from .ratmap import RationalMap, find_line, massless_curve, project_map
from .spheres import CoeffTuple, HoloSphere, factor_sphere, sphere_to_tuple


# Largest --grid: the grids are evaluated as whole arrays, so memory
# grows with the grid.
GRID_MAX = 4096


def _opt(**pairs) -> dict:
    """Keyword arguments for the values that were actually supplied."""
    return {k: v for k, v in pairs.items() if v is not None}


def _finite(x: float):
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _parse_point(text: str, name: str) -> SpherePoint:
    """A chart value or 'inf' (SpherePoint.of); a refused text is a SchemaError."""
    try:
        return SpherePoint.of(text)
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from exc


def _check_flags(args) -> None:
    """Refuse a bad flag value (SchemaError) before any document is read,
    in this order: a --tol that is negative or not finite and a
    --max-iter below 0 (0 is legal for both), a boundary --grid without
    --csv, a --grid below 1 or above GRID_MAX, a --r that is not finite,
    a --w, --z0 or --z that is not a point of P^1 and a --z at infinity;
    --w and --z0 are replaced by their points and --z by its chart
    value."""
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise SchemaError(f"--tol must be finite and at least 0, got {tol}")
    max_iter = getattr(args, "max_iter", None)
    if max_iter is not None and max_iter < 0:
        raise SchemaError(f"--max-iter must be at least 0, got {max_iter}")
    grid = getattr(args, "grid", None)
    if grid is not None:
        if args.command == "boundary" and not args.csv:
            raise SchemaError("--grid sets the --csv samples and is not read without --csv")
        if grid < 1:
            raise SchemaError(f"--grid must be at least 1, got {grid}")
        if grid > GRID_MAX:
            raise SchemaError(f"--grid must be at most {GRID_MAX}, got {grid}")
    if hasattr(args, "r") and not math.isfinite(args.r):
        raise SchemaError(f"--r must be finite, got {args.r}")
    for name in ("w", "z0", "z"):
        if hasattr(args, name):
            setattr(args, name, _parse_point(getattr(args, name), f"--{name}"))
    if hasattr(args, "z"):
        if args.z.is_infinity:
            raise SchemaError("--z must be a finite chart value, got the point at infinity")
        args.z = args.z.z1  # not .chart: z1 / (1 + 0j) turns -0.0 into 0.0


def _mu_json(mu) -> dict:
    return {"r": mu.mu_r, "c": mu.mu_c, "magnitude": mu.magnitude}


def _write_csv_file(path: str, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            ser.write_csv(fh, header, rows)
    except OSError as exc:
        raise SchemaError(f"cannot write CSV: {exc}") from exc


# ---------------------------------------------------------------- commands
#
# A handler takes (value, args): value is the document its leaf's decoder
# read (None for the field commands, which read none), and args holds
# the flags _check_flags has passed.  A leaf's own default stands in for
# an absent --grid (args.grid or default); the check refuses 0.


def cmd_normalize(S: SpectralMatrix, args) -> SpectralMatrix:
    return normalize_reality(S, **_opt(tol=args.tol))


def cmd_check(S: SpectralMatrix, args) -> dict:
    spectrum = require_positive_definite(S, **_opt(tol=args.tol))
    return {
        "k": S.k,
        "eigenvalues": spectrum.eigenvalues,
        "determinant": _finite(spectrum.determinant),
        "condition_estimate": _finite(spectrum.condition_estimate),
        "degenerate": spectrum.degenerate,
    }


def cmd_factor(S: SpectralMatrix, args) -> HoloSphere:
    return factor_sphere(S, **_opt(tol=args.tol))


def _boundary_rings(k: int, angles: int):
    """angles equispaced points on each of max(3, k + 1) rings symmetric
    under r -> 1/r: on a ring h has frequencies |m| <= k, which 2k + 2
    angles separate, and the m-th fixes k + 1 - |m| unknowns."""
    for radius in np.geomspace(0.5, 2.0, max(3, k + 1)):
        for j in range(angles):
            yield radius * np.exp(2j * np.pi * j / angles)


def cmd_boundary(S: SpectralMatrix, args) -> dict:
    require_positive_definite(S)  # --tol is the degree tolerance
    value, bound = degree_integral(S, **_opt(tol=args.tol))
    report = {"k": S.k, "degree": value, "error_bound": bound}
    if args.csv:
        z = np.array(list(_boundary_rings(S.k, args.grid or 16)))
        h, a_z, density = fields_at_infinity(S, z)
        _write_csv_file(
            args.csv,
            ["re_z", "im_z", "h", "re_A_z", "im_A_z", "F_density"],
            zip(z.real, z.imag, h, a_z.real, a_z.imag, density),
        )
        report["csv"] = args.csv
        report["samples"] = z.size
    return report


def _reconstruct_input(doc: dict):
    """The charge and (z, h) samples of a samples document, else the curve."""
    return ser.samples_from_json(doc) if "samples" in doc else ser.curve_from_json(doc)


def cmd_reconstruct(data, args) -> SpectralMatrix | dict:
    if not isinstance(data, SpectralMatrix):
        k, pairs = data
        return reconstruct_psi_from_metric(pairs, k)
    # Curve input: gate it, sample its own boundary metric on the 2k + 2
    # angles per ring that separate the frequencies of h, then recover.
    S = data
    require_positive_definite(S)
    z = np.array(list(_boundary_rings(S.k, 2 * S.k + 2)))
    out = reconstruct_psi_from_metric(zip(z, metric_h(S, z)), S.k)
    return {"k": out.k, "psi": out.psi, "max_abs_deviation": np.max(np.abs(out.psi - S.psi))}


def cmd_center(t: CoeffTuple, args) -> dict:
    flow = center_flow(t, **_opt(tol=args.tol, max_iter=args.max_iter))
    centred = flow.tuple_centred
    if args.csv:
        _write_csv_file(args.csv, ["iter", "norm2", "mu_abs"], flow.trace)
    return {
        **vars(centred),
        "iterations": flow.iterations,
        "norm2": norm2(centred),
        "mu": _mu_json(moment_map(centred)),
    }


def cmd_ratmap(q: HoloSphere, args) -> dict:
    line, _ = find_line(q, args.w)
    f = project_map(q, args.w, line)
    return {**vars(f), "w": args.w, "poles": f.poles(), "zeros": f.zeros(), "line": line}


def cmd_massless(f: RationalMap, args) -> SpectralMatrix:
    return massless_curve(f, **_opt(tol=args.tol))


def cmd_charge2_lattice(q: HoloSphere, args) -> ZLattice:
    return z_lattice(q, args.z0, **_opt(max_steps=args.max_iter, tol=args.tol))


def cmd_charge2_pseq(S: SpectralMatrix, args) -> dict:
    p0 = start_point(S, args.w)
    seq = p_sequence(S, p0, **_opt(max_steps=args.max_iter, tol=args.tol))
    return {**vars(seq), "start": p0}


def cmd_charge2_poncelet(S: SpectralMatrix, args) -> PonceletPolygon:
    p0 = start_point(S, args.w)
    poly = poncelet(S, p0, **_opt(max_steps=args.max_iter, tol=args.tol))
    if args.csv:
        _write_csv_file(
            args.csv,
            ["re_u", "im_u", "re_v", "im_v"],
            [(u.real, u.imag, v.real, v.imag) for u, v in poly.vertices],
        )
    return poly


def cmd_charge2_mass(S: SpectralMatrix, args) -> dict:
    return {"mass": estimate_mass(S, **_opt(max_steps=args.max_iter))}


def cmd_charge2_involution(nu: Su2Triple, args) -> dict:
    flow = mass_flow_check(nu)
    return {
        "bracket": bracket(nu),
        "triple_product": triple_product(nu),
        "quartic": diagonal_quartic(nu),
        "first_order_invariant": flow.first_order_invariant,
        "max_derivative": flow.max_derivative,
        "full": flow.full,
    }


_PROFILES = {"sech": sech_field, "zero-mass": zero_mass_field}


def _write_field_csv(path: str, report, masses: dict) -> None:
    """The grid CSV (r, re z, im z, residual, m), m = masses[r] the axis
    mass at the radius of each point."""
    _write_csv_file(
        path,
        ["r", "re_z", "im_z", "residual", "m"],
        [(p.r, p.z.real, p.z.imag, p.residual, masses[p.r]) for p in report.per_point],
    )


def cmd_field_residual(_, args) -> dict:
    field = _PROFILES[args.profile]()
    grid = [
        (radius * np.exp(2j * np.pi * j / 4) if radius else 0j, r)
        for r in np.linspace(0.2, 4.0, args.grid or 8)
        for radius in (0.0, 1.0, 2.0)
        for j in range(4 if radius else 1)
    ]
    report = bog_residual(field, grid)
    if args.csv:
        radii = list(dict.fromkeys(p.r for p in report.per_point))
        _write_field_csv(args.csv, report, dict(zip(radii, mass_profile(field, radii))))
    return {
        "profile": args.profile,
        "points": len(report.per_point),
        "max_frobenius": report.max_frobenius,
    }


def cmd_field_mass(_, args) -> dict:
    field = _PROFILES[args.profile]()
    rs = np.linspace(0.5, 6.0, args.grid or 12).tolist()
    masses = mass_profile(field, rs)
    if args.csv:
        report = bog_residual(field, [(0j, r) for r in rs])
        _write_field_csv(args.csv, report, dict(zip(rs, masses)))
    return {"profile": args.profile, "r": rs, "m": masses, "limit_estimate": masses[-1]}


def cmd_field_sample(_, args) -> dict:
    sample = gauge_fields(_PROFILES[args.profile](), args.z, args.r)
    return {
        **vars(sample),
        "profile": args.profile,
        "z": args.z,
        "r": args.r,
        "det_H": np.linalg.det(sample.H),
    }


def cmd_pipeline(S: SpectralMatrix, args) -> dict:
    spectrum = require_positive_definite(S, **_opt(tol=args.tol))
    q = factor_sphere(spectrum.hermitian, **_opt(tol=args.tol))
    t = sphere_to_tuple(q)
    mu0 = moment_map(t)
    flow = center_flow(t, **_opt(max_iter=args.max_iter))
    mu1 = moment_map(flow.tuple_centred)
    degree, bound = degree_integral(spectrum.hermitian)
    return {
        "k": S.k,
        "eigenvalues": spectrum.eigenvalues,
        "mu_initial": _mu_json(mu0),
        "mu_centred": _mu_json(mu1),
        "norm2_centred": norm2(flow.tuple_centred),
        "center_iterations": flow.iterations,
        "degree_integral": degree,
        "degree_error_bound": bound,
    }


# ---------------------------------------------------------------- wiring


_FLAGS = {
    "--tol": {"type": float, "help": "tolerance override"},
    "--max-iter": {"type": int, "dest": "max_iter", "help": "iteration/step budget"},
    "--grid": {"type": int, "help": f"grid resolution (1 to {GRID_MAX})"},
}


def _leaf(sub, name: str, handler, decode, *flags: str) -> argparse.ArgumentParser:
    """Subcommand running handler on the document that decode reads from
    --input (no --input when decode is None), with --output and exactly
    the shared flags named; any other flag is a usage error."""
    leaf = sub.add_parser(name)
    if decode is not None:
        leaf.add_argument("--input", help="input JSON path (default: stdin)")
    leaf.add_argument("--output", help="report path (default: stdout)")
    for flag in flags:
        leaf.add_argument(flag, **_FLAGS[flag])
    leaf.set_defaults(handler=handler, decode=decode)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monosphere",
        description="Spectral curves, holomorphic spheres and fields of SU(2) hyperbolic monopoles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    curve = ser.curve_from_json

    _leaf(sub, "normalize", cmd_normalize, curve, "--tol")
    _leaf(sub, "check", cmd_check, curve, "--tol")
    _leaf(sub, "factor", cmd_factor, curve, "--tol")
    boundary = _leaf(sub, "boundary", cmd_boundary, curve, "--tol", "--grid")
    boundary.add_argument("--csv", help="boundary sample CSV path")
    _leaf(sub, "reconstruct", cmd_reconstruct, _reconstruct_input)
    center = _leaf(sub, "center", cmd_center, ser.tuple_from_json, "--tol", "--max-iter")
    center.add_argument("--csv", help="flow trace CSV path")
    ratmap = _leaf(sub, "ratmap", cmd_ratmap, ser.sphere_from_json)
    ratmap.add_argument("--w", required=True, help="boundary point (complex literal or 'inf')")
    _leaf(sub, "massless", cmd_massless, ser.ratmap_from_json, "--tol")

    charge2 = sub.add_parser("charge2").add_subparsers(dest="subcommand", required=True)
    lattice = _leaf(charge2, "lattice", cmd_charge2_lattice, ser.sphere_from_json, "--tol", "--max-iter")
    lattice.add_argument("--z0", default="1", help="lattice start (complex literal or 'inf')")
    pseq = _leaf(charge2, "pseq", cmd_charge2_pseq, curve, "--tol", "--max-iter")
    pseq.add_argument("--w", default="1", help="starting vertical line")
    ponc = _leaf(charge2, "poncelet", cmd_charge2_poncelet, curve, "--tol", "--max-iter")
    ponc.add_argument("--w", default="1", help="starting vertical line")
    ponc.add_argument("--csv", help="polygon vertex CSV path")
    _leaf(charge2, "mass", cmd_charge2_mass, curve, "--max-iter")
    _leaf(charge2, "involution", cmd_charge2_involution, ser.triple_from_json)

    field = sub.add_parser("field").add_subparsers(dest="subcommand", required=True)
    residual = _leaf(field, "residual", cmd_field_residual, None, "--grid")
    mass = _leaf(field, "mass", cmd_field_mass, None, "--grid")
    sample = _leaf(field, "sample", cmd_field_sample, None)
    for leaf in (residual, mass, sample):
        leaf.add_argument("--profile", choices=sorted(_PROFILES), default="sech")
    for leaf in (residual, mass):
        leaf.add_argument("--csv", help="grid CSV path")
    sample.add_argument("--z", default="0", help="chart point (finite complex literal)")
    sample.add_argument("--r", type=float, default=1.0, help="hyperbolic radius (finite)")

    _leaf(sub, "pipeline", cmd_pipeline, curve, "--tol", "--max-iter")
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
    args = build_parser().parse_args(argv)
    try:
        # An overflow ends in exit 3, so numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            _check_flags(args)
            value = None if args.decode is None else args.decode(ser.read_document(args.input))
            report = ser.encode(args.handler(value, args))
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
