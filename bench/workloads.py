"""The four workloads: seeded inputs, operations and independent output checks.

Each workload yields rounds of operations.  Round ``r`` draws its inputs
from ``numpy.random.default_rng([seed, r])``, so a seed fixes every
input and a run always attempts whole rounds of the same operations.
An operation is a closed-loop call made by a single caller; its output
is checked afterwards, outside the timed region, against numpy code
written here or against a property the method must have, never against
stored output of the library.

Three faults of the library fail on every attempt and stay in the
rounds as counted failures, on inputs that do not depend on the seed
(``Op.fault`` names the exception): ``find_line`` on the unmoved axial
sphere at k = 24 and 32 and on one fixed random curve at k = 32 with
|w| = 2, ``center_flow`` on the moved axial k = 32 tuple, and
``monosphere reconstruct`` on a curve of charge 3.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from monosphere import (
    axial_spectral,
    bog_residual,
    bracket,
    center_flow,
    degree_integral,
    estimate_mass,
    factor_sphere,
    find_line,
    mass_flow_check,
    mass_profile,
    normalize_reality,
    p_sequence,
    poncelet,
    positivity_check,
    project_map,
    Su2Triple,
    sech_field,
    spectral_slice,
    sphere_to_tuple,
    triple_product,
    tuple_to_sphere,
    z_lattice,
    zero_mass_field,
)
from monosphere.curves import SpectralMatrix
from monosphere.spheres import CoeffTuple, HoloSphere

EPS = np.finfo(float).eps
AXIAL_MASS = 0.5
# Fixed SL(2) move of the axial tuples in large-charge, rescaled to det 1.
MOVE = np.array([[1.5, 0.3], [0.1, 0.8]], dtype=complex) / math.sqrt(1.5 * 0.8 - 0.3 * 0.1)
# Boundary point of the projection for the fixed (axial) inputs; at this
# point find_line fails on the axial sphere at k = 24 and 32.
AXIAL_W = 0.3 + 0.2j
# Largest |w| of a seeded projection point.  For |w| >= 1 find_line
# raises DegenerateZeros on some seeded random curves at every k >= 16,
# a failure that depends on the seed and so cannot be counted steadily.
LINE_W_MAX = 0.6
# Instead one fixed random curve (from a constant seed, not the
# workload's) at k = 32 and |w| = 2 carries that fault: find_line raises
# DegenerateZeros on it at the first sweep, with a singular-value ratio
# of 3e-25 against the 1e-10 test.
FIXED_FAULT_SEED = 20262
FIXED_FAULT_W = -2j
CHARGE2_MASSES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# The CLI's field residual grid: 8 radii x (axis + 4 points at |z| = 1 and 2).
FIELD_GRID = [
    (radius * np.exp(2j * np.pi * j / 4) if radius else 0j, float(r))
    for r in np.linspace(0.2, 4.0, 8)
    for radius in (0.0, 1.0, 2.0)
    for j in range(4 if radius else 1)
]
PROFILE_RADII = [float(r) for r in np.linspace(0.5, 6.0, 12)]
# Round index of the warm-up inputs, apart from every measured round.
WARMUP_ROUND = 1 << 40


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``run(tracer)`` is timed, ``check(result)`` is not."""

    kind: str
    run: Callable
    check: Callable
    fault: str | None = None


# ------------------------------------------------------------ numpy oracles


def round_rng(seed: int, r: int):
    """Generator of round r's inputs; any integer seed is accepted."""
    return np.random.default_rng([seed % (1 << 64), r])


def random_psi(rng, k: int) -> np.ndarray:
    """Seeded positive-definite Psi = A A* + (k+1) I, A complex Gaussian."""
    A = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    return A @ A.conj().T + (k + 1) * np.eye(k + 1)


def random_point(rng, rmax: float = 2.0) -> complex:
    """Point of the z chart with modulus in [0.2, rmax]."""
    return complex(rng.uniform(0.2, rmax) * np.exp(2j * np.pi * rng.uniform()))


def vander(p, k: int) -> np.ndarray:
    """(1, z, ..., z^k) at a chart value, e_k at infinity."""
    if getattr(p, "is_infinity", False):
        v = np.zeros(k + 1, dtype=complex)
        v[k] = 1.0
        return v
    z = p.chart if hasattr(p, "chart") else complex(p)
    return z ** np.arange(k + 1)


def binom_weights(k: int) -> np.ndarray:
    return np.sqrt([float(math.comb(k, j)) for j in range(k + 1)])


def act_binomial(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tuple rows v_j moved by g = [[a, b], [c, d]], expanded binomially.

    q(z) = sum_j sqrt(C(k,j)) v_j z^j goes to
    sum_j (c z + d)^(k-j) (a z + b)^j sqrt(C(k,j)) v_j.
    """
    (a, b), (c, d) = g
    k = v.shape[0] - 1
    P = np.empty((k + 1, k + 1), dtype=complex)
    for j in range(k + 1):
        down = [math.comb(k - j, p) * c**p * d ** (k - j - p) for p in range(k - j + 1)]
        up = [math.comb(j, p) * a**p * b ** (j - p) for p in range(j + 1)]
        P[j] = np.convolve(down, up)
    w = binom_weights(k)
    return ((v.T * w) @ P / w).T


def moment(v: np.ndarray) -> tuple[float, float]:
    """(|mu|, norm2) from the moment map's defining formula."""
    k = v.shape[0] - 1
    sq = np.sum(np.abs(v) ** 2, axis=1)
    mu_r = float(np.sum((2.0 * np.arange(k + 1) - k) * sq))
    j = np.arange(k)
    mu_c = complex(np.sum(np.sqrt((j + 1.0) * (k - j)) * np.sum(np.conj(v[:-1]) * v[1:], axis=1)))
    return math.sqrt(mu_r**2 + 2.0 * abs(mu_c) ** 2), float(np.sum(sq))


def sphere_factor(psi: np.ndarray) -> np.ndarray:
    """Upper-triangular Q with Psi = conj(Q)^T Q."""
    return np.linalg.cholesky(psi).conj().T


def vertical_root(psi: np.ndarray, w: complex) -> complex:
    """A root z of psi(w, z) = sum Psi[i, j] (-1/w)^i z^j (smallest real part)."""
    k = psi.shape[0] - 1
    c = ((-1.0 / w) ** np.arange(k + 1)) @ psi
    roots = np.roots(c[::-1])
    return complex(roots[np.lexsort((roots.imag, roots.real))][0])


def curve_residual(psi: np.ndarray, w, z) -> float:
    """|psi(w, z)| at unit homogeneous representatives over ||Psi||.

    psi(w, z) = sum Psi[i, j] (-1/w)^i z^j; times w^k it is homogeneous
    in w = (w0 : w1) with coefficients (-1)^i w0^i w1^(k-i).
    """
    k = psi.shape[0] - 1
    w0, w1 = (0.0, 1.0) if w.is_infinity else (1.0, w.chart)
    fw = np.array([(-1.0) ** i * w0**i * w1 ** (k - i) for i in range(k + 1)])
    vz = vander(z, k)
    return abs(fw @ psi @ vz) / (np.linalg.norm(fw) * np.linalg.norm(psi, 2) * np.linalg.norm(vz))


def check_slice(psi: np.ndarray, w: complex, points, k: int, what: str) -> None:
    """k points z_i with |v(w)^H Psi v(z_i)| <= 1e-8 |v(w)| |Psi| |v(z_i)|."""
    require(len(points) == k, f"{what}: {len(points)} points, expected {k}")
    vw = vander(w, k)
    scale = np.linalg.norm(psi, 2) * np.linalg.norm(vw)
    for p in points:
        vz = vander(p, k)
        res = abs(vw.conj() @ psi @ vz)
        require(res <= 1e-8 * scale * np.linalg.norm(vz), f"{what}: slice residual {res:.3e} at {p}")


# ------------------------------------------------------------ pipeline chain


@dataclass
class ChainResult:
    psi: np.ndarray  # matrix whose slice the poles must lie on
    tuple_in: np.ndarray
    eigenvalues: np.ndarray | None
    positive: bool | None
    Q: np.ndarray | None
    flow: object
    degree: tuple | None
    poles: list
    slice_roots: list


def chain_from_curve(tr, psi: np.ndarray, w: complex, degree: bool) -> ChainResult:
    """positivity -> normalize -> factor -> tuple -> centre [-> degree] -> line -> map -> slice."""
    k = psi.shape[0] - 1
    S = SpectralMatrix(k, psi)
    vals, ok = tr.call("curves.positivity_check", positivity_check, S)
    N = tr.call("curves.normalize_reality", normalize_reality, S)
    q = tr.call("spheres.factor_sphere", factor_sphere, N)
    t = tr.call("spheres.sphere_to_tuple", sphere_to_tuple, q)
    flow = tr.call("centering.center_flow", center_flow, t)
    tr.count("centering.flow_iterations", flow.iterations)
    deg = None
    if degree:
        deg = tr.call("boundary.degree_integral", degree_integral, N)
        tr.count("boundary.degree_error_bound", deg[1])
    poles, roots = _project(tr, q, w)
    return ChainResult(N.psi, t.v, vals, ok, q.Q, flow, deg, poles, roots)


def chain_from_tuple(tr, v: np.ndarray, w: complex) -> ChainResult:
    """centre -> sphere of the centred tuple -> line -> map -> slice."""
    k = v.shape[0] - 1
    flow = tr.call("centering.center_flow", center_flow, CoeffTuple(k, v))
    tr.count("centering.flow_iterations", flow.iterations)
    q = tr.call("spheres.tuple_to_sphere", tuple_to_sphere, flow.tuple_centred)
    poles, roots = _project(tr, q, w)
    return ChainResult(q.Q.conj().T @ q.Q, v, None, None, None, flow, None, poles, roots)


def _project(tr, q: HoloSphere, w: complex):
    line, sweeps = tr.call("ratmap.find_line", find_line, q, w)
    tr.count("ratmap.line_sweeps", sweeps)
    f = tr.call("ratmap.project_map", project_map, q, w, line)
    poles = tr.call("ratmap.poles", f.poles)
    roots = tr.call("ratmap.spectral_slice", spectral_slice, q, w)
    return poles, roots


# Relative agreement of the centred tuple with g . input.  The flow
# composes up to a few hundred rounded steps and the expansion here
# rounds differently; the two agree to 1e-13 at k = 32.
ACT_TOL = 1e-10


def check_chain(res: ChainResult, w: complex) -> None:
    psi = res.psi
    k = psi.shape[0] - 1
    scale = np.linalg.norm(psi, 2)
    if res.eigenvalues is not None:
        ref = np.linalg.eigvalsh(psi)
        require(res.positive is True, "positivity_check: not positive definite")
        require(np.max(np.abs(res.eigenvalues - ref)) <= 1e-10 * scale, "positivity_check: eigenvalues")
    if res.Q is not None:
        Q = res.Q
        require(np.linalg.norm(Q.conj().T @ Q - psi) <= 1e-10 * np.linalg.norm(psi), "factor: conj(Q)^T Q != Psi")
        require(not np.any(np.tril(Q, -1)), "factor: Q not upper triangular")
        d = np.diag(Q)
        require(np.all(d.real > 0) and not np.any(d.imag), "factor: diagonal not positive real")
    v = np.asarray(res.flow.tuple_centred.v)
    mu, n2 = moment(v)
    require(mu <= 1e-10 * n2 + 64 * EPS * k * n2, f"center_flow: |mu| {mu:.3e} vs norm2 {n2:.3e}")
    g = res.flow.g
    moved = act_binomial(np.array([[g.a, g.b], [g.c, g.d]]), res.tuple_in)
    dev = np.linalg.norm(moved - v) / np.linalg.norm(v)
    require(dev <= ACT_TOL, f"center_flow: tuple is not g . input (rel {dev:.3e})")
    if res.degree is not None:
        value, bound = res.degree
        err = abs(value - k)
        require(err <= bound and err <= 1e-6, f"degree_integral: {value!r} (bound {bound:.2e}) for k={k}")
    check_slice(psi, w, res.poles, k, "project_map poles")
    check_slice(psi, w, res.slice_roots, k, "spectral_slice")


def axial_tuple(k: int) -> np.ndarray:
    """Tuple of the canonical factor of axial_spectral(k, AXIAL_MASS)."""
    Q = sphere_factor(axial_spectral(k, AXIAL_MASS).psi)
    return (Q / binom_weights(k)).T


def curve_op(kind, psi, w, degree, fault=None) -> Op:
    return Op(
        kind,
        lambda tr: chain_from_curve(tr, psi, w, degree),
        lambda res: check_chain(res, w),
        fault,
    )


def tuple_op(kind, v, w, fault=None) -> Op:
    return Op(kind, lambda tr: chain_from_tuple(tr, v, w), lambda res: check_chain(res, w), fault)


# ------------------------------------------------------------ workloads


class PipelineMixed:
    """Random Psi at k in {1, 2, 4, 8}; axial curves at k in {2, 4, 8, 16}, m in {1/2, 1}.

    Two axial masses per charge make twelve operations a round, so the
    median operation falls inside a cluster of similar operations rather
    than in the gap between the cheap axial and the dear random curves.
    """

    name = "pipeline-mixed"
    masses = (AXIAL_MASS, 1.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.axial = {(k, m): axial_spectral(k, m).psi for k in (2, 4, 8, 16) for m in self.masses}

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = []
        for kr, ka in ((1, 2), (2, 4), (4, 8), (8, 16)):
            ops.append(curve_op(f"random-k{kr}", random_psi(rng, kr), random_point(rng, LINE_W_MAX), True))
            for m in self.masses:
                ops.append(curve_op(f"axial-k{ka}-m{m:g}", self.axial[ka, m], AXIAL_W, True))
        return ops

    def warmup(self) -> list[Op]:
        # Not drawn from the workload seed: the degree integral's cost
        # varies with the curve, and set-up should not.
        rng = round_rng(0, WARMUP_ROUND)
        return [
            curve_op("random-k1", random_psi(rng, 1), random_point(rng, LINE_W_MAX), True),
            curve_op("axial-k2", self.axial[2, AXIAL_MASS], AXIAL_W, True),
        ]


class LargeCharge:
    """The chain without the degree integral at k in {16, 24, 32}.

    A round: two random curves at k = 16 and 32 and four at k = 24; the
    unmoved axial curve at k = 24 and 32 and the fixed random curve at
    k = 32 and |w| = 2, all three known faults; and the moved axial
    tuples.  Of the ten operations that complete, three are cheaper and
    three dearer than the four random k = 24 ones, so the median
    operation falls inside that cluster.  Four seeded curves there
    rather than two make the run's median rest on twice as many inputs:
    with two, the median moved with the seed by up to a tenth against
    the mean operation time.
    """

    name = "large-charge"

    def __init__(self, seed: int):
        self.seed = seed
        self.axial = {k: axial_spectral(k, AXIAL_MASS).psi for k in (24, 32)}
        self.moved = {k: act_binomial(MOVE, axial_tuple(k)) for k in (16, 24, 32)}
        self.fixed = random_psi(np.random.default_rng(FIXED_FAULT_SEED), 32)

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = []
        for k, n in ((16, 2), (24, 4), (32, 2)):
            for _ in range(n):
                ops.append(curve_op(f"random-k{k}", random_psi(rng, k), random_point(rng, LINE_W_MAX), False))
        for k in (24, 32):
            ops.append(curve_op(f"axial-k{k}", self.axial[k], AXIAL_W, False, "DegenerateZeros"))
        ops.append(curve_op("fixed-k32", self.fixed, FIXED_FAULT_W, False, "DegenerateZeros"))
        for k in (16, 24, 32):
            fault = "NotStable" if k == 32 else None
            ops.append(tuple_op(f"moved-k{k}", self.moved[k], AXIAL_W, fault))
        return ops

    def warmup(self) -> list[Op]:
        return [tuple_op("moved-k16", self.moved[16], AXIAL_W)]


class Charge2Field:
    """Closure walks on axial charge-2 curves, bracket checks and the axial field."""

    name = "charge2-field"

    def __init__(self, seed: int):
        self.seed = seed
        self.curves = {m: axial_spectral(2, m) for m in CHARGE2_MASSES}
        self.spheres = {m: factor_sphere(S) for m, S in self.curves.items()}

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = []
        for m in CHARGE2_MASSES:
            S, q = self.curves[m], self.spheres[m]
            w = random_point(rng)
            p0 = (w, vertical_root(S.psi, w))
            ops.append(Op("estimate_mass", _mass_run(S), _mass_check(m)))
            ops.append(Op("p_sequence", _pseq_run(S, p0), _pseq_check(S.psi, m)))
            ops.append(Op("poncelet", _poncelet_run(S, p0), _poncelet_check))
            ops.append(Op("z_lattice", _lattice_run(q, random_point(rng)), _lattice_check(S.psi)))
        for _ in range(4):
            r0, r1, r2 = rng.standard_normal((3, 3))
            ops.append(Op("mass_flow_check", _flow_run(r0, r1, r2), _flow_check(r0, r1, r2)))
        ops.append(Op("bog_residual-sech", _bog_run(sech_field), _bog_check(sech=True)))
        ops.append(Op("bog_residual-zero-mass", _bog_run(zero_mass_field), _bog_check(sech=False)))
        ops.append(Op("mass_profile-sech", _profile_run, _profile_check))
        return ops

    def warmup(self) -> list[Op]:
        return self.round(WARMUP_ROUND)[:4]


def _mass_run(S):
    return lambda tr: tr.call("charge2.estimate_mass", estimate_mass, S)


def _mass_check(m):
    def check(value):
        require(value == m, f"estimate_mass: {value!r} for m = {m}")
    return check


def _pseq_run(S, p0):
    def run(tr):
        seq = tr.call("charge2.p_sequence", p_sequence, S, p0)
        tr.count("charge2.pseq_half_steps", len(seq.points))
        return seq
    return run


def _pseq_check(psi, m):
    def check(seq):
        require(seq.closed and seq.period == 4 * m + 4, f"p_sequence: period {seq.period} for m = {m}")
        worst = max(curve_residual(psi, w, z) for w, z in seq.points)
        require(worst <= 1e-9, f"p_sequence: point off the curve ({worst:.2e})")
    return check


def _poncelet_run(S, p0):
    return lambda tr: tr.call("charge2.poncelet", poncelet, S, p0)


def _poncelet_check(poly):
    """Every edge u = s v - s^2, s = du/dv, is tangent to v^2 = 4u."""
    verts = poly.vertices
    require(poly.closed and len(verts) >= 4, "poncelet: polygon not closed")
    for (u1, v1), (u2, v2) in zip(verts, verts[1:] + verts[:1]):
        s = (u2 - u1) / (v2 - v1)
        for u, v in ((u1, v1), (u2, v2)):
            res = abs(u - s * v + s * s) / max(1.0, abs(u), abs(s * v), abs(s) ** 2)
            require(res <= 1e-9, f"poncelet: edge not tangent to v^2 = 4u ({res:.2e})")


def _lattice_run(q, z0):
    return lambda tr: tr.call("charge2.z_lattice", z_lattice, q, z0)


def _lattice_check(psi):
    def check(lat):
        pts = lat.points + lat.points[:1] if lat.closed else lat.points
        require(len(pts) >= 3, "z_lattice: fewer than two steps")
        for a, b in zip(pts, pts[1:]):
            va, vb = vander(a, 2), vander(b, 2)
            res = abs(va.conj() @ psi @ vb) / (np.linalg.norm(psi, 2) * np.linalg.norm(va) * np.linalg.norm(vb))
            require(res <= 1e-9, f"z_lattice: step off the slice ({res:.2e})")
    return check


def _flow_run(r0, r1, r2):
    def run(tr):
        nu = Su2Triple(r0, r1, r2)
        report = tr.call("charge2.mass_flow_check", mass_flow_check, nu)
        twice = tr.call("charge2.bracket", bracket, tr.call("charge2.bracket", bracket, nu))
        tp = tr.call("charge2.triple_product", triple_product, nu)
        return report, twice, tp
    return run


def _flow_check(r0, r1, r2):
    def check(out):
        report, twice, tp = out
        ref_tp = float(np.linalg.det(np.stack([r0, r1, r2])))
        require(abs(tp - ref_tp) <= 1e-12 * max(1.0, abs(ref_tp)), "triple_product")
        b = [np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)]
        bb = np.stack([np.cross(b[1], b[2]), np.cross(b[2], b[0]), np.cross(b[0], b[1])])
        got = np.stack([twice.r0, twice.r1, twice.r2])
        nu = np.stack([r0, r1, r2])
        require(np.max(np.abs(got - bb)) <= 1e-12 * max(1.0, np.max(np.abs(bb))), "bracket twice")
        require(np.max(np.abs(bb - ref_tp * nu)) <= 1e-10 * max(1.0, np.max(np.abs(bb))), "bracket^2 != triple_product . nu")
        require(report.first_order_invariant, "mass_flow_check: quartic not invariant to first order")
    return check


def _bog_run(profile):
    def run(tr):
        report = tr.call("axial.bog_residual", bog_residual, profile(), FIELD_GRID)
        tr.count("axial.residual_points", len(report.per_point))
        return report
    return run


def _bog_check(sech: bool):
    def check(report):
        require(len(report.per_point) == len(FIELD_GRID), "bog_residual: point count")
        if sech:
            require(report.max_frobenius <= 1e-5, f"sech residual {report.max_frobenius:.2e} > 1e-5")
        else:
            require(report.max_frobenius > 1.0, f"zero-mass residual {report.max_frobenius:.2e} <= 1")
    return check


def _profile_run(tr):
    return tr.call("axial.mass_profile", mass_profile, sech_field(), PROFILE_RADII)


def _profile_check(masses):
    require(len(masses) == len(PROFILE_RADII), "mass_profile: length")
    require(abs(masses[-1] - 0.5) <= 1e-3, f"mass_profile: m(6) = {masses[-1]!r}")


# ------------------------------------------------------------ CLI


def _cx(c) -> list[float]:
    return [float(c.real), float(c.imag)]


def curve_doc(psi) -> dict:
    return {"k": psi.shape[0] - 1, "psi": [[_cx(x) for x in row] for row in psi]}


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(*x) for x in row] for row in obj])


class _Pt:
    """Chart point read back from a report, shaped like a SpherePoint."""

    def __init__(self, obj):
        self.is_infinity = obj == "inf"
        self.chart = None if self.is_infinity else complex(*obj)


@dataclass
class CliResult:
    code: int
    text: str


class CliFailed(Exception):
    """A CLI process exited non-zero; args are (error code, CliResult)."""


def fault_name(exc: Exception) -> str:
    """The name a failure is counted under: the CLI error code or the class."""
    return exc.args[0] if isinstance(exc, CliFailed) else type(exc).__name__


class CliOneshot:
    """One cold ``python -m monosphere.cli`` process per operation, k <= 4.

    Documents are written under ``.bench_out/cli`` of the checkout.  In a
    traced run each process is ``bench/cliprobe.py`` instead, which
    times import, ``cli.main``, parse and emit from outside the library.
    """

    name = "cli-oneshot"

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.dir = os.path.join(root, ".bench_out", "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def _write(self, r: int, name: str, doc: dict) -> str:
        path = os.path.join(self.dir, f"{self.seed}-{r}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _op(self, kind, argv, check, fault=None) -> Op:
        return Op("cli-" + kind, lambda tr: self._invoke(tr, argv), check, fault)

    def _invoke(self, tr, argv) -> CliResult:
        if tr.enabled:
            cmd = [sys.executable, os.path.join(self.root, "bench", "cliprobe.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "monosphere.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120)
        if tr.enabled:
            probe = json.loads(proc.stdout)
            tr.adopt(probe["spans"])
            tr.count("serialize.report_bytes", len(probe["report"].encode()))
            res = CliResult(probe["code"], probe["report"])
        else:
            res = CliResult(proc.returncode, proc.stdout)
        if res.code != 0:
            try:
                code = json.loads(res.text)["error"]["code"]
            except (ValueError, KeyError, TypeError):
                code = f"exit {res.code}"
            raise CliFailed(code, res)
        return res

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = []
        psi3 = random_psi(rng, 3)
        check_path = self._write(r, "check", curve_doc(psi3))
        first = {}

        def check_first(res):
            _cli_check_eigs(psi3)(res)
            first["text"] = res.text

        def check_repeat(res):
            _cli_check_ok(res)
            require(res.text == first.get("text"), "check: repeated command gave different bytes")

        ops.append(self._op("check", ["check", "--input", check_path], check_first))

        theta = rng.uniform(-np.pi, np.pi)
        psi2 = random_psi(rng, 2)
        path = self._write(r, "normalize", curve_doc(np.exp(1j * theta) * psi2))
        ops.append(self._op("normalize", ["normalize", "--input", path], _cli_check_normalize(psi2)))

        psi4 = random_psi(rng, 4)
        path = self._write(r, "factor", curve_doc(psi4))
        ops.append(self._op("factor", ["factor", "--input", path], _cli_check_factor(psi4)))

        path = self._write(r, "boundary", curve_doc(random_psi(rng, 2)))
        ops.append(self._op("boundary", ["boundary", "--input", path], _cli_check_degree(2)))

        psi = random_psi(rng, 2)
        path = self._write(r, "reconstruct", curve_doc(psi))
        ops.append(self._op("reconstruct", ["reconstruct", "--input", path], _cli_check_reconstruct(psi)))
        path = self._write(r, "reconstruct-k3", curve_doc(axial_spectral(3, AXIAL_MASS).psi))
        ops.append(self._op("reconstruct-k3", ["reconstruct", "--input", path], _cli_check_ok, "Underdetermined"))

        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = self._write(r, "center", {"k": 3, "v": [[_cx(x) for x in row] for row in v]})
        ops.append(self._op("center", ["center", "--input", path], _cli_check_center(v)))

        psi = random_psi(rng, 3)
        w = random_point(rng, LINE_W_MAX)
        Q = sphere_factor(psi)
        path = self._write(r, "ratmap", {"k": 3, "Q": [[_cx(x) for x in row] for row in Q]})
        ops.append(self._op("ratmap", ["ratmap", "--input", path, "--w", repr(w)], _cli_check_ratmap(psi, w)))

        num = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        den = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        path = self._write(r, "massless", {"num": [_cx(x) for x in num], "den": [_cx(x) for x in den]})
        ops.append(self._op("massless", ["massless", "--input", path], _cli_check_massless(num, den)))

        m = float(rng.choice(CHARGE2_MASSES))
        S = axial_spectral(2, m)
        path = self._write(r, "axial2", curve_doc(S.psi))
        w = repr(random_point(rng))
        ops.append(self._op("charge2-mass", ["charge2", "mass", "--input", path], _cli_check_mass(m)))
        ops.append(self._op("charge2-pseq", ["charge2", "pseq", "--input", path, "--w", w], _cli_check_pseq(S.psi, m)))
        ops.append(self._op("charge2-poncelet", ["charge2", "poncelet", "--input", path, "--w", w], _cli_check_poncelet))
        Qa = sphere_factor(S.psi)
        path = self._write(r, "axial2-sphere", {"k": 2, "Q": [[_cx(x) for x in row] for row in Qa]})
        ops.append(self._op("charge2-lattice", ["charge2", "lattice", "--input", path, "--z0", repr(random_point(rng))],
                            _cli_check_lattice(S.psi)))

        ops.append(self._op("field-residual", ["field", "residual"], _cli_check_residual))
        ops.append(self._op("field-mass", ["field", "mass"], _cli_check_profile))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        radius = float(rng.uniform(0.5, 3.0))
        ops.append(self._op("field-sample", ["field", "sample", "--z", repr(z), "--r", repr(radius)], _cli_check_sample))

        path = self._write(r, "pipeline", curve_doc(random_psi(rng, 2)))
        ops.append(self._op("pipeline", ["pipeline", "--input", path], _cli_check_pipeline))

        ops.append(self._op("check-repeat", ["check", "--input", check_path], check_repeat))
        return ops

    def warmup(self) -> list[Op]:
        return [self._op("field-sample", ["field", "sample"], _cli_check_sample)]


def _report(res: CliResult) -> dict:
    report = json.loads(res.text)
    require(res.code == 0 and report.get("status") == "ok", f"exit {res.code}: {res.text[:200]}")
    return report


def _cli_check_ok(res: CliResult) -> None:
    _report(res)


def _cli_check_eigs(psi):
    def check(res):
        report = _report(res)
        ref = np.linalg.eigvalsh(psi)
        require(np.max(np.abs(np.array(report["eigenvalues"]) - ref)) <= 1e-10 * np.max(np.abs(ref)), "check: eigenvalues")
    return check


def _cli_check_normalize(psi):
    def check(res):
        out = _matrix(_report(res)["psi"])
        require(np.linalg.norm(out - psi) <= 1e-12 * np.linalg.norm(psi), "normalize: not the Hermitian positive form")
    return check


def _cli_check_factor(psi):
    def check(res):
        Q = _matrix(_report(res)["Q"])
        require(np.linalg.norm(Q.conj().T @ Q - psi) <= 1e-10 * np.linalg.norm(psi), "factor: conj(Q)^T Q != Psi")
        require(not np.any(np.tril(Q, -1)) and np.all(np.diag(Q).real > 0), "factor: not canonical")
    return check


def _cli_check_degree(k):
    def check(res):
        degree = _report(res)["degree"]
        require(abs(degree - k) <= 1e-6, f"boundary: degree {degree!r} for k = {k}")
    return check


def _cli_check_reconstruct(psi):
    def check(res):
        out = _matrix(_report(res)["psi"])
        dev = float(np.max(np.abs(out - psi)))
        require(dev <= 1e-8, f"reconstruct: deviation {dev:.2e}")
    return check


def _cli_check_center(v):
    def check(res):
        report = _report(res)
        out = _matrix(report["v"])
        mu, n2 = moment(out)
        require(mu <= 1e-10 * n2 + 64 * EPS * n2, f"center: |mu| {mu:.2e}")
        require(n2 <= float(np.sum(np.abs(v) ** 2)) * (1 + 1e-12), "center: norm increased")
    return check


def _cli_check_ratmap(psi, w):
    def check(res):
        report = _report(res)
        check_slice(psi, w, [_Pt(p) for p in report["poles"]], 3, "ratmap poles")
    return check


def _cli_check_massless(num, den):
    def check(res):
        out = _matrix(_report(res)["psi"])
        C = np.stack([den / den[np.argmax(np.abs(den))], num / num[np.argmax(np.abs(num))]])
        ref = C.conj().T @ C
        require(np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), "massless: Psi != conj(C)^T C")
    return check


def _cli_check_mass(m):
    def check(res):
        require(_report(res)["mass"] == m, f"charge2 mass: expected {m}")
    return check


def _cli_check_pseq(psi, m):
    def check(res):
        report = _report(res)
        require(report["closed"] and report["period"] == 4 * m + 4, f"pseq: period {report['period']}")
        for w, z in report["points"]:
            require(curve_residual(psi, _Pt(w), _Pt(z)) <= 1e-9, "pseq: point off the curve")
    return check


def _cli_check_poncelet(res):
    report = _report(res)
    verts = [(complex(*u), complex(*v)) for u, v in report["vertices"]]
    _poncelet_check(SimpleNamespace(closed=report["closed"], vertices=verts))


def _cli_check_lattice(psi):
    def check(res):
        report = _report(res)
        points = [_Pt(p) for p in report["points"]]
        _lattice_check(psi)(SimpleNamespace(closed=report["closed"], points=points))
    return check


def _cli_check_residual(res):
    report = _report(res)
    require(report["points"] == 72 and report["max_frobenius"] <= 1e-5, "field residual")


def _cli_check_profile(res):
    report = _report(res)
    require(abs(report["m"][-1] - 0.5) <= 1e-3 and report["r"][-1] == 6.0, "field mass")


def _cli_check_sample(res):
    report = _report(res)
    require(abs(complex(*report["det_H"]) - 1.0) <= 1e-12, "field sample: det H != 1")


def _cli_check_pipeline(res):
    report = _report(res)
    require(abs(report["degree_integral"] - report["k"]) <= 1e-6, "pipeline: degree")
    mu = report["mu_centred"]["magnitude"]
    require(mu <= 1e-10 * report["norm2_centred"] * (1 + 1e-6), "pipeline: not centred")


def make(name: str, seed: int, root: str):
    if name == CliOneshot.name:
        return CliOneshot(seed, root)
    return {c.name: c for c in (PipelineMixed, LargeCharge, Charge2Field)}[name](seed)


NAMES = ("pipeline-mixed", "large-charge", "cli-oneshot", "charge2-field")
