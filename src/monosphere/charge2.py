"""Charge-2 structure: canonical triples, the bracket flow, lattices,
P-sequences, mass estimation, and Poncelet polygons.

A charge-2 coefficient tuple (v0, v1, v2) in C^3 with centred moment
map satisfies exactly two constraints,

    |v0|^2 = |v2|^2    and    (v0, v1) + (v1, v2) = 0,

and (when full) is equivalent under U(3) to a canonical representative
(v0, v1, -conj(v0)) with v1 real.  Such representatives correspond to
real triples (r0, r1, r2) through

    v0 = (r0 + i r2)/sqrt(2),   v1 = r1,   v2 = (-r0 + i r2)/sqrt(2),

unique up to the right SO(3) action, so the real Gram matrix of the
r's is a complete invariant.  The cross-product bracket
(r1 x r2, r2 x r0, r0 x r1) squares to the triple product times the
identity and generates the mass flow; the diagonal quartic (the
restriction z^2 psi(z, z) of the spectral curve to the diagonal) is
invariant along it to first order.

The lattice and P-sequence walks realize the spectral-curve geometry:
stepping to the other root on alternating vertical and horizontal
lines closes up after N = 4m + 4 half-steps exactly when the mass is
detectable, and the affine image under (w, z) -> (wz, w + z) of a
closed sequence is a polygon inscribed in a conic with every edge
tangent to the parabola v^2 = 4u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SpectralMatrix, metric_scale_residual
from .errors import (
    BranchPoint,
    ConicFitFailed,
    ConstraintViolated,
    DomainViolation,
    MonosphereError,
    NoEstimate,
    NotCentred,
    NotFull,
    NotOnCurve,
)
from .projective import SpherePoint, chordal, folded_vector, hom_vector, proj_roots, vander
from .ratmap import spectral_slice
from .spheres import CoeffTuple, HoloSphere, require_full

CONSTRAINT_TOL = 1e-10
CLOSURE_TOL = 1e-8
CURVE_TOL = 1e-9
MASS_STARTS = (0.78 + 0.21j, -1.17j, 1.9 - 0.33j)


@dataclass(frozen=True)
class TwoMonopole:
    """Charge-2 tuple (v0, v1, v2) satisfying the two centred constraints."""

    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    tol: float = CONSTRAINT_TOL

    def __post_init__(self):
        vs = []
        for name in ("v0", "v1", "v2"):
            v = np.asarray(getattr(self, name), dtype=complex).copy()
            if v.shape != (3,):
                raise ConstraintViolated(f"{name} must be a 3-vector")
            v.setflags(write=False)
            vs.append(v)
            object.__setattr__(self, name, v)
        scale = max(sum(float(np.vdot(v, v).real) for v in vs), 1e-300)
        gap, pair = self.residuals()
        if gap > self.tol * scale or pair > self.tol * scale:
            raise ConstraintViolated(
                f"constraint residuals ({gap:.2e}, {pair:.2e}) exceed {self.tol:.0e} x {scale:.2e}"
            )

    def residuals(self) -> tuple[float, float]:
        """(| |v0|^2 - |v2|^2 |, |(v0,v1) + (v1,v2)|)."""
        gap = abs(float(np.vdot(self.v0, self.v0).real) - float(np.vdot(self.v2, self.v2).real))
        pair = abs(np.vdot(self.v0, self.v1) + np.vdot(self.v1, self.v2))
        return gap, float(pair)

    def as_tuple(self) -> CoeffTuple:
        return CoeffTuple(2, np.stack([self.v0, self.v1, self.v2]))

    @staticmethod
    def from_tuple(t: CoeffTuple, tol: float = CONSTRAINT_TOL) -> "TwoMonopole":
        if t.k != 2:
            raise ConstraintViolated("only charge-2 tuples carry the two-monopole structure")
        return TwoMonopole(t.v[0], t.v[1], t.v[2], tol=tol)


@dataclass(frozen=True)
class Su2Triple:
    """Real triple (r0, r1, r2) in R^3, the su(2) (x) su(2) coordinates."""

    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        for name in ("r0", "r1", "r2"):
            r = np.asarray(getattr(self, name), dtype=float).copy()
            if r.shape != (3,):
                raise ValueError(f"{name} must be a real 3-vector")
            r.setflags(write=False)
            object.__setattr__(self, name, r)

    def stack(self) -> np.ndarray:
        return np.stack([self.r0, self.r1, self.r2])

    def gram(self) -> np.ndarray:
        m = self.stack()
        return m @ m.T

    def is_full(self, tol: float = 1e-10) -> bool:
        sv = np.linalg.svd(self.stack(), compute_uv=False)
        return bool(sv[-1] > tol * max(sv[0], 1e-300))


def from_su2_triple(nu: Su2Triple) -> TwoMonopole:
    """((r0 + i r2)/sqrt(2), r1, (-r0 + i r2)/sqrt(2)); constraints exact."""
    v0 = (nu.r0 + 1j * nu.r2) / np.sqrt(2.0)
    v2 = (-nu.r0 + 1j * nu.r2) / np.sqrt(2.0)
    return TwoMonopole(v0, nu.r1.astype(complex), v2)


def _householder_to_real_axis(v: np.ndarray) -> np.ndarray:
    """Unitary U with U v = (|v|, 0, 0)."""
    beta = np.linalg.norm(v)
    phase = v[0] / abs(v[0]) if abs(v[0]) > 0 else 1.0 + 0.0j
    target = beta * phase * np.eye(3, dtype=complex)[0]
    u = v - target
    nrm = np.linalg.norm(u)
    if nrm < 1e-14 * beta:
        H = np.eye(3, dtype=complex)
    else:
        u = u / nrm
        H = np.eye(3, dtype=complex) - 2.0 * np.outer(u, np.conj(u))
        # reflection sends v to target up to rounding
    P = np.diag([1.0 / phase, 1.0, 1.0]).astype(complex)
    return P @ H


def to_su2_triple(t: TwoMonopole, tol: float = 1e-10) -> Su2Triple:
    """Reduce to the canonical slice (v0, v1, -conj(v0)), v1 real, and read off r's.

    Two unitaries: one sends v1 to the positive real axis, then a
    block diag(1, u) fixes v2 = -conj(v0) by solving the symmetric
    unitary condition u^T u xi2 = -conj(xi0) on the last two
    components.  Only unitaries act, so the real Gram of the returned
    triple is determined by the Hermitian Gram of the input.
    """
    m = np.stack([t.v0, t.v1, t.v2])
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= tol * max(sv[0], 1e-300):
        raise NotFull("triple does not span C^3")
    U1 = _householder_to_real_axis(t.v1)
    beta = float(np.linalg.norm(t.v1))
    a0 = U1 @ t.v0
    a2 = U1 @ t.v2
    xi0 = a0[1:]
    xi2 = a2[1:]
    Xi = np.stack([xi0, xi2], axis=1)
    if abs(np.linalg.det(Xi)) <= 1e-12 * max(np.linalg.norm(Xi) ** 2, 1e-300):
        raise NotFull("last-two components of v0, v2 are dependent")
    rho2 = float(np.vdot(xi0, xi0).real)
    g = complex(np.vdot(xi0, xi2))
    R = abs(g)
    chi = float(np.angle(-np.conj(g))) if R > 0 else 0.0
    alpha = np.sqrt(max((rho2 + R) / 2.0, 0.0))
    beta2 = np.sqrt(max((rho2 - R) / 2.0, 0.0))
    a = np.exp(0.5j * chi) * np.array([alpha, 1j * beta2])
    A = np.stack([a, -np.conj(a)], axis=1)
    u = A @ np.linalg.inv(Xi)
    b0 = np.concatenate(([a0[0]], u @ xi0))
    r0 = np.sqrt(2.0) * b0.real
    r2 = np.sqrt(2.0) * b0.imag
    r1 = np.array([beta, 0.0, 0.0])
    return Su2Triple(r0, r1, r2)


def bracket(nu: Su2Triple) -> Su2Triple:
    """(r1 x r2, r2 x r0, r0 x r1), the su(2) bracket direction."""
    return Su2Triple(
        np.cross(nu.r1, nu.r2),
        np.cross(nu.r2, nu.r0),
        np.cross(nu.r0, nu.r1),
    )


def triple_product(nu: Su2Triple) -> float:
    """<r0, r1 x r2>; bracket(bracket(nu)) equals this times nu."""
    return float(nu.r0 @ np.cross(nu.r1, nu.r2))


def diagonal_quartic(nu: Su2Triple) -> np.ndarray:
    """Coefficients (z^4, z^3, z^2, z, 1) of z^2 psi(z, z) on the diagonal."""
    r0, r1, r2 = nu.r0, nu.r1, nu.r2
    d00 = float(r0 @ r0)
    d11 = float(r1 @ r1)
    d22 = float(r2 @ r2)
    d01 = float(r0 @ r1)
    d21 = float(r2 @ r1)
    d02 = float(r0 @ r2)
    return np.array(
        [
            0.5 * (d22 - d00 + 2j * d02),
            2.0 * (d01 - 1j * d21),
            d00 + d22 - 2.0 * d11,
            -2.0 * (d01 + 1j * d21),
            0.5 * (d22 - d00 - 2j * d02),
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class MassFlowReport:
    steps: tuple[float, float]
    derivative_coarse: np.ndarray
    derivative_fine: np.ndarray
    extrapolated: np.ndarray
    max_extrapolated: float
    first_order_invariant: bool
    full: bool


def mass_flow_check(nu: Su2Triple, step: float = 1e-3) -> MassFlowReport:
    """Forward-difference derivative of the quartic along nu + t bracket(nu).

    The coefficients are quadratic in t, so the forward difference is
    c'(0) + (t/2) c''(0) exactly; two step sizes (step, step/10)
    extrapolate away the linear term.  First-order invariance means
    the extrapolated derivative vanishes.
    """
    b = bracket(nu)
    c0 = diagonal_quartic(nu)

    def at(h):
        shifted = Su2Triple(nu.r0 + h * b.r0, nu.r1 + h * b.r1, nu.r2 + h * b.r2)
        return diagonal_quartic(shifted)

    h1, h2 = step, step / 10.0
    d1 = (at(h1) - c0) / h1
    d2 = (at(h2) - c0) / h2
    extrap = (h1 * d2 - h2 * d1) / (h1 - h2)
    max_ext = float(np.max(np.abs(extrap)))
    return MassFlowReport(
        steps=(h1, h2),
        derivative_coarse=d1,
        derivative_fine=d2,
        extrapolated=extrap,
        max_extrapolated=max_ext,
        first_order_invariant=bool(max_ext < 1e-8),
        full=nu.is_full(),
    )


@dataclass(frozen=True)
class ZLattice:
    points: list
    closed: bool
    period: int | None
    initial_roots: tuple


def _other_root(roots, avoid: SpherePoint, tol: float) -> SpherePoint:
    best = max(roots, key=lambda r: chordal(r, avoid))
    if chordal(best, avoid) <= tol:
        raise BranchPoint(f"double root at {avoid}; lattice step undefined")
    return best


def z_lattice(
    q: HoloSphere,
    z0,
    max_steps: int = 48,
    tol: float = CLOSURE_TOL,
    prev=None,
) -> ZLattice:
    """Orbit z_{i+1} = the root of <q(z_i), q(.)> = 0 other than z_{i-1}.

    First step (no previous point): pick the root with the smaller
    principal argument of z1/z0.  Closure when a point returns to z0
    within tol in the chordal metric; period = number of steps taken.
    No closure inside max_steps is reported, not raised.
    """
    require_full(q)
    if q.k != 2:
        raise DomainViolation("the lattice is a charge-2 construction")
    z0 = SpherePoint.of(z0)
    roots0 = spectral_slice(q, z0)
    if prev is None:
        if chordal(roots0[0], roots0[1]) <= tol:
            raise BranchPoint("double root at the start point")

        def arg_ratio(r):
            if r.is_infinity or z0.is_infinity:
                return np.pi
            if abs(z0.chart) == 0.0:
                return np.pi
            return float(np.angle(r.chart / z0.chart))

        nxt = min(roots0, key=arg_ratio)
    else:
        nxt = _other_root(roots0, SpherePoint.of(prev), tol)
    points = [z0, nxt]
    for _ in range(max_steps - 1):
        if chordal(points[-1], z0) <= tol:
            return ZLattice(points[:-1], True, len(points) - 1, tuple(roots0))
        roots = spectral_slice(q, points[-1])
        points.append(_other_root(roots, points[-2], tol))
    if chordal(points[-1], z0) <= tol:
        return ZLattice(points[:-1], True, len(points) - 1, tuple(roots0))
    return ZLattice(points, False, None, tuple(roots0))


@dataclass(frozen=True)
class PSequence:
    points: list
    closed: bool
    period: int | None
    max_residual: float


def _vertical_roots(S: SpectralMatrix, w) -> list[SpherePoint]:
    """Roots in z of psi(w, .) = 0 (the vertical line at w)."""
    return proj_roots(folded_vector(w, S.k) @ S.psi)


def _horizontal_roots(S: SpectralMatrix, z) -> list[SpherePoint]:
    """Roots in w of psi(., z) = 0 (the horizontal line at z)."""
    # psi(w, z) = sum_i d_i (-1/w)^i; times w^k, the w^(k-i) coefficient
    # is (-1)^i d_i.
    d = S.psi @ hom_vector(z, S.k)
    return proj_roots((vander(-1.0, S.k) * d)[::-1])


def p_sequence(
    S: SpectralMatrix,
    p0,
    max_steps: int = 40,
    tol: float = CLOSURE_TOL,
    curve_tol: float = CURVE_TOL,
) -> PSequence:
    """Alternating other-root walk on the curve, starting vertically.

    p0 = (w, z) must lie on the curve to curve_tol (relative residual).
    Each half-step counts toward the period; closure at the first
    return to p0 in the product chordal metric.
    """
    if S.k != 2:
        raise DomainViolation("P-sequences are a charge-2 construction")
    w, z = (SpherePoint.of(p0[0]), SpherePoint.of(p0[1]))
    res0 = metric_scale_residual(S, w, z)
    if res0 > curve_tol:
        raise NotOnCurve(f"start point residual {res0:.2e} exceeds {curve_tol:.0e}")
    points = [(w, z)]
    worst = res0
    vertical = True
    for n in range(1, max_steps + 1):
        w, z = points[-1]
        if vertical:
            z = _other_root(_vertical_roots(S, w), z, tol)
        else:
            w = _other_root(_horizontal_roots(S, z), w, tol)
        vertical = not vertical
        worst = max(worst, metric_scale_residual(S, w, z))
        if chordal(w, points[0][0]) <= tol and chordal(z, points[0][1]) <= tol:
            return PSequence(points, True, n, worst)
        points.append((w, z))
    return PSequence(points, False, None, worst)


def estimate_mass(S: SpectralMatrix, max_steps: int = 60) -> float:
    """Mass from closure: m = (N - 4)/4, cross-checked from 3 starts.

    Raises NoEstimate when any start fails to close or the detected
    periods disagree.
    """
    periods = []
    for w in MASS_STARTS:
        try:
            roots = _vertical_roots(S, w)
            seq = p_sequence(S, (w, roots[0]), max_steps=max_steps)
        except MonosphereError as exc:
            raise NoEstimate(f"start w = {w} failed: {exc}") from exc
        if not seq.closed:
            raise NoEstimate(f"no closure within {max_steps} steps from w = {w}")
        periods.append(seq.period)
    if len(set(periods)) != 1:
        raise NoEstimate(f"starts disagree on the period: {periods}")
    return (periods[0] - 4) / 4.0


def is_centred(S: SpectralMatrix, tol: float = 1e-10) -> bool:
    """Invariance under the factor swap: psi_ab = (-1)^(k-a-b) psi_{k-b,k-a}."""
    scale = max(float(np.max(np.abs(S.psi))), 1e-300)
    # psi_{k-b,k-a} is entry (a, b) of the transposed index-reversed matrix.
    s = vander(-1.0, S.k)
    signs = np.outer(s[::-1], s)  # (-1)^(k-a) (-1)^b
    return bool(np.max(np.abs(S.psi - signs * S.psi[::-1, ::-1].T)) <= tol * scale)


@dataclass(frozen=True)
class PonceletPolygon:
    vertices: list
    conic: np.ndarray
    vertex_residuals: np.ndarray
    edge_params: list
    edge_incidence_residuals: np.ndarray
    tangency_residuals: np.ndarray
    closed: bool


def _fit_conic(pts: list[tuple[complex, complex]]) -> np.ndarray:
    """Null vector of the (u^2, uv, v^2, u, v, 1) design; unique conic."""
    if len(pts) < 5:
        raise ConicFitFailed(f"need at least 5 points, got {len(pts)}")
    rows = np.array([[u * u, u * v, v * v, u, v, 1.0] for u, v in pts], dtype=complex)
    sv = np.linalg.svd(rows, compute_uv=False)
    if len(sv) >= 6 and sv[4] <= 1e-10 * max(sv[0], 1e-300):
        raise ConicFitFailed("conic through the vertices is not unique")
    _, _, vh = np.linalg.svd(rows)
    coef = np.conj(vh[-1])
    lead = coef[np.argmax(np.abs(coef))]
    return coef / lead


def _edge_residuals(p, q, s: complex) -> tuple[float, float]:
    """Incidence and tangency residuals of the line u = a v + b through
    the vertex images p and q: (a, b) against (s, -s^2), the line of the
    shared coordinate s, and a^2 + b, the discriminant of v^2 = 4u on it."""
    (u1, v1), (u2, v2) = p, q
    a = (u2 - u1) / (v2 - v1)
    b = u1 - a * v1
    incidence = max(abs(a - s) / max(1.0, abs(s)), abs(b + s * s) / max(1.0, abs(s) ** 2))
    tangency = abs(a * a + b) / max(1.0, abs(a) ** 2, abs(b))
    return incidence, tangency


def poncelet(S: SpectralMatrix, p0, steps: int = 40, tol: float = CLOSURE_TOL) -> PonceletPolygon:
    """Polygon pi(P-sequence) inscribed in a fitted conic, edges tangent to v^2 = 4u.

    Requires a centred curve.  Edge through consecutive vertices with
    shared coordinate s is u = s v - s^2, which meets the parabola in
    the double point v = 2s; both facts are checked on the line through
    the two vertex images (_edge_residuals).
    """
    if not is_centred(S):
        raise NotCentred("curve is not swap-invariant")
    seq = p_sequence(S, p0, max_steps=steps, tol=tol)
    verts = []
    for w, z in seq.points:
        if w.is_infinity or z.is_infinity:
            raise DomainViolation("vertex at infinity has no affine image")
        verts.append((w.chart * z.chart, w.chart + z.chart))
    uniq = []
    for p in verts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-12 for q in uniq):
            uniq.append(p)
    conic = _fit_conic(uniq)
    rows = np.array([[u * u, u * v, v * v, u, v, 1.0] for u, v in verts], dtype=complex)
    vres = np.abs(rows @ conic) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(conic))

    n = len(verts)
    params, residuals = [], []
    for i in range(n if seq.closed else n - 1):
        (w1, z1), (w2, z2) = seq.points[i], seq.points[(i + 1) % n]
        if chordal(w1, w2) <= tol:
            s = w1.chart
        elif chordal(z1, z2) <= tol:
            s = z1.chart
        else:
            raise BranchPoint("consecutive vertices share no coordinate")
        params.append(s)
        residuals.append(_edge_residuals(verts[i], verts[(i + 1) % n], s))
    ires, tres = np.array(residuals).reshape(-1, 2).T
    return PonceletPolygon(
        vertices=verts,
        conic=conic,
        vertex_residuals=vres,
        edge_params=params,
        edge_incidence_residuals=ires,
        tangency_residuals=tres,
        closed=seq.closed,
    )
