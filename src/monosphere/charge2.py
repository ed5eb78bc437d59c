"""Charge-2 structure: canonical triples, the bracket flow, lattices,
P-sequences, mass estimation, and Poncelet polygons.

A charge-2 coefficient tuple (v0, v1, v2) in C^3 with centred moment
map satisfies exactly two constraints,

    |v0|^2 = |v2|^2    and    (v0, v1) + (v1, v2) = 0,

and (when full) is equivalent under U(3) to a canonical representative
(v0, v1, -conj(v0)) with v1 real.  Such representatives correspond to
real triples (r0, r1, r2) through

    v0 = (r0 + i r2)/sqrt(2),   v1 = r1,   v2 = (-r0 + i r2)/sqrt(2),

unique up to the right O(3) action.  In matrix form V = _C N, with _C a
constant unitary, so the Hermitian Gram V V* = _C N N^T _C* of the
tuple and the real Gram N N^T of the triple determine each other: the
Gram is a complete invariant.  The cross-product bracket
B = (r1 x r2, r2 x r0, r0 x r1) squares to the triple product tp times
the identity and generates the mass flow.  The diagonal quartic (the
restriction z^2 psi(z, z) of the spectral curve to the diagonal) is a
linear function _quartic of N N^T, whose derivative along the flow is
N B^T + B N^T = 2 tp I; since _quartic(I) = 0, the quartic is invariant
to first order.

The lattice and P-sequence walks realize the spectral-curve geometry:
stepping to the other root on alternating vertical and horizontal
lines closes up after N half-steps while w winds W times about the
axis of its orbit, with N/|W| = 4m + 4, so the mass is read off every
closed walk.  A walk starts at start_point, the same rule for the CLI
and estimate_mass.  Each step leaves a point that is one root of the
next line's binary quadratic, so the other root follows from Vieta's
sum of the roots (_vieta_step) with no root solve; the z-lattice and
the P-sequence differ only in their line rows and share one walk loop
(_walk), which stops at the chordal return to the start.

The map pi(w, z) = (wz, w + z) is the quotient by the factor swap: it
takes a centred curve onto a conic read off Psi, and the line w = s
onto u = s v - s^2, tangent to the parabola v^2 = 4u at v = 2s.  So
the image of a P-sequence is a polygon inscribed in that conic with
every edge tangent to the parabola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import SpectralMatrix, metric_scale_residual
from .errors import (
    BranchPoint,
    ConstraintViolated,
    DomainViolation,
    IdenticallyZero,
    MonosphereError,
    NoEstimate,
    NotCentred,
    NotFull,
    NotOnCurve,
)
from .projective import SpherePoint, chordal, folded_vector, hom_vector, proj_roots, vander
from .ratmap import spectral_slice
from .spheres import CoeffTuple, HoloSphere, eval_sphere, fullness_check, require_full

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
        if gap > CONSTRAINT_TOL * scale or pair > CONSTRAINT_TOL * scale:
            raise ConstraintViolated(
                f"constraint residuals ({gap:.2e}, {pair:.2e}) exceed {CONSTRAINT_TOL:.0e} x {scale:.2e}"
            )

    def residuals(self) -> tuple[float, float]:
        """(| |v0|^2 - |v2|^2 |, |(v0,v1) + (v1,v2)|)."""
        gap = abs(float(np.vdot(self.v0, self.v0).real) - float(np.vdot(self.v2, self.v2).real))
        pair = abs(np.vdot(self.v0, self.v1) + np.vdot(self.v1, self.v2))
        return gap, float(pair)

    def as_tuple(self) -> CoeffTuple:
        return CoeffTuple(2, np.stack([self.v0, self.v1, self.v2]))

    @staticmethod
    def from_tuple(t: CoeffTuple) -> "TwoMonopole":
        if t.k != 2:
            raise ConstraintViolated("only charge-2 tuples carry the two-monopole structure")
        return TwoMonopole(t.v[0], t.v[1], t.v[2])


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

    def is_full(self) -> bool:
        return fullness_check(self.stack())[1]


# V = _C N: the rows of V are (v0, v1, v2), those of N are (r0, r1, r2).
_C = np.array([[1.0, 0.0, 1j], [0.0, np.sqrt(2.0), 0.0], [-1.0, 0.0, 1j]]) / np.sqrt(2.0)


def from_su2_triple(nu: Su2Triple) -> TwoMonopole:
    """((r0 + i r2)/sqrt(2), r1, (-r0 + i r2)/sqrt(2)); constraints exact."""
    return TwoMonopole(*(_C @ nu.stack()))


def to_su2_triple(t: TwoMonopole) -> Su2Triple:
    """Reduce to the canonical slice (v0, v1, -conj(v0)), v1 real, and read off r's.

    M = _C^T conj(V) is N W for a unitary W, so the real 3 x 6 stack
    [Re M | Im M] has Gram N N^T; the triangular factor of its QR,
    taken in row order (r1, r0, r2) with a positive diagonal, is that
    Gram's triple with r1 on the positive first axis.  QR keeps the
    conditioning of the triple, where a Cholesky of the Gram squares it.
    """
    V = np.stack([t.v0, t.v1, t.v2])
    if not fullness_check(V)[1]:
        raise NotFull("triple does not span C^3")
    M = (_C.T @ np.conj(V))[[1, 0, 2]]
    R = np.linalg.qr(np.hstack([M.real, M.imag]).T, mode="r")
    L = R.T * np.where(np.diag(R) < 0, -1.0, 1.0)
    return Su2Triple(L[1], L[0], L[2])


def bracket(nu: Su2Triple) -> Su2Triple:
    """(r1 x r2, r2 x r0, r0 x r1), the su(2) bracket direction."""
    N = nu.stack()
    return Su2Triple(*np.cross(N[[1, 2, 0]], N[[2, 0, 1]]))


def triple_product(nu: Su2Triple) -> float:
    """<r0, r1 x r2>; bracket(bracket(nu)) equals this times nu."""
    return float(nu.r0 @ np.cross(nu.r1, nu.r2))


def _quartic(G: np.ndarray) -> np.ndarray:
    """Coefficients (z^4, z^3, z^2, z, 1) of the diagonal quartic, linear in the Gram G."""
    return np.array(
        [
            0.5 * (G[2, 2] - G[0, 0] + 2j * G[0, 2]),
            2.0 * (G[0, 1] - 1j * G[2, 1]),
            G[0, 0] + G[2, 2] - 2.0 * G[1, 1],
            -2.0 * (G[0, 1] + 1j * G[2, 1]),
            0.5 * (G[2, 2] - G[0, 0] - 2j * G[0, 2]),
        ],
        dtype=complex,
    )


def diagonal_quartic(nu: Su2Triple) -> np.ndarray:
    """Coefficients (z^4, z^3, z^2, z, 1) of z^2 psi(z, z) on the diagonal."""
    return _quartic(nu.gram())


@dataclass(frozen=True)
class MassFlowReport:
    derivative: np.ndarray
    max_derivative: float
    first_order_invariant: bool
    full: bool


def mass_flow_check(nu: Su2Triple) -> MassFlowReport:
    """Exact derivative of the quartic along nu + t bracket(nu).

    The Gram of N + t B moves at N B^T + B N^T, so the derivative is the
    quartic of that matrix.  First-order invariance means it vanishes to
    1e-8 relative to |N| |B|, the size of the triple N times its bracket B.
    """
    N, B = nu.stack(), bracket(nu).stack()
    derivative = _quartic(N @ B.T + B @ N.T)
    max_derivative = float(np.max(np.abs(derivative)))
    scale = max(1.0, float(np.linalg.norm(N) * np.linalg.norm(B)))
    return MassFlowReport(
        derivative=derivative,
        max_derivative=max_derivative,
        first_order_invariant=bool(max_derivative < 1e-8 * scale),
        full=nu.is_full(),
    )


@dataclass(frozen=True)
class ZLattice:
    points: list
    closed: bool
    period: int | None
    initial_roots: tuple


def _vieta_step(c: np.ndarray, r: SpherePoint, tol: float) -> SpherePoint:
    """The root other than r of the line c0 z0^2 + c1 z0 z1 + c2 z1^2 through r.

    The line is lambda (r1 z0 - r0 z1)(s1 z0 - s0 z1), so Vieta's sum of
    the roots gives the other root s with no root solve:
    (c2 r0 : -c1 r0 - c2 r1) = lambda r0^2 s in the z chart, and
    (-c1 r1 - c0 r0 : c0 r1) = lambda r1^2 s in the 1/z chart.  The z
    chart is taken when r is the smaller root, |r1|^2 |c2| <= |c0| |r0|^2,
    and the 1/z chart otherwise: there the subtraction does not cancel,
    and an error in r reaches s no larger in the chordal metric.  A tie
    0 = 0 (r at 0 or infinity, on a line through it) goes to the chart in
    which r is finite.  IdenticallyZero when the line vanishes or is not
    finite, as for proj_roots; BranchPoint when s is within tol of r, or
    when the line is a double root away from r.
    """
    c0, c1, c2 = c.tolist()
    scale = abs(c0) + abs(c1) + abs(c2)
    if not 0.0 < scale < math.inf:
        raise IdenticallyZero("polynomial vanishes identically")
    r0, r1 = r.z0, r.z1
    if (abs(r1) ** 2 * abs(c2), abs(r1)) <= (abs(c0) * abs(r0) ** 2, abs(r0)):
        s0, s1 = c2 * r0, -c1 * r0 - c2 * r1
    else:
        s0, s1 = -c1 * r1 - c0 * r0, c0 * r1
    if not (s0 or s1) or chordal(s := SpherePoint.from_pair(s0, s1), r) <= tol:
        raise BranchPoint(f"double root at {r}; step undefined")
    return s


def _walk(points: list, step, max_steps: int, tol: float) -> tuple[list, int | None]:
    """Extend the walk points, a list of tuples of points, by step(points).

    The walk stops when its newest point returns to points[0] within tol
    in the chordal metric of every coordinate, or when it has taken
    max_steps steps (points holds len(points) - 1 steps at the start).
    Returns the visited points, the return itself included, and the
    period: the steps to the return, None for an open walk.
    """
    start = points[0]
    while True:
        n = len(points) - 1
        if n and all(chordal(a, b) <= tol for a, b in zip(points[-1], start)):
            return points, n
        if n >= max_steps:
            return points, None
        points.append(step(points))


def z_lattice(
    q: HoloSphere,
    z0,
    max_steps: int = 48,
    tol: float = CLOSURE_TOL,
) -> ZLattice:
    """Orbit z_{i+1} = the root of <q(z_i), q(.)> = 0 other than z_{i-1}.

    First step (no previous point): solve the slice at z0 and pick the
    root with the smaller principal argument of z1/z0.  Every later step
    is _vieta_step on the slice row conj(q(z_i)) Q, which holds z_{i-1}
    because orthogonality is symmetric.  Closure when a point returns to
    z0 within tol in the chordal metric; period = number of steps taken.
    No closure inside max_steps is reported, not raised.
    """
    require_full(q)
    if q.k != 2:
        raise DomainViolation("the lattice is a charge-2 construction")
    z0 = SpherePoint.of(z0)
    roots0 = spectral_slice(q, z0)
    if chordal(roots0[0], roots0[1]) <= tol:
        raise BranchPoint("double root at the start point")

    def arg_ratio(r):
        if r.is_infinity or z0.is_infinity or abs(z0.chart) == 0.0:
            return np.pi
        return float(np.angle(r.chart / z0.chart))

    def step(points):
        (prev,), (cur,) = points[-2:]
        return (_vieta_step(np.conj(eval_sphere(q, cur)) @ q.Q, prev, tol),)

    visited, period = _walk([(z0,), (min(roots0, key=arg_ratio),)], step, max_steps, tol)
    return ZLattice([z for (z,) in visited[:period]], period is not None, period, tuple(roots0))


@dataclass(frozen=True)
class PSequence:
    points: list
    closed: bool
    period: int | None
    max_residual: float


def _vertical_row(S: SpectralMatrix, w) -> np.ndarray:
    """Coefficients in z of psi(w, .), the vertical line at w."""
    return folded_vector(w, S.k) @ S.psi


def _horizontal_row(S: SpectralMatrix, z) -> np.ndarray:
    """Coefficients in w of psi(., z), the horizontal line at z."""
    # psi(w, z) = sum_i d_i (-1/w)^i; times w^k, the w^(k-i) coefficient
    # is (-1)^i d_i.
    d = S.psi @ hom_vector(z, S.k)
    return (vander(-1.0, S.k) * d)[::-1]


def start_point(S: SpectralMatrix, w) -> tuple[SpherePoint, SpherePoint]:
    """(w, z) on the curve: z the first root of the vertical line at w,
    finite roots ordered by chart value to 12 decimals, infinity last."""
    w = SpherePoint.of(w)

    def key(p: SpherePoint):
        if p.is_infinity:
            return (1, 0.0, 0.0)
        return (0, round(p.chart.real, 12), round(p.chart.imag, 12))

    return w, min(proj_roots(_vertical_row(S, w)), key=key)


def p_sequence(
    S: SpectralMatrix,
    p0,
    max_steps: int = 40,
    tol: float = CLOSURE_TOL,
) -> PSequence:
    """Alternating other-root walk on the curve, starting vertically.

    p0 = (w, z) must lie on the curve to CURVE_TOL (relative residual).
    Each half-step is _vieta_step on the line through the current point,
    vertical (w fixed) after an even number of half-steps and horizontal
    (z fixed) after an odd one, and counts toward the period; closure at
    the first return to p0 in the product chordal metric.  max_residual
    is metric_scale_residual over every point visited, the return
    included, in one array pass.
    """
    if S.k != 2:
        raise DomainViolation("P-sequences are a charge-2 construction")
    p0 = (SpherePoint.of(p0[0]), SpherePoint.of(p0[1]))
    res0 = metric_scale_residual(S, *p0)
    if res0 > CURVE_TOL:
        raise NotOnCurve(f"start point residual {res0:.2e} exceeds {CURVE_TOL:.0e}")

    def step(points):
        w, z = points[-1]
        if len(points) % 2:  # an even number of half-steps taken
            return w, _vieta_step(_vertical_row(S, w), z, tol)
        return _vieta_step(_horizontal_row(S, z), w, tol), z

    visited, period = _walk([p0], step, max_steps, tol)
    worst = metric_scale_residual(S, *zip(*visited))
    return PSequence(visited[:period], period is not None, period, worst)


def _winding(seq: PSequence) -> int:
    """Turns of w about the axis of its orbit over one period of a closed walk.

    The w of a walk on a centred curve are the orbit of a rotation of
    the sphere: on the unit sphere they circle their mean, about the
    axis of the orbit's vector area.  On an axial curve this is the
    winding of arg w about 0.
    """
    z0 = np.array([w.z0 for w, _ in seq.points])
    z1 = np.array([w.z1 for w, _ in seq.points])
    p = 2.0 * np.conj(z0) * z1
    x = np.stack([p.real, p.imag, abs(z1) ** 2 - abs(z0) ** 2], axis=1)
    x /= (abs(z0) ** 2 + abs(z1) ** 2)[:, None]  # w on the unit sphere
    d = x - x.mean(axis=0)
    nxt = np.roll(d, -1, axis=0)
    turns = np.cross(d, nxt)
    axis = turns.sum(axis=0)
    if not np.any(axis):
        raise NoEstimate("the walk's w does not turn")
    steps = np.arctan2(turns @ axis / np.linalg.norm(axis), np.sum(d * nxt, axis=1))
    if np.any(np.abs(np.abs(steps) - np.pi) <= 1e-9):
        raise NoEstimate("a step of w turns by pi")
    return round(float(np.sum(steps)) / (2.0 * np.pi))


def estimate_mass(S: SpectralMatrix, max_steps: int = 60) -> float:
    """Mass from the rotation number: m = (N/|W| - 4)/4, cross-checked from
    the start_point of each of the 3 MASS_STARTS.

    N is the closure period in half-steps and W the winding of w over
    it (_winding): N/|W| = 4m + 4, so a rational mass is read exactly
    once its period fits in max_steps.  Raises NoEstimate when any start
    fails to close, its w does not turn or turns by pi in a step,
    |W| = 0, or the starts disagree on N and |W|; the massless curve
    (m = 0) is such a case.
    """
    if S.k != 2:
        raise DomainViolation("P-sequences are a charge-2 construction")
    found = []
    for w in MASS_STARTS:
        try:
            seq = p_sequence(S, start_point(S, w), max_steps=max_steps)
        except MonosphereError as exc:
            raise NoEstimate(f"start w = {w} failed: {exc}") from exc
        if not seq.closed:
            raise NoEstimate(f"no closure within {max_steps} steps from w = {w}")
        found.append((seq.period, abs(_winding(seq))))
    if len(set(found)) != 1:
        raise NoEstimate(f"starts disagree on the period and |winding|: {found}")
    period, winding = found[0]
    if winding == 0:
        raise NoEstimate(f"w does not wind over the period {period}")
    return (period - 4 * winding) / (4 * winding)


def is_centred(S: SpectralMatrix) -> bool:
    """Invariance under the factor swap: psi_ab = (-1)^(k-a-b) psi_{k-b,k-a}."""
    scale = max(float(np.max(np.abs(S.psi))), 1e-300)
    # psi_{k-b,k-a} is entry (a, b) of the transposed index-reversed matrix.
    s = vander(-1.0, S.k)
    signs = np.outer(s[::-1], s)  # (-1)^(k-a) (-1)^b
    return bool(np.max(np.abs(S.psi - signs * S.psi[::-1, ::-1].T)) <= CONSTRAINT_TOL * scale)


@dataclass(frozen=True)
class PonceletPolygon:
    vertices: list
    conic: np.ndarray
    vertex_residuals: np.ndarray
    closed: bool


def _conic_rows(pts: list[tuple[complex, complex]]) -> np.ndarray:
    """The (u^2, uv, v^2, u, v, 1) design rows of the points (u, v)."""
    return np.array([[u * u, u * v, v * v, u, v, 1.0] for u, v in pts], dtype=complex)


def _conic(S: SpectralMatrix) -> np.ndarray:
    """Coefficients (u^2, uv, v^2, u, v, 1) of the image of a centred
    charge-2 curve under (w, z) -> (wz, w + z), largest entry 1.

    w^2 psi(w, z) = sum c[a, b] w^a z^b with c[a, b] = (-1)^a Psi[2-a, b],
    symmetric on a centred curve; w^2 + z^2 = v^2 - 2u rewrites it in u, v.
    """
    c = vander(-1.0, 2)[:, None] * S.psi[::-1]
    c = (c + c.T) / 2.0
    coef = np.array([c[2, 2], c[2, 1], c[2, 0], c[1, 1] - 2.0 * c[2, 0], c[1, 0], c[0, 0]])
    return coef / coef[np.argmax(np.abs(coef))]


def poncelet(S: SpectralMatrix, p0, steps: int = 40, tol: float = CLOSURE_TOL) -> PonceletPolygon:
    """Polygon pi(P-sequence) inscribed in the conic pi(curve), edges tangent to v^2 = 4u.

    Requires a centred curve, whose image under pi(w, z) = (wz, w + z)
    is the conic _conic(S).  vertex_residuals measure each vertex image
    against it.  The edge through consecutive vertices with shared
    coordinate s lies on pi(w = s), the line u = s v - s^2, which meets
    the parabola in the double point v = 2s: tangency holds by
    construction and is not reported.
    """
    if not is_centred(S):
        raise NotCentred("curve is not swap-invariant")
    seq = p_sequence(S, p0, max_steps=steps, tol=tol)
    verts = []
    for w, z in seq.points:
        if w.is_infinity or z.is_infinity:
            raise DomainViolation("vertex at infinity has no affine image")
        verts.append((w.chart * z.chart, w.chart + z.chart))
    conic = _conic(S)
    rows = _conic_rows(verts)
    vres = np.abs(rows @ conic) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(conic))
    return PonceletPolygon(vertices=verts, conic=conic, vertex_residuals=vres, closed=seq.closed)
