"""Charge-2 structure: canonical triples, the bracket flow, lattices,
P-sequences, mass estimation, and Poncelet polygons.

A charge-2 tuple is a CoeffTuple (v0, v1, v2) with k = 2, and its two
constraints are those of a centred moment map, mu = 0:

    |v0|^2 - |v2|^2 = -mu_r / 2 = 0    and    (v0, v1) + (v1, v2) = mu_c / sqrt(2) = 0.

Such a tuple (when full) is equivalent under U(3) to a canonical
representative (v0, v1, -conj(v0)) with v1 real.  Such representatives
correspond to real triples (r0, r1, r2) through

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
sum of the roots (_vieta_step) with no root solve.  The walks run on
normalized homogeneous pairs (z0, z1) of Python complex numbers, and
every line is the quadratic form of (z0^2, z0 z1, z1^2) against one
3 x 3 matrix read once as nested lists (_line): the bidegree C of the
curve's scaled form (module curves) for the P-sequence's vertical
lines, its transpose for the horizontal ones, and Psi itself, against
the conjugate pair, for the z-lattice, whose slice <q(z), q(.)> is the
vertical line of the curve at antipode(z).  Both share one walk loop
(_walk), which stops at the chordal return to the start.  A P-sequence
reads everything off the one C its curve value holds: its start, its
lines, its residual (the horizontal line at z taken at w, _residual)
and, for a Poncelet polygon, the centring test and the conic.  The
winding and the triple algebra run in scalar arithmetic too, and
SpherePoints are built only for the points a public function returns.

The map pi(w, z) = (wz, w + z) is the quotient by the factor swap: it
takes a centred curve onto a conic read off C, and the line w = s
onto u = s v - s^2, tangent to the parabola v^2 = 4u at v = 2s.  So
the image of a P-sequence is a polygon inscribed in that conic with
every edge tangent to the parabola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centering import moment_map, norm2
from .curves import SpectralMatrix
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
from .projective import SpherePoint, chordal, frozen, hom_vector, normalized, pair_chordal, proj_roots
from .spheres import CoeffTuple, HoloSphere, fullness_check, require_full, spectral_from_sphere

CONSTRAINT_TOL = 1e-10
CLOSURE_TOL = 1e-8
CURVE_TOL = 1e-9
MASS_STARTS = (0.78 + 0.21j, -1.17j, 1.9 - 0.33j)


@dataclass(frozen=True)
class Su2Triple:
    """Real triple (r0, r1, r2) in R^3, the su(2) (x) su(2) coordinates."""

    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        for name in ("r0", "r1", "r2"):
            object.__setattr__(self, name, frozen(getattr(self, name), float, (3,), name))

    def stack(self) -> np.ndarray:
        return np.stack([self.r0, self.r1, self.r2])

    def gram(self) -> np.ndarray:
        m = self.stack()
        return m @ m.T


# V = _C N: the rows of V are (v0, v1, v2), those of N are (r0, r1, r2).
_C = np.array([[1.0, 0.0, 1j], [0.0, np.sqrt(2.0), 0.0], [-1.0, 0.0, 1j]]) / np.sqrt(2.0)


def from_su2_triple(nu: Su2Triple) -> CoeffTuple:
    """The charge-2 tuple ((r0 + i r2)/sqrt(2), r1, (-r0 + i r2)/sqrt(2));
    its moment map vanishes exactly."""
    return CoeffTuple(2, _C @ nu.stack())


def to_su2_triple(t: CoeffTuple) -> Su2Triple:
    """Reduce to the canonical slice (v0, v1, -conj(v0)), v1 real, and read off r's.

    The tuple must have charge 2 and satisfy both constraints mu = 0,
    each to CONSTRAINT_TOL times norm2(t): the gap |v0|^2 - |v2|^2 is
    mu_r / 2 and the pair (v0, v1) + (v1, v2) is mu_c / sqrt(2).
    M = _C^T conj(V) is N W for a unitary W, so the real 3 x 6 stack
    [Re M | Im M] has Gram N N^T; the triangular factor of its QR,
    taken in row order (r1, r0, r2) with a positive diagonal, is that
    Gram's triple with r1 on the positive first axis.  QR keeps the
    conditioning of the triple, where a Cholesky of the Gram squares it.
    """
    if t.k != 2:
        raise ConstraintViolated("only charge-2 tuples carry the two-monopole structure")
    mu = moment_map(t)
    gap, pair = abs(mu.mu_r) / 2.0, abs(mu.mu_c) / math.sqrt(2.0)
    scale = max(norm2(t), 1e-300)
    if gap > CONSTRAINT_TOL * scale or pair > CONSTRAINT_TOL * scale:
        raise ConstraintViolated(
            f"constraint residuals ({gap:.2e}, {pair:.2e}) exceed {CONSTRAINT_TOL:.0e} x {scale:.2e}"
        )
    if not fullness_check(t.v)[1]:
        raise NotFull("triple does not span C^3")
    M = (_C.T @ np.conj(t.v))[[1, 0, 2]]
    R = np.linalg.qr(np.hstack([M.real, M.imag]).T, mode="r")
    L = R.T * np.where(np.diag(R) < 0, -1.0, 1.0)
    return Su2Triple(L[1], L[0], L[2])


def _cross(a, b) -> tuple[float, float, float]:
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def bracket(nu: Su2Triple) -> Su2Triple:
    """(r1 x r2, r2 x r0, r0 x r1), the su(2) bracket direction."""
    r0, r1, r2 = nu.r0.tolist(), nu.r1.tolist(), nu.r2.tolist()
    return Su2Triple(_cross(r1, r2), _cross(r2, r0), _cross(r0, r1))


def triple_product(nu: Su2Triple) -> float:
    """<r0, r1 x r2>; bracket(bracket(nu)) equals this times nu."""
    return _dot(nu.r0.tolist(), _cross(nu.r1.tolist(), nu.r2.tolist()))


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
        full=fullness_check(N)[1],
    )


@dataclass(frozen=True)
class ZLattice:
    points: list
    closed: bool
    period: int | None
    initial_roots: tuple


def _line(rows: list, z0: complex, z1: complex) -> tuple[complex, complex, complex]:
    """(c0, c1, c2) with c_j = (z0^2, z0 z1, z1^2) . rows[j]: the binary
    quadratic c0 x0^2 + c1 x0 x1 + c2 x1^2 of the line through (z0 : z1).

    rows is C^T (as nested lists) for the vertical line at w = (z0 : z1)
    of the scaled form's C, C for its horizontal line at z, and Psi^T with
    the conjugate pair for the slice <q(z), q(.)> of the sphere of Psi.
    """
    h0, h1, h2 = z0 * z0, z0 * z1, z1 * z1
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return h0 * a0 + h1 * a1 + h2 * a2, h0 * b0 + h1 * b1 + h2 * b2, h0 * c0 + h1 * c1 + h2 * c2


def _vieta_step(c: tuple, r: tuple, tol: float) -> tuple[complex, complex]:
    """The root other than r = (r0, r1) of the line c0 z0^2 + c1 z0 z1 + c2 z1^2
    through r, as a normalized pair.

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
    c0, c1, c2 = c
    scale = abs(c0) + abs(c1) + abs(c2)
    if not 0.0 < scale < math.inf:
        raise IdenticallyZero("polynomial vanishes identically")
    r0, r1 = r
    if (abs(r1) ** 2 * abs(c2), abs(r1)) <= (abs(c0) * abs(r0) ** 2, abs(r0)):
        s0, s1 = c2 * r0, -c1 * r0 - c2 * r1
    else:
        s0, s1 = -c1 * r1 - c0 * r0, c0 * r1
    if not (s0 or s1) or pair_chordal(*(s := normalized(s0, s1)), r0, r1) <= tol:
        raise BranchPoint(f"double root at {SpherePoint(r0, r1)}; step undefined")
    return s


def _walk(points: list, step, max_steps: int, tol: float) -> tuple[list, int | None]:
    """Extend the walk points, a list of tuples of homogeneous pairs, by
    step(points).

    The walk stops when its newest point returns to points[0] within tol
    in the chordal metric of every coordinate, or when it has taken
    max_steps steps (points holds len(points) - 1 steps at the start).
    Returns the visited points, the return itself included, and the
    period: the steps to the return, None for an open walk.
    """
    start = points[0]
    while True:
        n = len(points) - 1
        if n and all(pair_chordal(*a, *b) <= tol for a, b in zip(points[-1], start)):
            return points, n
        if n >= max_steps:
            return points, None
        points.append(step(points))


def _pair(p: SpherePoint) -> tuple[complex, complex]:
    return complex(p.z0), complex(p.z1)


def z_lattice(
    q: HoloSphere,
    z0,
    max_steps: int = 48,
    tol: float = CLOSURE_TOL,
) -> ZLattice:
    """Orbit z_{i+1} = the root of <q(z_i), q(.)> = 0 other than z_{i-1}.

    The slice row conj(q(z_i)) Q is conj(hom_vector(z_i)) Psi with
    Psi = spectral_from_sphere(q).psi, the vertical line of the curve at
    antipode(z_i), and each row is read off Psi (_line).  First step (no
    previous point): solve the slice at z0 with proj_roots and pick the
    root with the smaller principal argument of z1/z0.  Every later step
    is _vieta_step on the slice at z_i, which holds z_{i-1} because
    orthogonality is symmetric.  Closure when a point returns to z0
    within tol in the chordal metric; period = number of steps taken.
    No closure inside max_steps is reported, not raised.
    """
    require_full(q)
    if q.k != 2:
        raise DomainViolation("the lattice is a charge-2 construction")
    z0 = SpherePoint.of(z0)
    rows = spectral_from_sphere(q).psi.T.tolist()

    def slice_at(z):
        return _line(rows, z[0].conjugate(), z[1].conjugate())

    roots0 = proj_roots(slice_at(_pair(z0)))
    if chordal(roots0[0], roots0[1]) <= tol:
        raise BranchPoint("double root at the start point")

    def arg_ratio(r):
        if r.is_infinity or z0.is_infinity or abs(z0.chart) == 0.0:
            return np.pi
        return float(np.angle(r.chart / z0.chart))

    def step(points):
        (prev,), (cur,) = points[-2:]
        return (_vieta_step(slice_at(cur), prev, tol),)

    first = min(roots0, key=arg_ratio)
    visited, period = _walk([(_pair(z0),), (_pair(first),)], step, max_steps, tol)
    return ZLattice([SpherePoint(*z) for (z,) in visited[:period]], period is not None, period, tuple(roots0))


@dataclass(frozen=True)
class PSequence:
    points: list
    closed: bool
    period: int | None
    max_residual: float


def _residual(C: np.ndarray, points: list) -> float:
    """metric_scale_residual over the pairs ((w0, w1), (z0, z1)) of points,
    read off the scaled form's C: the horizontal line at z taken at w, at
    unit representatives, over |C|_F.  Every entry of C is below 1, so
    the value at a finite point is finite; NaN when Psi is zero or not
    finite, and at a lone point that is not finite."""
    norm = float(np.linalg.norm(C))
    if not 0.0 < norm < math.inf:
        return math.nan
    rows, values = C.tolist(), []
    for (w0, w1), (z0, z1) in points:
        nw, nz = math.hypot(abs(w0), abs(w1)), math.hypot(abs(z0), abs(z1))
        c0, c1, c2 = _line(rows, z0 / nz, z1 / nz)
        w0, w1 = w0 / nw, w1 / nw
        values.append(abs(w0 * w0 * c0 + w0 * w1 * c1 + w1 * w1 * c2))
    return max(values) / norm


def start_point(S: SpectralMatrix, w) -> tuple[SpherePoint, SpherePoint]:
    """(w, z) on the curve: z the first root of the vertical line at w,
    finite roots ordered by chart value to 12 decimals, infinity last."""
    w = SpherePoint.of(w)

    def key(p: SpherePoint):
        if p.is_infinity:
            return (1, 0.0, 0.0)
        return (0, round(p.chart.real, 12), round(p.chart.imag, 12))

    return w, min(proj_roots(hom_vector(w, S.k) @ S._scaled[2]), key=key)


def _p_walk(S: SpectralMatrix, p0, max_steps: int, tol: float) -> tuple[list, int | None]:
    """The visited points, as pairs ((w0, w1), (z0, z1)), and the period
    of the P-sequence walk from p0 on the curve S, read off its scaled
    form's C; see p_sequence."""
    if S.k != 2:
        raise DomainViolation("P-sequences are a charge-2 construction")
    C = S._scaled[2]
    p0 = (_pair(SpherePoint.of(p0[0])), _pair(SpherePoint.of(p0[1])))
    res0 = _residual(C, [p0])
    if not res0 <= CURVE_TOL:
        raise NotOnCurve(f"start point residual {res0:.2e} exceeds {CURVE_TOL:.0e}")
    vertical, horizontal = C.T.tolist(), C.tolist()

    def step(points):
        w, z = points[-1]
        if len(points) % 2:  # an even number of half-steps taken
            return w, _vieta_step(_line(vertical, *w), z, tol)
        return _vieta_step(_line(horizontal, *z), w, tol), z

    return _walk([p0], step, max_steps, tol)


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
    included, read off the walk's own C (_residual).
    """
    visited, period = _p_walk(S, p0, max_steps, tol)
    points = [(SpherePoint(*w), SpherePoint(*z)) for w, z in visited[:period]]
    return PSequence(points, period is not None, period, _residual(S._scaled[2], visited))


def _winding(points: list) -> int:
    """Turns of w about the axis of its orbit over one period of a closed
    walk, given as the walk's points (pairs) before its return.

    The w of a walk on a centred curve are the orbit of a rotation of
    the sphere: on the unit sphere they circle their mean, about the
    axis of the orbit's vector area.  On an axial curve this is the
    winding of arg w about 0.  A step turns by the angle between
    consecutive offsets from the mean, signed about the axis.
    """
    x = []  # w on the unit sphere
    for (z0, z1), _ in points:
        p = 2.0 * z0.conjugate() * z1
        n0, n1 = z0.real * z0.real + z0.imag * z0.imag, z1.real * z1.real + z1.imag * z1.imag
        n = n0 + n1
        x.append((p.real / n, p.imag / n, (n1 - n0) / n))
    mean = [sum(c) / len(x) for c in zip(*x)]
    d = [(a - mean[0], b - mean[1], c - mean[2]) for a, b, c in x]
    pairs = list(zip(d, d[1:] + d[:1]))
    turns = [_cross(a, b) for a, b in pairs]
    axis = [sum(c) for c in zip(*turns)]
    if not any(axis):
        raise NoEstimate("the walk's w does not turn")
    norm, total = math.hypot(*axis), 0.0
    for (a, b), turn in zip(pairs, turns):
        step = math.atan2(_dot(axis, turn) / norm, _dot(a, b))
        if abs(abs(step) - math.pi) <= 1e-9:
            raise NoEstimate("a step of w turns by pi")
        total += step
    return round(total / (2.0 * math.pi))


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
            visited, period = _p_walk(S, start_point(S, w), max_steps, CLOSURE_TOL)
        except MonosphereError as exc:
            raise NoEstimate(f"start w = {w} failed: {exc}") from exc
        if period is None:
            raise NoEstimate(f"no closure within {max_steps} steps from w = {w}")
        found.append((period, abs(_winding(visited[:period]))))
    if len(set(found)) != 1:
        raise NoEstimate(f"starts disagree on the period and |winding|: {found}")
    period, winding = found[0]
    if winding == 0:
        raise NoEstimate(f"w does not wind over the period {period}")
    return (period - 4 * winding) / (4 * winding)


def is_centred(S: SpectralMatrix) -> bool:
    """Invariance under the factor swap, which transposes the bidegree
    coefficients C of the scaled form: C is symmetric."""
    C = S._scaled[2]
    return bool(np.max(np.abs(C - C.T)) <= CONSTRAINT_TOL * max(float(np.max(np.abs(C))), 1e-300))


@dataclass(frozen=True)
class PonceletPolygon:
    vertices: list
    conic: np.ndarray
    vertex_residuals: np.ndarray
    closed: bool


def _conic_rows(pts: list[tuple[complex, complex]]) -> np.ndarray:
    """The (u^2, uv, v^2, u, v, 1) design rows of the points (u, v)."""
    return np.array([[u * u, u * v, v * v, u, v, 1.0] for u, v in pts], dtype=complex)


def _conic(C: np.ndarray) -> np.ndarray:
    """Coefficients (u^2, uv, v^2, u, v, 1) of the image of a centred
    charge-2 curve under (w, z) -> (wz, w + z), largest entry 1.

    w^2 psi(w, z) = sum c[a, b] w^a z^b with c = bidegree(Psi) (any
    multiple, C among them), symmetric on a centred curve and taken as
    its symmetric part; w^2 + z^2 = v^2 - 2u rewrites it in u, v.
    """
    c = (C + C.T) / 2.0
    coef = np.array([c[2, 2], c[2, 1], c[2, 0], c[1, 1] - 2.0 * c[2, 0], c[1, 0], c[0, 0]])
    return coef / coef[np.argmax(np.abs(coef))]


def poncelet(S: SpectralMatrix, p0, max_steps: int = 40, tol: float = CLOSURE_TOL) -> PonceletPolygon:
    """Polygon pi(P-sequence) inscribed in the conic pi(curve), edges tangent to v^2 = 4u.

    Requires a centred curve, whose image under pi(w, z) = (wz, w + z)
    is the conic _conic(C).  vertex_residuals measure each vertex image
    against it.  The edge through consecutive vertices with shared
    coordinate s lies on pi(w = s), the line u = s v - s^2, which meets
    the parabola in the double point v = 2s: tangency holds by
    construction and is not reported.
    """
    if not is_centred(S):
        raise NotCentred("curve is not swap-invariant")
    visited, period = _p_walk(S, p0, max_steps, tol)
    verts = []
    for (w0, w1), (z0, z1) in visited[:period]:
        if w0 == 0.0 or z0 == 0.0:
            raise DomainViolation("vertex at infinity has no affine image")
        w, z = w1 / w0, z1 / z0
        verts.append((w * z, w + z))
    conic = _conic(S._scaled[2])
    rows = _conic_rows(verts)
    vres = np.abs(rows @ conic) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(conic))
    return PonceletPolygon(vertices=verts, conic=conic, vertex_residuals=vres, closed=period is not None)
