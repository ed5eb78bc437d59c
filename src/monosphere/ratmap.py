"""Rational maps cut out of a holomorphic sphere by projection.

For a full degree-k sphere q and a point w, projecting q away from a
line L = span{u1, u2} with u1 parallel to q(w) gives a degree-k
rational map

    f_w(z) = <u2, q(z)> / <u1, q(z)>

with a zero at z = w.  Its poles are the roots of <q(w), q(z)> = 0 in
z, independent of the choice of u2: they are the points z_i with
(antipode(w), z_i) on the spectral curve.  A degree deficiency d of
the pole polynomial means a pole at infinity of multiplicity d.

find_line iterates the existence argument: from the current line, take
the k zeros {w_i} of f_w (w itself among them), form the span of the
q(w_i) (derivative vectors stand in at multiple zeros), and replace u2
by the orthogonal complement of that span.  A fixed line of this
update is self-consistent; convergence is measured by the principal
angle between successive lines.

The massless spectral curve of a degree-N rational map f = [den : num]
is {<f(antipode(w)), f(z)> = 0}, bidegree (N, N) with coefficient
matrix conj(C)^T C, where C stacks the homogeneous coefficient rows of
den and num.  It is degenerate (rank <= 2) and has no real points:
the antidiagonal value is |den|^2 + |num|^2 > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SpectralMatrix, antidiagonal_form
from .errors import (
    DegenerateMap,
    DegenerateZeros,
    IdenticallyZero,
    LineNotThroughQw,
    NoConvergence,
    RealPointFound,
)
from .projective import SpherePoint, chordal, proj_roots
from .spheres import HoloSphere, eval_sphere, eval_sphere_derivative, require_full

LINE_TOL = 1e-9
LINE_MAX_ITER = 40
CLUSTER_TOL = 1e-6
ANTIDIAG_SAMPLES = 256


@dataclass(frozen=True)
class ProjLine:
    """Orthonormal basis (u1, u2) of a projective line in P^k."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        u1 = np.asarray(self.u1, dtype=complex).copy()
        u2 = np.asarray(self.u2, dtype=complex).copy()
        if abs(np.linalg.norm(u1) - 1.0) > 1e-12 or abs(np.linalg.norm(u2) - 1.0) > 1e-12:
            raise ValueError("line basis vectors must be unit")
        if abs(np.vdot(u1, u2)) > 1e-12:
            raise ValueError("line basis vectors must be orthogonal")
        for u in (u1, u2):
            u.setflags(write=False)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)

    def basis(self) -> np.ndarray:
        return np.stack([self.u1, self.u2], axis=1)


@dataclass(frozen=True)
class RationalMap:
    """Degree-N map [den : num] on P^1, chart value num(z)/den(z).

    Coefficients ascending.  Both polynomials are normalized so their
    largest-magnitude coefficient is 1; the removed relative scale
    (num_scale / den_scale) is kept in scale, so the original map is
    scale * num / den.
    """

    num: np.ndarray
    den: np.ndarray
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        num = np.asarray(self.num, dtype=complex).copy()
        den = np.asarray(self.den, dtype=complex).copy()
        if num.shape != den.shape or num.ndim != 1:
            raise ValueError("num and den must be 1-d of equal length")
        num.setflags(write=False)
        den.setflags(write=False)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return self.num.size - 1

    @staticmethod
    def normalized(num, den) -> "RationalMap":
        num = np.asarray(num, dtype=complex)
        den = np.asarray(den, dtype=complex)
        sn = num[np.argmax(np.abs(num))]
        sd = den[np.argmax(np.abs(den))]
        if abs(sn) == 0.0 or abs(sd) == 0.0:
            raise IdenticallyZero("rational map has a zero polynomial")
        return RationalMap(num / sn, den / sd, complex(sn / sd))

    def poles(self) -> list[SpherePoint]:
        return proj_roots(self.den)

    def zeros(self) -> list[SpherePoint]:
        return proj_roots(self.num)

    def resultant(self) -> complex:
        n = self.degree
        # Sylvester matrix of the two degree-n polynomials
        size = 2 * n
        m = np.zeros((size, size), dtype=complex)
        for i in range(n):
            m[i, i : i + n + 1] = self.num[::-1]
            m[n + i, i : i + n + 1] = self.den[::-1]
        return complex(np.linalg.det(m))


def spectral_slice(q: HoloSphere, w) -> list[SpherePoint]:
    """Roots in z of <q(w), q(z)> = 0, the poles of every f_w.

    Each root z_i puts (antipode(w), z_i) on the spectral curve of q.
    Multiplicity preserved; degree deficiency shows up at infinity.
    """
    u = eval_sphere(q, w)
    coeffs = np.conj(u) @ q.Q
    return proj_roots(coeffs)


def project_map(q: HoloSphere, w, L: ProjLine, tol: float = 1e-8) -> RationalMap:
    """f(z) = [<u2, q(z)> : <u1, q(z)>], zero at z = w, poles on the slice.

    Requires u1 parallel to q(w) (LineNotThroughQw otherwise).
    """
    qw = eval_sphere(q, w)
    qw = qw / np.linalg.norm(qw)
    align = abs(np.vdot(L.u1, qw))
    if align < 1.0 - tol:
        raise LineNotThroughQw(f"u1 is not parallel to q(w) (|<u1, q(w)>| = {align:.6f})")
    num = np.conj(L.u2) @ q.Q
    den = np.conj(L.u1) @ q.Q
    return RationalMap.normalized(num, den)


def _cluster_points(points: list[SpherePoint], tol: float = CLUSTER_TOL):
    """Group chordal-close points; returns (representative, multiplicity)."""
    groups: list[list[SpherePoint]] = []
    for p in points:
        for g in groups:
            if chordal(p, g[0]) <= tol:
                g.append(p)
                break
        else:
            groups.append([p])
    return [(g[0], len(g)) for g in groups]


def _zero_span(q: HoloSphere, zeros: list[SpherePoint]) -> np.ndarray:
    """Stack q (and derivative) vectors at the zeros, multiplicities via jets."""
    rows = []
    for point, mult in _cluster_points(zeros):
        if point.is_infinity:
            # 1/z chart: jets at infinity are the reversed columns
            rows.extend(q.Q[:, q.k - d] for d in range(mult))
        else:
            rows.append(eval_sphere(q, point))
            rows.extend(eval_sphere_derivative(q, point, order=d) for d in range(1, mult))
    return np.stack(rows)


def _line_angle(a: ProjLine, b: ProjLine) -> float:
    """Largest principal angle between two lines.

    With orthonormal bases A and B it is arcsin ||B - A (A^H B)||_2, the
    sine form, which stays accurate at small angles (where the cosine
    form loses everything below about 1e-8).
    """
    A, B = a.basis(), b.basis()
    sine = np.linalg.norm(B - A @ (np.conj(A).T @ B), 2)
    return float(np.arcsin(min(sine, 1.0)))


def find_line(
    q: HoloSphere,
    w,
    tol: float = LINE_TOL,
    max_iter: int = LINE_MAX_ITER,
) -> tuple[ProjLine, int]:
    """Self-consistent projection line at w by fixed-point iteration.

    Initial guess: u2 is the part of q(antipode(w)) orthogonal to q(w)
    (any orthonormal completion when that degenerates).  Each sweep
    replaces u2 by the orthocomplement of the span of the q-images of
    the current zeros.  Returns (line, iterations); NoConvergence
    carries the last line and residual angle.
    """
    require_full(q)
    w = SpherePoint.of(w)
    u1 = eval_sphere(q, w)
    u1 = u1 / np.linalg.norm(u1)
    cand = eval_sphere(q, w.antipode())
    cand = cand - (np.conj(u1) @ cand) * u1
    if np.linalg.norm(cand) < 1e-12:
        basis = np.eye(q.k + 1, dtype=complex)
        overlaps = np.abs(np.conj(basis) @ u1)
        cand = basis[int(np.argmin(overlaps))]
        cand = cand - (np.conj(u1) @ cand) * u1
    u2 = cand / np.linalg.norm(cand)
    line = ProjLine(u1, u2)
    if q.k == 1:
        # the only 2-plane in C^2; nothing to iterate
        return line, 0

    ang = np.inf
    for it in range(1, max_iter + 1):
        f = project_map(q, w, line)
        zeros = f.zeros()
        span = _zero_span(q, zeros)
        sv = np.linalg.svd(span, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise DegenerateZeros(
                "q-images of the zeros (with jets) do not span a k-plane"
            )
        # unique Hermitian orthocomplement: rows @ conj(n) = 0
        _, _, vh = np.linalg.svd(span)
        n = vh[-1]
        n = n - (np.conj(u1) @ n) * u1
        norm = np.linalg.norm(n)
        if norm < 1e-14:
            raise NoConvergence(
                "zero span orthocomplement collapsed onto q(w)", last=line
            )
        u2_new = n / norm
        new_line = ProjLine(u1, u2_new)
        ang = _line_angle(line, new_line)
        line = new_line
        if ang <= tol:
            return line, it
    raise NoConvergence(
        f"projection line did not settle in {max_iter} sweeps",
        last=line,
        residual=ang,
    )


def massless_curve(f: RationalMap, tol: float = 1e-12) -> SpectralMatrix:
    """Degenerate spectral curve {<f(antipode(w)), f(z)> = 0} of a map.

    Coefficient matrix conj(C)^T C with C the 2 x (N+1) stack of den
    and num coefficients; rank <= 2, positive on the antidiagonal, so
    the curve has no real points (checked on a sample of the fixed
    set, RealPointFound on failure).  Degree 0 maps are not admitted.
    """
    n = f.degree
    if n < 1:
        raise DegenerateMap("degree 0 maps have no spectral curve")
    C = np.stack([f.den, f.num])
    sv = np.linalg.svd(C, compute_uv=False)
    if sv[1] <= tol * sv[0]:
        raise DegenerateMap("map is constant (num proportional to den)")
    psi = np.conj(C).T @ C
    psi = (psi + np.conj(psi).T) / 2.0
    S = SpectralMatrix(n, psi, normalized=True, massless=True)
    # bidegree check: top row/column must survive
    scale = np.max(np.abs(psi))
    if np.max(np.abs(psi[n, :])) <= tol * scale or np.max(np.abs(psi[:, n])) <= tol * scale:
        raise DegenerateMap("map degenerates below its nominal degree")
    t = np.linspace(0.0, 2.0 * np.pi, ANTIDIAG_SAMPLES, endpoint=False)
    z = np.outer(np.exp(1j * t), (0.0, 0.5, 1.0, 2.0)).ravel()
    low = np.flatnonzero(antidiagonal_form(S, z) <= tol * scale)
    if low.size:
        raise RealPointFound(f"curve meets the antidiagonal near z = {z[low[0]]:.4f}")
    return S
