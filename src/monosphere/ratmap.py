"""Rational maps cut out of a holomorphic sphere by projection.

For a full degree-k sphere q and a point w, projecting q away from a
line L = span{u1, u2} with u1 parallel to q(w) gives a degree-k
rational map

    f_w(z) = <u2, q(z)> / <u1, q(z)>

with a zero at z = w.  Its poles are the roots of <q(w), q(z)> = 0 in
z, independent of the choice of u2: they are the points z_i with
(antipode(w), z_i) on the spectral curve.  A degree deficiency d of
the pole polynomial means a pole at infinity of multiplicity d.

find_line takes u2 from q(antipode(w)) and needs no iteration.  The
numerator of f_w is <u2, q(z)>, so u2 is orthogonal to q(w_i) at every
zero w_i of f_w (w itself among them) by construction: to the jets of
q at a multiple zero, and to the top columns of Q at a zero at
infinity.  When those vectors span a k-plane, its orthocomplement is
span{u2}.  So the existence argument's update, which replaces u2 by
the orthocomplement of the span of the zeros' q-images, maps every
line through q(w) to itself: the starting line is self-consistent.

The massless spectral curve of a degree-N rational map f = [den : num]
is {<f(antipode(w)), f(z)> = 0}, bidegree (N, N) with coefficient
matrix conj(C)^T C, where C stacks the homogeneous coefficient rows of
den and num.  It is degenerate (rank <= 2), and its antidiagonal value
is |den|^2 + |num|^2, so it has no real points unless num and den share
a root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SpectralMatrix, hermitian_part
from .errors import (
    DegenerateMap,
    IdenticallyZero,
    LineNotThroughQw,
    NonFiniteResult,
    RealPointFound,
)
from .projective import SpherePoint, frozen, proj_roots
from .spheres import HoloSphere, eval_sphere, require_full


@dataclass(frozen=True)
class ProjLine:
    """Orthonormal basis (u1, u2) of a projective line in P^k."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        u1 = frozen(self.u1, complex, (np.size(self.u1),), "u1")  # a vector of any length
        u2 = frozen(self.u2, complex, u1.shape, "u2")
        if abs(np.linalg.norm(u1) - 1.0) > 1e-12 or abs(np.linalg.norm(u2) - 1.0) > 1e-12:
            raise ValueError("line basis vectors must be unit")
        if abs(np.vdot(u1, u2)) > 1e-12:
            raise ValueError("line basis vectors must be orthogonal")
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)


def _leading(c: np.ndarray) -> complex:
    """The first coefficient within a relative 1e-12 of the largest
    magnitude, so that rounding cannot choose between tied ones."""
    mags = np.abs(c)
    return c[np.argmax(mags >= (1.0 - 1e-12) * np.max(mags))]


@dataclass(frozen=True)
class RationalMap:
    """Degree-N map [den : num] on P^1, chart value num(z)/den(z).

    Coefficients ascending.  Both polynomials are normalized so their
    largest-magnitude coefficient (the first of any tied ones) is 1;
    the removed relative scale (num_scale / den_scale) is kept in
    scale, so the original map is scale * num / den.
    """

    num: np.ndarray
    den: np.ndarray
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        num = frozen(self.num, complex, (np.size(self.num),), "num")  # a vector of any length
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", frozen(self.den, complex, num.shape, "den"))

    @property
    def degree(self) -> int:
        return self.num.size - 1

    @staticmethod
    def normalized(num, den) -> "RationalMap":
        num = np.asarray(num, dtype=complex)
        den = np.asarray(den, dtype=complex)
        sn, sd = _leading(num), _leading(den)
        if abs(sn) == 0.0 or abs(sd) == 0.0:
            raise IdenticallyZero("rational map has a zero polynomial")
        with np.errstate(over="ignore", invalid="ignore"):
            num, den, scale = num / sn, den / sd, complex(sn / sd)
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den)) and np.isfinite(scale)):
            raise DegenerateMap("normalized coefficients or scale are not finite")
        return RationalMap(num, den, scale)

    def poles(self) -> list[SpherePoint]:
        return proj_roots(self.den)

    def zeros(self) -> list[SpherePoint]:
        return proj_roots(self.num)

    def sylvester(self) -> np.ndarray:
        """Sylvester matrix of num and den as polynomials of degree N;
        singular exactly when they share a root on P^1."""
        n = self.degree
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        for i in range(n):
            m[i, i : i + n + 1] = self.num[::-1]
            m[n + i, i : i + n + 1] = self.den[::-1]
        return m


def spectral_slice(q: HoloSphere, w) -> list[SpherePoint]:
    """Roots in z of <q(w), q(z)> = 0, the poles of every f_w.

    Each root z_i puts (antipode(w), z_i) on the spectral curve of q.
    Multiplicity preserved; degree deficiency shows up at infinity.
    """
    u = eval_sphere(q, w)
    coeffs = np.conj(u) @ q.Q
    return proj_roots(coeffs)


def _unit(x: np.ndarray) -> np.ndarray:
    """x / |x|, divided by its largest entry first so the norm cannot overflow."""
    with np.errstate(invalid="ignore", divide="ignore"):
        x = x / np.max(np.abs(x))
        u = x / np.linalg.norm(x)
    if not np.all(np.isfinite(u)):
        raise NonFiniteResult("a sphere value is zero or overflows")
    return u


def project_map(q: HoloSphere, w, L: ProjLine) -> RationalMap:
    """f(z) = [<u2, q(z)> : <u1, q(z)>], zero at z = w, poles on the slice.

    Requires u1 parallel to q(w) (LineNotThroughQw otherwise).
    """
    align = abs(np.vdot(L.u1, _unit(eval_sphere(q, w))))
    if align < 1.0 - 1e-8:
        raise LineNotThroughQw(f"u1 is not parallel to q(w) (|<u1, q(w)>| = {align:.6f})")
    num = np.conj(L.u2) @ q.Q
    den = np.conj(L.u1) @ q.Q
    return RationalMap.normalized(num, den)


def find_line(q: HoloSphere, w) -> tuple[ProjLine, int]:
    """Self-consistent projection line at w, the span of q(w) and q(antipode(w)).

    u1 is q(w) and u2 the part of q(antipode(w)) orthogonal to it.  Its
    norm is at least sigma_min/sigma_max of Q W^-1 (W the binomial
    weights), which require_full keeps above FULL_TOL, since W v(w) and
    W v(antipode(w)) are orthogonal.  The line is already self-consistent
    (module docstring), so no sweep is run: the second entry of the
    returned (line, sweeps) is always 0.
    """
    require_full(q)
    w = SpherePoint.of(w)
    # an overflowing sphere value is refused by _unit as NonFiniteResult
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = _unit(eval_sphere(q, w))
        cand = _unit(eval_sphere(q, w.antipode()))
    cand = cand - (np.conj(u1) @ cand) * u1
    # project again: the first projection leaves an error of eps / |cand|
    u2 = _unit(cand - (np.conj(u1) @ cand) * u1)
    return ProjLine(u1, u2), 0


def massless_curve(f: RationalMap, tol: float = 1e-12) -> SpectralMatrix:
    """Degenerate spectral curve {<f(antipode(w)), f(z)> = 0} of a map.

    Coefficient matrix conj(C)^T C with C the 2 x (N+1) stack of den
    and num coefficients; rank <= 2.  Its antidiagonal value
    |den|^2 + |num|^2 vanishes exactly at a common root of num and den,
    so the curve has no real points unless the Sylvester matrix of the
    map is singular: RealPointFound when its smallest singular value is
    at most tol times its largest.  Degree 0 maps, constant maps and
    maps below their nominal degree (DegenerateMap) are refused first.
    """
    n = f.degree
    if n < 1:
        raise DegenerateMap("degree 0 maps have no spectral curve")
    C = np.stack([f.den, f.num])
    sv = np.linalg.svd(C, compute_uv=False)
    if sv[1] <= tol * sv[0]:
        raise DegenerateMap("map is constant (num proportional to den)")
    psi = hermitian_part(np.conj(C).T @ C)
    S = SpectralMatrix(n, psi)
    # bidegree check: the top row must survive (psi is exactly Hermitian, its column agrees)
    scale = np.max(np.abs(psi))
    if np.max(np.abs(psi[n, :])) <= tol * scale:
        raise DegenerateMap("map degenerates below its nominal degree")
    sv = np.linalg.svd(f.sylvester(), compute_uv=False)
    if sv[-1] <= tol * sv[0]:
        raise RealPointFound(f"num and den share a root (Sylvester sv ratio {sv[-1] / sv[0]:.2e})")
    return S
