"""Boundary data of the spectral curve: metric, connection, curvature.

On the conformal boundary the curve hands us the Hermitian fiber metric

    h(z) = v(z)* Psi v(z)

on a degree-k line bundle over the z-chart.  In the unitary gauge with
xi = sqrt(h) the connection and curvature are

    A_z = d_z log xi = (d_z h) / (2 h),      A_zbar = -conj(A_z),
    F_density = d_z d_zbar log h >= 0,

and the total curvature recovers the charge:

    (1/pi) * integral of F_density over the sphere = k.

Everything here needs only the jets v(z) and v'(z), which the kernel
of module projective returns for many points at once; the derivatives
of h are exact polynomial pairings: d_z h = v(z)* Psi v'(z) and
d_z d_zbar h = v'(z)* Psi v'(z).  metric_h, connection_at_infinity and
curvature_density take a point or an array of points.

The degree integral is split across two charts at |z| = rho: the 1/z
chart carries the same formulas with the index-reversed matrix
Psi~[i, j] = Psi[k-i, k-j] (the O(-k) transition absorbs |z|^(2k),
which is harmonic away from the origin and drops out of F).  Each
polar patch is integrated with a fixed tensor rule: n Gauss-Legendre
nodes in r on [0, rho] times 2n trapezoid nodes in theta.  The
integrand is smooth in r and smooth and periodic in theta, so both
factors converge exponentially in n (the trapezoid rule on periodic
analytic integrands: Trefethen & Weideman, SIAM Review 56, 2014).
n doubles from 16 until the estimates I_n and I_2n agree within the
tolerance, and at most to 256; the error bound returned with I_2n is
|I_n - I_2n| plus a rounding floor of 8 (k + 1) eps |I_2n|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import SpectralMatrix, hermitian_form, require_hermitian, times
from .errors import NotPositive, QuadratureNotConverged, Underdetermined
from .projective import vander, vander_derivative

DEGREE_TOL = 1e-7
# Tensor-rule sizes: n Gauss-Legendre nodes in r, doubled from the
# first to the last until two successive estimates agree.
RULE_FIRST = 16
RULE_CAP = 256
# Points per kernel call in the degree integral, so temporaries stay small.
BLOCK = 2048


def _chart_matrix(S: SpectralMatrix, chart: str) -> np.ndarray:
    """Coefficients of h in the requested chart ('z' or 'inv')."""
    if chart == "z":
        return S.psi
    if chart == "inv":
        return np.ascontiguousarray(S.psi[::-1, ::-1])
    raise ValueError(f"unknown chart {chart!r}")


def _h_jets(psi: np.ndarray, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h, d_z h and d_z d_zbar h at every point of the array z."""
    v = vander(z, psi.shape[0] - 1)
    dv = vander_derivative(v)
    psi_dv = times(psi, dv)
    return hermitian_form(psi, v), np.vecdot(v, psi_dv, axis=0), np.vecdot(dv, psi_dv, axis=0).real


def _curvature(psi: np.ndarray, z) -> np.ndarray:
    h, hz, hzz = _h_jets(psi, z)
    return (hzz * h - np.abs(hz) ** 2) / h**2


def _scalar_or_array(out: np.ndarray, z, kind: type):
    return kind(out) if np.ndim(z) == 0 else out


def metric_h(S: SpectralMatrix, z, chart: str = "z"):
    """h(z) = v(z)* Psi v(z) in the given chart; real and positive for
    positive definite Psi.  A float at a point, an array on an array."""
    h = hermitian_form(_chart_matrix(S, chart), vander(z, S.k))
    return _scalar_or_array(h, z, float)


def connection_at_infinity(S: SpectralMatrix, z, chart: str = "z"):
    """A_z = (d_z h) / (2 h) in the unitary gauge; A_zbar = -conj(A_z).
    A complex at a point, an array on an array."""
    h, hz, _ = _h_jets(_chart_matrix(S, chart), z)
    return _scalar_or_array(hz / (2.0 * h), z, complex)


def curvature_density(S: SpectralMatrix, z, chart: str = "z"):
    """F = d_z d_zbar log h = (h_zzbar h - |h_z|^2) / h^2, >= 0.
    A float at a point, an array on an array."""
    return _scalar_or_array(_curvature(_chart_matrix(S, chart), z), z, float)


@lru_cache(maxsize=None)
def _disc_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights r dr dtheta of the n x 2n tensor rule on the
    unit disc: Gauss-Legendre in r on [0, 1], trapezoid in theta."""
    x, w = np.polynomial.legendre.leggauss(n)
    r = (x + 1.0) / 2.0
    z = (r[:, None] * np.exp(1j * np.pi * np.arange(2 * n) / n)).ravel()
    weights = np.repeat(w / 2.0 * r * (np.pi / n), 2 * n)
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights


def _patch(psi: np.ndarray, radius: float, n: int) -> float:
    """Integral of F over |z| <= radius by the n x 2n rule."""
    z, weights = _disc_rule(n)
    total = 0.0
    for start in range(0, z.size, BLOCK):
        block = slice(start, start + BLOCK)
        total += float(weights[block] @ _curvature(psi, radius * z[block]))
    return radius**2 * total


def degree_integral(
    S: SpectralMatrix,
    split_radius: float = 1.0,
    tol: float = DEGREE_TOL,
) -> tuple[float, float]:
    """(1/pi) * total curvature, computed in two polar patches.

    The z chart covers |z| <= split_radius and the 1/z chart covers the
    rest.  Each patch takes the tensor rule of n Gauss-Legendre nodes in
    r and 2n trapezoid nodes in theta, for n = 16, 32, ... up to 256,
    until the estimates I_n and I_2n agree.  Returns (I_2n, bound) with

        bound = |I_n - I_2n| + 8 (k + 1) eps |I_2n|,

    the difference of the last two rules plus a floor for the rounding
    in the sums; the value equals the charge k for a spectral curve.
    Raises QuadratureNotConverged when an estimate is not finite, or
    with the best bound reached when the bound still exceeds tol at
    n = 256.
    """
    require_hermitian(S.psi)
    charts = ((_chart_matrix(S, "z"), split_radius), (_chart_matrix(S, "inv"), 1.0 / split_radius))

    def estimate(n: int) -> float:
        # An overflow shows as a non-finite value, reported below.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = sum(_patch(psi, radius, n) for psi, radius in charts) / np.pi
        if not np.isfinite(value):
            raise QuadratureNotConverged(f"degree integral is not finite ({value}) at n = {n}")
        return value

    prev = estimate(RULE_FIRST)
    best = np.inf
    n = RULE_FIRST
    while n < RULE_CAP:
        n *= 2
        value = estimate(n)
        bound = abs(prev - value) + 8.0 * (S.k + 1) * np.finfo(float).eps * abs(value)
        if bound <= tol:
            return float(value), float(bound)
        best = min(best, bound)
        prev = value
    raise QuadratureNotConverged(
        f"degree integral error bound {best:.2e} exceeds {tol:.2e} "
        f"with {RULE_CAP} x {2 * RULE_CAP} nodes per patch"
    )


@dataclass(frozen=True)
class BoundarySample:
    """One CSV row of boundary data at a point of the z chart."""

    z: complex
    h: float
    a_z: complex
    f_density: float


def sample_boundary(S: SpectralMatrix, points) -> list[BoundarySample]:
    z = np.array([complex(p) for p in points], dtype=complex)
    rows = zip(z, metric_h(S, z), connection_at_infinity(S, z), curvature_density(S, z))
    return [BoundarySample(complex(p), float(h), complex(a), float(f)) for p, h, a, f in rows]


def _design_matrix(z: np.ndarray, k: int) -> np.ndarray:
    """Real rows expressing h(z) linearly in the (k+1)^2 Hermitian unknowns.

    Unknowns ordered: diagonal Psi[i,i] (i = 0..k), then for i < j the
    pair (Re Psi[i,j], Im Psi[i,j]).
    """
    v = vander(z, k).T
    upper = np.triu_indices(k + 1, 1)
    cross = np.conj(v[:, upper[0]]) * v[:, upper[1]]
    pairs = np.stack([2.0 * cross.real, -2.0 * cross.imag], axis=-1)
    return np.hstack([np.abs(v) ** 2, pairs.reshape(z.size, -1)])


def _assemble(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Hermitian Psi from the unknowns in the order of _design_matrix."""
    upper = np.triu_indices(k + 1, 1)
    pairs = coeffs[k + 1 :].reshape(-1, 2)
    psi = np.diag(coeffs[: k + 1]).astype(complex)
    psi[upper] = pairs[:, 0] + 1j * pairs[:, 1]
    psi[upper[::-1]] = pairs[:, 0] - 1j * pairs[:, 1]
    return psi


def reconstruct_psi_from_metric(samples, k: int, require_positive: bool = True) -> SpectralMatrix:
    """Recover Psi from (z, h) samples by Hermitian least squares.

    Each sample contributes one real equation
    h = sum_i Psi[i,i] |z|^(2i) + sum_{i<j} 2 Re(Psi[i,j] conj(z)^i z^j)
    in the (k+1)^2 real unknowns.  Needs at least (k+1)^2 independent
    samples (Underdetermined otherwise).  The recovered matrix must be
    positive definite unless require_positive is False (NotPositive
    flags inconsistent boundary data).
    """
    pts = [(complex(z), float(h)) for z, h in samples]
    n_unknown = (k + 1) ** 2
    if len(pts) < n_unknown:
        raise Underdetermined(
            f"{len(pts)} samples < {n_unknown} unknowns for charge {k}"
        )
    A = _design_matrix(np.array([z for z, _ in pts], dtype=complex), k)
    b = np.array([h for _, h in pts])
    rank = np.linalg.matrix_rank(A, tol=1e-10 * max(1.0, float(np.max(np.abs(A)))))
    if rank < n_unknown:
        raise Underdetermined(f"design rank {rank} < {n_unknown}; samples not generic")
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    psi = _assemble(coeffs, k)
    out = SpectralMatrix(k, psi, normalized=True)
    if require_positive:
        vals = np.linalg.eigvalsh(psi)
        if vals[0] <= 0.0:
            raise NotPositive(
                f"recovered matrix has eigenvalue {vals[0]:.3e}; data inconsistent"
            )
    return out
