"""Boundary data of the spectral curve: metric, connection, curvature.

On the conformal boundary the curve hands us the Hermitian fiber metric

    h(z) = v(z)* Psi v(z)

on a degree-k line bundle over the z-chart.  In the unitary gauge with
xi = sqrt(h) the connection and curvature are

    A_z = d_z log xi = (d_z h) / (2 h),      A_zbar = -conj(A_z),
    F_density = d_z d_zbar log h,

which is >= 0 when Psi is positive definite.  The total curvature
recovers the charge for every Hermitian Psi with h != 0 (Chern-Weil for
a metric on O(k)):

    (1/pi) * integral of F_density over the sphere = k.

metric_h, connection_at_infinity and curvature_density take a point
or an array of points and use the jets v(z), v'(z) of module
projective: d_z h = v* Psi v' and d_z d_zbar h = v'* Psi v'.

The degree integral is split across two charts at |z| = 1: the 1/z
chart carries the same formulas with the index-reversed matrix
Psi~[i, j] = Psi[k-i, k-j] (the O(-k) transition absorbs |z|^(2k),
which is harmonic away from the origin and drops out of F).  By Stokes
each patch is a flux, (1/pi) * integral of F over |z| <= r equal to the
mean of Re(z h_z / h) on |z| = r, a periodic analytic integrand for
which the trapezoid rule converges exponentially (Trefethen & Weideman,
SIAM Review 56, 2014).  On |z| = r, h = sum_m a_m(r) e^(i m theta) with
a_m(r) = sum_{j-i=m} Psi[i,j] r^(i+j), |m| <= k, and z h_z weights the
same terms by j.  One product of a scatter matrix of Psi with the
powers r^s gives these coefficients; on 2n equispaced nodes m aliases
to m mod 2n, so they are folded onto it (exact; needed when 2n < 2k + 1)
and one inverse FFT gives the values at all 2n nodes.
"""

from __future__ import annotations

import numpy as np

from .curves import SpectralMatrix, hermitian_form, require_hermitian, require_positive_definite
from .errors import QuadratureNotConverged, Underdetermined
from .projective import vander, vander_derivative

DEGREE_TOL = 1e-7
# Circle-rule sizes: 2n trapezoid nodes, n doubled from the first to
# the last until two successive estimates agree.
RULE_FIRST = 16
RULE_CAP = 256


def _h_jets(psi: np.ndarray, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h, d_z h and d_z d_zbar h at every point of the array z."""
    v = vander(z, psi.shape[0] - 1)
    dv = vander_derivative(v)
    psi_dv = np.tensordot(psi, dv, 1)
    return hermitian_form(psi, v), np.vecdot(v, psi_dv, axis=0), np.vecdot(dv, psi_dv, axis=0).real


def _scalar_or_array(out: np.ndarray, z, kind: type):
    return kind(out) if np.ndim(z) == 0 else out


def metric_h(S: SpectralMatrix, z):
    """h(z) = v(z)* Psi v(z); real and positive for positive definite
    Psi.  A float at a point, an array on an array."""
    h = hermitian_form(S.psi, vander(z, S.k))
    return _scalar_or_array(h, z, float)


def connection_at_infinity(S: SpectralMatrix, z):
    """A_z = (d_z h) / (2 h) in the unitary gauge; A_zbar = -conj(A_z).
    A complex at a point, an array on an array."""
    h, hz, _ = _h_jets(S.psi, z)
    return _scalar_or_array(hz / (2.0 * h), z, complex)


def curvature_density(S: SpectralMatrix, z):
    """F = d_z d_zbar log h = (h_zzbar h - |h_z|^2) / h^2, >= 0 when Psi
    is positive definite.  A float at a point, an array on an array."""
    h, hz, hzz = _h_jets(S.psi, z)
    return _scalar_or_array((hzz * h - np.abs(hz) ** 2) / h**2, z, float)


def _ring_scatter(psi: np.ndarray) -> np.ndarray:
    """Rows for h and z h_z (weights 1 and j) at each frequency
    m = j - i = -k..k; column s carries Psi[i, j] with i + j = s."""
    k = psi.shape[0] - 1
    i, j = np.indices(psi.shape)
    scatter = np.zeros((2, 2 * k + 1, 2 * k + 1), dtype=complex)
    scatter[:, j - i + k, i + j] = np.stack([psi, j * psi])
    return scatter.reshape(-1, 2 * k + 1)


def _patch(scatter: np.ndarray, radius: float, n: int) -> float:
    """(1/pi) * integral of F over |z| <= radius: the mean of Re(z h_z / h)
    over 2n equispaced nodes of the circle |z| = radius."""
    k = scatter.shape[1] // 2
    # Complex powers: at k >= 24 a complex @ float64 product was timed at
    # up to 8 ms a call on a two-core machine, complex @ complex at 6 us.
    powers = (radius ** np.arange(2 * k + 1)).astype(complex)
    folded = np.zeros((2, 2 * n), dtype=complex)
    residue = np.arange(-k, k + 1) % (2 * n)
    # An overflow shows as a non-finite sample, reported below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = (scatter @ powers).reshape(2, -1)
        for start in range(0, 2 * k + 1, 2 * n):  # 2n frequencies in a row fold onto distinct residues
            run = slice(start, start + 2 * n)
            folded[:, residue[run]] += coeffs[:, run]
        h = np.fft.irfft(folded[0, : n + 1], 2 * n, norm="forward")  # real: Hermitian coefficients
        zhz = np.fft.ifft(folded[1], norm="forward")
        flux = np.mean((zhz / h).real)
    if not all(np.isfinite(x).all() for x in (h, zhz, flux)):
        raise QuadratureNotConverged(f"degree integral is not finite at n = {n}", nodes=n)
    return float(flux)


def _converged_patch(scatter: np.ndarray, floor: float, tol: float) -> tuple[float, float]:
    """(I_2n, |I_n - I_2n|) of the patch |z| <= 1, doubling n from
    RULE_FIRST until |I_n - I_2n| + floor |I_2n| <= tol / 2."""
    n = RULE_FIRST
    prev = _patch(scatter, 1.0, n)
    best = np.inf
    while n < RULE_CAP:
        n *= 2
        flux = _patch(scatter, 1.0, n)
        step = abs(prev - flux)
        patch_bound = step + floor * abs(flux)
        if patch_bound <= tol / 2.0:
            return flux, step
        best = min(best, patch_bound)
        prev = flux
    raise QuadratureNotConverged(
        f"degree integral error bound {best:.2e} exceeds {tol:.2e} "
        f"with {2 * RULE_CAP} nodes on the circle", best=float(best), nodes=RULE_CAP
    )


def degree_integral(S: SpectralMatrix, tol: float = DEGREE_TOL) -> tuple[float, float]:
    """(1/pi) * total curvature, as two fluxes through the unit circle.

    By Stokes each chart's patch is I = (1/2 pi) * integral of
    Re(z h_z / h) dtheta on |z| = 1: the z chart covers |z| <= 1 and the
    1/z chart the rest.  Each patch takes the trapezoid rule on 2n nodes,
    doubling n from 16 up to 256 until its estimates I_n and I_2n agree
    within half of tol.  Returns (I_z + I_1/z, bound) with

        bound = |I_n - I_2n|_z + |I_n - I_2n|_1/z + 8 (k + 1) eps |value|,

    the differences of each patch's last two rules plus a floor for the
    rounding in the sums; bound <= tol.  The value is k for every
    Hermitian Psi with h != 0 on the circle (Chern-Weil for a metric on
    O(k)), positive definite or not: it checks the chart swap and the
    kernel, not the curve.  Psi is first scaled by the power of two that
    brings its largest entry into [1/2, 1), so no sample overflows and,
    the scaling being exact, the value does not move.  Raises QuadratureNotConverged when a sample of
    h or z h_z is not finite (h vanishes at a node), or with the best
    bound the patch reached when it still exceeds half of tol at n = 256.
    """
    require_hermitian(S.psi)
    exponent = np.frexp(np.max(np.abs(S.psi)))[1]
    unit = np.ldexp(S.psi.view(float), -exponent).view(complex)
    floor = 8.0 * (S.k + 1) * np.finfo(float).eps
    value = bound = 0.0
    for psi in (unit, unit[::-1, ::-1]):  # the z chart, then the 1/z chart
        flux, step = _converged_patch(_ring_scatter(psi), floor, tol)
        value += flux
        bound += step
    return value, bound + floor * abs(value)


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


def reconstruct_psi_from_metric(samples, k: int) -> SpectralMatrix:
    """Recover Psi from (z, h) samples by Hermitian least squares.

    Each sample contributes one real equation
    h = sum_i Psi[i,i] |z|^(2i) + sum_{i<j} 2 Re(Psi[i,j] conj(z)^i z^j)
    in the (k+1)^2 real unknowns.  Needs at least (k+1)^2 independent
    samples (Underdetermined otherwise).  The recovered matrix must pass
    require_positive_definite (NotPositiveDefinite flags inconsistent data).
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
    S = SpectralMatrix(k, _assemble(coeffs, k))
    require_positive_definite(S)
    return S
