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
fields_at_infinity gives all three on an array from one evaluation of
the jets.  They read the curve's scaled form Psi 2^-e (module curves):
A_z and F_density are scale-free, and h is scaled back exactly with
ldexp(h, e), so a large curve reads as the unscaled one.

The degree integral is split across two charts at |z| = 1: the 1/z
chart carries the same formulas with the index-reversed matrix
Psi~[i, j] = Psi[k-i, k-j] (the O(-k) transition absorbs |z|^(2k),
which is harmonic away from the origin and drops out of F).  By Stokes
each patch is a flux, (1/pi) * integral of F over |z| <= 1 equal to the
mean of Re(z h_z / h) on |z| = 1.  On the circle the two fluxes add up
to k node by node, Re(u h~_u / h~) = k - Re(z h_z / h), so the degree
is k by construction at every rule size: `degree` checks the chart
swap and the kernel, not the curve, and each flux is evaluated once,
on 2k + 2 nodes, where the 2k + 1 frequencies of h and z h_z are
sampled without aliasing by one inverse FFT each.  Its error bound is
a rounding bound.
"""

from __future__ import annotations

import numpy as np

from .curves import SpectralMatrix, hermitian_form, hermitian_part, require_hermitian, require_positive_definite
from .errors import NonFiniteResult, QuadratureNotConverged, Underdetermined
from .projective import vander, vander_derivative

DEGREE_TOL = 1e-7
EPS = np.finfo(float).eps


def _scalar_or_array(out: np.ndarray, z, kind: type):
    return kind(out) if np.ndim(z) == 0 else out


def metric_h(S: SpectralMatrix, z):
    """h(z) = v(z)* Psi v(z); real and positive for positive definite
    Psi.  A float at a point, an array on an array; inf where h 2^-e
    overflows."""
    e, unit, _ = S._scaled
    with np.errstate(over="ignore"):
        return _scalar_or_array(np.ldexp(hermitian_form(unit, vander(z, S.k)), e), z, float)


def fields_at_infinity(S: SpectralMatrix, z):
    """h, A_z and F_density at z, or at every point of the array z, from
    one evaluation of the jets v, v' and of h, d_z h and d_z d_zbar h:
    what metric_h, connection_at_infinity and curvature_density give."""
    e, unit, _ = S._scaled
    v = vander(z, S.k)
    dv = vander_derivative(v)
    psi_dv = np.tensordot(unit, dv, 1)
    h, hz, hzz = hermitian_form(unit, v), np.vecdot(v, psi_dv, axis=0), np.vecdot(dv, psi_dv, axis=0).real
    with np.errstate(over="ignore"):
        h_units = np.ldexp(h, e)
    return h_units, hz / (2.0 * h), (hzz * h - np.abs(hz) ** 2) / h**2


def connection_at_infinity(S: SpectralMatrix, z):
    """A_z = (d_z h) / (2 h) in the unitary gauge; A_zbar = -conj(A_z).
    A complex at a point, an array on an array."""
    return _scalar_or_array(fields_at_infinity(S, z)[1], z, complex)


def curvature_density(S: SpectralMatrix, z):
    """F = d_z d_zbar log h = (h_zzbar h - |h_z|^2) / h^2, >= 0 when Psi
    is positive definite.  A float at a point, an array on an array."""
    return _scalar_or_array(fields_at_infinity(S, z)[2], z, float)


def _patch(psi: np.ndarray) -> tuple[float, float]:
    """(1/pi) * integral of F over |z| <= 1 as the mean of Re(z h_z / h)
    on the 2k + 2 equispaced nodes of |z| = 1, and a bound on its rounding.

    On |z| = 1, h and z h_z have the coefficients sum Psi[i, j] and
    sum j Psi[i, j] over j - i = m at frequency m, |m| <= k; on 2k + 2
    nodes these take distinct residues m mod 2k + 2, so one inverse FFT
    each gives the samples, without aliasing.  Each sample sums at most
    (k + 1)^2 terms bounded by s = sum |Psi[i, j]| (k s for z h_z), so
    with c = 8 (k + 1) eps its rounding is at most c s (c k s), and that
    of Re(z h_z / h) at most c s (k + |z h_z / h|) / |h|; the bound is
    the mean of that over the nodes.  Raises NonFiniteResult when h
    vanishes at a node.
    """
    k = psi.shape[0] - 1
    n = 2 * k + 2
    i, j = np.indices(psi.shape)
    coeffs = np.zeros((2, k + 1, n), dtype=complex)
    coeffs[:, i, (j - i) % n] = np.stack([psi, j * psi])
    h_coeffs, zhz_coeffs = coeffs.sum(axis=1)
    h = np.fft.irfft(h_coeffs[: k + 2], n, norm="forward")  # real: Hermitian coefficients
    zhz = np.fft.ifft(zhz_coeffs, norm="forward")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = zhz / h
        rounding = 8.0 * (k + 1) * EPS * np.sum(np.abs(psi)) * np.mean((k + np.abs(ratio)) / np.abs(h))
    if not np.isfinite(rounding):
        raise NonFiniteResult("degree integral is not finite: h vanishes at a node of |z| = 1")
    return float(np.mean(ratio.real)), float(rounding)


def degree_integral(S: SpectralMatrix, tol: float = DEGREE_TOL) -> tuple[float, float]:
    """(1/pi) * total curvature, as two fluxes through the unit circle.

    By Stokes each chart's patch is I = (1/2 pi) * integral of
    Re(z h_z / h) dtheta on |z| = 1: the z chart covers |z| <= 1 and the
    1/z chart the rest.  On |z| = 1 the 1/z chart has h~(u) = h(u) and
    Re(u h~_u / h~) = k - Re(z h_z / h) at the same node, so the two
    patches add up to k node by node, at any rule size: the value is k
    for every Hermitian Psi with h != 0 at the nodes (Chern-Weil for a
    metric on O(k)), positive definite or not.  It checks the chart swap
    and the kernel, not the curve.  Each patch is therefore evaluated
    once, on 2k + 2 nodes (_patch).  Returns (I_z + I_1/z, bound), the
    bound being the sum of the patches' rounding bounds; it grows with
    cond(Psi), since h >= lambda_min |v|^2.  The patches read the
    curve's scaled form, whose largest entry is in [1/2, 1), so no
    sample overflows and, the scaling being exact, neither the value nor
    the bound moves.  Raises NonFiniteResult when h vanishes at a node,
    and QuadratureNotConverged, carrying the bound as best, when the
    bound exceeds tol.
    """
    require_hermitian(S)
    _, unit, _ = S._scaled
    (flux_z, bound_z), (flux_inv, bound_inv) = _patch(unit), _patch(unit[::-1, ::-1])
    bound = bound_z + bound_inv
    if not bound <= tol:
        raise QuadratureNotConverged(
            f"degree integral rounding bound {bound:.2e} exceeds {tol:.2e}", best=bound
        )
    return flux_z + flux_inv, bound


def _design_matrix(z: np.ndarray, k: int) -> np.ndarray:
    """The row Re((1 + i) conj(v_i) v_j) over all (i, j) of each sample,
    in the order of X.ravel(): h = Re((1 + i) v* X v) is linear in the
    real matrix X of Psi = hermitian_part((1 + i) X)."""
    v = vander(z, k).T
    return ((1 + 1j) * np.conj(v)[:, :, None] * v[:, None, :]).real.reshape(z.size, -1)


def reconstruct_psi_from_metric(samples, k: int) -> SpectralMatrix:
    """Recover Psi from (z, h) samples by Hermitian least squares.

    The unknowns are one real matrix X with Psi = hermitian_part((1 + i) X),
    so each sample is one real equation h = Re((1 + i) v(z)* X v(z)).
    Needs at least (k+1)^2 independent samples (Underdetermined
    otherwise): the rank counts the singular values of the design that
    lstsq returns above 1e-10 max(1, max|A|).  A design or metric sample
    that is not finite (|z|^(2k) or h overflows) is a NonFiniteResult,
    raised before LAPACK sees it.  The recovered matrix must pass
    require_positive_definite (NotPositiveDefinite: inconsistent data).
    """
    pts = [(complex(z), float(h)) for z, h in samples]
    n_unknown = (k + 1) ** 2
    if len(pts) < n_unknown:
        raise Underdetermined(
            f"{len(pts)} samples < {n_unknown} unknowns for charge {k}"
        )
    A = _design_matrix(np.array([z for z, _ in pts], dtype=complex), k)
    b = np.array([h for _, h in pts])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NonFiniteResult("least-squares system is not finite: |z|^(2k) or h overflows at a sample")
    x, _, _, svals = np.linalg.lstsq(A, b, rcond=None)
    rank = int(np.count_nonzero(svals > 1e-10 * max(1.0, float(np.max(np.abs(A))))))
    if rank < n_unknown:
        raise Underdetermined(f"design rank {rank} < {n_unknown}; samples not generic")
    S = SpectralMatrix(k, hermitian_part((1 + 1j) * x.reshape(k + 1, k + 1)))
    require_positive_definite(S)
    return S
