"""Spectral curves of charge-k monopoles as coefficient matrices.

A curve of bidegree (k, k) in P^1 x P^1 is stored through the pairing

    psi(w, z) = sum_{i,j} Psi[i, j] (-1/w)^i z^j
              = v(-1/w)^T Psi v(z),      v(z) = (1, z, ..., z^k),

a polynomial in 1/w and z.  The matrix Psi of an actual spectral curve
is Hermitian positive definite once the reality normalization has been
applied, and the Hermitian form

    h(z) = v(z)* Psi v(z)

is then strictly positive: h is the restriction of psi to the
antidiagonal w = antipode(z), the real slice picked out by the real
structure tau(w, z) = (antipode(z), antipode(w)).

Evaluation is done homogeneously so that w = infinity and z = infinity
are ordinary points; see eval_psi for the scale convention at the
chart-degenerate arguments w = 0 and z = infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteResult,
    NotHermitian,
    NotPositiveDefinite,
    NotRealCurve,
    VanishesOnAntidiagonal,
)
from .projective import SpherePoint, folded_vector, hom_vector, vander

# Relative tolerance for Hermiticity and phase detection.
HERM_TOL = 1e-10
# Antidiagonal positivity panel: the origin and Chebyshev-spaced angles
# in (0, 2 pi) on three latitude circles (normalize_reality adds infinity).
PANEL_RADII = (0.5, 1.0, 2.0)
PANEL_ANGLES = 64
_ANGLES = np.pi * (np.cos(np.pi * (2 * np.arange(PANEL_ANGLES) + 1) / (2 * PANEL_ANGLES)) + 1.0)
_PANEL = np.concatenate([[0.0], np.outer(PANEL_RADII, np.exp(1j * _ANGLES)).ravel()])


@dataclass(frozen=True)
class SpectralMatrix:
    """Bidegree-(k, k) curve coefficients."""

    k: int
    psi: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.psi, dtype=complex)
        if self.k < 1:
            raise ValueError("charge k must be >= 1")
        if m.shape != (self.k + 1, self.k + 1):
            raise ValueError(f"psi must be {(self.k + 1, self.k + 1)}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "psi", m)

    def scale(self) -> float:
        """Magnitude used for relative tolerances."""
        return float(np.max(np.abs(self.psi)))


def hermitian_part(psi: np.ndarray) -> np.ndarray:
    """(Psi + Psi^*) / 2, halved before the sum so that entries near the
    largest double do not overflow."""
    return psi / 2.0 + np.conj(psi).T / 2.0


def hermitian_form(psi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re v* Psi v for every column v of the jet array v."""
    return np.vecdot(v, np.tensordot(psi, v, 1), axis=0).real


def chart_pairing(M: np.ndarray, w, z, unit: bool = False) -> complex:
    """folded_vector(w) . M hom_vector(z) divided by (-w1)^k where w1 != 0
    and by z0^k where z0 != 0 (for w != 0 and finite z, the value
    sum_{i,j} M[i,j] (-1/w)^i z^j), or with unit set by |w|^k |z|^k."""
    w, z = SpherePoint.of(w), SpherePoint.of(z)
    if unit:
        scale = math.hypot(abs(w.z0), abs(w.z1)) * math.hypot(abs(z.z0), abs(z.z1))
    else:
        scale = (-w.z1 if w.z1 != 0.0 else 1.0) * (z.z0 if z.z0 != 0.0 else 1.0)
    k = M.shape[0] - 1
    return complex(folded_vector(w, k) @ M @ hom_vector(z, k) / scale**k)


def eval_psi(S: SpectralMatrix, w, z) -> complex:
    """Evaluate the pairing psi(w, z).

    For w != 0 and finite z this is exactly
    sum_{i,j} Psi[i,j] (-1/w)^i z^j, extended through w = infinity by
    its finite limit sum_j Psi[0,j] z^j.  At the chart-degenerate
    arguments (w = 0 or z = infinity) the value returned is the
    homogeneous degree-k representative; it is well defined up to scale
    and zero-set membership is unaffected.
    """
    return chart_pairing(S.psi, w, z)


def metric_scale_residual(S: SpectralMatrix, w, z) -> float:
    """|psi| at unit-normalized homogeneous representatives, over |Psi|.

    Scale-invariant residual for `is this point on the curve'.
    """
    return float(abs(chart_pairing(S.psi, w, z, unit=True)) / np.linalg.norm(S.psi))


def normalize_reality(S: SpectralMatrix, tol: float = HERM_TOL) -> SpectralMatrix:
    """Apply the reality normalization.

    The real structure forces conj(Psi)^T = c Psi for a unit-modulus
    constant c; the curve data only determines Psi up to scale.  Writing
    c = exp(2 i theta), multiplying by exp(i theta) makes Psi Hermitian,
    and the leftover sign is fixed by demanding h > 0 on the
    antidiagonal.  Idempotent: normalizing a normalized matrix returns
    it with exact matrix equality.

    Raises NotRealCurve when no unit phase works, and
    VanishesOnAntidiagonal when h has a zero (or sign change) on the
    sampling panel.
    """
    psi = np.asarray(S.psi, dtype=complex)
    scale = np.max(np.abs(psi))
    if scale == 0.0:
        raise NotRealCurve("zero matrix")
    adj = np.conj(psi).T
    idx = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    c = adj[idx] / psi[idx]
    if abs(abs(c) - 1.0) > tol or np.max(np.abs(adj - c * psi)) > tol * scale:
        raise NotRealCurve("conj-transpose is not a unit multiple of the matrix")
    theta = np.angle(c) / 2.0
    herm = hermitian_part(np.exp(1j * theta) * psi)

    # At infinity h is the top coefficient; the panel is read at unit scale.
    unit = herm / scale
    vals = np.append(hermitian_form(unit, vander(_PANEL, S.k)), unit[-1, -1].real)
    if np.min(np.abs(vals)) <= tol:
        raise VanishesOnAntidiagonal("Hermitian form vanishes on the antidiagonal panel")
    if np.all(vals < 0):
        return SpectralMatrix(S.k, -herm)
    if np.all(vals > 0):
        return SpectralMatrix(S.k, herm)
    raise VanishesOnAntidiagonal("Hermitian form changes sign on the antidiagonal")


def require_hermitian(psi: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    scale = max(np.max(np.abs(psi)), 1e-300)
    if np.max(np.abs(psi - np.conj(psi).T)) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return hermitian_part(psi)


def positivity_check(S: SpectralMatrix, tol: float = HERM_TOL):
    """Eigenvalues (ascending) and a positive-definiteness verdict.

    Requires Hermitian input.  Positive definite means the smallest
    eigenvalue exceeds tol times the largest magnitude.
    """
    herm = require_hermitian(S.psi, tol)
    vals = np.linalg.eigvalsh(herm)
    ref = max(np.max(np.abs(vals)), 1e-300)
    return vals, bool(vals[0] > tol * ref)


def require_positive_definite(S: SpectralMatrix, tol: float = HERM_TOL) -> np.ndarray:
    """Eigenvalues (ascending) of a curve that positivity_check finds
    positive definite, the condition for Psi = conj(Q)^T Q to have a
    factor Q.  NotPositiveDefinite otherwise, and NonFiniteResult when
    the eigenvalues are not finite (an overflowed matrix has no verdict).
    """
    vals, ok = positivity_check(S, tol)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResult("eigenvalues of the curve matrix are not finite")
    if not ok:
        raise NotPositiveDefinite(f"smallest eigenvalue {vals[0]:.6e} of {vals[-1]:.6e}")
    return vals


@dataclass(frozen=True)
class DegeneracyReport:
    determinant: complex
    condition_estimate: float
    degenerate: bool


def nondegeneracy_check(S: SpectralMatrix, tol: float = HERM_TOL) -> DegeneracyReport:
    """Determinant and 2-norm condition estimate.

    Degenerate when |det(Psi / sigma_max)| falls below tol: the
    determinant at unit norm, which is of order one for a
    well-conditioned matrix and stays finite where det Psi overflows.
    """
    # Overflows to a non-finite determinant, which the report refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(S.psi))
    svals = np.linalg.svd(S.psi, compute_uv=False)
    smax = float(svals[0])
    smin = float(svals[-1])
    cond = np.inf if smin == 0.0 else smax / smin
    unit = S.psi / smax if smax > 0.0 else S.psi
    return DegeneracyReport(det, float(cond), bool(abs(np.linalg.det(unit)) <= tol))


def axial_spectral(k: int, m: float, alpha: float = 1.0) -> SpectralMatrix:
    """Spectral curve of the axially symmetric charge-k, mass-m monopole.

    The curve is prod_i (w - a_i z) with roots
    a_i = alpha * exp(2 pi i j / (k + 2m)), j = (1-k)/2, ..., (k-1)/2,
    built directly from this formula (never from fractional powers, so
    no branch ambiguity).  The coefficient matrix is diagonal with
    Psi[j, j] the j-th elementary symmetric polynomial of the roots;
    the roots pair off under conjugation so every entry is real, and
    the imaginary dust is discarded after a tolerance check.

    m = 0 yields the degenerate massless matrix
    diag(1, 0, ..., 0, alpha^k).
    """
    if k < 1:
        raise ValueError("charge k must be >= 1")
    if m < 0:
        raise ValueError("mass must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    js = (np.arange(k) - (k - 1) / 2.0)
    roots = alpha * np.exp(2j * np.pi * js / (k + 2.0 * m))
    # numpy.poly gives prod (t - a_i) = sum (-1)^j e_j t^(k-j).
    coeffs = np.poly(roots)
    signs = (-1.0) ** np.arange(k + 1)
    e = signs * coeffs
    chop = 1e-12 * (1.0 + alpha) ** k
    if np.max(np.abs(e.imag)) > chop:
        raise ValueError("elementary symmetric values unexpectedly complex")
    diag = e.real.copy()
    diag[np.abs(diag) < chop] = 0.0
    return SpectralMatrix(k, np.diag(diag))
