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

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, NotHermitian, NotPositiveDefinite
from .projective import SpherePoint, folded_vector, hom_vector, vander

# Relative tolerance for Hermiticity and positive definiteness.
HERM_TOL = 1e-10


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


def chart_pairing(M: np.ndarray, w, z) -> complex:
    """folded_vector(w) . M hom_vector(z) divided by (-w1)^k where w1 != 0
    and by z0^k where z0 != 0 (for w != 0 and finite z, the value
    sum_{i,j} M[i,j] (-1/w)^i z^j)."""
    w, z = SpherePoint.of(w), SpherePoint.of(z)
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

    Scale-invariant residual for `is this point on the curve'.  w and z
    are points, or equal-length lists or tuples of points: the residual
    is then the largest over the pairs (w[i], z[i]), in one array pass.
    """
    pairs = zip(w, z) if isinstance(w, (list, tuple)) else [(w, z)]
    # per pair, the rows (w0 : -w1) and (z0 : z1) at unit length;
    # hom_vector(a : b) is v(a) reversed times v(b), and folded_vector(w)
    # is hom_vector(w0 : -w1) reversed
    pts = [(SpherePoint.of(a), SpherePoint.of(b)) for a, b in pairs]
    c = np.array([(p.z0, -p.z1, q.z0, q.z1) for p, q in pts]).reshape(-1, 2, 2)
    m = abs(c)
    c /= np.hypot(m[..., :1], m[..., 1:])
    v = vander(c, S.k)
    folded = v[..., 0, 0] * v[::-1, ..., 0, 1]
    hom = v[::-1, ..., 1, 0] * v[..., 1, 1]
    return float(abs((folded * (S.psi @ hom)).sum(axis=0)).max() / np.linalg.norm(S.psi))


def normalize_reality(S: SpectralMatrix, tol: float = HERM_TOL) -> SpectralMatrix:
    """Apply the reality normalization.

    For a spectral curve conj(Psi)^T = c Psi with |c| = 1, the data
    fixing Psi only up to scale.  With c = exp(2 i theta) read at the
    largest entry, exp(i theta) Psi is Hermitian; its sign is that of
    Psi[k, k], which every definite matrix shares, and the result must
    pass require_positive_definite, so this accepts exactly what check
    accepts up to a unit factor.  Idempotent with exact equality.

    NotHermitian when no unit phase works; NotPositiveDefinite for the
    zero matrix and when the result is not positive definite.
    """
    psi = np.asarray(S.psi, dtype=complex)
    if np.max(np.abs(psi)) == 0.0:
        raise NotPositiveDefinite("zero matrix")
    i, j = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    c = np.conj(psi[j, i]) / psi[i, j]
    theta = np.angle(c) / 2.0
    herm = require_hermitian(np.exp(1j * theta) * psi, tol)
    out = SpectralMatrix(S.k, -herm if herm[-1, -1].real < 0 else herm)
    require_positive_definite(out, tol)
    return out


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
