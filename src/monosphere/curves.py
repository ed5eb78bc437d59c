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

Every reading of psi goes through bidegree(Psi), the coefficients
C[a, b] of w^a z^b in the bidegree-(k, k) polynomial (-w)^k psi(w, z):
this module alone knows the fold v(-1/w).  Evaluation is then
hom_vector(w) . C hom_vector(z), homogeneous so that w = infinity and
z = infinity are ordinary points; see eval_psi for the scale convention
at the chart-degenerate arguments w = 0 and z = infinity.  The vertical
line at w is hom_vector(w) . C, the horizontal line at z is
C hom_vector(z), and the factor swap (w, z) -> (z, w) transposes C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteResult, NotHermitian, NotPositiveDefinite
from .projective import SpherePoint, frozen, hom_vector, vander

# Relative tolerance for Hermiticity and positive definiteness.
HERM_TOL = 1e-10


@dataclass(frozen=True)
class SpectralMatrix:
    """Bidegree-(k, k) curve coefficients; their spectrum is kept, outside the fields, once read."""

    k: int
    psi: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("charge k must be >= 1")
        object.__setattr__(self, "psi", frozen(self.psi, complex, (self.k + 1, self.k + 1), "psi"))

    @cached_property
    def _hermitian_gap(self) -> tuple[float, float]:
        """max|Psi - Psi^*| and the scale max(max|Psi|, 1e-300)."""
        psi = self.psi
        return float(np.max(np.abs(psi - np.conj(psi).T))), max(float(np.max(np.abs(psi))), 1e-300)

    @cached_property
    def _eigh(self) -> tuple[SpectralMatrix | None, np.ndarray]:
        """The Hermitian part and its eigenvalues, which the part keeps too:
        outside the subnormal range it is its own Hermitian part (None)."""
        herm = SpectralMatrix(self.k, hermitian_part(self.psi))
        vals = frozen(np.linalg.eigvalsh(herm.psi), float, (self.k + 1,), "eigenvalues")
        herm.__dict__["_eigh"] = (None, vals)  # None, not herm: no reference cycle
        return herm, vals


def hermitian_part(psi: np.ndarray) -> np.ndarray:
    """(Psi + Psi^*) / 2, halved before the sum so that entries near the
    largest double do not overflow."""
    return psi / 2.0 + np.conj(psi).T / 2.0


def hermitian_form(psi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re v* Psi v for every column v of the jet array v."""
    return np.vecdot(v, np.tensordot(psi, v, 1), axis=0).real


def bidegree(psi: np.ndarray) -> np.ndarray:
    """C[a, b] = (-1)^a Psi[k - a, b], the coefficient of w^a z^b in
    (-w)^k psi(w, z), so psi(w, z) is hom_vector(w) . C hom_vector(z)
    at homogeneous points."""
    return vander(-1.0, psi.shape[0] - 1)[:, None] * psi[::-1]


def chart_pairing(M: np.ndarray, w, z) -> complex:
    """hom_vector(w) . bidegree(M) hom_vector(z) divided by (-w1)^k where
    w1 != 0 and by z0^k where z0 != 0 (for w != 0 and finite z, the value
    sum_{i,j} M[i,j] (-1/w)^i z^j)."""
    w, z = SpherePoint.of(w), SpherePoint.of(z)
    scale = (-w.z1 if w.z1 != 0.0 else 1.0) * (z.z0 if z.z0 != 0.0 else 1.0)
    k = M.shape[0] - 1
    return complex(hom_vector(w, k) @ bidegree(M) @ hom_vector(z, k) / scale**k)


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
    # per pair, w and z at unit length; hom_vector(a : b) is v(a)
    # reversed times v(b)
    pts = [(SpherePoint.of(a), SpherePoint.of(b)) for a, b in pairs]
    c = np.array([(p.z0, p.z1, q.z0, q.z1) for p, q in pts]).reshape(-1, 2, 2)
    m = abs(c)
    c /= np.hypot(m[..., :1], m[..., 1:])
    v = vander(c, S.k)
    hom = v[::-1, ..., 0] * v[..., 1]
    return float(abs((hom[..., 0] * (bidegree(S.psi) @ hom[..., 1])).sum(axis=0)).max() / np.linalg.norm(S.psi))


def normalize_reality(S: SpectralMatrix, tol: float = HERM_TOL) -> SpectralMatrix:
    """Apply the reality normalization.

    For a spectral curve conj(Psi)^T = c Psi with |c| = 1, the data
    fixing Psi only up to scale.  With c = exp(2 i theta) read at the
    largest entry, exp(i theta) Psi is Hermitian; its sign is that of
    Psi[k, k], which every definite matrix shares, and the result must
    pass require_positive_definite, so this accepts exactly what check
    accepts up to a unit factor (S itself, and any spectrum it carries,
    when the factor leaves it bit for bit).  Idempotent with exact equality.

    NotHermitian when no unit phase works; NotPositiveDefinite for the
    zero matrix and when the result is not positive definite.
    """
    psi = S.psi
    mags = np.abs(psi)
    if mags.max() == 0.0:
        raise NotPositiveDefinite("zero matrix")
    i, j = np.unravel_index(np.argmax(mags), psi.shape)
    c = np.conj(psi[j, i]) / psi[i, j]
    phase = np.exp(1j * np.angle(c) / 2.0)
    if (phase * psi[-1, -1]).real < 0:
        phase = -phase
    rotated = phase * psi
    R = S if rotated.tobytes() == psi.tobytes() else SpectralMatrix(S.k, rotated)
    return require_positive_definite(R, tol).hermitian


def require_hermitian(S: SpectralMatrix, tol: float = HERM_TOL) -> None:
    """NotHermitian unless max|Psi - Psi^*| <= tol max|Psi|."""
    gap, scale = S._hermitian_gap
    if gap > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class CurveSpectrum:
    """The Hermitian part of Psi (a value carrying this spectrum), its
    ascending eigenvalues, and the verdicts read off them at one tol."""

    hermitian: SpectralMatrix
    eigenvalues: np.ndarray
    positive: bool  # the smallest eigenvalue exceeds tol times the largest magnitude
    determinant: float  # the product of the eigenvalues, inf on overflow
    condition_estimate: float  # max|lambda| / min|lambda|, inf when singular
    degenerate: bool  # the product of |lambda| / max|lambda| is at most tol


def curve_spectrum(S: SpectralMatrix, tol: float = HERM_TOL) -> CurveSpectrum:
    """The CurveSpectrum of S; NotHermitian when Psi is not Hermitian within tol."""
    require_hermitian(S, tol)
    herm, vals = S._eigh
    herm = S if herm is None else herm
    mags = np.abs(vals)
    smax, smin = mags.max(), mags.min()
    with np.errstate(over="ignore"):
        det, cond = float(np.prod(vals)), np.inf if smin == 0.0 else float(smax / smin)
    positive = bool(vals[0] > tol * max(smax, 1e-300))
    return CurveSpectrum(herm, vals, positive, det, cond, bool(smin == 0.0 or np.prod(mags / smax) <= tol))


def positivity_check(S: SpectralMatrix, tol: float = HERM_TOL) -> tuple[np.ndarray, bool]:
    """Eigenvalues and verdict of curve_spectrum, as bench/workloads.py reads them."""
    spectrum = curve_spectrum(S, tol)
    return spectrum.eigenvalues, spectrum.positive


def require_positive_definite(S: SpectralMatrix, tol: float = HERM_TOL) -> CurveSpectrum:
    """The CurveSpectrum of a positive definite curve, the condition for
    Psi = conj(Q)^T Q to have a factor Q; NotPositiveDefinite otherwise,
    NonFiniteResult when the eigenvalues are not finite (no verdict)."""
    spectrum = curve_spectrum(S, tol)
    vals = spectrum.eigenvalues
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResult("eigenvalues of the curve matrix are not finite")
    if not spectrum.positive:
        raise NotPositiveDefinite(f"smallest eigenvalue {vals[0]:.6e} of {vals[-1]:.6e}")
    return spectrum


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
