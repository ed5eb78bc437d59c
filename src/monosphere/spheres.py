"""Holomorphic spheres in P^k attached to spectral curves.

A full holomorphic map q : P^1 -> P^k of degree k is written
q(z) = Q v(z) with v(z) = (1, z, ..., z^k) and Q an invertible
(k+1) x (k+1) matrix.  The curve and the sphere determine each other
through Psi = conj(Q)^T Q: the canonical factor is upper triangular
with strictly positive real diagonal (a Cholesky factor), unique among
factors of a positive definite Psi.

The same data in tuple form: q(z) = sum_j sqrt(binom(k, j)) v_j z^j,
so column j of Q is sqrt(binom(k, j)) v_j.  The binomial weights make
the SU(2) action on tuples norm-preserving (module centering).

The pairing <q(antipode(w)), q(z)> is computed with the conjugation
folded through the antipode, so it is holomorphic in both arguments
and coincides with eval_psi of the associated curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import HERM_TOL, SpectralMatrix, chart_pairing, require_hermitian
from .errors import NotFull, NotPositiveDefinite
from .projective import SpherePoint, hom_vector, vander, vander_derivative

FULL_TOL = 1e-10


def binom_weights(k: int) -> np.ndarray:
    """sqrt(binom(k, j)) for j = 0..k."""
    return np.sqrt(np.array([math.comb(k, j) for j in range(k + 1)], dtype=float))


def _is_canonical(Q: np.ndarray) -> bool:
    upper = np.allclose(Q, np.triu(Q), atol=0.0, rtol=0.0)
    diag = np.diag(Q)
    return bool(upper and np.all(diag.real > 0) and np.all(diag.imag == 0))


@dataclass(frozen=True)
class HoloSphere:
    """Degree-k holomorphic sphere q(z) = Q v(z).

    canonical marks the upper-triangular positive-diagonal factor; a
    non-canonical Q (any invertible matrix) is allowed, e.g. when built
    from a coefficient tuple.
    """

    k: int
    Q: np.ndarray
    canonical: bool = False

    def __post_init__(self):
        m = np.asarray(self.Q, dtype=complex)
        if m.shape != (self.k + 1, self.k + 1):
            raise ValueError(f"Q must be {(self.k + 1, self.k + 1)}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "Q", m)
        if self.canonical and not _is_canonical(m):
            raise ValueError("canonical flag set on a non-canonical factor")


@dataclass(frozen=True)
class CoeffTuple:
    """Tuple (v_0, ..., v_k) of vectors in C^(k+1); row j of v is v_j."""

    k: int
    v: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.v, dtype=complex)
        if m.shape != (self.k + 1, self.k + 1):
            raise ValueError(f"v must be {(self.k + 1, self.k + 1)}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "v", m)


def factor_sphere(S: SpectralMatrix, tol: float = HERM_TOL) -> HoloSphere:
    """Canonical factor Q of Psi = conj(Q)^T Q.

    Cholesky in the upper-triangular convention.  Requires Hermitian
    positive definite input.
    """
    herm = require_hermitian(S.psi, tol)
    vals = np.linalg.eigvalsh(herm)
    if vals[0] <= tol * max(abs(vals[-1]), 1e-300):
        raise NotPositiveDefinite("matrix is not positive definite")
    # numpy returns lower L with Psi = L conj(L)^T; the canonical upper
    # factor is Q = conj(L)^T, and conj(Q)^T Q = L conj(L)^T = Psi.
    L = np.linalg.cholesky(herm)
    return HoloSphere(S.k, np.conj(L).T, canonical=True)


def spectral_from_sphere(q: HoloSphere) -> SpectralMatrix:
    """Psi = conj(Q)^T Q, the curve of the sphere.  Always normalized."""
    psi = np.conj(q.Q).T @ q.Q
    psi = (psi + np.conj(psi).T) / 2.0
    return SpectralMatrix(q.k, psi, normalized=True)


def eval_sphere(q: HoloSphere, z) -> np.ndarray:
    """q(z) = Q v(z) in homogeneous coordinates; at infinity Q e_k."""
    return q.Q @ hom_vector(z, q.k)


def eval_sphere_derivative(q: HoloSphere, z, order: int = 1) -> np.ndarray:
    """Chart derivative q^(order)(z) = Q v^(order)(z) at finite z."""
    return q.Q @ vander_derivative(vander(SpherePoint.of(z).chart, q.k), order)


def pairing(q: HoloSphere, w, z) -> complex:
    """<q(antipode(w)), q(z)>, holomorphic in both w and z.

    The conjugation of the first slot is folded through the antipode:
    conj(q(antipode(w))) = conj(Q) folded_vector(w), no conjugate of w
    ever taken.  Matches eval_psi(spectral_from_sphere(q), w, z)
    including the chart scale convention.
    """
    return chart_pairing(np.conj(q.Q).T @ q.Q, w, z)


def fullness_check(q: HoloSphere, tol: float = FULL_TOL):
    """Smallest/largest singular value ratio and a fullness verdict.

    Full (Q invertible) implies the map is an embedding; the linearly
    full condition is exactly invertibility of the coefficient matrix.
    """
    svals = np.linalg.svd(q.Q, compute_uv=False)
    ratio = float(svals[-1] / max(svals[0], 1e-300))
    return ratio, bool(ratio > tol)


def require_full(q: HoloSphere, tol: float = FULL_TOL) -> None:
    ratio, ok = fullness_check(q, tol)
    if not ok:
        raise NotFull(f"coefficient matrix is singular (sv ratio {ratio:.2e})")


def sphere_to_tuple(q: HoloSphere) -> CoeffTuple:
    """v_j = column_j(Q) / sqrt(binom(k, j))."""
    wts = binom_weights(q.k)
    return CoeffTuple(q.k, (q.Q / wts).T)


def tuple_to_sphere(t: CoeffTuple) -> HoloSphere:
    """Assemble Q with columns sqrt(binom(k, j)) v_j; exact inverse of
    sphere_to_tuple.  Non-canonical Q allowed on input."""
    wts = binom_weights(t.k)
    Q = t.v.T * wts
    return HoloSphere(t.k, Q, canonical=_is_canonical(Q))
