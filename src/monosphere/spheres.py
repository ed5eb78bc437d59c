"""Holomorphic spheres in P^k attached to spectral curves.

A full holomorphic map q : P^1 -> P^k of degree k is written
q(z) = Q v(z) with v(z) = (1, z, ..., z^k) and Q an invertible
(k+1) x (k+1) matrix.  The curve and the sphere determine each other
through Psi = conj(Q)^T Q: the canonical factor is upper triangular
with strictly positive real diagonal (a Cholesky factor), unique among
factors of a positive definite Psi.

The same data in tuple form: q(z) = sum_j sqrt(binom(k, j)) v_j z^j,
so Q W^-1 = v^T with W = diag(sqrt(binom(k, j))).  The weights make
the SU(2) action on tuples norm-preserving (module centering), so
fullness is read in this one frame for spheres and tuples alike.

The pairing <q(antipode(w)), q(z)> is computed with the conjugation
folded through the antipode, so it is holomorphic in both arguments
and coincides with eval_psi of the associated curve: both read psi off
curves.bidegree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import HERM_TOL, SpectralMatrix, chart_pairing, hermitian_part, require_positive_definite
from .errors import NotFull
from .projective import frozen, hom_vector

FULL_TOL = 1e-10


@lru_cache(maxsize=None)
def binom_weights(k: int) -> np.ndarray:
    """sqrt(binom(k, j)) for j = 0..k (read-only)."""
    w = np.sqrt(np.array([math.comb(k, j) for j in range(k + 1)], dtype=float))
    return frozen(w, float, (k + 1,), "binomial weights")


@dataclass(frozen=True)
class HoloSphere:
    """Degree-k holomorphic sphere q(z) = Q v(z); any invertible Q, the
    canonical factor of factor_sphere or the Q of a coefficient tuple."""

    k: int
    Q: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("charge k must be >= 1")
        object.__setattr__(self, "Q", frozen(self.Q, complex, (self.k + 1, self.k + 1), "Q"))


@dataclass(frozen=True)
class CoeffTuple:
    """Tuple (v_0, ..., v_k) of vectors in C^(k+1); row j of v is v_j."""

    k: int
    v: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("charge k must be >= 1")
        object.__setattr__(self, "v", frozen(self.v, complex, (self.k + 1, self.k + 1), "v"))


def factor_sphere(S: SpectralMatrix, tol: float = HERM_TOL) -> HoloSphere:
    """Canonical factor Q of Psi = conj(Q)^T Q.

    Cholesky in the upper-triangular convention.  Requires Hermitian
    positive definite input (require_positive_definite).
    """
    herm = require_positive_definite(S, tol).hermitian
    # numpy returns lower L with Psi = L conj(L)^T; the canonical upper
    # factor is Q = conj(L)^T, and conj(Q)^T Q = L conj(L)^T = Psi.
    L = np.linalg.cholesky(herm.psi)
    return HoloSphere(S.k, np.conj(L).T)


def spectral_from_sphere(q: HoloSphere) -> SpectralMatrix:
    """Psi = conj(Q)^T Q, the curve of the sphere, exactly Hermitian."""
    return SpectralMatrix(q.k, hermitian_part(np.conj(q.Q).T @ q.Q))


def eval_sphere(q: HoloSphere, z) -> np.ndarray:
    """q(z) = Q v(z) in homogeneous coordinates; at infinity Q e_k."""
    return q.Q @ hom_vector(z, q.k)


def pairing(q: HoloSphere, w, z) -> complex:
    """<q(antipode(w)), q(z)>, holomorphic in both w and z.

    The conjugation of the first slot is folded through the antipode,
    no conjugate of w ever taken: the value is read off
    bidegree(conj(Q)^T Q) against hom_vector(w) and hom_vector(z).
    Matches eval_psi(spectral_from_sphere(q), w, z) including the chart
    scale convention.
    """
    return chart_pairing(np.conj(q.Q).T @ q.Q, w, z)


def fullness_check(m) -> tuple[float, bool]:
    """Smallest/largest singular value ratio of a coefficient matrix and
    a fullness verdict, the ratio above FULL_TOL.

    Full (Q invertible) implies the map is an embedding; the linearly
    full condition is exactly invertibility of the coefficient matrix.
    It is read in the weighted frame, where SU(2) acts unitarily: a
    tuple's rows, a charge-2 triple or a sphere's Q W^-1 (require_full).
    """
    svals = np.linalg.svd(m, compute_uv=False)
    top = max(svals[0], 1e-300)
    return float(svals[-1] / top), bool(svals[-1] > FULL_TOL * top)


def require_full(q: HoloSphere) -> None:
    """NotFull unless fullness_check passes the sphere's tuple, Q W^-1."""
    ratio, ok = fullness_check(q.Q / binom_weights(q.k))
    if not ok:
        raise NotFull(f"coefficient matrix is singular (sv ratio {ratio:.2e})")


def sphere_to_tuple(q: HoloSphere) -> CoeffTuple:
    """v_j = column_j(Q) / sqrt(binom(k, j))."""
    wts = binom_weights(q.k)
    return CoeffTuple(q.k, (q.Q / wts).T)


def tuple_to_sphere(t: CoeffTuple) -> HoloSphere:
    """Assemble Q with columns sqrt(binom(k, j)) v_j; exact inverse of
    sphere_to_tuple."""
    wts = binom_weights(t.k)
    return HoloSphere(t.k, t.v.T * wts)
