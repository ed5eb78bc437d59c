"""Points of the projective line and polynomial roots on it.

A point is a homogeneous pair (z0 : z1), stored in the normalized
representative (1, z) for finite points and (0, 1) for the point at
infinity.  The affine chart value is z = z1/z0, so 0 = (1 : 0) and
infinity = (0 : 1).

The antipodal map is z -> -1/conj(z), homogeneously
(z0 : z1) -> (-conj(z1) : conj(z0)).  It is a fixed-point-free
involution; the spherical chordal distance below is invariant under it
in the sense that antipodal pairs are at maximal distance 1.

Every evaluation vector of the package comes from one kernel here:
vander(z, k) = (1, z, ..., z^k) at a chart value or on an array of
them, with vander_derivative for its chart derivative and
hom_vector / folded_vector for its homogeneous forms at a point
(curves.metric_scale_residual takes the same forms over arrays of
points as products of vander rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IdenticallyZero

# Relative threshold below which a leading polynomial coefficient is
# treated as zero, producing a root at infinity.
COEFF_TOL = 1e-10


@dataclass(frozen=True)
class SpherePoint:
    """Point of P^1 in normalized homogeneous coordinates."""

    z0: complex
    z1: complex

    @staticmethod
    def of(value) -> "SpherePoint":
        """Coerce a chart value, 'inf', or an existing point."""
        if isinstance(value, SpherePoint):
            return value
        if value is None:
            raise ValueError("not a sphere point: None")
        if isinstance(value, str):
            if value.strip().lower() in ("inf", "infinity", "oo"):
                return SpherePoint(0.0 + 0.0j, 1.0 + 0.0j)
            return SpherePoint.of(complex(value))
        if isinstance(value, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            c = complex(value)
            if math.isinf(c.real) or math.isinf(c.imag):
                return SpherePoint(0.0 + 0.0j, 1.0 + 0.0j)
            return SpherePoint(1.0 + 0.0j, c)
        raise ValueError(f"not a sphere point: {value!r}")

    @staticmethod
    def from_pair(z0, z1) -> "SpherePoint":
        z0 = complex(z0)
        z1 = complex(z1)
        n0, n1 = abs(z0), abs(z1)
        if n0 == 0.0 and n1 == 0.0:
            raise ValueError("(0, 0) is not a point of P^1")
        # Normalize on the larger component to dodge overflow.
        if n0 >= n1 * 1e-14 and n0 != 0.0:
            return SpherePoint(1.0 + 0.0j, z1 / z0)
        return SpherePoint(0.0 + 0.0j, 1.0 + 0.0j)

    @property
    def is_infinity(self) -> bool:
        return self.z0 == 0.0

    @property
    def chart(self) -> complex:
        """Affine value z1/z0; raises at infinity."""
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no chart value")
        return self.z1 / self.z0

    def antipode(self) -> "SpherePoint":
        return SpherePoint.from_pair(-np.conj(self.z1), np.conj(self.z0))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.z1!r})"


def antipode(p) -> SpherePoint:
    """Antipodal point -1/conj(z)."""
    return SpherePoint.of(p).antipode()


def chordal(p, q) -> float:
    """Spherical chordal distance |p0 q1 - p1 q0| / (|p| |q|), range [0, 1]."""
    p = SpherePoint.of(p)
    q = SpherePoint.of(q)
    num = abs(p.z0 * q.z1 - p.z1 * q.z0)
    den = math.hypot(abs(p.z0), abs(p.z1)) * math.hypot(abs(q.z0), abs(q.z1))
    return num / den


@lru_cache(maxsize=None)
def _exponents(k: int) -> np.ndarray:
    e = np.arange(k + 1.0)
    e.setflags(write=False)
    return e


def vander(z, k: int) -> np.ndarray:
    """v(z) = (1, z, ..., z^k) at a chart value, or at every point of an array.

    The shape is (k + 1,) + z.shape: row j holds z^j.  A single point
    takes one power call against cached exponents; an array takes
    running products, which are cheaper once there are many points.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return np.power(z, _exponents(k))
    v = np.empty((k + 1,) + z.shape, dtype=complex)
    v[0] = 1.0
    for j in range(1, k + 1):
        np.multiply(v[j - 1], z, out=v[j])
    return v


def vander_derivative(v: np.ndarray) -> np.ndarray:
    """Chart derivative of v = vander(z, k): row j is j z^(j - 1)."""
    k = v.shape[0] - 1
    out = np.zeros_like(v)
    out[1:] = v[:k] * np.arange(1.0, k + 1).reshape((-1,) + (1,) * (v.ndim - 1))
    return out


def _hom(z0: complex, z1: complex, k: int) -> np.ndarray:
    """(z0^k, z0^(k-1) z1, ..., z1^k) = z0^k v(z1/z0); z1^k e_k when z0 = 0."""
    if z0 == 0.0:
        return z1**k * np.eye(1, k + 1, k, dtype=complex)[0]
    v = vander(z1 / z0, k)
    return v if z0 == 1.0 else z0**k * v


def hom_vector(p, k: int) -> np.ndarray:
    """Evaluation vector (z0^k, z0^{k-1} z1, ..., z1^k); row j is z^j in the chart."""
    p = SpherePoint.of(p)
    return _hom(p.z0, p.z1, k)


def folded_vector(p, k: int) -> np.ndarray:
    """conj(hom_vector(antipode(p), k)) computed without conjugating p.

    Entry i is (-z1)^{k-i} z0^i, holomorphic in the coordinates of p:
    the homogeneous vector of (-z1 : z0), which is that of (z0 : -z1)
    reversed; at infinity the unit vector (-1)^k e_0.  Pairing it against
    a coefficient matrix evaluates at the antipode, conjugation folded in.
    """
    p = SpherePoint.of(p)
    return _hom(p.z0, -p.z1, k)[::-1]


def proj_roots(coeffs) -> list[SpherePoint]:
    """Roots on P^1 of sum_j coeffs[j] z^j, infinity included.

    Degree deficiency d (the top d coefficients vanish relative to the
    largest one) contributes a root at infinity with multiplicity d.
    Finite roots come from the companion matrix via numpy.  Roots are
    returned sorted (finite lexicographically by real then imaginary
    part, infinities last) so callers see a deterministic order.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient vector must be 1-d and nonempty")
    scale = np.max(np.abs(c))
    if scale == 0.0 or not np.isfinite(scale):
        raise IdenticallyZero("polynomial vanishes identically")
    n = c.size - 1
    deg = n
    while deg > 0 and abs(c[deg]) <= COEFF_TOL * scale:
        deg -= 1
    if deg == 0 and abs(c[0]) <= COEFF_TOL * scale:
        raise IdenticallyZero("polynomial vanishes identically")
    finite = np.roots(c[deg::-1]) if deg > 0 else np.array([], dtype=complex)
    order = np.lexsort((finite.imag, finite.real))
    pts = [SpherePoint.of(z) for z in finite[order]]
    pts.extend(SpherePoint(0.0 + 0.0j, 1.0 + 0.0j) for _ in range(n - deg))
    return pts
