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
them, with vander_derivative for its chart derivative and hom_vector
for its homogeneous form at a point (curves.metric_scale_residual
takes the same form over arrays of points as products of vander rows).
A curve is paired against hom_vector on both sides through its
bidegree coefficients, curves.bidegree(Psi).

The pair formulas, normalized for the representative and pair_chordal
for the chordal distance, are what SpherePoint.from_pair and chordal
call after coercion; scalar loops (the charge-2 walks) call them on
pairs of Python complex numbers directly.  proj_roots solves degrees 1
and 2 in closed form and higher degrees by numpy's companion matrix.
"""

from __future__ import annotations

import cmath
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
        """Coerce a chart value, 'inf', or an existing point; a NaN part is refused."""
        if isinstance(value, SpherePoint):
            return value
        if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", "oo"):
            return SpherePoint(0.0 + 0.0j, 1.0 + 0.0j)
        if not isinstance(value, (str, int, float, complex, np.integer, np.floating, np.complexfloating)):
            raise ValueError(f"not a sphere point: {value!r}")
        c = complex(value)
        if math.isnan(c.real) or math.isnan(c.imag):
            raise ValueError(f"not a number: {value!r}")
        if math.isinf(c.real) or math.isinf(c.imag):
            return SpherePoint(0.0 + 0.0j, 1.0 + 0.0j)
        return SpherePoint(1.0 + 0.0j, c)

    @staticmethod
    def from_pair(z0, z1) -> "SpherePoint":
        return SpherePoint(*normalized(complex(z0), complex(z1)))

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


def normalized(z0: complex, z1: complex) -> tuple[complex, complex]:
    """The normalized representative of the pair (z0 : z1) of complex
    numbers: (1, z1/z0), or (0, 1) once |z0| falls below 1e-14 |z1|."""
    n0, n1 = abs(z0), abs(z1)
    if n0 == 0.0 and n1 == 0.0:
        raise ValueError("(0, 0) is not a point of P^1")
    if n0 >= n1 * 1e-14 and n0 != 0.0:
        return 1.0 + 0.0j, z1 / z0
    return 0.0 + 0.0j, 1.0 + 0.0j


def pair_chordal(p0: complex, p1: complex, q0: complex, q1: complex) -> float:
    """Chordal distance |p0 q1 - p1 q0| / (|p| |q|) of the pairs (p0 : p1) and (q0 : q1)."""
    return abs(p0 * q1 - p1 * q0) / (math.hypot(abs(p0), abs(p1)) * math.hypot(abs(q0), abs(q1)))


def chordal(p, q) -> float:
    """Spherical chordal distance |p0 q1 - p1 q0| / (|p| |q|), range [0, 1]."""
    p = SpherePoint.of(p)
    q = SpherePoint.of(q)
    return pair_chordal(p.z0, p.z1, q.z0, q.z1)


def frozen(x, dtype, shape: tuple, name: str) -> np.ndarray:
    """A read-only copy of x as an array of dtype, the one way a value
    or a cached table holds an array; ValueError unless it has shape."""
    a = np.array(x, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"{name} must be {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _exponents(k: int) -> np.ndarray:
    return frozen(np.arange(k + 1.0), float, (k + 1,), "exponents")


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


def hom_vector(p, k: int) -> np.ndarray:
    """Evaluation vector (z0^k, z0^{k-1} z1, ..., z1^k); row j is z^j in the chart.

    That is z0^k v(z1/z0), and z1^k e_k when z0 = 0.
    """
    p = SpherePoint.of(p)
    if p.z0 == 0.0:
        return p.z1**k * np.eye(1, k + 1, k, dtype=complex)[0]
    v = vander(p.z1 / p.z0, k)
    return v if p.z0 == 1.0 else p.z0**k * v


def _quadratic_roots(c0: complex, c1: complex, c2: complex) -> tuple[complex, complex]:
    """Roots of c0 + c1 z + c2 z^2, c2 != 0, by the quadratic formula
    without cancellation: q = -(c1 + s sqrt(c1^2 - 4 c2 c0))/2 with the
    sign s that makes |c1 + s sqrt(...)| largest, roots q/c2 and c0/q
    (q = 0 only for the double root 0).  Real coefficients with complex
    roots give an exact conjugate pair, so its order is not rounding's."""
    r = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * (c1 + r if (c1.conjugate() * r).real >= 0.0 else c1 - r)
    first = q / c2
    if first.imag and not (c0.imag or c1.imag or c2.imag):
        return first, first.conjugate()
    return first, c0 / q if q else 0j


def proj_roots(coeffs) -> list[SpherePoint]:
    """Roots on P^1 of sum_j coeffs[j] z^j, infinity included.

    Degree deficiency d (the top d coefficients vanish relative to the
    largest one) contributes a root at infinity with multiplicity d.
    Finite roots of degree 1 and 2 are solved in closed form
    (_quadratic_roots, on the coefficients scaled by the power of two
    that brings the largest below 1, so nothing overflows); higher
    degrees take the companion matrix via numpy, a real one for real
    coefficients.  Roots are returned sorted (finite lexicographically
    by real then imaginary part, infinities last) so callers see a
    deterministic order, a conjugate pair -imag first.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient vector must be 1-d and nonempty")
    scale = np.abs(c).max()
    if scale == 0.0 or not math.isfinite(scale):
        raise IdenticallyZero("polynomial vanishes identically")
    n = c.size - 1
    deg = n
    while deg > 0 and abs(c[deg]) <= COEFF_TOL * scale:
        deg -= 1
    if deg <= 2:
        e = math.frexp(scale)[1]
        low = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in c[: deg + 1].tolist()]
        finite = [] if deg == 0 else [-low[0] / low[1]] if deg == 1 else _quadratic_roots(*low)
        # + 0.0 clears the sign of a zero part, as the companion solve does
        finite = sorted((z + 0.0 for z in finite), key=lambda z: (z.real, z.imag))
    else:
        finite = np.roots(c[deg::-1] if c.imag.any() else c.real[deg::-1])
        finite = finite[np.lexsort((finite.imag, finite.real))].astype(complex).tolist()
    # every root is finite once the scale is: no SpherePoint.of coercion
    pts = [SpherePoint(1.0 + 0.0j, z) for z in finite]
    pts.extend(SpherePoint(0.0 + 0.0j, 1.0 + 0.0j) for _ in range(n - deg))
    return pts
