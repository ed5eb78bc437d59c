"""Axially symmetric charge-2 fields over hyperbolic space.

The field is carried by a Hermitian metric H(z, r), where r > 0 is the
hyperbolic distance from the origin and z a holomorphic chart on the
sphere at distance r.  Two radial profiles a(r) > 0 and |b(r)| <= 1
determine H:

    H = (1/D) [ a + 2bt + t^2/a          w zbar^2          ]
              [ w z^2                    1/a + 2bt + a t^2 ]

with t = |z|^2, w = sqrt(1 - b^2)(a - 1/a), s = b(a + 1/a) and
D = 1 + s t + t^2.  The algebra gives det H = 1 identically for every
admissible profile pair, so det H checks the formula, not the field.

H packages a field pair (A, Phi) in the gauge whose antiholomorphic
connection component vanishes:

    A_z = H^-1 dH/dz,   A_r = (1/2) H^-1 dH/dr,   Phi = (-i/2) H^-1 dH/dr,

and the pair solves the Bogomolny equation exactly when

    d/dr(H^-1 dH/dr) + ((1+t)^2 / sinh^2 r) d/dzbar(H^-1 dH/dz) = 0.

A profile returns its jet (value, d/dr, d^2/dr^2), and D H is linear in
the jets of (a, 1/a, b, w, s) and in the monomials (1, t, t^2, zbar^2,
z^2), so the quotient rule gives the derivatives of H, the gauge fields
and the residual above exactly.  The mass is read off the axis through
the gauge-invariant scalar tr Phi^2.  The profile a = b = sech r is an
exact solution of mass 1/2 and doubles as the accuracy oracle;
a = e^{-2r}, b = 0 solves only a degenerate limit of the equation and
serves as the negative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainViolation, NonFiniteResult
from .spheres import HoloSphere

# Axis singularity at r = 0 and the chart point z = infinity are
# excluded by a fixed margin: sinh^-2 blows up and the chart formula
# for H is local.
R_MIN = 0.1
Z_MAX = 4.0

Jet = tuple[float, float, float]


@dataclass(frozen=True)
class AxialField:
    """Radial profile pair (a, b), each returning (value, d/dr, d^2/dr^2)."""

    a: Callable[[float], Jet]
    b: Callable[[float], Jet]

    def profile(self, r: float) -> tuple[Jet, Jet]:
        """Validated jets of a and b at r; profiles must stay admissible."""
        a = tuple(map(float, self.a(r)))
        b = tuple(map(float, self.b(r)))
        if not a[0] > 0.0:
            raise DomainViolation(f"profile a(r) must be positive, got {a[0]} at r={r}")
        if abs(b[0]) > 1.0:
            raise DomainViolation(f"profile |b(r)| must not exceed 1, got {b[0]} at r={r}")
        return a, b


def _sech(r: float) -> Jet:
    s, t = 1.0 / math.cosh(r), math.tanh(r)
    return s, -s * t, s * (t * t - s * s)


def sech_field() -> AxialField:
    """The exact mass-1/2 solution a(r) = b(r) = sech r."""
    return AxialField(a=_sech, b=_sech)


def _exp_minus_2r(r: float) -> Jet:
    e = math.exp(-2.0 * r)
    if e == 0.0:
        # a is positive; only its floating-point value underflows
        raise NonFiniteResult(f"a(r) = e^(-2r) underflows to 0 at r={r}")
    return e, -2.0 * e, 4.0 * e


def zero_mass_field() -> AxialField:
    """a = e^{-2r}, b = 0: solves only a degenerate limit equation.

    Used as the negative control: its Bogomolny residual is of order one
    off the axis (it vanishes on the axis itself).
    """
    return AxialField(a=_exp_minus_2r, b=lambda r: (0.0, 0.0, 0.0))


def _check_point(z: complex, r: float) -> None:
    if not r >= R_MIN:
        raise DomainViolation(f"r={r} inside the excluded axis margin {R_MIN}")
    if not abs(z) <= Z_MAX:
        raise DomainViolation(f"|z|={abs(z)} beyond the chart margin {Z_MAX}")


def _times(f: Jet, g: Jet) -> Jet:
    """Jet of the product f g by the Leibniz rule."""
    return f[0] * g[0], f[1] * g[0] + f[0] * g[1], f[2] * g[0] + 2.0 * f[1] * g[1] + f[0] * g[2]


def _coefficients(field: AxialField, r: float):
    """Value, d/dr and d^2/dr^2 of the coefficients (a, 1/a, b, w, s, 1).

    The jet of 1/a is taken in the ratio q = a'/a, which stays of order
    one where a' a' underflows; NonFiniteResult when it overflows.  Where
    1 - b^2 = 0 the jet of sqrt(1 - b^2) exists only if b' = b'' = 0; it
    is then zero.
    """
    a, b = field.profile(r)
    (a0, a1, a2), (b0, b1, b2) = a, b
    i0 = 1.0 / a0
    q = a1 * i0
    inv = (i0, -q * i0, (2.0 * q * q - a2 * i0) * i0)
    if not all(map(math.isfinite, inv)):
        raise NonFiniteResult(f"the jet of 1/a(r) overflows at r={r}: {inv}")
    c0 = math.sqrt(1.0 - b0 * b0)
    if c0 > 0.0:
        c1 = -b0 * b1 / c0
        c = (c0, c1, -(b1 * b1 + b0 * b2 + c1 * c1) / c0)
    elif b1 == 0.0 and b2 == 0.0:
        c = (0.0, 0.0, 0.0)
    else:
        raise DomainViolation(f"sqrt(1 - b^2) has no jet at r={r}: |b| = 1 with b' or b'' nonzero")
    w = _times(c, (a0 - inv[0], a1 - inv[1], a2 - inv[2]))
    s = _times(b, (a0 + inv[0], a1 + inv[1], a2 + inv[2]))
    return tuple(zip(a, inv, b, w, s, (1.0, 0.0, 0.0)))


def _numerator(c: Sequence[float], m: Sequence[complex]) -> tuple[np.ndarray, complex]:
    """N and D of H = N / D, linear in the coefficients c = (a, 1/a, b, w, s, 1)
    and in the monomials m = (1, t, t^2, zbar^2, z^2); a derivative of
    either in place of its value gives that derivative of N and D."""
    a, inv, b, w, s, one = c
    m0, t, t2, zb2, z2 = m
    N = np.array([[a * m0 + 2.0 * b * t + inv * t2, w * zb2], [w * z2, inv * m0 + 2.0 * b * t + a * t2]])
    return N, one * (m0 + t2) + s * t


def _quotient(field: AxialField, z: complex, r: float):
    """Coefficient jets, chart monomials, H = N / D and D at (z, r)."""
    _check_point(z, r)
    c = _coefficients(field, r)
    t, zb = abs(z) ** 2, z.conjugate()
    m = (1.0, t, t * t, zb * zb, z * z)
    N, D = _numerator(c[0], m)
    if not D > 0.0:
        raise DomainViolation(f"denominator D={D} not positive at (z={z}, r={r})")
    return c, m, N / D, D


def H_matrix(field: AxialField, z: complex, r: float) -> np.ndarray:
    """The 2x2 Hermitian metric at (z, r).

    det H = 1 for every admissible profile pair, solution or not: it
    checks the algebra of the formula for H, not the field.
    """
    return _quotient(field, complex(z), r)[2]


def _metric(field: AxialField, z: complex, r: float):
    """H with its exact derivatives H_r, H_rr, H_z and H_zzbar at (z, r)."""
    c, m, H, D = _quotient(field, z, r)
    t, zb = m[1], z.conjugate()
    N_r, D_r = _numerator(c[1], m)
    N_rr, D_rr = _numerator(c[2], m)
    N_z, D_z = _numerator(c[0], (0.0, zb, 2.0 * t * zb, 0.0, 2.0 * z))
    N_zzb, D_zzb = _numerator(c[0], (0.0, 1.0, 4.0 * t, 0.0, 0.0))
    # Quotient rule on N = H D; H is Hermitian, so H_zbar = H_z^*.
    H_r = (N_r - D_r * H) / D
    H_rr = (N_rr - 2.0 * D_r * H_r - D_rr * H) / D
    H_z = (N_z - D_z * H) / D
    H_zzb = (N_zzb - np.conj(D_z) * H_z - D_z * np.conj(H_z).T - D_zzb * H) / D
    return H, H_r, H_rr, H_z, H_zzb


@dataclass(frozen=True)
class GaugeSample:
    """Gauge fields at a point, in the gauge with A_zbar = 0.

    Phi = -i A_r exactly (shared definition through dH/dr).  The
    gauge-invariant scalar tr Phi^2 is recorded alongside.
    """

    A_z: np.ndarray
    A_r: np.ndarray
    Phi: np.ndarray
    trace_phi_sq: complex


def gauge_fields(field: AxialField, z: complex, r: float) -> GaugeSample:
    """Gauge fields from the exact derivatives of H."""
    H, H_r, _, H_z, _ = _metric(field, complex(z), r)
    Hinv = np.linalg.inv(H)
    A_r = 0.5 * (Hinv @ H_r)
    Phi = -1j * A_r
    return GaugeSample(A_z=Hinv @ H_z, A_r=A_r, Phi=Phi, trace_phi_sq=complex(np.trace(Phi @ Phi)))


@dataclass(frozen=True)
class PointResidual:
    z: complex
    r: float
    residual: float


@dataclass(frozen=True)
class ResidualReport:
    max_frobenius: float
    per_point: tuple[PointResidual, ...]


def _residual_matrix(field: AxialField, z: complex, r: float) -> np.ndarray:
    """d/dr(H^-1 H_r) + ((1+t)^2 / sinh^2 r) d/dzbar(H^-1 H_z), by the product rule."""
    H, H_r, H_rr, H_z, H_zzb = _metric(field, z, r)
    Hinv = np.linalg.inv(H)
    F_r = Hinv @ H_r
    radial = Hinv @ H_rr - F_r @ F_r
    angular = Hinv @ H_zzb - (Hinv @ np.conj(H_z).T) @ (Hinv @ H_z)
    return radial + (1.0 + abs(z) ** 2) ** 2 / math.sinh(r) ** 2 * angular


def bog_residual(field: AxialField, grid: Iterable[tuple[complex, float]]) -> ResidualReport:
    """Frobenius residual of the Bogomolny equation at each grid point.

    grid is an iterable of (z, r) pairs, each inside the margins R_MIN
    and Z_MAX.  The residual is exact up to rounding: on a solution it
    sits at the rounding floor, and on anything else it measures the
    defect of the field.
    """
    rows = []
    for z, r in grid:
        z = complex(z)
        R = _residual_matrix(field, z, r)
        rows.append(PointResidual(z=z, r=float(r), residual=float(np.linalg.norm(R))))
    if not rows:
        raise DomainViolation("empty residual grid")
    return ResidualReport(
        max_frobenius=max(p.residual for p in rows),
        per_point=tuple(rows),
    )


def mass_profile(field: AxialField, r_list: Sequence[float]) -> list[float]:
    """m(r) = sqrt(-tr Phi(0, r)^2 / 2) along the axis.

    The scalar is conjugation-invariant, so it reads the same in every
    gauge; on the axis Phi = (-i/2) diag(a'/a, -a'/a), so m = |a'/a| / 2.
    """
    out = []
    for r in r_list:
        sample = gauge_fields(field, 0j, float(r))
        out.append(math.sqrt(max(-0.5 * sample.trace_phi_sq.real, 0.0)))
    return out


def sphere_of_sech() -> HoloSphere:
    """The holomorphic sphere of the sech-profile field.

    q(z) = ((1+z)/sqrt2, i(1-z)/sqrt2, z^2).  The coefficient matrix is
    unitary, so the attached curve matrix is exactly the identity and
    the coefficient tuple already has moment map (0, 0).
    """
    rt = 1.0 / math.sqrt(2.0)
    Q = np.array(
        [
            [rt, rt, 0.0],
            [1j * rt, -1j * rt, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return HoloSphere(2, Q)
