"""Axially symmetric charge-2 fields over hyperbolic space.

The field is carried by a Hermitian metric H(z, r), where r > 0 is the
hyperbolic distance from the origin and z a holomorphic chart on the
sphere at distance r.  Two radial profiles a(r) > 0 and |b(r)| <= 1
determine H:

    H = (1/D) [ a + 2bt + t^2/a          c (a - 1/a) zbar^2 ]
              [ c (a - 1/a) z^2          1/a + 2bt + a t^2  ]

with t = |z|^2, c = sqrt(1 - b^2) and D = (1+t)^2 - (2 - b(a + 1/a)) t.
The algebra gives det H = 1 identically for every admissible profile
pair, which serves as the stored analytic check.

H packages a field pair (A, Phi) in the gauge whose antiholomorphic
connection component vanishes:

    A_z = H^-1 dH/dz,   A_r = (1/2) H^-1 dH/dr,   Phi = (-i/2) H^-1 dH/dr,

and the pair solves the Bogomolny equation exactly when

    d/dr(H^-1 dH/dr) + ((1+t)^2 / sinh^2 r) d/dzbar(H^-1 dH/dz) = 0.

The module evaluates H, forms the gauge fields by central finite
differences, measures the residual of the equation above on a grid,
and reads the mass off the axis through the gauge-invariant scalar
tr Phi^2.  The profile a = b = sech r is an exact solution of mass 1/2
and doubles as the accuracy oracle; a = e^{-2r}, b = 0 solves only a
degenerate limit of the equation and serves as the negative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainViolation
from .spheres import HoloSphere

# Axis singularity at r = 0 and the chart point z = infinity are
# excluded by a fixed margin: sinh^-2 blows up and the chart formula
# for H is local.
R_MIN = 0.1
Z_MAX = 4.0
# Default finite-difference step; keeps the O(h^2) truncation of the
# residual near 1e-7 on the sech solution while staying three orders
# of magnitude above the rounding floor of the second-difference
# stencils.
DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class AxialField:
    """Radial profile pair (a, b), evaluated inside the margins R_MIN, Z_MAX."""

    a: Callable[[float], float]
    b: Callable[[float], float]

    def profile(self, r: float) -> tuple[float, float]:
        """Validated (a(r), b(r)); profiles must stay admissible."""
        av = float(self.a(r))
        bv = float(self.b(r))
        if not av > 0.0:
            raise DomainViolation(f"profile a(r) must be positive, got {av} at r={r}")
        if abs(bv) > 1.0:
            raise DomainViolation(f"profile |b(r)| must not exceed 1, got {bv} at r={r}")
        return av, bv


def sech_field() -> AxialField:
    """The exact mass-1/2 solution a(r) = b(r) = sech r."""
    return AxialField(a=lambda r: 1.0 / math.cosh(r), b=lambda r: 1.0 / math.cosh(r))


def zero_mass_field() -> AxialField:
    """a = e^{-2r}, b = 0: solves only a degenerate limit equation.

    Used as the negative control: its Bogomolny residual does not
    converge to zero under step refinement.
    """
    return AxialField(a=lambda r: math.exp(-2.0 * r), b=lambda r: 0.0)


def _check_point(z: complex, r: float, margin: float = 0.0) -> None:
    if not r - margin >= R_MIN:
        raise DomainViolation(f"r={r} inside the excluded axis margin {R_MIN} (+{margin})")
    if not abs(z) + margin <= Z_MAX:
        raise DomainViolation(f"|z|={abs(z)} beyond the chart margin {Z_MAX} (-{margin})")


def H_matrix(field: AxialField, z: complex, r: float) -> np.ndarray:
    """The 2x2 Hermitian metric at (z, r); det H = 1 identically."""
    z = complex(z)
    _check_point(z, r)
    a, b = field.profile(r)
    t = abs(z) ** 2
    s = b * (a + 1.0 / a)
    D = (1.0 + t) ** 2 - (2.0 - s) * t
    if not D > 0.0:
        raise DomainViolation(f"denominator D={D} not positive at (z={z}, r={r})")
    off = math.sqrt(max(1.0 - b * b, 0.0)) * (a - 1.0 / a)
    H = np.array(
        [
            [a + 2.0 * b * t + t * t / a, off * np.conj(z) ** 2],
            [off * z**2, 1.0 / a + 2.0 * b * t + a * t * t],
        ],
        dtype=complex,
    )
    return H / D


@dataclass(frozen=True)
class GaugeSample:
    """Gauge fields at a point, in the gauge with A_zbar = 0.

    Phi = -i A_r exactly (shared definition through dH/dr).  The
    gauge-invariant scalar tr Phi^2 is recorded alongside, and
    derivative_check estimates the absolute finite-difference error of
    the returned matrices by Richardson comparison at half the step.
    """

    z: complex
    r: float
    step: float
    A_z: np.ndarray
    A_r: np.ndarray
    Phi: np.ndarray
    trace_phi_sq: complex
    derivative_check: float


def _first_derivatives(field: AxialField, z: complex, r: float, h: float):
    """Central-difference (dH/dz, dH/dr) at step h."""
    dx = (H_matrix(field, z + h, r) - H_matrix(field, z - h, r)) / (2.0 * h)
    dy = (H_matrix(field, z + 1j * h, r) - H_matrix(field, z - 1j * h, r)) / (2.0 * h)
    dr = (H_matrix(field, z, r + h) - H_matrix(field, z, r - h)) / (2.0 * h)
    return (dx - 1j * dy) / 2.0, dr


def gauge_fields(field: AxialField, z: complex, r: float, step: float = DEFAULT_STEP) -> GaugeSample:
    """Gauge fields by central differences at the given step."""
    z = complex(z)
    if not step > 0.0:
        raise DomainViolation(f"step must be positive, got {step}")
    _check_point(z, r, margin=step)
    Hinv = np.linalg.inv(H_matrix(field, z, r))
    dz, dr = _first_derivatives(field, z, r, step)
    dz_half, dr_half = _first_derivatives(field, z, r, step / 2.0)
    # O(h^2) scheme: error(D_h) ~ (4/3)|D_h - D_{h/2}|.
    check = (4.0 / 3.0) * max(
        float(np.linalg.norm(dz - dz_half)), float(np.linalg.norm(dr - dr_half))
    )
    A_z = Hinv @ dz
    A_r = 0.5 * (Hinv @ dr)
    Phi = -1j * A_r
    return GaugeSample(
        z=z,
        r=float(r),
        step=float(step),
        A_z=A_z,
        A_r=A_r,
        Phi=Phi,
        trace_phi_sq=complex(np.trace(Phi @ Phi)),
        derivative_check=check,
    )


@dataclass(frozen=True)
class PointResidual:
    z: complex
    r: float
    residual: float


@dataclass(frozen=True)
class ResidualReport:
    max_frobenius: float
    per_point: tuple[PointResidual, ...]


def _residual_matrix(field: AxialField, z: complex, r: float, h: float) -> np.ndarray:
    H0 = H_matrix(field, z, r)
    Hxp = H_matrix(field, z + h, r)
    Hxm = H_matrix(field, z - h, r)
    Hyp = H_matrix(field, z + 1j * h, r)
    Hym = H_matrix(field, z - 1j * h, r)
    Hrp = H_matrix(field, z, r + h)
    Hrm = H_matrix(field, z, r - h)
    Hinv = np.linalg.inv(H0)

    dr = (Hrp - Hrm) / (2.0 * h)
    drr = (Hrp - 2.0 * H0 + Hrm) / (h * h)
    dx = (Hxp - Hxm) / (2.0 * h)
    dy = (Hyp - Hym) / (2.0 * h)
    # d/dz dzbar = (d^2/dx^2 + d^2/dy^2)/4 via the five-point stencil.
    lap = (Hxp + Hxm + Hyp + Hym - 4.0 * H0) / (h * h)
    dz = (dx - 1j * dy) / 2.0
    dzbar = (dx + 1j * dy) / 2.0

    # Product rule on d/dr(H^-1 dH/dr) and d/dzbar(H^-1 dH/dz); one
    # inverse per point, all stencils O(h^2).
    Fr = Hinv @ dr
    radial = Hinv @ drr - Fr @ Fr
    angular = Hinv @ (lap / 4.0) - (Hinv @ dzbar) @ (Hinv @ dz)
    t = abs(z) ** 2
    c = (1.0 + t) ** 2 / math.sinh(r) ** 2
    return radial + c * angular


def bog_residual(
    field: AxialField,
    grid: Iterable[tuple[complex, float]],
    step: float = DEFAULT_STEP,
) -> ResidualReport:
    """Frobenius residual of the Bogomolny equation at each grid point.

    grid is an iterable of (z, r) pairs, each an interior point with
    margin at least step.  On an exact solution the residual is pure
    truncation error and shrinks by ~4 per step halving; on anything
    else it converges to the nonzero defect of the field.
    """
    if not step > 0.0:
        raise DomainViolation(f"step must be positive, got {step}")
    rows = []
    for z, r in grid:
        z = complex(z)
        _check_point(z, r, margin=step)
        R = _residual_matrix(field, z, r, step)
        rows.append(PointResidual(z=z, r=float(r), residual=float(np.linalg.norm(R))))
    if not rows:
        raise DomainViolation("empty residual grid")
    return ResidualReport(
        max_frobenius=max(p.residual for p in rows),
        per_point=tuple(rows),
    )


def mass_profile(
    field: AxialField, r_list: Sequence[float], step: float = DEFAULT_STEP
) -> list[float]:
    """m(r) = sqrt(-tr Phi(0, r)^2 / 2) along the axis.

    The scalar is conjugation-invariant, so it reads the same in every
    gauge; for Phi ~ diag(im, -im) it returns m exactly.
    """
    out = []
    for r in r_list:
        sample = gauge_fields(field, 0j, float(r), step)
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
