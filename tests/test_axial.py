import math

import numpy as np
import pytest

from monosphere.axial import (
    AxialField,
    H_matrix,
    _coefficients,
    bog_residual,
    gauge_fields,
    mass_profile,
    sech_field,
    sphere_of_sech,
    zero_mass_field,
)
from monosphere.boundary import degree_integral
from monosphere.charge2 import z_lattice
from monosphere.centering import moment_map
from monosphere.curves import SpectralMatrix
from monosphere.errors import DomainViolation, NonFiniteResult
from monosphere.spheres import eval_sphere, spectral_from_sphere, sphere_to_tuple


def constant(c):
    """A constant profile: value c, zero derivatives."""
    return lambda r: (c, 0.0, 0.0)


def residual_grid():
    rs = np.linspace(0.2, 4.0, 8)
    zs = [
        0j,
        0.3 + 0j,
        0.7 + 0.7j,
        1.5 + 0j,
        2.0 * np.exp(1j * np.pi / 4),
        -2.0 + 0j,
        1.2j,
        0.5 - 1.1j,
    ]
    return [(z, r) for r in rs for z in zs]


class TestHMatrix:
    def test_axis_is_diagonal_profile(self):
        field = AxialField(a=constant(1.7), b=constant(0.3))
        H = H_matrix(field, 0j, 2.0)
        assert np.allclose(H, np.diag([1.7, 1.0 / 1.7]), atol=1e-15)

    def test_hermitian_positive_definite_on_domain(self):
        field = sech_field()
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = rng.uniform(0.1, 5.0)
            z = rng.uniform(0.0, 4.0) * np.exp(2j * np.pi * rng.uniform())
            if abs(z) > 4.0:
                continue
            H = H_matrix(field, z, r)
            assert np.allclose(H, np.conj(H).T, atol=1e-15)
            vals = np.linalg.eigvalsh(H)
            assert vals[0] > 0.0

    def test_determinant_is_one(self):
        # det H = 1 holds for every admissible profile pair, not just
        # solutions; it checks the algebra of the formula, not the field.
        # admissible pairs: D > 0 for all t needs b(a + 1/a) > -2
        cases = [(1.7, 0.3), (0.2, -0.3), (5.0, 0.99), (1.0, 0.0), (2.5, -0.4)]
        zs = [0j, 1.0 + 0j, 0.5 - 1.3j, 2.0j, 3.5 + 0j]
        for a0, b0 in cases:
            field = AxialField(a=constant(a0), b=constant(b0))
            for z in zs:
                H = H_matrix(field, z, 1.0)
                assert abs(np.linalg.det(H) - 1.0) < 1e-12

    def test_unit_b_kills_off_diagonal(self):
        field = AxialField(a=constant(1.0), b=constant(1.0))
        H = H_matrix(field, 0.8 + 0.5j, 1.0)
        assert H[0, 1] == 0 and H[1, 0] == 0
        assert np.allclose(H, np.eye(2), atol=1e-15)

    def test_sech_entries(self):
        field = sech_field()
        z, r = 0.7 + 0.4j, 1.1
        a = 1.0 / math.cosh(r)
        t = abs(z) ** 2
        D = (1.0 + t) ** 2 - (2.0 - a * (a + 1.0 / a)) * t
        off = math.sqrt(1.0 - a * a) * (a - 1.0 / a)
        H = H_matrix(field, z, r)
        assert np.isclose(H[0, 0], (a + 2 * a * t + t * t / a) / D, atol=1e-15)
        assert np.isclose(H[1, 0], off * z**2 / D, atol=1e-15)
        assert H[0, 1] == np.conj(H[1, 0])

    def test_axis_margin_rejected(self):
        with pytest.raises(DomainViolation):
            H_matrix(sech_field(), 0j, 0.05)

    def test_chart_margin_rejected(self):
        with pytest.raises(DomainViolation):
            H_matrix(sech_field(), 4.5 + 0j, 1.0)

    def test_negative_profile_rejected(self):
        field = AxialField(a=constant(-1.0), b=constant(0.0))
        with pytest.raises(DomainViolation):
            H_matrix(field, 0j, 1.0)

    def test_oversized_b_rejected(self):
        field = AxialField(a=constant(1.0), b=constant(1.2))
        with pytest.raises(DomainViolation):
            H_matrix(field, 0j, 1.0)

    def test_vanishing_denominator_rejected(self):
        # b = -1, a = 1 drives D = (1-t)^2, zero on the unit circle.
        field = AxialField(a=constant(1.0), b=constant(-1.0))
        with pytest.raises(DomainViolation):
            H_matrix(field, 1.0 + 0j, 1.0)

    def test_unit_b_with_slope_rejected(self):
        # |b| = 1 with b' != 0: sqrt(1 - b^2) has no derivative there.
        field = AxialField(a=constant(2.0), b=lambda r: (1.0, -0.5, 0.0))
        with pytest.raises(DomainViolation):
            H_matrix(field, 0.3 + 0.2j, 1.0)
        with pytest.raises(DomainViolation):
            bog_residual(field, [(0.3 + 0.2j, 1.0)])


class TestInverseJet:
    def test_zero_mass_inverse_jet_far_out(self):
        # At r = 200, a'a' = 4 e^(-4r) underflows to 0; the jet of 1/a =
        # e^(2r) must still be (e^(2r), 2 e^(2r), 4 e^(2r)).
        r = 200.0
        (_, inv0, *_), (_, inv1, *_), (_, inv2, *_) = _coefficients(zero_mass_field(), r)
        e = math.exp(2.0 * r)
        for got, want in zip((inv0, inv1, inv2), (e, 2.0 * e, 4.0 * e)):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("r", [354.7, 360.0, 1000.0])
    def test_zero_mass_inverse_overflow_is_numerical(self, r):
        # 2/a and 4/a in the jet overflow at 354.7, 1/a at 360 (a subnormal); a is 0 at 1000
        with pytest.raises(NonFiniteResult):
            H_matrix(zero_mass_field(), 0.5 + 0j, r)


class TestGaugeFields:
    def test_phi_is_minus_i_ar(self):
        g = gauge_fields(sech_field(), 0.4 + 0.3j, 1.1)
        assert np.array_equal(g.Phi, -1j * g.A_r)

    def test_axis_sample_is_diagonal(self):
        # On the axis H and its derivatives are diagonal, so A_r and
        # Phi are diagonal and A_z vanishes.
        g = gauge_fields(sech_field(), 0j, 1.2)
        assert g.Phi[0, 1] == 0 and g.Phi[1, 0] == 0
        assert np.allclose(g.A_z, 0.0, atol=1e-15)

    def test_axis_ar_matches_log_derivative(self):
        # A_r(0, r) = (1/2) diag(d ln a, -d ln a); for sech the log
        # derivative is -tanh r.
        r = 1.3
        g = gauge_fields(sech_field(), 0j, r)
        expected = -0.5 * math.tanh(r) * np.diag([1.0, -1.0])
        assert np.allclose(g.A_r, expected, atol=1e-15)

    def test_trace_phi_sq_recorded(self):
        g = gauge_fields(sech_field(), 0j, 2.0)
        direct = complex(np.trace(g.Phi @ g.Phi))
        assert g.trace_phi_sq == direct
        assert g.trace_phi_sq.real < 0.0

    def test_margin_violation(self):
        with pytest.raises(DomainViolation):
            gauge_fields(sech_field(), 0j, 0.0995)
        with pytest.raises(DomainViolation):
            gauge_fields(sech_field(), 4.0005 + 0j, 1.0)


class TestBogResidual:
    def test_sech_solution_residual_small(self):
        report = bog_residual(sech_field(), residual_grid())
        assert report.max_frobenius <= 1e-12
        assert len(report.per_point) == 64

    def test_wrong_second_derivative_fails(self):
        # Control: sech with its a'' jet scaled by 1.01 is no solution,
        # and the exact residual sees it.
        sech = sech_field()

        def a(r):
            value, slope, curvature = sech.a(r)
            return value, slope, 1.01 * curvature

        report = bog_residual(AxialField(a=a, b=sech.b), residual_grid())
        assert report.max_frobenius > 1e-12

    def test_zero_mass_profile_fails(self):
        # Negative control: the residual is a nonzero defect of the field,
        # the same on every call.
        grid = [
            (z, r)
            for r in np.linspace(0.5, 2.5, 5)
            for z in [0.4 + 0j, 0.8j, 1.0 + 0.5j, 1.5 + 0j]
        ]
        first = bog_residual(zero_mass_field(), grid)
        second = bog_residual(zero_mass_field(), grid)
        assert first.max_frobenius > 1.0
        assert second.max_frobenius == first.max_frobenius

    def test_constant_profile_large_residual(self):
        field = AxialField(a=constant(0.5), b=constant(0.5))
        grid = [(0.5 + 0.2j, r) for r in (0.5, 1.0, 2.0)]
        report = bog_residual(field, grid)
        assert report.max_frobenius > 0.1

    def test_grid_point_outside_domain(self):
        with pytest.raises(DomainViolation):
            bog_residual(sech_field(), [(0j, 0.05)])

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainViolation):
            bog_residual(sech_field(), [])


class TestMassProfile:
    def test_sech_matches_half_tanh(self):
        rs = [0.5, 1.0, 2.0, 4.0]
        masses = mass_profile(sech_field(), rs)
        for r, m in zip(rs, masses):
            assert abs(m - math.tanh(r) / 2.0) < 1e-14

    def test_sech_mass_near_half_far_out(self):
        (m,) = mass_profile(sech_field(), [6.0])
        assert abs(m - 0.5) < 1e-3

    def test_sech_mass_monotone(self):
        rs = np.linspace(1.0, 6.0, 11)
        masses = mass_profile(sech_field(), rs)
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_zero_mass_profile_axis_scalar(self):
        # The exponential profile has constant log derivative, so the
        # axis scalar sits at exactly 1 for every r; it does not decay.
        masses = mass_profile(zero_mass_field(), [1.0, 3.0, 5.0])
        assert np.allclose(masses, 1.0, atol=1e-15)


class TestSphereOfSech:
    def test_components_match_display(self):
        q = sphere_of_sech()
        z = 0.37 + 0.21j
        got = eval_sphere(q, z)
        rt = 1.0 / math.sqrt(2.0)
        expected = np.array([rt * (1 + z), 1j * rt * (1 - z), z**2])
        assert np.allclose(got, expected, atol=1e-15)

    def test_moment_map_is_zero(self):
        mu = moment_map(sphere_to_tuple(sphere_of_sech()))
        assert mu.magnitude < 1e-14

    def test_tuple_gram_norms(self):
        t = sphere_to_tuple(sphere_of_sech())
        gram = np.conj(t.v) @ t.v.T
        assert np.allclose(np.diag(gram), [1.0, 0.5, 1.0], atol=1e-15)
        assert abs(gram[0, 1]) < 1e-15 and abs(gram[1, 2]) < 1e-15 and abs(gram[0, 2]) < 1e-15

    def test_spectral_matrix_is_identity(self):
        S = spectral_from_sphere(sphere_of_sech())
        assert np.allclose(S.psi, np.eye(3), atol=1e-15)
        assert np.allclose(np.linalg.eigvalsh(S.psi), [1.0, 1.0, 1.0], atol=1e-14)

    def test_z_lattice_period_three(self):
        lattice = z_lattice(sphere_of_sech(), 1.0)
        assert lattice.closed and lattice.period == 3

    def test_boundary_degree_matches_charge(self):
        S = SpectralMatrix(2, np.eye(3))
        value, _ = degree_integral(S)
        assert abs(value - 2.0) < 1e-4
