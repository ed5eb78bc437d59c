import math

import numpy as np
import pytest

from monosphere.axial import (
    AxialField,
    H_matrix,
    _coefficients,
    _residual_matrix,
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

    @pytest.mark.parametrize("r", [20.0, 30.0])
    def test_ill_conditioned_metric_is_refused(self, r):
        # cond(H) <= |H|_F^2 since det H = 1; past H_ROUNDING / eps the
        # inverse is rounding noise
        for evaluate in (lambda: gauge_fields(sech_field(), 0.5, r), lambda: bog_residual(sech_field(), [(0.5, r)])):
            with pytest.raises(NonFiniteResult, match="ill-conditioned"):
                evaluate()

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


def field_grid():
    """72 points: the axis and 4 points on each of |z| = 1, 2, on 8 radii."""
    return [
        (radius * np.exp(2j * np.pi * j / 4) if radius else 0j, float(r))
        for r in np.linspace(0.2, 4.0, 8)
        for radius in (0.0, 1.0, 2.0)
        for j in range(4 if radius else 1)
    ]


def ill_conditioned_past_five():
    """b = -1, a = 1 (D = (1 - t)^2) up to r = 5, then a = e^-r, b = 0, whose
    H is past H_ROUNDING at r = 30."""

    def a(r):
        return (math.exp(-r), -math.exp(-r), math.exp(-r)) if r > 5.0 else (1.0, 0.0, 0.0)

    return AxialField(a=a, b=lambda r: (0.0, 0.0, 0.0) if r > 5.0 else (-1.0, 0.0, 0.0))


def bad_b_from_two():
    """a = 1, b = -1 below r = 2 (D = (1 - t)^2 vanishes on |z| = 1), |b| = 2 from r = 2 on."""
    return AxialField(a=constant(1.0), b=lambda r: (-1.0, 0.0, 0.0) if r < 2.0 else (2.0, 0.0, 0.0))


class TestBatchedKernel:
    @pytest.mark.parametrize(
        "field",
        [sech_field(), zero_mass_field(), AxialField(a=constant(1.7), b=constant(0.3))],
        ids=["sech", "zero-mass", "constant"],
    )
    def test_grid_matches_one_point_evaluations(self, field):
        grid = field_grid()
        report = bog_residual(field, grid)
        assert len(report.per_point) == 72
        for (z, r), point in zip(grid, report.per_point):
            (one,) = _residual_matrix(field, [z], [r])
            single = float(np.linalg.norm(one))
            assert (point.z, point.r) == (complex(z), r)
            assert abs(point.residual - single) <= 1e-15 * max(single, 1.0)
        assert report.max_frobenius == max(p.residual for p in report.per_point)

    @pytest.mark.parametrize("field", [sech_field(), zero_mass_field()], ids=["sech", "zero-mass"])
    def test_mass_profile_matches_one_radius_calls(self, field):
        rs = [float(r) for r in np.linspace(0.5, 6.0, 12)]
        assert mass_profile(field, rs) == [mass_profile(field, [r])[0] for r in rs]

    @pytest.mark.parametrize(
        "field, grid, error, message",
        [
            # D <= 0 at the second point, the margin at the third, the profile at the fourth
            (
                bad_b_from_two(),
                [(0.3, 1.0), (1.0, 1.0), (0j, 0.05), (0.5, 3.0)],
                DomainViolation,
                "denominator D=0.0 not positive at (z=(1+0j), r=1.0)",
            ),
            (
                bad_b_from_two(),
                [(0.3, 1.0), (0j, 0.05), (1.0, 1.0), (0.5, 3.0)],
                DomainViolation,
                "r=0.05 inside the excluded axis margin 0.1",
            ),
            (
                bad_b_from_two(),
                [(0.3, 1.0), (0.5, 3.0), (1.0, 1.0), (5.0, 1.0)],
                DomainViolation,
                "profile |b(r)| must not exceed 1, got 2.0 at r=3.0",
            ),
            (
                bad_b_from_two(),
                [(0.3, 1.0), (5.0, 1.0), (0j, 0.05)],
                DomainViolation,
                "|z|=5.0 beyond the chart margin 4.0",
            ),
            # the profile is evaluated once per radius, but fails at its first point
            (
                bad_b_from_two(),
                [(0.3, 3.0), (1.0, 1.0)],
                DomainViolation,
                "profile |b(r)| must not exceed 1, got 2.0 at r=3.0",
            ),
            (
                ill_conditioned_past_five(),
                [(0.5, 30.0), (1.0, 1.0)],
                NonFiniteResult,
                "H is too ill-conditioned to invert at (z=(0.5+0j), r=30.0): |H|_F^2 eps = 2.54e+10 exceeds 1e-04",
            ),
            (
                ill_conditioned_past_five(),
                [(1.0, 1.0), (0.5, 30.0)],
                DomainViolation,
                "denominator D=0.0 not positive at (z=(1+0j), r=1.0)",
            ),
            (
                zero_mass_field(),
                [(0.5, 1.0), (0.5, 360.0), (0.5, 1000.0)],
                NonFiniteResult,
                "the jet of 1/a(r) overflows at r=360.0: (inf, inf, nan)",
            ),
            (
                zero_mass_field(),
                [(0.5, 1.0), (0.5, 1000.0), (0.5, 360.0)],
                NonFiniteResult,
                "a(r) = e^(-2r) underflows to 0 at r=1000.0",
            ),
            # cosh(1000) overflows inside the sech profile
            (sech_field(), [(0.5, 1.0), (0.5, 1000.0), (0j, 0.05)], OverflowError, "math range error"),
            (sech_field(), [(0.5, 1.0), (0j, 0.05), (0.5, 1000.0)], DomainViolation, "r=0.05 inside the excluded axis margin 0.1"),
        ],
    )
    def test_first_failing_point_in_grid_order(self, field, grid, error, message):
        with pytest.raises(error) as caught:
            bog_residual(field, grid)
        assert type(caught.value) is error
        assert str(caught.value) == message


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
