import numpy as np
import pytest

from monosphere.charge2 import (
    MassFlowReport,
    PonceletPolygon,
    Su2Triple,
    TwoMonopole,
    bracket,
    diagonal_quartic,
    estimate_mass,
    from_su2_triple,
    is_centred,
    mass_flow_check,
    p_sequence,
    poncelet,
    to_su2_triple,
    triple_product,
    z_lattice,
)
from monosphere.curves import SpectralMatrix, axial_spectral, metric_scale_residual
from monosphere.errors import (
    BranchPoint,
    ConicFitFailed,
    ConstraintViolated,
    IdenticallyZero,
    NoEstimate,
    NotCentred,
    NotFull,
    NotOnCurve,
)
from monosphere.projective import SpherePoint, antipode, chordal, proj_roots
from monosphere.spheres import factor_sphere, spectral_from_sphere, tuple_to_sphere

E = np.eye(3)
ORTHONORMAL = Su2Triple(E[0], E[1], E[2])


def random_triple(rng):
    return Su2Triple(*rng.standard_normal((3, 3)))


def identity_curve():
    return SpectralMatrix(2, np.eye(3, dtype=complex), normalized=True)


class TestTwoMonopole:
    def test_orthonormal_image(self):
        t = from_su2_triple(ORTHONORMAL)
        assert np.allclose(t.v0, [1 / np.sqrt(2), 0, 1j / np.sqrt(2)])
        assert np.allclose(t.v1, [0, 1, 0])
        assert np.allclose(t.v2, [-1 / np.sqrt(2), 0, 1j / np.sqrt(2)])
        assert t.residuals() == (0.0, 0.0)

    def test_constraints_exact_for_any_triple(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = from_su2_triple(random_triple(rng))
            gap, pair = t.residuals()
            assert gap < 1e-13 and pair < 1e-13

    def test_norm_violation_rejected(self):
        with pytest.raises(ConstraintViolated):
            TwoMonopole([1, 0, 0], [0, 1, 0], [0, 0, 2])

    def test_pairing_violation_rejected(self):
        # norms match but (v0,v1) + (v1,v2) = 2
        with pytest.raises(ConstraintViolated):
            TwoMonopole([1, 0, 0], [1, 0, 0], [0, 0, 1])

    def test_from_tuple_requires_charge_two(self):
        from monosphere.spheres import CoeffTuple

        t = CoeffTuple(1, np.eye(2, dtype=complex))
        with pytest.raises(ConstraintViolated):
            TwoMonopole.from_tuple(t)


class TestSu2Reduction:
    def test_round_trip_preserves_gram(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            nu = random_triple(rng)
            if not nu.is_full(1e-6):
                continue
            back = to_su2_triple(from_su2_triple(nu))
            assert np.allclose(back.gram(), nu.gram(), atol=1e-9 * max(1, nu.gram().max()))
            # canonical slice: r1 on the positive real axis
            assert back.r1[0] > 0 and abs(back.r1[1]) < 1e-12 and abs(back.r1[2]) < 1e-12

    def test_orthonormal_round_trip(self):
        back = to_su2_triple(from_su2_triple(ORTHONORMAL))
        assert np.allclose(back.gram(), np.eye(3), atol=1e-12)

    def test_reduction_output_is_canonical(self):
        rng = np.random.default_rng(9)
        nu = random_triple(rng)
        back = to_su2_triple(from_su2_triple(nu))
        t = from_su2_triple(back)
        # canonical means v2 = -conj(v0) already
        assert np.allclose(t.v2, -np.conj(t.v0))

    def test_coplanar_rejected(self):
        nu = Su2Triple([1, 0, 0], [0, 1, 0], [1, 1, 0])
        with pytest.raises(NotFull):
            to_su2_triple(from_su2_triple(nu))


class TestBracket:
    def test_orthonormal_is_fixed(self):
        b = bracket(ORTHONORMAL)
        assert np.allclose(b.stack(), ORTHONORMAL.stack())

    def test_stretch_example(self):
        nu = Su2Triple([1, 0, 0], [0, 1, 0], [0, 0, 2])
        b = bracket(nu)
        assert np.allclose(b.stack(), np.diag([2.0, 2.0, 1.0]))
        bb = bracket(b)
        assert np.allclose(bb.stack(), 2.0 * nu.stack())
        assert triple_product(nu) == pytest.approx(2.0)

    def test_involution_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            nu = random_triple(rng)
            bb = bracket(bracket(nu)).stack()
            expect = triple_product(nu) * nu.stack()
            assert np.max(np.abs(bb - expect)) <= 1e-10 * max(1.0, np.max(np.abs(expect)))

    def test_coplanar_collapses(self):
        nu = Su2Triple([1, 2, 0], [0, 1, 0], [3, -1, 0])
        assert triple_product(nu) == pytest.approx(0.0)
        bb = bracket(bracket(nu))
        assert np.allclose(bb.stack(), 0.0)


class TestDiagonalQuartic:
    def test_orthogonal_axial_coefficients(self):
        beta, gamma = 1.5, 0.7
        nu = Su2Triple([beta, 0, 0], [0, gamma, 0], [0, 0, beta])
        c = diagonal_quartic(nu)
        assert np.allclose(c, [0, 0, 2 * beta**2 - 2 * gamma**2, 0, 0])
        roots = proj_roots(c[::-1])
        finite_zero = [r for r in roots if not r.is_infinity]
        assert all(abs(r.chart) < 1e-12 for r in finite_zero)
        assert sum(r.is_infinity for r in roots) == 2

    def test_symmetric_point_degenerates(self):
        c = diagonal_quartic(ORTHONORMAL)
        assert np.allclose(c, 0.0)
        with pytest.raises(IdenticallyZero):
            proj_roots(c[::-1])

    def test_oracle_from_spectral_matrix(self):
        # coefficient of z^n in z^2 psi(z,z) is sum_i (-1)^i Psi[i, n-2+i]
        rng = np.random.default_rng(21)
        for _ in range(20):
            nu = random_triple(rng)
            t = from_su2_triple(nu)
            psi = spectral_from_sphere(tuple_to_sphere(t.as_tuple())).psi
            oracle = np.zeros(5, dtype=complex)
            for n in range(5):
                for i in range(3):
                    j = n - 2 + i
                    if 0 <= j <= 2:
                        oracle[n] += (-1.0) ** i * psi[i, j]
            got = diagonal_quartic(nu)[::-1]
            assert np.max(np.abs(got - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))

    def test_zero_set_matches_curve_diagonal(self):
        nu = Su2Triple([1, 0.2, 0], [0, 1.1, -0.3], [0.1, 0, 0.9])
        S = spectral_from_sphere(tuple_to_sphere(from_su2_triple(nu).as_tuple()))
        roots = proj_roots(diagonal_quartic(nu)[::-1])
        for r in roots:
            assert metric_scale_residual(S, r, r) <= 1e-8

    def test_roots_in_antipodal_pairs(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            nu = random_triple(rng)
            roots = proj_roots(diagonal_quartic(nu)[::-1])
            for r in roots:
                assert min(chordal(antipode(r), s) for s in roots) <= 1e-7


class TestMassFlow:
    def test_random_triples_first_order_invariant(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            nu = random_triple(rng)
            rep = mass_flow_check(nu)
            assert rep.full
            assert rep.first_order_invariant, rep.max_extrapolated
            d1 = np.max(np.abs(rep.derivative_coarse))
            d2 = np.max(np.abs(rep.derivative_fine))
            if d1 > 1e-9:
                # forward-difference bias shrinks linearly with the step
                assert d1 / d2 == pytest.approx(10.0, rel=0.05)

    def test_orthogonal_axial_cancellation(self):
        nu = Su2Triple([1.5, 0, 0], [0, 0.7, 0], [0, 0, 1.5])
        rep = mass_flow_check(nu)
        assert rep.first_order_invariant
        assert rep.max_extrapolated < 1e-10

    def test_coplanar_flagged(self):
        nu = Su2Triple([1, 2, 0], [0, 1, 0], [3, -1, 0])
        rep = mass_flow_check(nu)
        assert not rep.full
        assert rep.first_order_invariant


class TestZLattice:
    def test_double_root_start_is_branch_point(self):
        # <q(0), q(z)> = Psi[0, 0] for a diagonal Psi: both roots at infinity
        with pytest.raises(BranchPoint):
            z_lattice(factor_sphere(identity_curve()), 0.0)

    def test_half_mass_lattice(self):
        q = factor_sphere(identity_curve())
        lat = z_lattice(q, 1.0, max_steps=12)
        assert lat.closed and lat.period == 3
        expect = [SpherePoint.of(1.0),
                  SpherePoint.of(np.exp(2j * np.pi / 3)),
                  SpherePoint.of(np.exp(4j * np.pi / 3))]
        for e in expect:
            assert min(chordal(p, e) for p in lat.points) <= 1e-9
        assert len(lat.initial_roots) == 2

    def test_rotated_start_same_period(self):
        q = factor_sphere(identity_curve())
        lat = z_lattice(q, np.exp(0.37j), max_steps=12)
        assert lat.closed and lat.period == 3

    def test_orbit_is_well_defined_recurrence(self):
        q = factor_sphere(identity_curve())
        lat = z_lattice(q, 1.0, max_steps=12)
        z0, z1, z2 = lat.points
        fwd = z_lattice(q, z1.chart, max_steps=12, prev=z0.chart)
        assert chordal(fwd.points[1], z2) <= 1e-9
        bwd = z_lattice(q, z1.chart, max_steps=12, prev=z2.chart)
        assert chordal(bwd.points[1], z0) <= 1e-9

    def test_near_massless_does_not_close(self):
        q = factor_sphere(axial_spectral(2, 0.01))
        lat = z_lattice(q, 1.0, max_steps=12)
        assert not lat.closed
        assert lat.period is None

    def test_neighbours_are_orthogonal(self):
        from monosphere.spheres import eval_sphere

        q = factor_sphere(axial_spectral(2, 1.0))
        lat = z_lattice(q, 0.4 + 0.2j, max_steps=6)
        for a, b in zip(lat.points[:-1], lat.points[1:]):
            va, vb = eval_sphere(q, a), eval_sphere(q, b)
            ip = abs(np.vdot(va, vb)) / (np.linalg.norm(va) * np.linalg.norm(vb))
            assert ip <= 1e-9


class TestPSequence:
    def test_half_mass_hexagon_closure(self):
        S = identity_curve()
        p0 = (np.exp(1j * np.pi / 3), 1.0)
        seq = p_sequence(S, p0)
        assert seq.closed and seq.period == 6
        assert seq.max_residual <= 1e-12
        w1, z1 = seq.points[1]
        assert chordal(w1, SpherePoint.of(np.exp(1j * np.pi / 3))) <= 1e-9
        assert chordal(z1, SpherePoint.of(np.exp(2j * np.pi / 3))) <= 1e-9

    def test_alternation(self):
        S = identity_curve()
        seq = p_sequence(S, (np.exp(1j * np.pi / 3), 1.0))
        for i, (a, b) in enumerate(zip(seq.points[:-1], seq.points[1:])):
            if i % 2 == 0:
                assert chordal(a[0], b[0]) <= 1e-12
                assert chordal(a[1], b[1]) > 1e-3
            else:
                assert chordal(a[1], b[1]) <= 1e-12
                assert chordal(a[0], b[0]) > 1e-3

    def test_mass_one_closes_at_eight(self):
        S = axial_spectral(2, 1.0)
        from monosphere.charge2 import _vertical_roots

        w = 0.9 + 0.1j
        z = _vertical_roots(S, w)[0]
        seq = p_sequence(S, (w, z))
        assert seq.closed and seq.period == 8

    def test_not_on_curve(self):
        with pytest.raises(NotOnCurve):
            p_sequence(identity_curve(), (1.0, 1.0))

    def test_irrational_mass_no_closure(self):
        S = axial_spectral(2, 0.37)
        from monosphere.charge2 import _vertical_roots

        w = 0.9 + 0.1j
        z = _vertical_roots(S, w)[0]
        seq = p_sequence(S, (w, z), max_steps=40)
        assert not seq.closed


class TestEstimateMass:
    def test_half(self):
        assert estimate_mass(identity_curve()) == pytest.approx(0.5)

    def test_one(self):
        assert estimate_mass(axial_spectral(2, 1.0)) == pytest.approx(1.0)

    def test_two(self):
        assert estimate_mass(axial_spectral(2, 2.0)) == pytest.approx(2.0)

    def test_no_closure_raises(self):
        with pytest.raises(NoEstimate):
            estimate_mass(axial_spectral(2, 0.37))


class TestPoncelet:
    def test_centred_condition(self):
        assert is_centred(identity_curve())
        assert is_centred(axial_spectral(2, 1.0))
        assert not is_centred(SpectralMatrix(2, np.diag([2.0, 1.0, 1.0]).astype(complex)))
        hermitian_centred = np.array(
            [[1, 1j, 0], [-1j, 2, -1j], [0, 1j, 1]], dtype=complex
        )
        assert is_centred(SpectralMatrix(2, hermitian_centred))

    def test_hexagon(self):
        poly = poncelet(identity_curve(), (np.exp(1j * np.pi / 3), 1.0))
        assert poly.closed
        assert len(poly.vertices) == 6
        assert np.max(poly.vertex_residuals) < 1e-10
        assert np.max(poly.edge_incidence_residuals) < 1e-10
        assert np.max(poly.tangency_residuals) < 1e-12
        # the conic is v^2 = 3u
        target = np.array([0, 0, 1, -3, 0, 0], dtype=complex)
        c = poly.conic
        align = abs(np.vdot(c, target)) / (np.linalg.norm(c) * np.linalg.norm(target))
        assert align == pytest.approx(1.0, abs=1e-10)

    def test_perturbed_vertex_shows_in_residuals(self, monkeypatch):
        import monosphere.charge2 as charge2

        walk = charge2.p_sequence

        def moved(*args, **kwargs):
            seq = walk(*args, **kwargs)
            points = list(seq.points)
            w, z = points[2]
            points[2] = (w, SpherePoint.of(z.chart + 1e-9))
            return charge2.PSequence(points, seq.closed, seq.period, seq.max_residual)

        monkeypatch.setattr(charge2, "p_sequence", moved)
        poly = poncelet(identity_curve(), (np.exp(1j * np.pi / 3), 1.0))
        assert np.max(poly.edge_incidence_residuals) > 1e-11
        assert np.max(poly.tangency_residuals) > 1e-11

    def test_edge_residuals_vanish_only_on_the_tangent_line(self):
        from monosphere.charge2 import _edge_residuals

        s = 0.4 - 0.3j
        p, q = [(s * z, s + z) for z in (1.2 + 0.5j, -0.7 + 0.2j)]
        assert max(_edge_residuals(p, q, s)) < 1e-15
        incidence, tangency = _edge_residuals(p, (q[0] + 1e-3, q[1]), s)
        assert incidence > 1e-4 and tangency > 1e-4

    def test_conic_needs_five_points(self):
        from monosphere.charge2 import _fit_conic

        with pytest.raises(ConicFitFailed):
            _fit_conic([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (4.0, 1.0)])

    def test_not_centred_rejected(self):
        with pytest.raises(NotCentred):
            poncelet(SpectralMatrix(2, np.diag([2.0, 1.0, 1.0]).astype(complex)), (1.0, 1.0))

    def test_mass_one_octagon(self):
        S = axial_spectral(2, 1.0)
        from monosphere.charge2 import _vertical_roots

        w = 0.9 + 0.1j
        z = _vertical_roots(S, w)[0]
        poly = poncelet(S, (w, z.chart))
        assert poly.closed and len(poly.vertices) == 8
        assert np.max(poly.vertex_residuals) < 1e-8
        assert np.max(poly.edge_incidence_residuals) < 1e-8


class TestCenteringBridge:
    def test_centred_tuples_satisfy_constraints(self):
        from monosphere.centering import center_flow
        from monosphere.spheres import CoeffTuple

        rng = np.random.default_rng(55)
        for _ in range(5):
            v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            t = CoeffTuple(2, v + 2 * np.eye(3))
            res = center_flow(t)
            TwoMonopole.from_tuple(res.tuple_centred)

    def test_zero_moment_iff_constraints(self):
        from monosphere.centering import moment_map
        from monosphere.spheres import CoeffTuple

        rng = np.random.default_rng(60)
        nu = random_triple(rng)
        t = from_su2_triple(nu)
        mu = moment_map(t.as_tuple())
        assert abs(mu.mu_r) <= 1e-12
        assert abs(mu.mu_c) <= 1e-12
