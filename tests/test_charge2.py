import numpy as np
import pytest

from monosphere.charge2 import (
    CLOSURE_TOL,
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
    start_point,
    to_su2_triple,
    triple_product,
    z_lattice,
)
from monosphere.curves import SpectralMatrix, axial_spectral, metric_scale_residual
from monosphere.errors import (
    BranchPoint,
    ConstraintViolated,
    DomainViolation,
    IdenticallyZero,
    NoEstimate,
    NotCentred,
    NotFull,
    NotOnCurve,
)
from monosphere.projective import (
    SpherePoint,
    antipode,
    chordal,
    folded_vector,
    hom_vector,
    proj_roots,
)
from monosphere.ratmap import spectral_slice
from monosphere.spheres import eval_sphere, factor_sphere, spectral_from_sphere, tuple_to_sphere

E = np.eye(3)
ORTHONORMAL = Su2Triple(E[0], E[1], E[2])


def random_triple(rng):
    return Su2Triple(*rng.standard_normal((3, 3)))


def identity_curve():
    return SpectralMatrix(2, np.eye(3, dtype=complex))


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
            sv = np.linalg.svd(nu.stack(), compute_uv=False)
            if sv[-1] <= 1e-6 * sv[0]:  # keep well-conditioned triples only
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

    @pytest.mark.parametrize("ratio", [1e-6, 1e-8, 3e-9, 1e-9, 5e-10])
    def test_near_coplanar_keeps_the_gram(self, ratio):
        # the Householder solve lost 3.5e-8 of the Gram at a ratio of 6e-10,
        # and a Cholesky of the Gram fails there
        rng = np.random.default_rng(71)
        for _ in range(20):
            U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            W, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            nu = Su2Triple(*(U @ np.diag([2.0, 0.7, 2.0 * ratio]) @ W.T))
            assert nu.is_full()
            back = to_su2_triple(from_su2_triple(nu))
            gram = nu.gram()
            assert np.max(np.abs(back.gram() - gram)) <= 1e-12 * np.max(np.abs(gram))
            assert back.r1[0] > 0 and back.r1[1] == 0.0 and back.r1[2] == 0.0
            t = from_su2_triple(back)
            assert np.array_equal(t.v2, -np.conj(t.v0))


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
            assert rep.first_order_invariant, rep.max_derivative

    def test_orthogonal_axial_cancellation(self):
        nu = Su2Triple([1.5, 0, 0], [0, 0.7, 0], [0, 0, 1.5])
        rep = mass_flow_check(nu)
        assert rep.first_order_invariant
        assert rep.max_derivative < 1e-10

    def test_coplanar_flagged(self):
        nu = Su2Triple([1, 2, 0], [0, 1, 0], [3, -1, 0])
        rep = mass_flow_check(nu)
        assert not rep.full
        assert rep.first_order_invariant

    def test_large_triple_judged_at_its_scale(self):
        nu = Su2Triple(*(10.0 * np.array([[12.573, -13.21, 64.042], [10.49, -53.567, 36.16], [130.4, 94.708, -70.374]])))
        rep = mass_flow_check(nu)
        assert rep.max_derivative > 1e-8  # rounding at |N| |B| ~ 3e9, above an absolute 1e-8
        assert rep.first_order_invariant

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_scaled_random_triple_invariant(self, scale):
        nu = Su2Triple(*(scale * np.random.default_rng(43).standard_normal((3, 3))))
        assert mass_flow_check(nu).first_order_invariant

    def test_flow_that_moves_the_gram_fails(self, monkeypatch):
        import monosphere.charge2 as charge2

        # along nu itself the Gram moves at 2 N N^T, so the quartic moves at twice itself
        monkeypatch.setattr(charge2, "bracket", lambda nu: nu)
        rng = np.random.default_rng(47)
        for _ in range(10):
            nu = random_triple(rng)
            rep = mass_flow_check(nu)
            assert not rep.first_order_invariant
            assert np.allclose(rep.derivative, 2.0 * diagonal_quartic(nu), rtol=1e-12, atol=1e-12)


def _step(c, r, tol=CLOSURE_TOL):
    from monosphere.charge2 import _vieta_step

    return _vieta_step(np.asarray(c, dtype=complex), SpherePoint.of(r), tol)


class TestVietaStep:
    def test_matches_the_root_solve_on_random_quadratics(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            c *= 10.0 ** rng.uniform(-3, 3, 3)
            a, b = proj_roots(c)
            assert chordal(_step(c, a), b) <= 1e-12
            assert chordal(_step(c, b), a) <= 1e-12

    @pytest.mark.parametrize(
        "c, r, s",
        [
            ([0, 1, 0], 0, "inf"),  # z0 z1: roots 0 and infinity
            ([0, 1, 0], "inf", 0),
            ([2, 3, 0], "inf", -2 / 3),  # c2 = 0: a root at infinity
            ([2, 3, 0], -2 / 3, "inf"),
            ([0, 3, 2], 0, -1.5),  # c0 = 0: a root at 0
            ([0, 3, 2], -1.5, 0),
        ],
    )
    def test_zero_infinity_and_degree_deficient_lines(self, c, r, s):
        got = _step(c, r)
        want = SpherePoint.of(s)
        assert got.is_infinity == want.is_infinity and chordal(got, want) == 0.0

    @pytest.mark.parametrize("small, large", [(1e-8, 1e8), (1e-8 + 2e-9j, -3e8j)])
    def test_widely_spread_roots_keep_every_digit(self, small, large):
        # the z-chart sum alone gives (small + large) - large, which rounds to 0
        c = [small * large, -(small + large), 1.0]
        assert abs(_step(c, large).chart - small) <= 4e-16 * abs(small)
        assert abs(_step(c, small).chart - large) <= 4e-16 * abs(large)

    @pytest.mark.parametrize(
        "c, r",
        [([1, -2, 1], 1), ([1, 0, 0], "inf"), ([0, 0, 1], 0), ([1, 0, 0], 1e13)],
        ids=["at-1", "at-infinity", "at-0", "at-infinity-from-off-it"],
    )
    def test_double_root_is_branch_point(self, c, r):
        with pytest.raises(BranchPoint):
            _step(c, r)

    def test_roots_within_tol_are_branch_point(self):
        c = [1.0, -2.0, 1.0 - 1e-12]  # roots 1 +- 1e-6
        assert chordal(_step(c, proj_roots(c)[0], tol=1e-8), proj_roots(c)[1]) <= 1e-9
        with pytest.raises(BranchPoint):
            _step(c, proj_roots(c)[0], tol=1e-5)

    @pytest.mark.parametrize("c", [[0, 0, 0], [1, np.inf, 0], [np.nan, 1, 1]])
    def test_vanishing_or_non_finite_line_is_identically_zero(self, c):
        with pytest.raises(IdenticallyZero):
            _step(c, 1.0)


def _root_solve_walk(points, line, max_steps, tol=CLOSURE_TOL):
    """Reference walk: solve the line through the newest point with
    proj_roots and take the root farther from the point it replaces."""
    start = points[0]
    while True:
        n = len(points) - 1
        if n and all(chordal(a, b) <= tol for a, b in zip(points[-1], start)):
            return points[:-1], n
        if n >= max_steps:
            return points, None
        row, i = line(points)
        # a lattice avoids z_{i-1}; a P-sequence the coordinate it moves
        old = points[-2 if len(points[-1]) == 1 else -1][i]
        new = max(proj_roots(row), key=lambda r: chordal(r, old))
        points.append(tuple(new if j == i else p for j, p in enumerate(points[-1])))


def _reference_p_sequence(S, p0, max_steps=40):
    def line(points):
        w, z = points[-1]
        if len(points) % 2:
            return folded_vector(w, 2) @ S.psi, 1
        d = S.psi @ hom_vector(z, 2)
        return [d[2], -d[1], d[0]], 0

    p0 = (SpherePoint.of(p0[0]), SpherePoint.of(p0[1]))
    return _root_solve_walk([p0], line, max_steps)


def _reference_z_lattice(q, z0, max_steps=48):
    z0 = SpherePoint.of(z0)
    first = z_lattice(q, z0, max_steps=1).points[1]  # the solved first step
    points, period = _root_solve_walk(
        [(z0,), (first,)], lambda pts: (np.conj(eval_sphere(q, pts[-1][0])) @ q.Q, 0), max_steps
    )
    return [z for (z,) in points], period


def _walk_curves():
    """The criterion-08 axial curves and three random k = 2 curves A A* + 3 I."""
    curves = [axial_spectral(2, 0.5), axial_spectral(2, 0.01)]
    rng = np.random.default_rng(808)
    for _ in range(3):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        curves.append(SpectralMatrix(2, A @ np.conj(A).T + 3.0 * np.eye(3)))
    return curves


class TestWalksMatchTheRootSolve:
    @pytest.mark.parametrize("i", range(5))
    @pytest.mark.parametrize("w", [0.9 + 0.1j, -1.17j, 1.9 - 0.33j])
    def test_p_sequence(self, i, w):
        S = _walk_curves()[i]
        p0 = start_point(S, w)
        seq = p_sequence(S, p0)
        points, period = _reference_p_sequence(S, p0)
        assert seq.period == period and seq.closed == (period is not None)
        assert len(seq.points) == len(points)
        for (w1, z1), (w2, z2) in zip(seq.points, points):
            assert chordal(w1, w2) <= 1e-12 and chordal(z1, z2) <= 1e-12

    @pytest.mark.parametrize("i", range(5))
    @pytest.mark.parametrize("z0", [1.0, 0.4 + 0.2j, -2.1 + 0.7j])
    def test_z_lattice(self, i, z0):
        q = factor_sphere(_walk_curves()[i])
        lat = z_lattice(q, z0, max_steps=12)
        points, period = _reference_z_lattice(q, z0, max_steps=12)
        assert lat.period == period and lat.closed == (period is not None)
        assert len(lat.points) == len(points)
        assert max(chordal(a, b) for a, b in zip(lat.points, points)) <= 1e-12


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

    def test_each_step_takes_the_other_root(self):
        # the slice at z_i holds z_{i-1} and z_{i+1}, and they are distinct
        q = factor_sphere(axial_spectral(2, 1.0))
        lat = z_lattice(q, 0.4 + 0.2j, max_steps=12)
        assert len(lat.points) >= 3
        for prev, cur, nxt in zip(lat.points, lat.points[1:], lat.points[2:]):
            roots = spectral_slice(q, cur)
            assert min(chordal(prev, r) for r in roots) <= 1e-9
            assert min(chordal(nxt, r) for r in roots) <= 1e-9
            assert chordal(prev, nxt) > CLOSURE_TOL

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
        w = 0.9 + 0.1j
        z = proj_roots(folded_vector(w, 2) @ S.psi)[0]
        seq = p_sequence(S, (w, z))
        assert seq.closed and seq.period == 8

    def test_not_on_curve(self):
        with pytest.raises(NotOnCurve):
            p_sequence(identity_curve(), (1.0, 1.0))

    @pytest.mark.parametrize("w", [1.0, -1.0])
    def test_start_point_breaks_a_conjugate_tie_by_the_imaginary_part(self, w):
        # on the real axis the two roots of an axial curve are a conjugate pair
        S = axial_spectral(2, 1.0)
        roots = [r.chart for r in proj_roots(folded_vector(w, 2) @ S.psi)]
        assert abs(roots[0] - np.conj(roots[1])) <= 1e-12 and abs(roots[0].imag) > 0.1
        w0, z0 = start_point(S, w)
        assert w0.chart == w and metric_scale_residual(S, w0, z0) <= 1e-15
        assert z0.chart.imag < 0 and abs(z0.chart - min(roots, key=lambda c: c.imag)) <= 1e-12

    def test_irrational_mass_no_closure(self):
        S = axial_spectral(2, 0.37)
        w = 0.9 + 0.1j
        z = proj_roots(folded_vector(w, 2) @ S.psi)[0]
        seq = p_sequence(S, (w, z), max_steps=40)
        assert not seq.closed


class TestEstimateMass:
    def test_half(self):
        assert estimate_mass(identity_curve()) == pytest.approx(0.5)

    def test_one(self):
        assert estimate_mass(axial_spectral(2, 1.0)) == pytest.approx(1.0)

    def test_two(self):
        assert estimate_mass(axial_spectral(2, 2.0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("j", range(1, 17))
    def test_axial_quarter_masses_exact(self, j):
        # odd 4m closes after twice 4m + 4 half-steps, while w winds twice
        assert estimate_mass(axial_spectral(2, j / 4)) == j / 4

    @pytest.mark.parametrize("m", [0.25, 0.5, 1.0, 1.5, 1 / 3])
    def test_rotated_axial_curve_keeps_its_mass(self, m):
        # w circles the rotated axis, not 0: its arg about 0 need not wind
        from monosphere.centering import Mobius, act_sl2
        from monosphere.spheres import sphere_to_tuple

        c, s = np.cos(0.6), np.sin(0.6) * np.exp(0.5j)
        t = act_sl2(Mobius(c, -s, np.conj(s), c), sphere_to_tuple(factor_sphere(axial_spectral(2, m))))
        S = spectral_from_sphere(tuple_to_sphere(t))
        off_diagonal = np.abs(S.psi - np.diag(np.diag(S.psi)))
        assert is_centred(S) and np.max(off_diagonal) > 1e-2 * np.max(np.abs(S.psi))
        assert estimate_mass(S) == m

    @pytest.mark.parametrize("m", [0.1, 0.3, 1 / 3, 1 / 6, 1.1])
    def test_rational_masses_exact(self, m):
        assert estimate_mass(axial_spectral(2, m)) == m

    def test_no_closure_raises(self):
        with pytest.raises(NoEstimate):
            estimate_mass(axial_spectral(2, 0.37))

    def test_massless_curve_has_no_estimate(self):
        with pytest.raises(NoEstimate):
            estimate_mass(axial_spectral(2, 0.0))

    def test_walk_without_winding_has_no_estimate(self, monkeypatch):
        import monosphere.charge2 as charge2

        monkeypatch.setattr(charge2, "_winding", lambda seq: 0)
        with pytest.raises(NoEstimate, match="does not wind"):
            estimate_mass(identity_curve())

    def test_other_charge_is_domain_violation(self):
        with pytest.raises(DomainViolation):
            estimate_mass(SpectralMatrix(3, np.eye(4, dtype=complex)))


def _fitted_conic(verts):
    """Oracle: the null vector of the (u^2, uv, v^2, u, v, 1) rows of the
    distinct vertex images, largest entry 1; the conic must be unique."""
    from monosphere.charge2 import _conic_rows

    uniq = []
    for p in verts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-12 for q in uniq):
            uniq.append(p)
    _, sv, vh = np.linalg.svd(_conic_rows(uniq))
    assert len(uniq) >= 5 and sv[4] > 1e-10 * sv[0]
    coef = np.conj(vh[-1])
    return coef / coef[np.argmax(np.abs(coef))]


def _centred_random_curve(seed):
    """A A* + 3 I averaged with its factor swap: exactly centred, positive definite."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psi = A @ np.conj(A).T + 3.0 * np.eye(3)
    signs = np.outer([1.0, -1.0, 1.0], [1.0, -1.0, 1.0])
    return SpectralMatrix(2, (psi + signs * psi[::-1, ::-1].T) / 2.0)


PONCELET_STARTS = (0.78 + 0.21j, -1.17j, 1.9 - 0.33j)


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
        # the conic is v^2 = 3u
        target = np.array([0, 0, 1, -3, 0, 0], dtype=complex)
        c = poly.conic
        align = abs(np.vdot(c, target)) / (np.linalg.norm(c) * np.linalg.norm(target))
        assert align == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("w", PONCELET_STARTS)
    @pytest.mark.parametrize("m", [1 / 4, 1 / 3, 1 / 2, 1, 3 / 2, 2, 5 / 2, 3])
    def test_conic_matches_the_fit_through_the_vertices(self, m, w):
        S = axial_spectral(2, m)
        poly = poncelet(S, start_point(S, w))
        assert poly.closed
        assert np.max(np.abs(poly.conic - _fitted_conic(poly.vertices))) <= 1e-13

    @pytest.mark.parametrize("seed", range(6))
    def test_conic_matches_the_fit_on_random_centred_curves(self, seed):
        S = _centred_random_curve(seed)
        assert is_centred(S)
        for w in PONCELET_STARTS:
            poly = poncelet(S, start_point(S, w))
            assert np.max(np.abs(poly.conic - _fitted_conic(poly.vertices))) <= 1e-13
            assert np.max(poly.vertex_residuals) < 1e-13

    def test_perturbed_vertex_shows_in_residuals(self, monkeypatch):
        import monosphere.charge2 as charge2

        clean = poncelet(identity_curve(), (np.exp(1j * np.pi / 3), 1.0))
        assert np.max(clean.vertex_residuals) < 1e-15
        walk = charge2.p_sequence

        def moved(*args, **kwargs):
            seq = walk(*args, **kwargs)
            points = list(seq.points)
            w, z = points[2]
            points[2] = (w, SpherePoint.of(z.chart + 1e-9))
            return charge2.PSequence(points, seq.closed, seq.period, seq.max_residual)

        monkeypatch.setattr(charge2, "p_sequence", moved)
        poly = poncelet(identity_curve(), (np.exp(1j * np.pi / 3), 1.0))
        assert np.max(poly.vertex_residuals) > 1e-11

    def test_short_walk_is_an_open_polygon(self):
        # three half-steps are too few to fit a conic, none to read it off
        poly = poncelet(identity_curve(), (np.exp(1j * np.pi / 3), 1.0), steps=3)
        assert not poly.closed and len(poly.vertices) == 4
        assert np.max(poly.vertex_residuals) < 1e-15

    def test_not_centred_rejected(self):
        with pytest.raises(NotCentred):
            poncelet(SpectralMatrix(2, np.diag([2.0, 1.0, 1.0]).astype(complex)), (1.0, 1.0))

    def test_mass_one_octagon(self):
        S = axial_spectral(2, 1.0)
        w = 0.9 + 0.1j
        z = proj_roots(folded_vector(w, 2) @ S.psi)[0]
        poly = poncelet(S, (w, z.chart))
        assert poly.closed and len(poly.vertices) == 8
        assert np.max(poly.vertex_residuals) < 1e-8


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
