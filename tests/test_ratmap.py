import numpy as np
import pytest

from monosphere.curves import axial_spectral
from monosphere.errors import (
    DegenerateMap,
    DegenerateZeros,
    LineNotThroughQw,
    NoConvergence,
    RealPointFound,
)
from monosphere.projective import SpherePoint, antipode, chordal
from monosphere.ratmap import (
    ProjLine,
    RationalMap,
    find_line,
    massless_curve,
    project_map,
    spectral_slice,
)
from monosphere.spheres import HoloSphere, eval_sphere, factor_sphere


def identity_sphere(k):
    return HoloSphere(k, np.eye(k + 1, dtype=complex), canonical=True)


def random_sphere(rng, k):
    m = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    # keep it well away from rank deficiency
    return HoloSphere(k, m + 2.0 * np.eye(k + 1))


def admissible_line(q, w, rng=None, seed=0):
    if rng is None:
        rng = np.random.default_rng(seed)
    u1 = eval_sphere(q, w)
    u1 = u1 / np.linalg.norm(u1)
    cand = rng.standard_normal(q.k + 1) + 1j * rng.standard_normal(q.k + 1)
    cand = cand - (np.conj(u1) @ cand) * u1
    return ProjLine(u1, cand / np.linalg.norm(cand))


def mset_match(got, expected, tol=1e-8):
    """Multiset equality of SpherePoint lists under chordal distance."""
    assert len(got) == len(expected)
    left = list(got)
    for e in expected:
        hit = min(range(len(left)), key=lambda i: chordal(left[i], e))
        assert chordal(left[hit], e) <= tol
        left.pop(hit)


class TestSpectralSlice:
    def test_identity_k2_at_one(self):
        roots = spectral_slice(identity_sphere(2), 1.0)
        mset_match(roots, [SpherePoint.of(np.exp(2j * np.pi / 3)),
                           SpherePoint.of(np.exp(-2j * np.pi / 3))])

    def test_identity_k2_at_zero_is_doubly_infinite(self):
        roots = spectral_slice(identity_sphere(2), 0.0)
        assert len(roots) == 2
        assert all(r.is_infinity for r in roots)

    def test_charge_one_pole_formula(self):
        a = 1.7
        q = HoloSphere(1, np.diag([1.0, np.sqrt(a)]).astype(complex))
        for w in (0.4 + 0.2j, -1.1j, 2.0):
            (root,) = spectral_slice(q, w)
            assert chordal(root, SpherePoint.of(-1.0 / (a * np.conj(w)))) < 1e-12

    def test_charge_one_unit_pole_is_antipode(self):
        q = identity_sphere(1)
        w = 0.3 - 0.8j
        (root,) = spectral_slice(q, w)
        assert chordal(root, antipode(SpherePoint.of(w))) < 1e-12


class TestProjectMap:
    def test_identity_k1_gives_z(self):
        q = identity_sphere(1)
        L = ProjLine(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        f = project_map(q, 0.0, L)
        assert np.allclose(f.num, [0.0, 1.0])
        assert np.allclose(f.den, [1.0, 0.0])

    def test_zero_at_base_point(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            for _ in range(5):
                q = random_sphere(rng, k)
                w = rng.standard_normal() + 1j * rng.standard_normal()
                f = project_map(q, w, admissible_line(q, w, rng))
                zc = SpherePoint.of(w).chart
                num_at_w = np.polyval(f.num[::-1], zc)
                den_at_w = np.polyval(f.den[::-1], zc)
                assert abs(num_at_w) <= 1e-10 * max(1.0, abs(den_at_w))

    def test_poles_match_slice_for_ten_lines(self):
        rng = np.random.default_rng(11)
        q = random_sphere(rng, 3)
        w = 0.6 + 0.3j
        expected = spectral_slice(q, w)
        for _ in range(10):
            f = project_map(q, w, admissible_line(q, w, rng))
            mset_match(f.poles(), expected, tol=1e-8)

    def test_pole_at_infinity_with_multiplicity(self):
        q = identity_sphere(2)
        f = project_map(q, 0.0, admissible_line(q, 0.0))
        poles = f.poles()
        assert len(poles) == 2
        assert all(p.is_infinity for p in poles)

    def test_degree_bookkeeping(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            q = random_sphere(rng, k)
            w = rng.standard_normal() + 1j * rng.standard_normal()
            f = project_map(q, w, admissible_line(q, w, rng))
            assert len(f.zeros()) == k
            assert len(f.poles()) == k

    def test_rejects_line_missing_qw(self):
        q = identity_sphere(2)
        basis = np.eye(3, dtype=complex)
        with pytest.raises(LineNotThroughQw):
            project_map(q, 1.0, ProjLine(basis[0], basis[1]))

    def test_normalization_largest_coeff_is_one(self):
        rng = np.random.default_rng(3)
        q = random_sphere(rng, 2)
        f = project_map(q, 0.5j, admissible_line(q, 0.5j, rng))
        assert abs(np.max(np.abs(f.num)) - 1.0) < 1e-12
        assert abs(np.max(np.abs(f.den)) - 1.0) < 1e-12
        top_n = f.num[np.argmax(np.abs(f.num))]
        top_d = f.den[np.argmax(np.abs(f.den))]
        assert abs(top_n - 1.0) < 1e-12 and abs(top_d - 1.0) < 1e-12


class TestFindLine:
    def test_k1_is_forced_zero_iterations(self):
        q = identity_sphere(1)
        line, its = find_line(q, 0.3 + 0.1j)
        assert its == 0
        assert abs(np.vdot(line.u1, line.u2)) < 1e-12

    def test_identity_k2_self_consistent(self):
        q = identity_sphere(2)
        line, its = find_line(q, 1.0, tol=1e-6)
        assert its <= 5
        # the double-zero line at w=1: u2 proportional to (1,-2,1)
        target = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        assert abs(abs(np.vdot(line.u2, target)) - 1.0) < 1e-6
        f = project_map(q, 1.0, line)
        zeros = f.zeros()
        assert all(chordal(z, SpherePoint.of(1.0)) < 1e-3 for z in zeros)

    def test_random_spheres_stabilize(self):
        rng = np.random.default_rng(31)
        for k in (2, 3):
            for _ in range(5):
                q = random_sphere(rng, k)
                w = rng.standard_normal() + 1j * rng.standard_normal()
                line, its = find_line(q, w)
                assert its <= 5
                # one more sweep from the answer moves by < tol
                line2, its2 = find_line(q, w)
                assert abs(abs(np.vdot(line.u2, line2.u2)) - 1.0) < 1e-9

    def test_unsettled_line_raises_with_last_line(self):
        # one sweep settles on these inputs, so only an unreachable
        # tolerance leaves the budget of one sweep exhausted
        q = random_sphere(np.random.default_rng(7), 3)
        with pytest.raises(NoConvergence) as info:
            find_line(q, 0.3 + 0.1j, tol=0.0, max_iter=1)
        assert isinstance(info.value.last, ProjLine)
        assert info.value.residual > 0.0

    def test_axial_charge24_zeros_degenerate(self):
        q = factor_sphere(axial_spectral(24, 0.5))
        with pytest.raises(DegenerateZeros):
            find_line(q, 0.3 + 0.2j)

    def test_returned_line_orthocomplement_property(self):
        rng = np.random.default_rng(5)
        q = random_sphere(rng, 3)
        w = 1.2 - 0.4j
        line, _ = find_line(q, w)
        f = project_map(q, w, line)
        for z in f.zeros():
            if z.is_infinity:
                vec = q.Q[:, q.k]
            else:
                vec = eval_sphere(q, z)
            assert abs(np.vdot(line.u2, vec)) <= 1e-7 * np.linalg.norm(vec)


class TestRationalMap:
    def test_resultant_identity(self):
        f = RationalMap.normalized([0.0, 1.0], [1.0, 0.0])
        assert abs(f.resultant() - 1.0) < 1e-12

    def test_resultant_vanishes_on_common_root(self):
        # num = (z-1)(z-2), den = (z-1)(z+3)
        f = RationalMap.normalized([2.0, -3.0, 1.0], [-3.0, 2.0, 1.0])
        assert abs(f.resultant()) < 1e-10

    def test_scale_recorded(self):
        f = RationalMap.normalized([0.0, 5.0j], [2.0, 0.0])
        assert np.isclose(f.scale, 2.5j)
        assert np.allclose(f.num, [0.0, 1.0])
        assert np.allclose(f.den, [1.0, 0.0])


class TestMasslessCurve:
    def test_identity_map_gives_identity_matrix(self):
        f = RationalMap.normalized([0.0, 1.0], [1.0, 0.0])
        S = massless_curve(f)
        assert S.massless and S.normalized
        assert np.array_equal(S.psi, np.eye(2))

    def test_potts_family_no_real_points(self):
        # f(z) = c / (z^2 - a), small real a > 0
        for a, c in ((0.1, 0.05), (0.01, 1.0)):
            f = RationalMap.normalized([c, 0.0, 0.0], [-a, 0.0, 1.0])
            S = massless_curve(f)
            assert S.k == 2
            ev = np.linalg.eigvalsh(S.psi)
            assert ev[0] >= -1e-12
            # rank at most two
            assert ev[-3] <= 1e-12 * ev[-1]

    def test_constant_map_rejected(self):
        with pytest.raises(DegenerateMap):
            massless_curve(RationalMap.normalized([2.0, 2.0], [1.0, 1.0]))

    def test_degree_zero_map_rejected(self):
        with pytest.raises(DegenerateMap):
            massless_curve(RationalMap.normalized([2.0], [1.0]))

    def test_map_below_nominal_degree_rejected(self):
        with pytest.raises(DegenerateMap):
            massless_curve(RationalMap.normalized([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))

    def test_common_root_hits_antidiagonal(self):
        # num and den share the root z = 1, which lies on the sample grid
        f = RationalMap.normalized([2.0, -3.0, 1.0], [-3.0, 2.0, 1.0])
        with pytest.raises(RealPointFound):
            massless_curve(f)

    def test_rank_two_for_random_maps(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            num = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            den = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            S = massless_curve(RationalMap.normalized(num, den))
            sv = np.linalg.svd(S.psi, compute_uv=False)
            if n >= 2:
                assert sv[2] <= 1e-12 * sv[0]

    def test_axial_family_tends_to_line(self):
        # smallest/largest eigenvalue ratio decreases to 0 with the mass
        ratios = []
        for m in (0.5, 0.25, 0.1, 0.05, 0.01):
            psi = axial_spectral(2, m).psi
            ev = np.linalg.eigvalsh(psi)
            ratios.append(ev[0] / ev[-1])
        assert all(ratios[i] > ratios[i + 1] > 0.0 for i in range(len(ratios) - 1))
        assert ratios[-1] < 0.05


class TestZeroSpanJets:
    def test_double_zero_uses_derivative_vector(self):
        from monosphere.ratmap import _zero_span

        q = identity_sphere(2)
        pts = [SpherePoint.of(1.0 + 1e-9), SpherePoint.of(1.0 - 1e-9)]
        span = _zero_span(q, pts)
        assert span.shape == (2, 3)
        assert np.allclose(span[0], [1.0, 1.0, 1.0], atol=1e-8)
        assert np.allclose(span[1], [0.0, 1.0, 2.0], atol=1e-8)

    def test_double_zero_at_infinity_uses_reversed_columns(self):
        from monosphere.ratmap import _zero_span

        q = identity_sphere(2)
        pts = [SpherePoint.of("inf"), SpherePoint.of("inf")]
        span = _zero_span(q, pts)
        assert np.allclose(span[0], [0.0, 0.0, 1.0])
        assert np.allclose(span[1], [0.0, 1.0, 0.0])


class TestLineAngle:
    @staticmethod
    def _line_pair(rng, n, angle):
        """Two lines through the same u1 whose u2 differ by a rotation of angle."""

        def unit(x):
            return x / np.linalg.norm(x)

        def gauss():
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        u1 = unit(gauss())
        u2 = gauss()
        u2 = unit(u2 - np.vdot(u1, u2) * u1)
        d = gauss()
        d = unit(d - np.vdot(u1, d) * u1 - np.vdot(u2, d) * u2)
        w2 = np.cos(angle) * u2 + np.sin(angle) * d
        w2 = unit(w2 - np.vdot(u1, w2) * u1)
        return ProjLine(u1, u2), ProjLine(u1, w2)

    @pytest.mark.parametrize("angle", [1e-12, 1e-10, 1e-6, 1e-3, 0.5, 1.5])
    def test_matches_scipy_subspace_angles(self, angle):
        linalg = pytest.importorskip("scipy.linalg")
        from monosphere.ratmap import _line_angle

        rng = np.random.default_rng(int(-np.log10(angle) * 10) + 3)
        for n in (3, 9, 25):
            a, b = self._line_pair(rng, n, angle)
            ref = float(np.max(linalg.subspace_angles(a.basis(), b.basis())))
            got = _line_angle(a, b)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-15)
            assert got == pytest.approx(angle, rel=1e-3, abs=1e-15)

    def test_same_line_is_zero(self):
        from monosphere.ratmap import _line_angle

        a, _ = self._line_pair(np.random.default_rng(0), 5, 0.1)
        assert _line_angle(a, a) <= 1e-15
