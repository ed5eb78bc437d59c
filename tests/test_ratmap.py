import math

import numpy as np
import pytest

from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.errors import (
    DegenerateMap,
    LineNotThroughQw,
    NonFiniteResult,
    RealPointFound,
)
from monosphere.projective import SpherePoint, antipode, chordal, hom_vector, vander
from monosphere.ratmap import (
    ProjLine,
    RationalMap,
    find_line,
    massless_curve,
    project_map,
    spectral_slice,
)
from monosphere.spheres import HoloSphere, binom_weights, eval_sphere, factor_sphere


def identity_sphere(k):
    return HoloSphere(k, np.eye(k + 1, dtype=complex))


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


def random_psi(rng, k):
    """Positive-definite Psi = A A* + (k+1) I, A complex Gaussian."""
    a = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    return a @ a.conj().T + (k + 1) * np.eye(k + 1)


def slice_residual(psi, w, p):
    """|v(w)^H Psi v(p)| / (||Psi|| |v(w)| |v(p)|): 0 when p is on the slice at w."""
    k = psi.shape[0] - 1
    vw, vp = vander(w, k), hom_vector(p, k)
    return abs(vw.conj() @ psi @ vp) / (np.linalg.norm(psi, 2) * np.linalg.norm(vw) * np.linalg.norm(vp))


# -- oracle: one sweep of the zero-span construction ------------------------

def _cluster_points(points, tol=1e-6):
    """Group chordal-close points; returns (centre, multiplicity).

    The m computed roots of an m-fold root scatter by eps^(1/m) around
    it, but their mean is accurate to rounding.
    """
    groups = []
    for p in points:
        for g in groups:
            if chordal(p, g[0]) <= tol:
                g.append(p)
                break
        else:
            groups.append([p])
    return [(g[0] if g[0].is_infinity else SpherePoint.of(np.mean([p.chart for p in g])), len(g)) for g in groups]


def _zero_span(q, zeros):
    """Rows q^(d)(z) for d below the multiplicity of each zero z."""
    rows = []
    for point, mult in _cluster_points(zeros):
        if point.is_infinity:
            # 1/z chart: jets at infinity are the reversed columns
            rows.extend(q.Q[:, q.k - d] for d in range(mult))
        else:
            z = point.chart
            for d in range(mult):
                jet = [math.perm(j, d) * z ** (j - d) if j >= d else 0.0 for j in range(q.k + 1)]
                rows.append(q.Q @ np.array(jet, dtype=complex))
    return np.stack(rows)


def _sweep(q, w, line):
    """The line through q(w) orthogonal to the span of the zeros of f_w."""
    span = _zero_span(q, project_map(q, w, line).zeros())
    n = np.linalg.svd(span)[2][-1]
    n = n - np.vdot(line.u1, n) * line.u1
    return ProjLine(line.u1, n / np.linalg.norm(n))


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


@pytest.mark.parametrize(
    "u1, u2, message",
    [([1.0, 0.0], [0.0, 1.0 + 1e-9], "must be unit"), ([0.5, 0.0], [0.0, 1.0], "must be unit"),
     ([1.0, 0.0], [1e-9, 1.0], "must be orthogonal"), ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], "must be orthogonal")],
    ids=["u2-long", "u1-short", "off-by-1e-9", "parallel"],
)
def test_proj_line_refuses_a_basis_that_is_not_orthonormal(u1, u2, message):
    with pytest.raises(ValueError, match=message):
        ProjLine(np.array(u1), np.array(u2))


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
        line, its = find_line(q, 1.0)
        assert its == 0
        # the double-zero line at w=1: u2 proportional to (1,-2,1)
        target = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        assert abs(abs(np.vdot(line.u2, target)) - 1.0) < 1e-6
        f = project_map(q, 1.0, line)
        zeros = f.zeros()
        assert all(chordal(z, SpherePoint.of(1.0)) < 1e-3 for z in zeros)

    @pytest.mark.parametrize(
        "k, w, seed",
        [
            (16, 0.1, None),
            (24, 0.1, None),
            (24, 0.3 + 0.2j, None),
            (32, 0.1, None),
            (32, 0.3 + 0.2j, None),
            (32, 0.5j, None),
            (32, -2j, 20262),
            (16, 1.5, 100 + 16 + 17),
            (32, -2j, 100 + 32),
            (32, -2j, 100 + 32 + 17),
            (32, -2j, 100 + 32 + 34),
        ],
        ids=[
            "axial-k16-w0.1", "axial-k24-w0.1", "axial-k24-w0.3+0.2j", "axial-k32-w0.1",
            "axial-k32-w0.3+0.2j", "axial-k32-w0.5j", "fixed-k32", "random-k16-s1",
            "random-k32-s0", "random-k32-s1", "random-k32-s2",
        ],
    )
    def test_large_charge_inputs_project(self, k, w, seed):
        # axial m = 1/2 spheres, and random Psi = A A* + (k+1) I from
        # default_rng(seed); the zero-span sweep refused all of these
        psi = axial_spectral(k, 0.5).psi if seed is None else random_psi(np.random.default_rng(seed), k)
        q = factor_sphere(SpectralMatrix(k, psi))
        line, _ = find_line(q, w)
        # the zero at w, read off the numerator's value: at axial k = 32,
        # w = 0.1 the roots of the degree-32 numerator place it 2.8e-3
        # away in chordal distance, from the polynomial's conditioning
        qw = eval_sphere(q, w)
        assert abs(np.vdot(line.u2, qw)) <= 1e-12 * np.linalg.norm(qw)
        poles = project_map(q, w, line).poles()
        assert len(poles) == k
        for p in poles:
            assert slice_residual(psi, w, p) <= 1e-8

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


    def test_initial_line_orthonormal_on_badly_scaled_sphere(self):
        # q(w) ~ 6e7 while q(antipode(w)) ~ 3: one projection leaves u2
        # off orthogonal by 1e-8, which ProjLine refuses
        q = HoloSphere(1, np.array([[1e-300j, 63600498.168835886], [-1.5645884147832496j, 3.33498827476768]]))
        line, _ = find_line(q, 1.0)
        assert abs(np.vdot(line.u1, line.u2)) < 1e-12

    def test_sphere_values_near_float_max_project(self):
        # q(w) is finite but the sum of its squared entries overflows
        q = HoloSphere(1, np.array([[1.7e308 + 1e300j, -1.66e-110j], [-0.55 + 1e300j, 1e-258 + 1e300j]]))
        w = 0.3 + 0.2j
        line, _ = find_line(q, w)
        (zero,) = project_map(q, w, line).zeros()
        assert chordal(zero, SpherePoint.of(w)) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 8, 32])
    def test_nearly_parallel_values_still_span_a_line(self, k):
        # Q = U (I - (1 - s) n n*) W with n in the span of W v(w) and
        # W v(antipode(w)) squeezes q(w) and q(antipode(w)) towards one
        # direction, and s just above FULL_TOL keeps the tuple Q W^-1
        # full: W v(w) and W v(antipode(w)) are orthogonal, so the part
        # of q(antipode(w)) orthogonal to q(w) stays at least s, far from
        # vanishing
        rng = np.random.default_rng(k)
        w = 0.4 - 0.7j
        W = binom_weights(k)
        a, b = W * hom_vector(w, k), W * hom_vector(antipode(w), k)
        n = a / np.linalg.norm(a) + (0.3 + 0.8j) * b / np.linalg.norm(b)
        n /= np.linalg.norm(n)
        U = np.linalg.qr(rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1)))[0]
        s = 1.001e-10
        q = HoloSphere(k, U @ (np.eye(k + 1) - (1.0 - s) * np.outer(n, n.conj())) * W)
        qw, qa = eval_sphere(q, w), eval_sphere(q, antipode(w))
        u, v = qw / np.linalg.norm(qw), qa / np.linalg.norm(qa)
        assert s <= np.linalg.norm(v - np.vdot(u, v) * u) <= 1e-8
        line, _ = find_line(q, w)
        assert abs(np.linalg.norm(line.u1) - 1.0) < 1e-12 and abs(np.linalg.norm(line.u2) - 1.0) < 1e-12
        assert abs(np.vdot(line.u1, line.u2)) < 1e-12
        assert abs(abs(np.vdot(line.u1, u)) - 1.0) < 1e-12

    def test_overflowing_sphere_value_raises(self):
        q = HoloSphere(1, np.array([[1e308, 1e308], [-1e308, 1e308]]))
        with pytest.raises(NonFiniteResult):
            find_line(q, 1.0)


class TestRationalMap:
    @pytest.mark.parametrize("eps", [0.0, 1e-16, -1e-16, 3e-16])
    @pytest.mark.parametrize("name", ["identity", "axial"])
    def test_tied_coefficients_divide_by_the_first(self, name, eps):
        # at w = 1 all four num coefficients tie in magnitude; a last-bit
        # change of Q must not choose another divisor and flip their sign
        q = identity_sphere(3) if name == "identity" else factor_sphere(axial_spectral(3, 0.5))
        Q = np.array(q.Q)
        Q[0, 0] *= 1.0 - eps
        q = HoloSphere(3, Q)
        f = project_map(q, 1.0, find_line(q, 1.0)[0])
        assert np.allclose(f.num, [1.0, -1.0, 1.0, -1.0], rtol=0.0, atol=1e-12)
        assert abs(f.scale - 1.0) < 1e-12

    def test_resultant_identity(self):
        f = RationalMap.normalized([0.0, 1.0], [1.0, 0.0])
        assert abs(np.linalg.det(f.sylvester()) - 1.0) < 1e-12

    def test_resultant_vanishes_on_common_root(self):
        # num = (z-1)(z-2), den = (z-1)(z+3)
        f = RationalMap.normalized([2.0, -3.0, 1.0], [-3.0, 2.0, 1.0])
        assert abs(np.linalg.det(f.sylvester())) < 1e-10

    @pytest.mark.parametrize(
        "num, den",
        [([1.0, 0.0], [1e-320, 0.0]), ([1.7e308 + 1.7e308j, 1.0], [1.0, 1.0])],
        ids=["subnormal-den", "overflowing-num"],
    )
    def test_non_finite_normalization_rejected(self, num, den):
        with pytest.raises(DegenerateMap):
            RationalMap.normalized(num, den)

    def test_scale_recorded(self):
        f = RationalMap.normalized([0.0, 5.0j], [2.0, 0.0])
        assert np.isclose(f.scale, 2.5j)
        assert np.allclose(f.num, [0.0, 1.0])
        assert np.allclose(f.den, [1.0, 0.0])


class TestMasslessCurve:
    def test_identity_map_gives_identity_matrix(self):
        f = RationalMap.normalized([0.0, 1.0], [1.0, 0.0])
        S = massless_curve(f)
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
        # num and den share the root z = 1
        f = RationalMap.normalized([2.0, -3.0, 1.0], [-3.0, 2.0, 1.0])
        with pytest.raises(RealPointFound):
            massless_curve(f)

    def test_common_root_off_any_grid_hits_antidiagonal(self):
        # h = |den|^2 + |num|^2 vanishes at the shared root a, which no
        # sample grid of circles about the origin holds
        a, b, c = 0.3 + 0.7j, -1.1 + 0.2j, 0.8 - 0.9j
        f = RationalMap.normalized(np.poly([a, b])[::-1], np.poly([a, c])[::-1])
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
        q = identity_sphere(2)
        pts = [SpherePoint.of(1.0 + 1e-9), SpherePoint.of(1.0 - 1e-9)]
        span = _zero_span(q, pts)
        assert span.shape == (2, 3)
        assert np.allclose(span[0], [1.0, 1.0, 1.0], atol=1e-8)
        assert np.allclose(span[1], [0.0, 1.0, 2.0], atol=1e-8)

    def test_double_zero_at_infinity_uses_reversed_columns(self):
        q = identity_sphere(2)
        pts = [SpherePoint.of("inf"), SpherePoint.of("inf")]
        span = _zero_span(q, pts)
        assert np.allclose(span[0], [0.0, 0.0, 1.0])
        assert np.allclose(span[1], [0.0, 1.0, 0.0])


SWEEP_SPHERES = [
    ("identity-k2", lambda rng: identity_sphere(2)),
    ("identity-k5", lambda rng: identity_sphere(5)),
    ("random-k2", lambda rng: random_sphere(rng, 2)),
    ("random-k3", lambda rng: random_sphere(rng, 3)),
    ("random-k5", lambda rng: random_sphere(rng, 5)),
    ("random-k8", lambda rng: random_sphere(rng, 8)),
    ("canonical-k4", lambda rng: factor_sphere(SpectralMatrix(4, random_psi(rng, 4)))),
    ("canonical-k8", lambda rng: factor_sphere(SpectralMatrix(8, random_psi(rng, 8)))),
    ("axial-k4", lambda rng: factor_sphere(axial_spectral(4, 0.5))),
    ("axial-k8", lambda rng: factor_sphere(axial_spectral(8, 1.0))),
]


@pytest.mark.parametrize("make", [m for _, m in SWEEP_SPHERES], ids=[n for n, _ in SWEEP_SPHERES])
def test_zero_span_sweep_keeps_the_line(make):
    # the existence argument's update, run once from the returned line:
    # u2 becomes the orthocomplement of the zeros' q-images (jets at a
    # multiple zero, reversed columns at infinity); it must not move the line
    q = make(np.random.default_rng(61))
    # w = 1 gives identity-k2 and the axial spheres a double zero; w = inf
    # puts a zero at infinity, k-fold on the identity and axial spheres
    for w in (0.2 + 0.1j, 1.0, 1.5, -2j, "inf"):
        line, _ = find_line(q, w)
        swept = _sweep(q, w, line)
        basis, swept_basis = (np.stack([u.u1, u.u2], axis=1) for u in (line, swept))
        # sine of the largest principal angle between the orthonormal bases;
        # the cosine form cannot resolve angles near 1e-9
        angle = np.linalg.norm(swept_basis - basis @ (basis.conj().T @ swept_basis), 2)
        assert angle < 1e-9, (w, angle)

