"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance inside a rated time budget
and prints one PASS/FAIL summary line with the measured quantities.
All random data is seeded, so the suite is deterministic.
"""

import time

import numpy as np

from monosphere.axial import (
    H_matrix,
    _residual_matrix,
    bog_residual,
    mass_profile,
    sech_field,
    sphere_of_sech,
    zero_mass_field,
)
from monosphere.boundary import (
    degree_integral,
    metric_h,
    reconstruct_psi_from_metric,
)
from monosphere.centering import Mobius, act_sl2, center_flow, moment_map, norm2
from monosphere.charge2 import (
    Su2Triple,
    bracket,
    estimate_mass,
    mass_flow_check,
    p_sequence,
    poncelet,
    triple_product,
    z_lattice,
)
from monosphere.curves import SpectralMatrix, axial_spectral, bidegree, eval_psi
from monosphere.errors import NoEstimate
from monosphere.projective import SpherePoint, antipode, chordal, hom_vector, proj_roots
from monosphere.ratmap import ProjLine, project_map, spectral_slice
from monosphere.spheres import (
    CoeffTuple,
    HoloSphere,
    eval_sphere,
    factor_sphere,
    spectral_from_sphere,
    sphere_to_tuple,
)


def _report(n, ok, detail):
    line = f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _random_pd(rng, k, shift=1.0):
    n = k + 1
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi = a @ np.conj(a).T + shift * n * np.eye(n)
    psi = (psi + np.conj(psi).T) / 2.0
    return SpectralMatrix(k, psi)


def _random_tuple(rng, k):
    v = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    return CoeffTuple(k, v)


def _gram_spectrum(t):
    return np.linalg.eigvalsh(np.conj(t.v) @ t.v.T)


def _multiset_gap(found, expected):
    """Largest chordal distance under greedy nearest matching; inf when
    the counts differ."""
    if len(found) != len(expected):
        return np.inf
    free = list(found)
    worst = 0.0
    for e in expected:
        dists = [chordal(e, f) for f in free]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        free.pop(i)
    return worst


def test_criterion_01_axial_half_mass_curve():
    # warm the allocator and the code path before the sub-ms timing
    np.linalg.eigvalsh(np.eye(3))
    axial_spectral(2, 1.0)
    best = np.inf
    dev = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        S = axial_spectral(2, 0.5)
        dev = float(np.max(np.abs(S.psi - np.eye(3))))
        best = min(best, time.perf_counter() - t0)
    ok = dev <= 1e-12 and best < 1e-3
    _report(1, ok, f"half-mass curve dev {dev:.2e} <= 1e-12, {best * 1e3:.3f} ms < 1 ms")


def _paper_pairing(q, w, z):
    """<q(antipode(w)), q(z)> by its definition, the first slot conjugated:
    psi(w, z) in the chart for w != 0 and finite z, because
    conj v(-1/conj w) = v(-1/w)."""
    return np.vdot(eval_sphere(q, antipode(w)), eval_sphere(q, z))


def test_criterion_02_factor_round_trip():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_rt = 0.0
    worst_pair = 0.0
    for case in range(100):
        k = case % 5 + 1
        S = _random_pd(rng, k)
        q = factor_sphere(S)
        back = spectral_from_sphere(q)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.psi - S.psi))) / float(np.max(np.abs(S.psi))))
        w = complex(rng.standard_normal() + 1j * rng.standard_normal())
        z = complex(rng.standard_normal() + 1j * rng.standard_normal())
        val = eval_psi(S, w, z)
        gap = abs(_paper_pairing(q, w, z) - val) / max(1.0, abs(val))
        worst_pair = max(worst_pair, gap)
    dt = time.perf_counter() - t0
    ok = worst_rt <= 1e-10 and worst_pair <= 1e-10 and dt < 1.0
    _report(2, ok, f"round-trip {worst_rt:.2e}, pairing {worst_pair:.2e} <= 1e-10 "
                   f"(100 cases, {dt:.2f} s < 1 s)")


def test_criterion_03_degree_integral():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3):
        val, bound = degree_integral(_random_pd(rng, k))
        worst = max(worst, abs(val - k))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    _report(3, ok, f"degree dev {worst:.2e} <= 1e-5 for k in 1..3 ({dt:.2f} s < 10 s)")


def test_criterion_04_centering_flow():
    t0 = time.perf_counter()
    mu0 = moment_map(sphere_to_tuple(sphere_of_sech())).magnitude
    rng = np.random.default_rng(404)
    worst_mu = 0.0
    worst_spectrum = 0.0
    for case in range(50):
        k = case % 3 + 1
        base = center_flow(sphere_to_tuple(factor_sphere(_random_pd(rng, k))))
        t_base = base.tuple_centred
        ref = _gram_spectrum(t_base)
        while True:
            m = np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                                   + 1j * rng.standard_normal((2, 2)))
            if abs(np.linalg.det(m)) > 0.3:
                break
        flow = center_flow(act_sl2(Mobius.from_matrix(m), t_base))
        res = flow.tuple_centred
        worst_mu = max(worst_mu, moment_map(res).magnitude / norm2(res))
        spec_dev = np.max(np.abs(_gram_spectrum(res) - ref))
        worst_spectrum = max(worst_spectrum, spec_dev / max(1.0, float(np.max(np.abs(ref)))))
    dt = time.perf_counter() - t0
    ok = mu0 <= 1e-12 and worst_mu <= 1e-9 and worst_spectrum <= 1e-6 and dt < 30.0
    _report(4, ok, f"sech mu {mu0:.1e} <= 1e-12, flow |mu|/norm2 {worst_mu:.1e} <= 1e-9, "
                   f"spectrum dev {worst_spectrum:.1e} <= 1e-6 (50 flows, {dt:.1f} s < 30 s)")


def test_criterion_05_moment_gradient():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst_err = 0.0
    orders = []
    for case in range(20):
        k = case % 4 + 1
        t = _random_tuple(rng, k)
        mu = moment_map(t)
        scale = max(1.0, norm2(t))

        def deriv(gen, h):
            plus = norm2(act_sl2(gen(h), t))
            minus = norm2(act_sl2(gen(-h), t))
            return (plus - minus) / (2.0 * h) / 2.0

        cases = (
            (lambda s: Mobius(np.exp(s), 0.0, 0.0, np.exp(-s)), mu.mu_r),
            (lambda s: Mobius(1.0, s, 0.0, 1.0), mu.mu_c.real),
            (lambda s: Mobius(1.0, s * 1j, 0.0, 1.0), -mu.mu_c.imag),
        )
        for gen, want in cases:
            e1 = abs(deriv(gen, 1e-3) - want)
            e2 = abs(deriv(gen, 5e-4) - want)
            worst_err = max(worst_err, e2 / scale)
            if e1 > 1e-10 * scale:
                orders.append(np.log2(e1 / e2))
    med = float(np.median(orders))
    dt = time.perf_counter() - t0
    ok = worst_err <= 1e-5 and 1.7 <= med <= 2.3 and dt < 5.0
    _report(5, ok, f"fd/2 vs mu dev {worst_err:.1e} <= 1e-5, median order {med:.2f} "
                   f"in 2 +/- 0.3 (20 tuples, {dt:.2f} s < 5 s)")


def _deficient_sphere(rng, k):
    """Random full sphere whose slice polynomial at w = 0 drops degree.

    At w = 0 the slice coefficients are conj(Q[:, 0]) @ Q, so removing
    the component of column k along column 0 zeroes the top one exactly.
    """
    while True:
        Q = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        u = Q[:, 0]
        Q[:, k] = Q[:, k] - np.vdot(u, Q[:, k]) / np.vdot(u, u) * u
        if np.linalg.cond(Q) < 1e5:
            return HoloSphere(k, Q)


def test_criterion_06_pole_invariance():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_fw = 0.0
    deficient_seen = 0
    for case in range(50):
        k = case % 3 + 1
        w = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if case % 5 == 4:
            w = 0.0
            q = _deficient_sphere(rng, k)
            deficient_seen += 1
        else:
            while True:
                Q = (rng.standard_normal((k + 1, k + 1))
                     + 1j * rng.standard_normal((k + 1, k + 1)))
                if np.linalg.cond(Q) < 1e5:
                    break
            q = HoloSphere(k, Q)
        roots = spectral_slice(q, w)
        u1 = eval_sphere(q, w)
        u1 = u1 / np.linalg.norm(u1)
        for _ in range(10):
            while True:
                r = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
                r = r - (np.conj(u1) @ r) * u1
                if np.linalg.norm(r) > 1e-3:
                    break
            L = ProjLine(u1, r / np.linalg.norm(r))
            f = project_map(q, w, L)
            worst_gap = max(worst_gap, _multiset_gap(f.poles(), roots))
            hv = hom_vector(SpherePoint.of(w), f.degree)
            fw = abs(f.num @ hv) / (np.linalg.norm(hv) * np.linalg.norm(f.num))
            worst_fw = max(worst_fw, fw)
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and worst_fw <= 1e-8 and deficient_seen == 10 and dt < 5.0
    _report(6, ok, f"pole gap {worst_gap:.1e} <= 1e-8 over 50 (q, w) x 10 lines "
                   f"({deficient_seen} degree-deficient), |f_w(w)| {worst_fw:.1e} "
                   f"({dt:.2f} s < 5 s)")


def _mass_or_nan(S):
    """estimate_mass, or nan where it finds no estimate, so that the
    criterion line reports the refusal."""
    try:
        return estimate_mass(S)
    except NoEstimate:
        return np.nan


def test_criterion_07_p_sequence_closure():
    t0 = time.perf_counter()
    S_half = axial_spectral(2, 0.5)
    seq6 = p_sequence(S_half, (np.exp(1j * np.pi / 3), 1.0), tol=1e-9)
    S_one = axial_spectral(2, 1.0)
    w0 = 0.9 + 0.1j
    z0 = proj_roots(hom_vector(w0, 2) @ bidegree(S_one.psi))[0]
    seq8 = p_sequence(S_one, (w0, z0), tol=1e-9)
    m_half = _mass_or_nan(S_half)
    m_one = _mass_or_nan(S_one)
    dt = time.perf_counter() - t0
    ok = (seq6.closed and seq6.period == 6 and seq6.max_residual < 1e-9
          and seq8.closed and seq8.period == 8 and seq8.max_residual < 1e-9
          and abs(m_half - 0.5) <= 1e-12 and abs(m_one - 1.0) <= 1e-12
          and dt < 1.0)
    _report(7, ok, f"N={seq6.period} (res {seq6.max_residual:.1e} < 1e-9) and "
                   f"N={seq8.period}; masses {m_half}/{m_one} ({dt * 1e3:.0f} ms < 1 s)")


def test_criterion_08_z_lattice():
    t0 = time.perf_counter()
    q = factor_sphere(axial_spectral(2, 0.5))
    lat = z_lattice(q, 1.0, max_steps=12)
    targets = [SpherePoint.of(np.exp(2j * np.pi * j / 3)) for j in range(3)]
    gap = _multiset_gap(lat.points, targets)
    q_small = factor_sphere(axial_spectral(2, 0.01))
    lat_small = z_lattice(q_small, 1.0, max_steps=12)
    dt = time.perf_counter() - t0
    ok = (lat.closed and lat.period == 3 and lat.period <= 12 and gap <= 1e-9
          and not lat_small.closed and lat_small.period is None and dt < 1.0)
    _report(8, ok, f"cube roots of unity, period {lat.period} <= 12 (gap {gap:.1e}); "
                   f"near-massless reports no closure in 12 steps "
                   f"({dt * 1e3:.0f} ms < 1 s)")


def _tangency(verts):
    """Largest residual of v^2 = 4u on the edge lines u = s v - s^2,
    s = du/dv, at both ends of each edge of the closed polygon."""
    worst = 0.0
    for (u1, v1), (u2, v2) in zip(verts, verts[1:] + verts[:1]):
        s = (u2 - u1) / (v2 - v1)
        for u, v in ((u1, v1), (u2, v2)):
            worst = max(worst, abs(u - s * v + s * s) / max(1.0, abs(u), abs(s * v), abs(s) ** 2))
    return worst


def test_criterion_09_poncelet():
    t0 = time.perf_counter()
    poly = poncelet(axial_spectral(2, 0.5), (np.exp(1j * np.pi / 3), 1.0))
    vmax = float(np.max(poly.vertex_residuals))
    tmax = _tangency(poly.vertices)
    dt = time.perf_counter() - t0
    ok = poly.closed and vmax <= 1e-8 and tmax <= 1e-8 and dt < 1.0
    _report(9, ok, f"hexagon vertex residual {vmax:.1e}, tangency residual {tmax:.1e} "
                   f"<= 1e-8 ({dt * 1e3:.0f} ms < 1 s)")


def test_criterion_10_bracket_involution():
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    worst_inv = 0.0
    worst_frame = 0.0
    misaligned = 0
    for _ in range(100):
        nu = Su2Triple(rng.standard_normal(3), rng.standard_normal(3),
                       rng.standard_normal(3))
        b2 = bracket(bracket(nu)).stack()
        tp = triple_product(nu)
        scale = max(1.0, float(np.max(np.abs(nu.stack()))) ** 3)
        worst_inv = max(worst_inv, float(np.max(np.abs(b2 - tp * nu.stack()))) / scale)
        # alignment residual: component of bracket(nu) off the nu direction
        v = nu.stack().ravel()
        b = bracket(nu).stack().ravel()
        resid = np.linalg.norm(b - (v @ b) / (v @ v) * v) / np.linalg.norm(b)
        if resid > 1e-6:
            misaligned += 1
    for i in range(10):
        m = rng.standard_normal((3, 3))
        qm, _ = np.linalg.qr(m)
        if np.linalg.det(qm) < 0:
            qm = qm[::-1]
        c = (0.7, 1.0, 1.9)[i % 3]
        frame = Su2Triple(c * qm[0], c * qm[1], c * qm[2])
        # bracket is quadratic: bracket(c R) = c^2 R = c * frame
        dev = np.max(np.abs(bracket(frame).stack() - c * frame.stack()))
        worst_frame = max(worst_frame, float(dev) / (c * c))
    worst_ext = 0.0
    for _ in range(20):
        nu = Su2Triple(rng.standard_normal(3), rng.standard_normal(3),
                       rng.standard_normal(3))
        worst_ext = max(worst_ext, mass_flow_check(nu).max_derivative)
    dt = time.perf_counter() - t0
    ok = (worst_inv <= 1e-10 and misaligned == 100 and worst_frame <= 1e-12
          and worst_ext <= 1e-8 and dt < 5.0)
    _report(10, ok, f"bracket^2 dev {worst_inv:.1e} <= 1e-10 (100 random), "
                    f"orthonormal frames fixed to {worst_frame:.1e} and all "
                    f"{misaligned}/100 generic triples moved, quartic drift "
                    f"{worst_ext:.1e} <= 1e-8 ({dt:.2f} s < 5 s)")


def _stencil_residual(field, z, r, h):
    """Oracle: the Bogomolny residual matrix by central differences at step h."""
    H0 = H_matrix(field, z, r)
    Hxp, Hxm = H_matrix(field, z + h, r), H_matrix(field, z - h, r)
    Hyp, Hym = H_matrix(field, z + 1j * h, r), H_matrix(field, z - 1j * h, r)
    Hrp, Hrm = H_matrix(field, z, r + h), H_matrix(field, z, r - h)
    Hinv = np.linalg.inv(H0)
    dx, dy = (Hxp - Hxm) / (2.0 * h), (Hyp - Hym) / (2.0 * h)
    F_r = Hinv @ (Hrp - Hrm) / (2.0 * h)
    radial = Hinv @ (Hrp - 2.0 * H0 + Hrm) / (h * h) - F_r @ F_r
    # d/dz dzbar = (d^2/dx^2 + d^2/dy^2) / 4 by the five-point stencil.
    lap = (Hxp + Hxm + Hyp + Hym - 4.0 * H0) / (h * h)
    angular = Hinv @ (lap / 4.0) - (Hinv @ (dx + 1j * dy) / 2.0) @ (Hinv @ (dx - 1j * dy) / 2.0)
    return radial + (1.0 + abs(z) ** 2) ** 2 / np.sinh(r) ** 2 * angular


def test_criterion_11_bogomolny_residual():
    t0 = time.perf_counter()
    field = sech_field()
    zm = zero_mass_field()
    zs = [0.0, 0.5, -1.0, 1.5j, 2.0, -2.0j, 1.0 + 1.0j, -1.2 + 0.9j]
    grid = [(z, r) for r in np.linspace(0.2, 4.0, 8) for z in zs]
    res = bog_residual(field, grid).max_frobenius
    zm1 = bog_residual(zm, grid).max_frobenius
    # The stencil oracle converges to the exact residual matrix at order 2.
    rng = np.random.default_rng(7)
    points = []
    for _ in range(12):
        r = float(rng.uniform(0.5, 3.5))
        points.append((complex(rng.uniform(-1.2, 1.2) + 1j * rng.uniform(-1.2, 1.2)), r))
    med = {}
    for name, f in (("sech", field), ("zero-mass", zm)):
        orders = []
        for z, r in points:
            (exact,) = _residual_matrix(f, [z], [r])
            coarse = np.linalg.norm(_stencil_residual(f, z, r, 2e-3) - exact)
            fine = np.linalg.norm(_stencil_residual(f, z, r, 1e-3) - exact)
            orders.append(np.log2(coarse / fine))
        med[name] = float(np.median(orders))
    m6 = mass_profile(field, [6.0])[0]
    dt = time.perf_counter() - t0
    ok = (res <= 1e-12 and all(1.7 <= o <= 2.3 for o in med.values()) and zm1 > 1.0
          and abs(m6 - 0.5) <= 1e-3 and dt < 60.0)
    _report(11, ok, f"exact sech residual {res:.2e} <= 1e-12; stencil oracle order "
                    f"{med['sech']:.2f} (sech), {med['zero-mass']:.2f} (zero-mass) "
                    f"in 2 +/- 0.3; zero-mass control {zm1:.1f} > 1; "
                    f"mass(6) = {m6:.10f} within 1e-3 of 0.5 ({dt:.1f} s < 60 s)")


def test_criterion_12_boundary_reconstruction():
    rng = np.random.default_rng(1212)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        k = case % 4 + 1
        S = _random_pd(rng, k)
        samples = []
        for i, rho in enumerate(np.geomspace(0.6, 1.8, k + 2)):
            for j in range(2 * k + 3):
                z = rho * np.exp(1j * (2 * np.pi * j / (2 * k + 3) + 0.1 * i))
                samples.append((z, metric_h(S, z)))
        back = reconstruct_psi_from_metric(samples, k)
        worst = max(worst, float(np.max(np.abs(back.psi - S.psi))) / float(np.max(np.abs(S.psi))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    _report(12, ok, f"recovery dev {worst:.1e} <= 1e-8 (100 cases, k <= 4, "
                    f"{dt:.2f} s < 5 s)")
