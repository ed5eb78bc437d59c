from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

from monosphere.axial import sphere_of_sech
from monosphere.centering import (
    Mobius,
    _jets,
    _rep_matrix,
    act_sl2,
    center_flow,
    centre_point,
    moment_map,
    norm2,
)
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.errors import MaxIterExceeded, NotStable
from monosphere.spheres import CoeffTuple, HoloSphere, factor_sphere, fullness_check, sphere_to_tuple


def _tuple_from_rows(rows):
    rows = np.asarray(rows, dtype=complex)
    return CoeffTuple(rows.shape[0] - 1, rows)


def _rand_tuple(rng, k):
    v = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    return CoeffTuple(k, v)


def _rand_su2(rng):
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    return Mobius(
        complex(x[0], x[1]), complex(x[2], x[3]),
        complex(-x[2], x[3]), complex(x[0], -x[1]),
    )


def _expm(h):
    # exp of a traceless Hermitian 2 x 2 matrix: h^2 = d^2 I with d^2 = -det h,
    # so exp(h) = cosh(d) I + (sinh(d) / d) h
    d = math.sqrt(max(-np.linalg.det(h).real, 0.0))
    return math.cosh(d) * np.eye(2) + (math.sinh(d) / d if d > 0.0 else 1.0) * np.asarray(h)


def _rand_sl2(rng, spread=0.7):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h).real / 2.0 * np.eye(2)
    h *= spread / max(np.linalg.norm(h), 1e-12)
    return Mobius.from_matrix(_expm(h))


def _gram_spectrum(t):
    # Gram of the tuple vectors: invariant under SU(2) (right, unitary in
    # the weighted basis) and U(k+1) (left, rotates every v_j together)
    g = np.conj(t.v) @ t.v.T
    return np.linalg.eigvalsh(g)


# -- action -------------------------------------------------------------------

def test_act_diagonal_charge1():
    t = _tuple_from_rows([[1.0, 0.0], [0.0, 2.0]])
    g = Mobius(2.0, 0.0, 0.0, 0.5)
    out = act_sl2(g, t)
    assert np.allclose(out.v[0], [0.5, 0.0])
    assert np.allclose(out.v[1], [0.0, 4.0])


def test_act_rotation_charge1():
    t = _tuple_from_rows([[1.0, 0.0], [0.0, 2.0]])
    g = Mobius(0.0, 1.0, -1.0, 0.0)
    out = act_sl2(g, t)
    assert np.allclose(out.v[0], [0.0, 2.0])
    assert np.allclose(out.v[1], [-1.0, 0.0])


def test_act_is_right_action():
    # substitution plus cocycle pulls back, so nesting reverses products
    rng = np.random.default_rng(19)
    t = _rand_tuple(rng, 3)
    g1 = _rand_sl2(rng)
    g2 = _rand_sl2(rng)
    lhs = act_sl2(g1, act_sl2(g2, t))
    rhs = act_sl2(Mobius.from_matrix(g2.matrix() @ g1.matrix()), t)
    assert np.max(np.abs(lhs.v - rhs.v)) < 1e-10 * np.max(np.abs(rhs.v))


@pytest.mark.parametrize(
    "g",
    [Mobius.from_matrix([[1.001, 0.002 + 0.001j], [-0.001j, 0.999]]), Mobius(np.exp(5.0), 0.0, 0.0, np.exp(-5.0))],
    ids=["near-identity", "diag-e5"],
)
def test_rep_matrix_matches_exact_expansion_at_charge32(g):
    # P[j, m] = sum_t C(j, t) C(k-j, m-t) a^t b^(j-t) c^(m-t) d^(k-j-m+t), to 50 digits
    k = 32
    P = _rep_matrix(g, k)
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpc(x.real, x.imag) for x in (g.a, g.b, g.c, g.d))
        for j in range(k + 1):
            for m in range(k + 1):
                exact = mpmath.fsum(
                    math.comb(j, t) * math.comb(k - j, m - t)
                    * a**t * b ** (j - t) * c ** (m - t) * d ** (k - j - m + t)
                    for t in range(max(0, m + j - k), min(j, m) + 1)
                )
                assert abs(complex(P[j, m]) - complex(exact)) <= 1e-13 * abs(complex(exact))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mobius(float("nan"), 0.0, 0.0, 1.0),
        lambda: Mobius(float("inf"), 0.0, 0.0, 1.0),
        lambda: Mobius.from_matrix([[1.0, 0.0], [0.0, 0.0]]),
    ],
    ids=["nan", "inf", "singular-matrix"],
)
def test_mobius_refuses_what_is_not_in_sl2(make):
    # all three constructed: NaN fails no comparison, inf > inf is False,
    # and from_matrix divided by sqrt(0) into a NaN Mobius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            make()


def test_su2_preserves_norm():
    rng = np.random.default_rng(29)
    for k in (1, 2, 3):
        t = _rand_tuple(rng, k)
        for _ in range(10):
            u = _rand_su2(rng)
            assert abs(norm2(act_sl2(u, t)) - norm2(t)) < 1e-10 * norm2(t)


# -- moment map ---------------------------------------------------------------

def test_norm2_identity_tuple():
    t = sphere_to_tuple(HoloSphere(2, np.eye(3)))
    assert abs(norm2(t) - 2.5) < 1e-14


def test_moment_example_charge1():
    t = _tuple_from_rows([[1.0, 0.0], [0.0, 2.0]])
    mu = moment_map(t)
    assert abs(mu.mu_r - 3.0) < 1e-14
    assert abs(mu.mu_c) < 1e-14


def test_moment_magnitude():
    t = _tuple_from_rows([[1.0, 1.0], [1.0, 0.0]])
    mu = moment_map(t)
    # mu_r = -2 + 1 = -1; mu_c = (v0, v1) = 1
    assert abs(mu.mu_r + 1.0) < 1e-14
    assert abs(mu.mu_c - 1.0) < 1e-14
    assert abs(mu.magnitude - np.sqrt(3.0)) < 1e-14


def test_moment_gradient_consistency():
    # mu components are half the directional derivatives of norm2
    rng = np.random.default_rng(37)
    for k in (1, 2, 3):
        t = _rand_tuple(rng, k)
        mu = moment_map(t)

        def along_e0(s):
            return norm2(act_sl2(Mobius(np.exp(s), 0.0, 0.0, np.exp(-s)), t))

        def along_etheta(s, theta):
            return norm2(act_sl2(Mobius(1.0, s * np.exp(1j * theta), 0.0, 1.0), t))

        errs = []
        for h in (1e-4, 5e-5):
            fd = (along_e0(h) - along_e0(-h)) / (2 * h)
            errs.append(abs(fd / 2.0 - mu.mu_r))
        assert errs[1] < errs[0] / 2.0 or errs[1] < 1e-9
        for theta, want in ((0.0, mu.mu_c.real), (np.pi / 2.0, -mu.mu_c.imag)):
            fd = (along_etheta(1e-5, theta) - along_etheta(-1e-5, theta)) / 2e-5
            assert abs(fd / 2.0 - want) < 1e-7 * max(1.0, abs(want))


def test_gradient_and_hessian_match_central_differences():
    # F(p) = norm2(exp X(p) . t) has gradient 2 (mu_r, 2 Re mu_c, 2 Im mu_c)
    # and Hessian 4 Re <H_i v, H_j v> at p = 0
    rng = np.random.default_rng(41)
    for k in (1, 2, 4, 8, 16, 32):
        t = _rand_tuple(rng, k)

        def F(p):
            # exp X(p), X(p) = [[p0, p1 - i p2], [p1 + i p2, -p0]]
            X = np.array([[p[0], complex(p[1], -p[2])], [complex(p[1], p[2]), -p[0]]])
            return norm2(act_sl2(Mobius.from_matrix(_expm(X)), t))

        mu = moment_map(t)
        n2, grad, hess = _jets(t.v)
        assert abs(n2 - norm2(t)) <= 1e-14 * norm2(t)
        want = 2.0 * np.array([mu.mu_r, 2.0 * mu.mu_c.real, 2.0 * mu.mu_c.imag])
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(hess))
        scale = np.max(np.abs(hess))
        h = 1e-4 / k
        e = np.eye(3) * h
        fd_grad = np.array([(F(e[i]) - F(-e[i])) / (2.0 * h) for i in range(3)])
        fd_hess = np.array([
            [(F(e[i] + e[j]) - F(e[i] - e[j]) - F(e[j] - e[i]) + F(-e[i] - e[j])) / (4.0 * h * h)
             for j in range(3)]
            for i in range(3)
        ])
        assert np.max(np.abs(fd_grad - grad)) < 1e-6 * scale
        assert np.max(np.abs(fd_hess - hess)) < 1e-6 * scale
        assert np.array_equal(hess, hess.T)


def test_hessian_positive_definite_on_stable_tuples():
    rng = np.random.default_rng(43)
    for k in range(1, 33):
        t = _rand_tuple(rng, k)
        center_flow(t)
        vals = np.linalg.eigvalsh(_jets(t.v)[2])
        assert vals[0] > 0.0


# -- stability ----------------------------------------------------------------
# center_flow decides stability: it centres a stable tuple and raises
# NotStable on an unstable one.

def test_stability_identity():
    center_flow(sphere_to_tuple(HoloSphere(2, np.eye(3))))


def test_stability_rejects_zero_ends():
    t = _tuple_from_rows([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotStable):
        center_flow(t)


def test_stability_rejects_rank_deficient():
    t = _tuple_from_rows([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(NotStable):
        center_flow(t)


def test_unstable_norm_escapes_to_zero():
    t = _tuple_from_rows([[0.0, 0.0], [0.0, 1.0]])
    vals = [
        norm2(act_sl2(Mobius(tt, 0.0, 0.0, 1.0 / tt), t))
        for tt in (1.0, 0.5, 0.1, 0.01)
    ]
    assert vals[-1] < 1e-3 * vals[0]
    with pytest.raises(NotStable):
        center_flow(t)


# -- flow ---------------------------------------------------------------------

def test_flow_explicit_charge1():
    t = _tuple_from_rows([[1.0, 0.0], [0.0, 2.0]])
    res = center_flow(t)
    mu = moment_map(res.tuple_centred)
    assert mu.magnitude <= 1e-10 * norm2(res.tuple_centred)
    assert abs(norm2(res.tuple_centred) - 4.0) < 1e-8
    s2 = np.sqrt(2.0)
    assert np.max(np.abs(res.tuple_centred.v - np.diag([s2, s2]))) < 1e-5
    # g stays diagonal positive on this orbit
    assert abs(res.g.b) < 1e-12 and abs(res.g.c) < 1e-12
    assert abs(res.g.a - 1.0 / 2.0**0.25) < 1e-5 or abs(res.g.a - res.g.a.real) < 1e-12


def test_flow_returns_consistent_g():
    rng = np.random.default_rng(51)
    t = _rand_tuple(rng, 2)
    res = center_flow(t)
    redo = act_sl2(res.g, t)
    assert np.max(np.abs(redo.v - res.tuple_centred.v)) < 1e-8 * np.sqrt(norm2(t))


def test_flow_recovers_gram_spectrum():
    rng = np.random.default_rng(53)
    for k in (1, 2, 3, 8, 16):
        t0 = center_flow(_rand_tuple(rng, k)).tuple_centred
        base = _gram_spectrum(t0)
        for _ in range(3):
            g = _rand_sl2(rng)
            res = center_flow(act_sl2(g, t0))
            got = _gram_spectrum(res.tuple_centred)
            assert np.max(np.abs(got - base)) < 1e-6 * max(base)


def test_flow_zero_moment_is_norm_minimum():
    rng = np.random.default_rng(57)
    t = center_flow(_rand_tuple(rng, 2)).tuple_centred
    base = norm2(t)
    for _ in range(20):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2.0
        h -= np.trace(h).real / 2.0 * np.eye(2)
        for s in (0.1, 0.01):
            g = Mobius.from_matrix(_expm(s * h))
            assert norm2(act_sl2(g, t)) >= base * (1.0 - 1e-9)


def test_flow_sech_tuple_already_centred():
    s = 1.0 / np.sqrt(2.0)
    Q = np.array([[s, s, 0.0], [1j * s, -1j * s, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    t = sphere_to_tuple(HoloSphere(2, Q))
    mu = moment_map(t)
    assert abs(mu.mu_r) < 1e-12 and abs(mu.mu_c) < 1e-12
    res = center_flow(t)
    assert res.iterations == 0


def _axial_tuple():
    return sphere_to_tuple(factor_sphere(axial_spectral(8, 0.5)))


@pytest.mark.parametrize(
    "tuple_of, svds",
    [
        (lambda: sphere_to_tuple(sphere_of_sech()), 1),
        (_axial_tuple, 1),
        (lambda: act_sl2(Mobius.from_matrix(np.array([[1.5, 0.3], [0.1, 0.8]])), _axial_tuple()), 2),
    ],
    ids=["sech", "axial", "moved"],
)
def test_flow_tests_fullness_once_per_distinct_tuple(monkeypatch, tuple_of, svds):
    # a tuple centred on entry leaves at iteration 0 and reuses the entry
    # SVD; a moved one is tested again once the flow has moved it
    t = tuple_of()
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    res = center_flow(t)
    assert (res.iterations == 0) == (svds == 1)
    assert len(calls) == svds


# -- centre point -------------------------------------------------------------

def test_centre_identity():
    X = centre_point(Mobius(1.0, 0.0, 0.0, 1.0))
    assert np.allclose(X.X, np.eye(2))
    assert np.allclose(X.coords, (0.0, 0.0, 1.0))


def test_centre_diagonal():
    t = 2.0
    X = centre_point(Mobius(t, 0.0, 0.0, 1.0 / t))
    assert np.allclose(X.X, np.diag([1.0 / t**2, t**2]))
    assert np.allclose(X.coords, (0.0, 0.0, t**2))


def test_centre_su2_invariant():
    rng = np.random.default_rng(61)
    g = _rand_sl2(rng)
    for _ in range(5):
        u = _rand_su2(rng)
        a = centre_point(g).X
        b = centre_point(Mobius.from_matrix(u.matrix() @ g.matrix())).X
        assert np.max(np.abs(a - b)) < 1e-12


def test_flow_budget_exhausted_carries_best():
    rng = np.random.default_rng(61)
    t = _rand_tuple(rng, 2)
    for budget in (1, 0, -2):
        with pytest.raises(MaxIterExceeded, match=f"in {budget} iterations") as info:
            center_flow(t, max_iter=budget)
        assert info.value.best is not None
    # an empty budget carries the input itself
    assert info.value.best["tuple"] is t
    assert info.value.trace == ()


def _assert_centred(t, res):
    n2 = norm2(res.tuple_centred)
    assert moment_map(res.tuple_centred).magnitude <= 1e-10 * n2
    moved = act_sl2(res.g, t).v
    assert np.linalg.norm(moved - res.tuple_centred.v) <= 1e-10 * np.linalg.norm(res.tuple_centred.v)


MOVE = [[1.5, 0.3], [0.1, 0.8]]


def _axial_gram_oracle(k):
    """Gram spectrum of the axial m = 1/2 tuple to 50 digits: the tuple
    is centred, and its Gram matrix is W^-1 Psi W^-1, W = diag sqrt(binom(k, j))."""
    psi = axial_spectral(k, 0.5).psi
    with mpmath.workdps(50):
        w = [mpmath.sqrt(math.comb(k, j)) for j in range(k + 1)]
        gram = mpmath.matrix(k + 1, k + 1)
        for i in range(k + 1):
            for j in range(k + 1):
                gram[i, j] = mpmath.mpc(psi[i, j].real, psi[i, j].imag) / (w[i] * w[j])
        return np.array([float(x) for x in mpmath.eigh(gram, eigvals_only=True)])


@pytest.mark.parametrize("k", [16, 24, 32])
def test_flow_centres_moved_axial_tuple(k):
    # the exact line search centres each in 4 iterations
    t = act_sl2(Mobius.from_matrix(MOVE), sphere_to_tuple(factor_sphere(axial_spectral(k, 0.5))))
    res = center_flow(t)
    _assert_centred(t, res)
    assert res.iterations <= 6
    ref = _axial_gram_oracle(k)
    assert np.max(np.abs(_gram_spectrum(res.tuple_centred) - ref)) < 1e-6 * max(ref)


def test_stability_agrees_with_the_flow_on_the_moved_axial_charge32_tuple():
    # raw singular-value ratio 3.3e-13, below FULL_TOL; centred, it is full
    t = act_sl2(Mobius.from_matrix(MOVE), sphere_to_tuple(factor_sphere(axial_spectral(32, 0.5))))
    assert not fullness_check(t.v)[1]
    center_flow(t)


def test_flow_centres_moved_random_charge32_tuple():
    rng = np.random.default_rng(132)
    A = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    t0 = sphere_to_tuple(factor_sphere(SpectralMatrix(32, A @ A.conj().T + 33.0 * np.eye(33))))
    t = act_sl2(Mobius.from_matrix(MOVE), t0)
    res = center_flow(t)
    _assert_centred(t, res)
    base = _gram_spectrum(center_flow(t0).tuple_centred)
    assert np.max(np.abs(_gram_spectrum(res.tuple_centred) - base)) < 1e-6 * max(base)


def test_flow_centres_random_charge32_curve():
    rng = np.random.default_rng(32)
    A = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    t = sphere_to_tuple(factor_sphere(SpectralMatrix(32, A @ A.conj().T + 33.0 * np.eye(33))))
    _assert_centred(t, center_flow(t))


@pytest.mark.parametrize("middle, full", [(4e-10, True), (1e-11, False)])
def test_fullness_is_judged_on_the_centred_tuple(middle, full):
    # diag(1, middle, 1) is centred with singular-value ratio `middle`;
    # moved by MOVE^2 its ratio is 0.17 middle, below FULL_TOL in both cases
    g = Mobius.from_matrix(np.linalg.matrix_power(np.array(MOVE), 2))
    t = act_sl2(g, CoeffTuple(2, np.diag([1.0, middle, 1.0])))
    assert not fullness_check(t.v)[1]
    if full:
        res = center_flow(t)
        _assert_centred(t, res)
        assert abs(fullness_check(res.tuple_centred.v)[0] - middle) < 1e-3 * middle
    else:
        with pytest.raises(NotStable, match="centred tuple is not full"):
            center_flow(t)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_flow_is_scale_invariant(scale):
    # |mu|^2 of the tuple itself underflows at 1e-150 and overflows at 1e150
    t = _rand_tuple(np.random.default_rng(3), 3)
    ref = center_flow(t)
    res = center_flow(CoeffTuple(3, scale * t.v))
    assert res.iterations == ref.iterations
    assert np.max(np.abs(res.tuple_centred.v / scale - ref.tuple_centred.v)) <= 1e-12 * np.max(np.abs(ref.tuple_centred.v))


def test_flow_converges_within_40_iterations_up_to_charge32():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 33))
        A = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        Q = factor_sphere(SpectralMatrix(k, A @ A.conj().T + (k + 1) * np.eye(k + 1))).Q
        t = act_sl2(_rand_sl2(rng, spread=0.3), sphere_to_tuple(HoloSphere(k, Q)))
        res = center_flow(t, max_iter=40)
        assert moment_map(res.tuple_centred).magnitude <= 1e-10 * norm2(res.tuple_centred)


@pytest.mark.parametrize("k", [1, 2, 8, 16])
def test_flow_below_rounding_floor_stops_early(k):
    # tol = 0 cannot be met; the flow stops once |mu| no longer improves
    t = _rand_tuple(np.random.default_rng(1), k)
    with pytest.raises(MaxIterExceeded, match="below the attainable floor") as info:
        center_flow(t, tol=0.0)
    assert len(info.value.trace) <= 100
    assert info.value.best["tuple"] is not None
    assert info.value.best["g"] is not None
