from __future__ import annotations

import numpy as np
import pytest

from monosphere.centering import Mobius, act_sl2, center_flow
from monosphere.charge2 import to_su2_triple, z_lattice
from monosphere.curves import SpectralMatrix, axial_spectral, eval_psi
from monosphere.errors import MonosphereError, NotFull, NotPositiveDefinite, NotStable
from monosphere.projective import antipode
from monosphere.ratmap import find_line
from monosphere.spheres import (
    FULL_TOL,
    CoeffTuple,
    HoloSphere,
    binom_weights,
    eval_sphere,
    factor_sphere,
    fullness_check,
    pairing,
    require_full,
    spectral_from_sphere,
    sphere_to_tuple,
    tuple_to_sphere,
)


def _rand_hermitian_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a.conj().T @ a + n * np.eye(n)


def _sech_raw_sphere():
    # q(z) = ((1+z)/sqrt2, i(1-z)/sqrt2, z^2)
    s = 1.0 / np.sqrt(2.0)
    Q = np.array(
        [[s, s, 0.0], [1j * s, -1j * s, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    return HoloSphere(2, Q)


def test_factor_identity():
    q = factor_sphere(SpectralMatrix(2, np.eye(3)))
    assert np.allclose(q.Q, np.eye(3), atol=1e-14)


def test_factor_round_trip_random():
    rng = np.random.default_rng(23)
    for k in range(1, 6):
        psi = _rand_hermitian_pd(rng, k + 1)
        S = SpectralMatrix(k, psi)
        q = factor_sphere(S)
        # upper triangular, positive diagonal
        assert np.allclose(q.Q, np.triu(q.Q))
        assert np.all(np.diag(q.Q).real > 0)
        back = spectral_from_sphere(q)
        assert np.max(np.abs(back.psi - psi)) < 1e-10 * np.max(np.abs(psi))


def test_factor_rejects_semidefinite():
    with pytest.raises(NotPositiveDefinite):
        factor_sphere(SpectralMatrix(2, np.diag([1.0, 0.0, 1.0])))


def test_factor_deterministic_bytes():
    rng = np.random.default_rng(99)
    psi = _rand_hermitian_pd(rng, 4)
    a = factor_sphere(SpectralMatrix(3, psi)).Q
    b = factor_sphere(SpectralMatrix(3, psi)).Q
    assert a.tobytes() == b.tobytes()


def test_eval_sphere_basics():
    q = HoloSphere(2, np.eye(3))
    assert np.allclose(eval_sphere(q, 0.0), [1.0, 0.0, 0.0])
    assert np.allclose(eval_sphere(q, "inf"), [0.0, 0.0, 1.0])


def test_eval_sech_sphere_at_one():
    q = _sech_raw_sphere()
    got = eval_sphere(q, 1.0)
    assert np.allclose(got, [np.sqrt(2.0), 0.0, 1.0], atol=1e-14)


def _pairing_samples(seed):
    """(S, q, w, z): random positive definite curves at k = 1, 2, 3, their
    factors, and 34 random w, z each."""
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3):
        S = SpectralMatrix(k, _rand_hermitian_pd(rng, k + 1))
        q = factor_sphere(S)
        for _ in range(34):
            w = complex(rng.standard_normal(), rng.standard_normal())
            yield S, q, w, complex(rng.standard_normal(), rng.standard_normal())


def test_pairing_matches_eval_psi():
    # the paper's pairing <q(antipode(w)), q(z)> conjugates its first slot:
    # psi(w, z) in the chart for w != 0 and finite z, because
    # conj v(-1/conj w) = v(-1/w); pairing folds that conjugate through the antipode
    for S, q, w, z in _pairing_samples(31):
        b = eval_psi(S, w, z)
        a = np.vdot(eval_sphere(q, antipode(w)), eval_sphere(q, z))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
        assert abs(pairing(q, w, z) - b) <= 1e-10 * max(1.0, abs(b))


def test_pairing_without_the_conjugate_misses_eval_psi():
    # control: q(antipode(w)) . q(z) unconjugated is a different function of w
    for S, q, w, z in _pairing_samples(31):
        b = eval_psi(S, w, z)
        a = np.dot(eval_sphere(q, antipode(w)), eval_sphere(q, z))
        assert abs(a - b) > 1e-3 * max(1.0, abs(b))


def test_pairing_of_a_large_sphere_is_that_of_the_sphere():
    # conj(Q)^T Q grows by 2^1000, and its homogeneous representative at
    # large |w| overflowed though the value fits in a double
    q = factor_sphere(SpectralMatrix(2, _rand_hermitian_pd(np.random.default_rng(5), 3)))
    big = HoloSphere(2, q.Q * 2.0**500)
    for w, z in [(3.0, 5.0), (1e4, 2.0), (1e3, 1e2), (0.0, "inf"), ("inf", 0.5j)]:
        assert pairing(big, w, z) == pairing(q, w, z) * 2.0**1000


def test_pairing_holomorphic_at_degenerate_charts():
    q = _sech_raw_sphere()
    S = spectral_from_sphere(q)
    for w, z in ((0.0, 1.0), ("inf", 0.5), (1.0, "inf"), (0.0, "inf")):
        assert abs(pairing(q, w, z) - eval_psi(S, w, z)) < 1e-12


def test_tuple_round_trip_exact():
    rng = np.random.default_rng(17)
    Q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q = HoloSphere(3, Q)
    t = sphere_to_tuple(q)
    back = tuple_to_sphere(t)
    # exact inverse up to one rounding of the weight divide/multiply
    assert np.max(np.abs(back.Q - q.Q)) <= 1e-15 * np.max(np.abs(q.Q))


def test_identity_tuple_charge2():
    t = sphere_to_tuple(HoloSphere(2, np.eye(3)))
    assert np.allclose(t.v[0], [1.0, 0.0, 0.0])
    assert np.allclose(t.v[1], [0.0, 1.0 / np.sqrt(2.0), 0.0])
    assert np.allclose(t.v[2], [0.0, 0.0, 1.0])


def test_sech_sphere_tuple_values():
    t = sphere_to_tuple(_sech_raw_sphere())
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(t.v[0], [s, 1j * s, 0.0])
    assert np.allclose(t.v[1], [0.5, -0.5j, 0.0])
    assert np.allclose(t.v[2], [0.0, 0.0, 1.0])


def test_fullness():
    ratio, ok = fullness_check(np.eye(3))
    assert ok and abs(ratio - 1.0) < 1e-14
    bad = np.eye(3)
    bad[2, 2] = 0.0
    _, ok2 = fullness_check(bad)
    assert not ok2


def test_full_sphere_immersion_rank():
    # derivative (q, q') has rank 2 everywhere for a full map
    from monosphere.projective import vander, vander_derivative

    rng = np.random.default_rng(41)
    Q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = HoloSphere(2, Q)
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        m = np.stack([eval_sphere(q, z), Q @ vander_derivative(vander(z, 2))])
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] > 1e-8 * s[0]


def test_binom_weights_match_exact_binomials():
    import math

    from monosphere.spheres import binom_weights

    for k in range(1, 65):
        exact = np.array([math.comb(k, j) for j in range(k + 1)], dtype=float)
        got = binom_weights(k)
        assert got.shape == (k + 1,)
        assert np.all(np.abs(got**2 - exact) <= 4e-16 * exact)


@pytest.mark.parametrize("k, Q", [(0, [[1.0]]), (-1, np.zeros((0, 0)))])
def test_sphere_refuses_charge_below_one(k, Q):
    # k = 0 reached find_line and ended in a misleading NonFiniteResult
    with pytest.raises(ValueError, match="charge k must be >= 1"):
        HoloSphere(k, Q)


@pytest.mark.parametrize("k, v", [(0, [[1.0]]), (-1, np.zeros((0, 0)))])
def test_tuple_refuses_charge_below_one(k, v):
    # k = 0 was "centred" by center_flow
    with pytest.raises(ValueError, match="charge k must be >= 1"):
        CoeffTuple(k, v)


# -- one fullness verdict, read in the weighted frame -------------------------

W_POINT = 0.3 + 0.1j


def _rand_su2(rng):
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    return Mobius(complex(x[0], x[1]), complex(x[2], x[3]), complex(-x[2], x[3]), complex(x[0], -x[1]))


def _rotated(q, u):
    return tuple_to_sphere(act_sl2(u, sphere_to_tuple(q)))


def _weighted_ratio(q):
    return fullness_check(sphere_to_tuple(q).v)[0]


def _verdict(call):
    """The class name of the package error that call raises, or None."""
    try:
        call()
    except MonosphereError as exc:
        return type(exc).__name__
    return None


def _flow(q):
    """The Gram spectrum of q's centred tuple, or the class name of the
    package error that center_flow raises."""
    try:
        t = center_flow(sphere_to_tuple(q)).tuple_centred
    except MonosphereError as exc:
        return type(exc).__name__
    return np.linalg.eigvalsh(np.conj(t.v) @ t.v.T)


def _centred_random_sphere(k):
    rng = np.random.default_rng(100 + k)
    A = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    q = factor_sphere(SpectralMatrix(k, A @ A.conj().T + (k + 1) * np.eye(k + 1)))
    return tuple_to_sphere(center_flow(sphere_to_tuple(q)).tuple_centred)


def _probe_sphere(k):
    # Q = diag(c_j sqrt(C(k, j))) with c_0 = 1e-6: raw Q ratio 4.1e-11 at
    # k = 32, but its tuple diag(c_j) reads 1e-6
    c = np.ones(k + 1)
    c[0] = 1e-6
    return HoloSphere(k, np.diag(c * binom_weights(k)))


def _centred_diagonal_sphere(k, s):
    # the centred tuple diag(1, ..., s, ..., 1), s at index k/2: ratio s
    v = np.ones(k + 1)
    v[k // 2] = s
    return tuple_to_sphere(CoeffTuple(k, np.diag(v)))


SPHERES = {
    "axial": lambda k: factor_sphere(axial_spectral(k, 0.5)),
    "centred-random": _centred_random_sphere,
    "probe": _probe_sphere,
}


def _assert_rotations_keep_the_verdicts(q, k, seed, check_ratio=True):
    ratio = _weighted_ratio(q)
    verdicts = [_verdict(lambda: require_full(q)), _verdict(lambda: find_line(q, W_POINT))]
    flow = _flow(q)
    lattice_not_full = k == 2 and _verdict(lambda: z_lattice(q, 1.0)) == "NotFull"
    rng = np.random.default_rng(seed)
    for _ in range(20):
        r = _rotated(q, _rand_su2(rng))
        if check_ratio:
            assert abs(_weighted_ratio(r) - ratio) <= 1e-6 * ratio
        assert [_verdict(lambda: require_full(r)), _verdict(lambda: find_line(r, W_POINT))] == verdicts
        got = _flow(r)
        if isinstance(flow, str):
            assert got == flow
        else:
            assert not isinstance(got, str) and np.max(np.abs(got - flow)) <= 1e-10 * flow[-1]
        if k == 2:
            assert (_verdict(lambda: z_lattice(r, 1.0)) == "NotFull") == lattice_not_full
    return verdicts


@pytest.mark.parametrize("k", [2, 8, 16, 24, 32])
@pytest.mark.parametrize("name", sorted(SPHERES))
def test_su2_rotations_keep_every_fullness_verdict(name, k):
    # a rotation turns the monopole about its centre; Q's raw ratio moves
    # (the probe's spans 4.5e-11 to 4.4e-7 over these 20 rotations at
    # k = 32, so find_line refused some of them), the tuple's does not
    q = SPHERES[name](k)
    assert _assert_rotations_keep_the_verdicts(q, k, seed=1000 * k + len(name)) == [None, None]


@pytest.mark.parametrize("k", [2, 8, 32])
def test_su2_rotations_keep_a_sphere_that_is_not_full_refused(k):
    q = _centred_diagonal_sphere(k, 5e-11)
    # rounding in act_sl2 moves a ratio of 5e-11 by 1e-6 to 3e-6 of it
    assert _assert_rotations_keep_the_verdicts(q, k, seed=k, check_ratio=False) == ["NotFull", "NotFull"]


@pytest.mark.parametrize("k", [2, 8, 32])
@pytest.mark.parametrize("s", [5e-11, 2e-10])
def test_sphere_fullness_on_both_sides_of_full_tol(k, s):
    q = _centred_diagonal_sphere(k, s)
    t = sphere_to_tuple(q)
    assert abs(_weighted_ratio(q) - s) <= 1e-6 * s
    if s < FULL_TOL:
        with pytest.raises(NotFull):
            find_line(q, W_POINT)
        with pytest.raises(NotStable, match="centred tuple is not full"):
            center_flow(t)
        if k == 2:
            with pytest.raises(NotFull):
                z_lattice(q, 1.0)
            with pytest.raises(NotFull):
                to_su2_triple(t)
    else:
        find_line(q, W_POINT)
        assert center_flow(t).iterations == 0
        if k == 2:
            z_lattice(q, 1.0)
            to_su2_triple(t)
