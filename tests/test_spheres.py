from __future__ import annotations

import numpy as np
import pytest

from monosphere.curves import SpectralMatrix, eval_psi
from monosphere.errors import NotPositiveDefinite
from monosphere.projective import antipode
from monosphere.spheres import (
    CoeffTuple,
    HoloSphere,
    eval_sphere,
    factor_sphere,
    fullness_check,
    pairing,
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
