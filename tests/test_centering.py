from __future__ import annotations

import numpy as np
import pytest

from monosphere.centering import (
    Mobius,
    act_sl2,
    center_flow,
    centre_point,
    moment_map,
    norm2,
    stability_check,
)
from monosphere.errors import MaxIterExceeded, NotStable
from monosphere.spheres import CoeffTuple, HoloSphere, sphere_to_tuple


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


def _rand_sl2(rng, spread=0.7):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h).real / 2.0 * np.eye(2)
    h *= spread / max(np.linalg.norm(h), 1e-12)
    from scipy.linalg import expm

    return Mobius.from_matrix(expm(h))


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
    rhs = act_sl2(g2.compose(g1), t)
    assert np.max(np.abs(lhs.v - rhs.v)) < 1e-10 * np.max(np.abs(rhs.v))


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


# -- stability ----------------------------------------------------------------

def test_stability_identity():
    assert stability_check(sphere_to_tuple(HoloSphere(2, np.eye(3))))


def test_stability_rejects_zero_ends():
    t = _tuple_from_rows([[0.0, 0.0], [0.0, 1.0]])
    assert not stability_check(t)


def test_stability_rejects_rank_deficient():
    t = _tuple_from_rows([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert not stability_check(t)


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
    for k in (1, 2, 3):
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
        from scipy.linalg import expm

        for s in (0.1, 0.01):
            g = Mobius.from_matrix(expm(s * h))
            assert norm2(act_sl2(g, t)) >= base * (1.0 - 1e-9)


def test_flow_sech_tuple_already_centred():
    s = 1.0 / np.sqrt(2.0)
    Q = np.array([[s, s, 0.0], [1j * s, -1j * s, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    t = sphere_to_tuple(HoloSphere(2, Q))
    mu = moment_map(t)
    assert abs(mu.mu_r) < 1e-12 and abs(mu.mu_c) < 1e-12
    res = center_flow(t)
    assert res.iterations == 0


# -- centre point -------------------------------------------------------------

def test_centre_identity():
    X = centre_point(Mobius.identity())
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
        b = centre_point(u.compose(g)).X
        assert np.max(np.abs(a - b)) < 1e-12


def test_flow_budget_exhausted_carries_best():
    rng = np.random.default_rng(61)
    t = _rand_tuple(rng, 2)
    with pytest.raises(MaxIterExceeded) as info:
        center_flow(t, max_iter=1)
    assert info.value.best is not None
