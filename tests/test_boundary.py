from __future__ import annotations

import numpy as np
import pytest

from monosphere.boundary import (
    DEGREE_TOL,
    connection_at_infinity,
    curvature_density,
    degree_integral,
    metric_h,
    reconstruct_psi_from_metric,
    sample_boundary,
)
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.errors import NotPositive, QuadratureNotConverged, Underdetermined


def _rand_hermitian_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a.conj().T @ a + n * np.eye(n)


def test_metric_fubini_study():
    S = SpectralMatrix(1, np.eye(2))
    assert abs(metric_h(S, 1.0 + 1.0j) - 3.0) < 1e-14  # 1 + |z|^2


def test_metric_identity_charge2_at_one():
    S = SpectralMatrix(2, np.eye(3))
    assert abs(metric_h(S, 1.0) - 3.0) < 1e-14


def test_connection_fubini_study():
    S = SpectralMatrix(1, np.eye(2))
    z = 0.7 + 0.4j
    expect = np.conj(z) / (2.0 * (1.0 + abs(z) ** 2))
    assert abs(connection_at_infinity(S, z) - expect) < 1e-14
    # any diagonal matrix gives A_z(0) = 0
    assert connection_at_infinity(SpectralMatrix(1, np.diag([1.0, 3.0])), 0.0) == 0.0


def test_connection_finite_difference():
    rng = np.random.default_rng(2)
    S = SpectralMatrix(2, _rand_hermitian_pd(rng, 3))
    z = 0.3 - 0.8j
    h = 1e-5

    def logxi(zz):
        return 0.5 * np.log(metric_h(S, zz))

    dx = (logxi(z + h) - logxi(z - h)) / (2 * h)
    dy = (logxi(z + 1j * h) - logxi(z - 1j * h)) / (2 * h)
    fd = 0.5 * (dx - 1j * dy)
    assert abs(connection_at_infinity(S, z) - fd) < 1e-9


def test_curvature_fubini_study():
    S = SpectralMatrix(1, np.eye(2))
    for z in (0.0, 0.5, 1.0 + 2.0j):
        expect = 1.0 / (1.0 + abs(z) ** 2) ** 2
        assert abs(curvature_density(S, z) - expect) < 1e-14


def test_curvature_nonnegative_and_fd_consistent():
    rng = np.random.default_rng(8)
    S = SpectralMatrix(3, _rand_hermitian_pd(rng, 4))
    # second-order convergence of the 5-point Laplacian of log h to 4F
    z = 0.4 + 0.2j

    def loh(zz):
        return np.log(metric_h(S, zz))

    errs = []
    for h in (1e-3, 5e-4):
        lap = (
            loh(z + h) + loh(z - h) + loh(z + 1j * h) + loh(z - 1j * h) - 4 * loh(z)
        ) / h**2
        errs.append(abs(lap / 4.0 - curvature_density(S, z)))
    ratio = errs[0] / errs[1]
    assert 4.0 * 0.85 < ratio < 4.0 * 1.15
    for _ in range(30):
        zz = complex(rng.standard_normal(), rng.standard_normal())
        assert curvature_density(S, zz) >= 0.0


def test_degree_integral_charges_1_2():
    rng = np.random.default_rng(5)
    for k in (1, 2):
        S = SpectralMatrix(k, _rand_hermitian_pd(rng, k + 1))
        val, err = degree_integral(S)
        assert abs(val - k) < 1e-5
        assert err < 1e-7


def test_degree_integral_split_radius_invariant():
    rng = np.random.default_rng(6)
    S = SpectralMatrix(2, _rand_hermitian_pd(rng, 3))
    vals = [degree_integral(S, split_radius=r)[0] for r in (0.5, 1.0, 2.0)]
    assert max(vals) - min(vals) < 1e-6


def test_degree_integral_axial():
    val, _ = degree_integral(axial_spectral(2, 0.5))
    assert abs(val - 2.0) < 1e-5


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_degree_integral_random_within_bound(k):
    rng = np.random.default_rng(100 + k)
    val, bound = degree_integral(SpectralMatrix(k, _rand_hermitian_pd(rng, k + 1)))
    assert abs(val - k) <= bound <= DEGREE_TOL


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("m", [0.5, 1.0])
def test_degree_integral_axial_within_bound(k, m):
    val, bound = degree_integral(axial_spectral(k, m))
    assert abs(val - k) <= bound <= DEGREE_TOL


def test_degree_integral_split_radius_invariant_charge8():
    rng = np.random.default_rng(8)
    S = SpectralMatrix(8, _rand_hermitian_pd(rng, 9))
    for r in (0.5, 1.0, 2.0):
        val, bound = degree_integral(S, split_radius=r)
        assert abs(val - 8.0) <= bound <= DEGREE_TOL


def test_degree_integral_unreachable_tol():
    with pytest.raises(QuadratureNotConverged, match="exceeds 1.00e-20"):
        degree_integral(axial_spectral(2, 0.5), tol=1e-20)


def test_degree_integral_overflow_is_not_converged():
    # h = 1 + 1e300 |z|^2 overflows; the estimate is not finite
    with pytest.raises(QuadratureNotConverged, match="not finite"):
        degree_integral(SpectralMatrix(1, np.diag([1.0, 1e300])))


@pytest.mark.parametrize("chart", ["z", "inv"])
def test_array_calls_match_scalar_calls(chart):
    rng = np.random.default_rng(21)
    S = SpectralMatrix(5, _rand_hermitian_pd(rng, 6))
    zs = (rng.standard_normal(12) + 1j * rng.standard_normal(12)).reshape(3, 4)
    for fn, kind in (
        (metric_h, float),
        (connection_at_infinity, complex),
        (curvature_density, float),
    ):
        arr = fn(S, zs, chart)
        assert arr.shape == zs.shape
        for z, got in zip(zs.ravel(), arr.ravel()):
            one = fn(S, z, chart)
            assert type(one) is kind
            assert abs(got - one) <= 1e-13 * max(1.0, abs(one))


def test_reconstruct_exact_count_charge2():
    rng = np.random.default_rng(12)
    psi = _rand_hermitian_pd(rng, 3)
    S = SpectralMatrix(2, psi)
    zs = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(9)]
    samples = [(z, metric_h(S, z)) for z in zs]
    out = reconstruct_psi_from_metric(samples, 2)
    assert np.max(np.abs(out.psi - psi)) < 1e-10 * np.max(np.abs(psi))


def test_reconstruct_inconsistent_samples_not_positive():
    # -h is the metric of -Psi, which is negative definite
    rng = np.random.default_rng(14)
    S = SpectralMatrix(1, _rand_hermitian_pd(rng, 2))
    zs = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(6)]
    with pytest.raises(NotPositive):
        reconstruct_psi_from_metric([(z, -metric_h(S, z)) for z in zs], 1)


def test_reconstruct_underdetermined():
    rng = np.random.default_rng(13)
    S = SpectralMatrix(1, _rand_hermitian_pd(rng, 2))
    zs = [1.0, 2.0, 3.0]
    samples = [(z, metric_h(S, z)) for z in zs]
    with pytest.raises(Underdetermined):
        reconstruct_psi_from_metric(samples, 1)


def test_reconstruct_rank_deficient_samples():
    # all samples on |z| = 1 cannot separate the diagonal terms
    S = SpectralMatrix(1, np.diag([1.0, 2.0]))
    zs = [np.exp(2j * np.pi * t / 7) for t in range(7)]
    samples = [(z, metric_h(S, z)) for z in zs]
    with pytest.raises(Underdetermined):
        reconstruct_psi_from_metric(samples, 1)


def test_sample_rows():
    S = SpectralMatrix(1, np.eye(2))
    rows = sample_boundary(S, [0.0, 1.0])
    assert rows[0].h == 1.0 and rows[1].h == 2.0
    assert rows[0].f_density == 1.0


def test_sample_rows_match_pointwise_calls():
    rng = np.random.default_rng(22)
    S = SpectralMatrix(3, _rand_hermitian_pd(rng, 4))
    zs = [0.3 - 0.2j, 1.5 + 0.1j, -2.0j]
    for z, row in zip(zs, sample_boundary(S, zs)):
        assert row.z == z
        assert abs(row.h - metric_h(S, z)) <= 1e-13 * row.h
        assert abs(row.a_z - connection_at_infinity(S, z)) <= 1e-13
        assert abs(row.f_density - curvature_density(S, z)) <= 1e-13


def test_design_matrix_matches_loop_rows():
    from monosphere.boundary import _design_matrix

    rng = np.random.default_rng(23)
    k = 3
    zs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    A = _design_matrix(zs, k)
    for z, row in zip(zs, A):
        mono = [z**j for j in range(k + 1)]
        ref = [abs(m) ** 2 for m in mono]
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                cross = np.conj(mono[i]) * mono[j]
                ref += [2.0 * cross.real, -2.0 * cross.imag]
        assert np.allclose(row, ref, rtol=1e-14, atol=0.0)
