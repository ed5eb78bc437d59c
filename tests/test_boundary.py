from __future__ import annotations

import numpy as np
import pytest

from monosphere.boundary import (
    DEGREE_TOL,
    _patch,
    connection_at_infinity,
    curvature_density,
    degree_integral,
    metric_h,
    reconstruct_psi_from_metric,
)
from monosphere.curves import SpectralMatrix, axial_spectral, hermitian_part
from monosphere.errors import NonFiniteResult, NotPositiveDefinite, QuadratureNotConverged, Underdetermined


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


def test_degree_integral_axial():
    val, _ = degree_integral(axial_spectral(2, 0.5))
    assert abs(val - 2.0) < 1e-5


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 24, 32])
def test_degree_integral_random_within_bound(k):
    rng = np.random.default_rng(100 + k)
    val, bound = degree_integral(SpectralMatrix(k, _rand_hermitian_pd(rng, k + 1)))
    assert abs(val - k) <= bound <= DEGREE_TOL


@pytest.mark.parametrize("k", [2, 4, 8, 16, 24, 32])
@pytest.mark.parametrize("m", [0.5, 1.0])
def test_degree_integral_axial_within_bound(k, m):
    val, bound = degree_integral(axial_spectral(k, m))
    assert abs(val - k) <= bound <= DEGREE_TOL


def test_degree_integral_indefinite_is_still_k():
    # Chern-Weil needs only h != 0 on the circle, not a positive definite Psi
    val, bound = degree_integral(SpectralMatrix(4, np.diag([1.0, -0.5, 2.0, -0.3, 1.0])))
    assert abs(val - 4.0) <= bound <= DEGREE_TOL


def test_degree_integral_unreachable_tol():
    with pytest.raises(QuadratureNotConverged, match="exceeds 1.00e-20"):
        degree_integral(axial_spectral(2, 0.5), tol=1e-20)


def test_degree_integral_large_diagonal():
    # h = 1 + 1e300 |z|^2 is finite on |z| = 1, and h is never squared
    val, bound = degree_integral(SpectralMatrix(1, np.diag([1.0, 1e300])))
    assert abs(val - 1.0) <= bound <= DEGREE_TOL


@pytest.mark.parametrize("scale", [2.0**1022, 2.0**-1074], ids=["2^1022", "2^-1074"])
def test_degree_integral_is_scale_free(scale):
    # h = 2^1024 would overflow on |z| = 1, and 2^-1074 is the smallest
    # subnormal; a power of two scales Psi exactly
    psi = np.diag([2.0, 1.0, 2.0])
    assert degree_integral(SpectralMatrix(2, scale * psi)) == degree_integral(SpectralMatrix(2, psi))


def test_degree_integral_zero_of_h_is_not_finite():
    # Hermitian, but h = |1 - z|^2 vanishes at the node z = 1 of the rule
    with pytest.raises(NonFiniteResult, match="not finite"):
        degree_integral(SpectralMatrix(1, np.array([[1.0, -1.0], [-1.0, 1.0]])))


def test_quadrature_not_converged_carries_the_rounding_bound():
    _, bound = degree_integral(axial_spectral(2, 0.5))
    with pytest.raises(QuadratureNotConverged) as info:
        degree_integral(axial_spectral(2, 0.5), tol=1e-20)
    assert info.value.best == bound
    assert f"{bound:.2e}" in str(info.value)
    assert not hasattr(info.value, "nodes")


def _near_zero_curve(eps):
    """Psi = p p* + eps max|p|^2 I for p(z) = (z - 1)(z - 2): h = |p|^2 +
    eps 9 |v|^2 nearly vanishes at z = 1 on the unit circle."""
    p = np.array([2.0, -3.0, 1.0])
    return SpectralMatrix(2, np.outer(p, p) + eps * np.max(p**2) * np.eye(3))


@pytest.mark.parametrize("eps", [1e-4, 1e-7], ids=["cond-1.6e4", "cond-1.6e7"])
def test_degree_integral_near_zero_curve_within_bound(eps):
    val, bound = degree_integral(_near_zero_curve(eps))
    assert abs(val - 2.0) <= bound <= DEGREE_TOL


def test_degree_integral_near_zero_curve_past_rounding():
    # cond 1.6e10: the rounding bound on the sum of the fluxes exceeds 1e-7
    S = _near_zero_curve(1e-10)
    assert np.linalg.cond(S.psi) >= 1e10
    with pytest.raises(QuadratureNotConverged, match="exceeds 1.00e-07") as info:
        degree_integral(S)
    assert info.value.best > DEGREE_TOL
    assert f"{info.value.best:.2e}" in str(info.value)


def _charts(k):
    """Random and axial curves of charge k, each in the z and the 1/z chart."""
    psi = _rand_hermitian_pd(np.random.default_rng(200 + k), k + 1)
    curves = [psi] if k == 1 else [psi, axial_spectral(k, 0.5).psi]
    return [SpectralMatrix(k, c) for p in curves for c in (p, p[::-1, ::-1])]


def _pointwise_flux(chart: SpectralMatrix, radius: float, n: int) -> float:
    """The 2n-node trapezoid mean of Re(z h_z / h) = Re(2 z A_z) on
    |z| = radius, point by point."""
    z = radius * np.exp(1j * np.pi * np.arange(2 * n) / n)
    return float(np.mean((2.0 * z * connection_at_infinity(chart, z)).real))


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("k", [1, 2, 8, 16, 32])
def test_ring_kernel_matches_pointwise_rule(k, n):
    # the kernel is the pointwise rule on 2k + 2 nodes of |z| = 1; the
    # pointwise fluxes of the two charts add up to k on 2n nodes as well
    charts = _charts(k)
    for chart in charts:
        expect = _pointwise_flux(chart, 1.0, k + 1)
        got, _ = _patch(chart.psi)
        assert abs(got - expect) <= 1e-12 * abs(expect)
    for z_chart, inv_chart in zip(charts[::2], charts[1::2]):
        total = _pointwise_flux(z_chart, 1.0, n) + _pointwise_flux(inv_chart, 1.0, n)
        assert abs(total - k) <= 1e-12 * k


def _area_oracle(chart: SpectralMatrix, radius: float, n: int) -> float:
    """(1/pi) * integral of F over |z| <= radius by the 2-D rule of n
    Gauss-Legendre radii times 2n trapezoid angles, ring by ring."""
    x, w = np.polynomial.legendre.leggauss(n)
    r = (x + 1.0) / 2.0
    circle = radius * np.exp(1j * np.pi * np.arange(2 * n) / n)
    rings = np.array([curvature_density(chart, s * circle).sum() for s in r])
    return float((w / 2.0 * r * radius**2 / n) @ rings)


# The pointwise rule that the area oracle checks takes 2 * FLUX_NODES
# nodes; a single patch converges exponentially in n and is converged there.
FLUX_NODES = 256


@pytest.mark.parametrize("k, n", [(1, 64), (2, 64), (8, 64), (16, 128), (32, 256)])
def test_flux_patch_matches_area_oracle(k, n):
    # Stokes: the flux through |z| = radius is the curvature inside it
    for chart in _charts(k):
        for radius in (0.5, 1.0, 2.0):
            expect = _area_oracle(chart, radius, n)
            got = _pointwise_flux(chart, radius, FLUX_NODES)
            assert abs(got - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("chart", ["z", "inv"])
def test_array_calls_match_scalar_calls(chart):
    rng = np.random.default_rng(21)
    psi = _rand_hermitian_pd(rng, 6)
    S = SpectralMatrix(5, psi if chart == "z" else psi[::-1, ::-1])
    zs = (rng.standard_normal(12) + 1j * rng.standard_normal(12)).reshape(3, 4)
    for fn, kind in (
        (metric_h, float),
        (connection_at_infinity, complex),
        (curvature_density, float),
    ):
        arr = fn(S, zs)
        assert arr.shape == zs.shape
        for z, got in zip(zs.ravel(), arr.ravel()):
            one = fn(S, z)
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
    with pytest.raises(NotPositiveDefinite):
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
    # the boundary CSV columns are these array calls
    S = SpectralMatrix(1, np.eye(2))
    z = np.array([0.0, 1.0], dtype=complex)
    assert list(metric_h(S, z)) == [1.0, 2.0]
    assert curvature_density(S, z)[0] == 1.0


def test_sample_rows_match_pointwise_calls():
    rng = np.random.default_rng(22)
    S = SpectralMatrix(3, _rand_hermitian_pd(rng, 4))
    zs = np.array([0.3 - 0.2j, 1.5 + 0.1j, -2.0j])
    rows = zip(zs, metric_h(S, zs), connection_at_infinity(S, zs), curvature_density(S, zs))
    for z, h, a_z, f in rows:
        assert abs(h - metric_h(S, z)) <= 1e-13 * h
        assert abs(a_z - connection_at_infinity(S, z)) <= 1e-13
        assert abs(f - curvature_density(S, z)) <= 1e-13


# round-trip bounds 20 to 100 times the deviation measured; the ring
# design loses about eight digits at k = 8
@pytest.mark.parametrize("k, bound", [(1, 1e-12), (2, 1e-12), (3, 1e-12), (4, 1e-12), (8, 1e-6)])
def test_design_rows_give_the_metric_of_the_hermitian_part_of_1_plus_i_x(k, bound):
    # layout-free: for any real X, A @ X.ravel() is h of
    # Psi = hermitian_part((1 + i) X), and h sampled on rings reconstructs
    # that Psi
    from monosphere.boundary import _design_matrix

    rng = np.random.default_rng(23 + k)
    X = rng.standard_normal((k + 1, k + 1)) + 2.0 * (k + 1) * np.eye(k + 1)
    S = SpectralMatrix(k, hermitian_part((1 + 1j) * X))
    zs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    h = metric_h(S, zs)
    assert np.max(np.abs(_design_matrix(zs, k) @ X.ravel() - h) / h) <= 1e-13
    rings = np.geomspace(0.5, 2.0, k + 1)[:, None] * np.exp(2j * np.pi * np.arange(2 * k + 2) / (2 * k + 2))
    back = reconstruct_psi_from_metric(zip(rings.ravel(), metric_h(S, rings.ravel())), k)
    assert np.max(np.abs(back.psi - S.psi)) <= bound * np.max(np.abs(S.psi))
