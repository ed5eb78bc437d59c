from __future__ import annotations

import numpy as np
import pytest

from monosphere.curves import (
    SpectralMatrix,
    axial_spectral,
    curve_spectrum,
    eval_psi,
    metric_scale_residual,
    normalize_reality,
    positivity_check,
    require_positive_definite,
)
from monosphere.boundary import degree_integral, metric_h
from monosphere.errors import NotHermitian, NotPositiveDefinite
from monosphere.projective import antipode
from monosphere.spheres import CoeffTuple, HoloSphere, factor_sphere


def _rand_hermitian_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a.conj().T @ a + n * np.eye(n)


# -- evaluation --------------------------------------------------------------

def test_eval_diag_charge1():
    S = SpectralMatrix(1, np.diag([1.0, 2.0]))
    assert abs(eval_psi(S, 1.0, 1.0) - (1.0 - 2.0)) < 1e-14


def test_eval_identity_charge2_root():
    S = SpectralMatrix(2, np.eye(3))
    w = np.exp(1j * np.pi / 3)
    assert abs(eval_psi(S, w, 1.0)) < 1e-14


def test_eval_on_antidiagonal_positive():
    S = SpectralMatrix(1, np.eye(2))
    val = eval_psi(S, 1.0, antipode(1.0))
    assert abs(val - 2.0) < 1e-14


def test_eval_matches_antidiagonal_form_everywhere():
    rng = np.random.default_rng(3)
    S = SpectralMatrix(2, _rand_hermitian_pd(rng, 3))
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = eval_psi(S, antipode(z), z)
        assert abs(lhs - metric_h(S, z)) < 1e-10 * abs(lhs)


def test_reality_symmetry_of_hermitian_matrices():
    # psi(antipode(z), antipode(w)) = conj(psi(w, z)) for Hermitian Psi.
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        S = SpectralMatrix(k, _rand_hermitian_pd(rng, k + 1))
        for _ in range(34):
            w = complex(rng.standard_normal(), rng.standard_normal())
            z = complex(rng.standard_normal(), rng.standard_normal())
            lhs = eval_psi(S, antipode(z), antipode(w))
            rhs = np.conj(eval_psi(S, w, z))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_eval_at_infinity_is_top_row():
    S = SpectralMatrix(2, np.arange(9.0).reshape(3, 3) + 1.0)
    z = 0.7 - 0.2j
    expect = sum(S.psi[0, j] * z**j for j in range(3))
    assert abs(eval_psi(S, "inf", z) - expect) < 1e-13


@pytest.mark.parametrize("seed", [None, 3], ids=["axial", "random"])
def test_a_large_curve_reads_as_the_curve(seed):
    # psi(w, z) at large |w| and |z| fits in a double, its homogeneous
    # representative over Psi times 2^1000 does not
    rng = np.random.default_rng(seed)
    S = axial_spectral(2, 0.5) if seed is None else SpectralMatrix(2, _rand_hermitian_pd(rng, 3))
    big = SpectralMatrix(2, S.psi * 2.0**1000)
    for w, z in [(3.0, 5.0), (1e3, 1e2), (1e4, 2.0), (-2e3 + 1e3j, 40.0), (0.0, "inf"), ("inf", 0.5j)]:
        assert eval_psi(big, w, z) == eval_psi(S, w, z) * 2.0**1000
        assert metric_scale_residual(big, w, z) == metric_scale_residual(S, w, z)


def test_eval_psi_of_a_curve_near_the_largest_double():
    S = axial_spectral(2, 0.5)
    value, ref = eval_psi(SpectralMatrix(2, S.psi * 1e307), 3, 5), eval_psi(S, 3, 5) * 1e307
    assert np.isfinite(value) and abs(value - ref) <= 1e-15 * abs(ref)


def test_metric_scale_residual_pointwise_and_over_sequences():
    rng = np.random.default_rng(11)
    k = 3
    S = SpectralMatrix(k, _rand_hermitian_pd(rng, k + 1))
    ws = [0.7 - 0.2j, 1e6j, -3.0, 0.0, "inf"]
    zs = [0.1 + 2.0j, 1e-7, 250.0, 0.5j, "inf"]
    got = [metric_scale_residual(S, w, z) for w, z in zip(ws, zs)]
    for w, z, g in list(zip(ws, zs, got))[:3]:
        # finite w != 0 and finite z: |psi| times |w|^k / (|(1, w)|^k |(1, z)|^k)
        unit = (abs(w) / np.hypot(1.0, abs(w))) ** k / np.hypot(1.0, abs(z)) ** k
        assert abs(g - abs(eval_psi(S, w, z)) * unit / np.linalg.norm(S.psi)) <= 1e-15
    assert min(got) > 0.0
    assert abs(metric_scale_residual(S, ws, zs) - max(got)) <= 1e-15


# -- reality normalization ---------------------------------------------------

def test_normalize_pure_phase():
    raw = SpectralMatrix(1, np.diag([1j, 2j]))
    out = normalize_reality(raw)
    assert np.allclose(out.psi, np.diag([1.0, 2.0]), atol=1e-14)
    assert np.array_equal(out.psi, np.conj(out.psi).T)


def test_normalize_idempotent_exact():
    rng = np.random.default_rng(5)
    raw = SpectralMatrix(2, np.exp(0.7j) * _rand_hermitian_pd(rng, 3))
    once = normalize_reality(raw)
    twice = normalize_reality(once)
    assert np.array_equal(once.psi, twice.psi)


def test_normalize_rejects_non_real_curve():
    with pytest.raises(NotHermitian):
        normalize_reality(SpectralMatrix(1, np.diag([1.0, 1.0 + 1.0j])))


def test_normalize_flags_antidiagonal_vanishing():
    # diag(1, -3) gives h = 1 - 3|z|^2, which changes sign on |z|^2 = 1/3
    with pytest.raises(NotPositiveDefinite):
        normalize_reality(SpectralMatrix(1, np.diag([1.0, -3.0])))


@pytest.mark.parametrize(
    "psi",
    [[[0.49, -0.7], [-0.7, 1.0]], np.diag([1.0, -0.5, 1.0]), np.zeros((2, 2))],
    ids=["h-vanishes-at-0.7", "h-positive-but-indefinite", "zero"],
)
def test_normalize_refuses_what_the_gate_refuses(psi):
    # h = |z - 0.7|^2 vanishes at a single point, and diag(1, -0.5, 1) has
    # h = 1 - |z|^2 / 2 + |z|^4 > 0 everywhere yet is no Q^* Q: a sampled h
    # accepted both
    psi = np.asarray(psi, dtype=complex)
    with pytest.raises(NotPositiveDefinite):
        normalize_reality(SpectralMatrix(psi.shape[0] - 1, psi))


def test_normalize_accepts_exactly_what_check_accepts_up_to_phase_and_sign():
    # eigenvalues of one sign (either), of both signs, and with a zero
    rng = np.random.default_rng(17)
    for k in (1, 2, 3, 5, 8):
        u, _ = np.linalg.qr(rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1)))
        spread = rng.uniform(1.0, 10.0, k + 1)
        for eigs in (spread, -spread, np.r_[-spread[0], spread[1:]], np.r_[0.0, spread[1:]]):
            herm = (u * eigs) @ u.conj().T
            want = next((sign * herm for sign in (1.0, -1.0) if positivity_check(SpectralMatrix(k, sign * herm))[1]), None)
            raw = SpectralMatrix(k, np.exp(1j * rng.uniform(0, 2 * np.pi)) * herm)
            if want is None:
                with pytest.raises(NotPositiveDefinite):
                    normalize_reality(raw)
            else:
                assert np.allclose(normalize_reality(raw).psi, want, rtol=0, atol=1e-12 * np.max(np.abs(herm)))


# -- positivity and degeneracy ----------------------------------------------

def test_positivity_identity():
    vals, ok = positivity_check(SpectralMatrix(2, np.eye(3)))
    assert ok and np.allclose(vals, [1.0, 1.0, 1.0])


def test_positivity_charge1_family():
    vals, ok = positivity_check(SpectralMatrix(1, np.diag([1.0, 2.0])))
    assert ok and np.allclose(vals, [1.0, 2.0])


def test_positivity_degenerate_massless():
    vals, ok = positivity_check(SpectralMatrix(2, np.diag([1.0, 0.0, 1.0])))
    assert not ok
    assert abs(vals[0]) < 1e-14


def test_positivity_requires_hermitian():
    with pytest.raises(NotHermitian):
        positivity_check(SpectralMatrix(1, np.array([[1.0, 1.0], [0.0, 1.0]])))


_NON_FINITE = {
    "nan-diagonal": [[np.nan, 0], [0, 1]],
    "nan-off-diagonal": [[1, np.nan], [0, 1]],
    "inf-diagonal": [[np.inf, 0], [0, 1]],
    "inf-off-diagonal": [[1, np.inf], [0, 1]],
    "inf-pair": [[1, complex(0, np.inf)], [complex(0, -np.inf), 1]],
}


@pytest.mark.parametrize("psi", _NON_FINITE.values(), ids=_NON_FINITE.keys())
@pytest.mark.parametrize(
    "read", [curve_spectrum, require_positive_definite, normalize_reality, factor_sphere, degree_integral],
    ids=lambda f: f.__name__,
)
def test_a_non_finite_curve_is_not_hermitian(read, psi):
    # a NaN gap compared False against the tolerance, and LAPACK read
    # eigenvalues off the NaN matrix
    with pytest.raises(NotHermitian, match="not Hermitian within tolerance"):
        read(SpectralMatrix(1, psi))


def test_curve_spectrum_report():
    rep = curve_spectrum(SpectralMatrix(2, np.diag([1.0, 0.0, 1.0])))
    assert rep.degenerate and not rep.positive
    assert abs(rep.determinant) < 1e-14
    rep2 = curve_spectrum(SpectralMatrix(2, np.eye(3)))
    assert not rep2.degenerate and rep2.positive
    assert abs(rep2.determinant - 1.0) < 1e-12
    assert rep2.condition_estimate < 1.0 + 1e-12


def test_curve_spectrum_reads_the_eigenvalues_of_a_hermitian_curve():
    # the determinant is the real product of the eigenvalues and the
    # condition their magnitude ratio, as for an indefinite diagonal
    rep = curve_spectrum(SpectralMatrix(2, np.diag([-2.0, 1.0, 3.0])))
    assert type(rep.determinant) is float
    assert rep.determinant == pytest.approx(-6.0, rel=1e-14)
    assert rep.condition_estimate == pytest.approx(3.0, rel=1e-14)
    assert not rep.degenerate
    with pytest.raises(NotHermitian):
        curve_spectrum(SpectralMatrix(1, np.array([[1.0, 1.0], [0.0, 1.0]])))


def test_curve_spectrum_verdicts_read_its_tolerance():
    # one eigendecomposition serves both tolerances: the ratio 1e-9 is
    # positive definite at 1e-10 and not at 1e-8
    S = SpectralMatrix(1, np.diag([1.0, 1e-9]))
    loose, strict = curve_spectrum(S), curve_spectrum(S, 1e-8)
    assert loose.eigenvalues is strict.eigenvalues
    assert (loose.positive, strict.positive) == (True, False)
    assert (loose.degenerate, strict.degenerate) == (False, True)


def test_the_hermitian_part_carries_its_spectrum():
    # the gate's Hermitian part is its own Hermitian part, bit for bit,
    # so reading its spectrum again returns the same arrays
    rng = np.random.default_rng(3)
    psi = _rand_hermitian_pd(rng, 5)
    S = SpectralMatrix(4, psi + 1e-13 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))))
    spectrum = require_positive_definite(S)
    herm = spectrum.hermitian
    assert np.array_equal(herm.psi, np.conj(herm.psi).T)
    again = curve_spectrum(herm)
    assert again.hermitian is herm and again.eigenvalues is spectrum.eigenvalues
    fresh = SpectralMatrix(4, herm.psi)
    assert np.array_equal(curve_spectrum(fresh).hermitian.psi, herm.psi)
    assert np.array_equal(curve_spectrum(fresh).eigenvalues, spectrum.eigenvalues)
    assert not spectrum.eigenvalues.flags.writeable


@pytest.mark.parametrize("k", [0, -1])
def test_spectral_matrix_refuses_a_charge_below_one(k):
    with pytest.raises(ValueError, match="charge k must be >= 1"):
        SpectralMatrix(k, np.eye(1))


# every charged value reads its k through one check
CHARGED = {
    "SpectralMatrix": lambda k: SpectralMatrix(k, np.eye(3)),
    "HoloSphere": lambda k: HoloSphere(k, np.eye(3)),
    "CoeffTuple": lambda k: CoeffTuple(k, np.eye(3)),
    "axial_spectral": lambda k: axial_spectral(k, 0.5),
}


@pytest.mark.parametrize("make", list(CHARGED.values()), ids=list(CHARGED))
@pytest.mark.parametrize("k", [2, np.int64(2), np.int32(2), np.uint8(2)], ids=["int", "int64", "int32", "uint8"])
def test_an_integer_charge_is_stored_as_an_int(make, k):
    value = make(k)
    assert type(value.k) is int and value.k == 2


@pytest.mark.parametrize("make", list(CHARGED.values()), ids=list(CHARGED))
@pytest.mark.parametrize(
    "k", [2.0, np.float64(2.0), 1.5, True, np.bool_(True), "2", None],
    ids=["float", "float64", "fraction", "bool", "numpy-bool", "str", "none"],
)
def test_a_charge_that_is_not_an_integer_is_refused(make, k):
    # 2.0 was kept as a float, and axial_spectral(1.5, m) failed on its roots
    with pytest.raises(ValueError, match="charge k must be an integer, got"):
        make(k)


# -- axial family -------------------------------------------------------------

@pytest.mark.parametrize(
    "k, m, alpha, message",
    [(-1, 0.5, 1.0, "charge k must be >= 1"), (2, -0.1, 1.0, "mass must be >= 0"),
     (2, 0.5, 0.0, "alpha must be > 0"), (2, 0.5, -1.0, "alpha must be > 0")],
    ids=["k-negative", "m-negative", "alpha-0", "alpha-negative"],
)
def test_axial_refuses_parameters_out_of_range(k, m, alpha, message):
    with pytest.raises(ValueError, match=message):
        axial_spectral(k, m, alpha)


def test_axial_mass_half_charge2():
    S = axial_spectral(2, 0.5, 1.0)
    assert np.max(np.abs(S.psi - np.eye(3))) < 1e-12


def test_axial_massless_degenerate():
    S = axial_spectral(2, 0.0, 1.0)
    assert np.array_equal(S.psi, np.diag([1.0, 0.0, 1.0]))


def test_axial_massless_general_alpha():
    S = axial_spectral(3, 0.0, 1.3)
    expect = np.diag([1.0, 0.0, 0.0, 1.3**3])
    assert np.max(np.abs(S.psi - expect)) < 1e-12


def test_axial_matches_cos_formula_charge2():
    for m in (0.25, 0.5, 1.0, 2.0):
        S = axial_spectral(2, m, 1.0)
        e1 = 2.0 * np.cos(np.pi / (2.0 * m + 2.0))
        assert abs(S.psi[1, 1] - e1) < 1e-12
        assert abs(S.psi[0, 0] - 1.0) < 1e-12
        assert abs(S.psi[2, 2] - 1.0) < 1e-12


def test_axial_entries_increase_with_mass():
    grid = np.arange(0.1, 2.05, 0.1)
    for k in (2, 3, 4):
        prev = None
        for m in grid:
            diag = np.diag(axial_spectral(k, float(m), 1.0).psi).real
            inner = diag[1:k]
            if prev is not None:
                assert np.all(inner > prev + 1e-12)
            prev = inner


def test_axial_curve_vanishes_on_its_roots():
    S = axial_spectral(2, 0.5, 1.0)
    # curve w^2 - w z + z^2 = 0 at z = 1: w = exp(+-i pi/3)
    for sgn in (1, -1):
        w = np.exp(sgn * 1j * np.pi / 3)
        assert abs(eval_psi(S, w, 1.0)) < 1e-14
