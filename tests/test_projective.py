from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from monosphere.centering import HyperbolicPoint
from monosphere.charge2 import Su2Triple
from monosphere.curves import SpectralMatrix, bidegree
from monosphere.errors import IdenticallyZero
from monosphere.projective import (
    SpherePoint,
    antipode,
    chordal,
    hom_vector,
    proj_roots,
    vander,
    vander_derivative,
)
from monosphere.ratmap import ProjLine, RationalMap
from monosphere.spheres import CoeffTuple, HoloSphere


def test_antipode_of_i():
    p = antipode(1j)
    assert abs(p.chart - (-1j)) < 1e-15


def test_antipode_swaps_poles():
    assert antipode(0.0).is_infinity
    assert abs(antipode("inf").chart) == 0.0


def test_antipode_involution_no_fixed_points():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        p = SpherePoint.of(z)
        back = p.antipode().antipode()
        assert chordal(p, back) < 1e-14
        assert chordal(p, p.antipode()) > 0.5  # never close to fixed


def test_chordal_antipodal_pairs_maximal():
    for z in (0.3 + 0.1j, 2.0, -5j):
        assert abs(chordal(z, antipode(z)) - 1.0) < 1e-14


def test_proj_roots_plain_quadratic():
    roots = proj_roots([2.0, -3.0, 1.0])  # 2 - 3z + z^2 = (z-1)(z-2)
    vals = sorted(r.chart.real for r in roots)
    assert np.allclose(vals, [1.0, 2.0])


def test_proj_roots_degree_deficiency_gives_infinity():
    roots = proj_roots([1.0, 1.0, 0.0])  # 1 + z, one root at infinity
    assert sum(r.is_infinity for r in roots) == 1
    finite = [r for r in roots if not r.is_infinity]
    assert abs(finite[0].chart + 1.0) < 1e-12


def test_proj_roots_constant_all_infinity():
    roots = proj_roots([1.0, 0.0, 0.0])
    assert len(roots) == 2 and all(r.is_infinity for r in roots)


@pytest.mark.parametrize("c0", [1e-300, 5e-324, -2.0j])
def test_proj_roots_of_a_nonzero_constant_is_empty(c0):
    # a lone coefficient is its own scale, so even a subnormal one is kept
    assert proj_roots([c0]) == []


def test_proj_roots_zero_polynomial():
    with pytest.raises(IdenticallyZero):
        proj_roots([0.0, 0.0])


@pytest.mark.parametrize("coeffs", [[[1.0, 2.0], [3.0, 4.0]], []], ids=["2-d", "empty"])
def test_proj_roots_refuses_what_is_not_a_coefficient_vector(coeffs):
    with pytest.raises(ValueError, match="1-d and nonempty"):
        proj_roots(coeffs)


def _chart_roots(c):
    return [p.chart for p in proj_roots(c)]


def _matched_gap(got, want):
    """Largest |got - want| / max(1, |want|) under greedy nearest matching."""
    free, worst = list(got), 0.0
    for z in want:
        i = min(range(len(free)), key=lambda i: abs(free[i] - z))
        worst = max(worst, abs(free.pop(i) - z) / max(1.0, abs(z)))
    return worst


class TestClosedFormRoots:
    """Degrees 1 and 2 are solved in closed form; numpy's companion solve
    of the same coefficients is the reference."""

    @pytest.mark.parametrize("deg", [1, 2])
    def test_random_polynomials_match_np_roots(self, deg):
        rng = np.random.default_rng(90 + deg)
        for _ in range(300):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            c *= 10.0 ** rng.uniform(-3, 3, deg + 1)  # six decades of coefficient scale
            got = _chart_roots(c)
            assert got == sorted(got, key=lambda z: (z.real, z.imag))
            assert _matched_gap(got, np.roots(c[::-1])) <= 1e-12

    @pytest.mark.parametrize("small, large", [(1e-8, 1e8), (1e-8 + 2e-9j, -3e8j)])
    def test_widely_spread_roots_keep_every_digit(self, small, large):
        # (z - small)(z - large): the plain formula gives small as the
        # difference of two numbers near large, which cancels to 0
        got = sorted(_chart_roots([small * large, -(small + large), 1.0]), key=abs)
        assert abs(got[0] - small) <= 4e-16 * abs(small)
        assert abs(got[1] - large) <= 4e-16 * abs(large)
        assert _matched_gap(got, np.roots([1.0, -(small + large), small * large])) <= 1e-15

    @pytest.mark.parametrize("r", [1.0, 1.5 - 0.5j, 0.0])
    def test_double_root(self, r):
        c = [r * r, -2.0 * r, 1.0]
        got = _chart_roots(c)
        assert all(abs(z - r) <= 1e-15 for z in got)
        # the companion solve splits a double root by about sqrt(eps)
        assert _matched_gap(got, np.roots(c[::-1])) <= 1e-7

    @pytest.mark.parametrize(
        "c, finite",
        [([2.0, 3.0, 0.0], [-2 / 3]), ([1j, 0.0, 0.0], []), ([2.0, 3.0, 1e-11], [-2 / 3])],
        ids=["c2-zero", "constant", "c2-below-tolerance"],
    )
    def test_vanishing_top_coefficient_is_a_root_at_infinity(self, c, finite):
        roots = proj_roots(c)
        assert [p.is_infinity for p in roots] == [False] * len(finite) + [True] * (2 - len(finite))
        got = [p.chart for p in roots if not p.is_infinity]
        assert _matched_gap(got, finite) <= 1e-15

    def test_vanishing_constant_is_a_root_at_zero(self):
        got = _chart_roots([0.0, 3.0, 2.0])
        assert got == [-1.5, 0.0] and all(np.signbit(z.imag) == np.signbit(0.0) for z in got)
        assert _matched_gap(got, np.roots([2.0, 3.0, 0.0])) == 0.0

    def test_real_coefficients_give_an_exact_conjugate_pair(self):
        rng = np.random.default_rng(94)
        for _ in range(100):
            a, b = rng.standard_normal(2)
            c = [a * a + b * b, -2.0 * a, 1.0]  # roots a +- i |b|
            lo, hi = _chart_roots(c)
            assert lo == hi.conjugate() and lo.imag < 0.0
            assert _matched_gap([lo, hi], np.roots(c[::-1])) <= 1e-14

    @pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-600, 2.0**600, 2.0**1000])
    def test_power_of_two_scale_leaves_the_roots_unchanged(self, scale):
        # c1^2 would overflow or underflow at these scales unscaled
        c = np.array([0.3 - 1j, 2.0 + 0.5j, -0.7 + 0.1j])
        assert _chart_roots(c * scale) == _chart_roots(c)

    @pytest.mark.parametrize("c", [[0.0, 0.0, 0.0], [0.0], [np.nan, 1.0, 1.0], [1.0, np.inf, 0.0]])
    def test_zero_or_non_finite_polynomial_is_identically_zero(self, c):
        with pytest.raises(IdenticallyZero):
            proj_roots(c)

    @pytest.mark.parametrize("deg, calls", [(1, 0), (2, 0), (3, 1), (8, 1)])
    def test_companion_solve_only_from_degree_three(self, monkeypatch, deg, calls):
        counted = []
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: counted.append(len(p)) or roots(p))
        c = np.random.default_rng(deg).standard_normal(deg + 1)
        assert len(proj_roots(c)) == deg and len(counted) == calls


def test_real_cubics_list_each_conjugate_pair_exactly_minus_imag_first():
    # the companion solve of the real coefficients returns exact pairs and
    # exact real roots; the complex solve left real parts a few ulps apart,
    # so rounding chose the order of a pair (61 of these 152 listed +imag
    # first) and real roots carried imaginary dust
    rng = np.random.default_rng(0)
    paired = 0
    for _ in range(200):
        non_real = [z for z in _chart_roots(rng.standard_normal(4)) if z.imag]
        if non_real:
            lo, hi = non_real
            assert lo == hi.conjugate() and lo.imag < 0.0
            paired += 1
    assert paired == 152


def test_sphere_point_parsing():
    assert SpherePoint.of("inf").is_infinity
    assert SpherePoint.of(float("inf")).is_infinity
    assert SpherePoint.of(complex(1.0, float("-inf"))).is_infinity
    assert SpherePoint.of(SpherePoint.of(2.0)).chart == 2.0
    with pytest.raises(ValueError):
        SpherePoint.from_pair(0.0, 0.0)


@pytest.mark.parametrize("value", [None, object(), [1.0, 2.0]], ids=["None", "object", "list"])
def test_sphere_point_refuses_what_is_not_a_point(value):
    with pytest.raises(ValueError, match="not a sphere point"):
        SpherePoint.of(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (float("nan"), "not a number: nan"),
        ("nan", "not a number: 'nan'"),
        (complex(1.0, float("nan")), "not a number: (1+nanj)"),
        ("inf+nanj", "not a number: 'inf+nanj'"),
    ],
    ids=["float", "text", "complex", "infinite-and-nan-text"],
)
def test_sphere_point_refuses_nan(value, message):
    # each returned a point, and chordal(nan, 0.5) was nan; a NaN part is
    # refused before the infinity test, so inf+nanj is no point at infinity
    with pytest.raises(ValueError) as info:
        SpherePoint.of(value)
    assert str(info.value) == message


def test_point_at_infinity_has_no_chart_value():
    with pytest.raises(ZeroDivisionError):
        SpherePoint.of("inf").chart


def _monomials(z0, z1, k):
    return np.array([z0 ** (k - j) * z1**j for j in range(k + 1)], dtype=complex)


def _close(got, want):
    # entrywise relative error; an exact zero must come out exactly zero
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_kernel_matches_monomial_oracle():
    rng = np.random.default_rng(29)
    zs = np.concatenate([[0.0, -0.0, 1.0, 3.0 - 2.0j], rng.standard_normal(4) + 1j * rng.standard_normal(4)])
    for k in range(1, 33):
        for z in zs:
            p = SpherePoint.of(z)
            _close(vander(z, k), _monomials(1.0, z, k))
            _close(hom_vector(p, k), _monomials(p.z0, p.z1, k))
        block = zs.reshape(2, 4)
        V = vander(block, k)
        assert V.shape == (k + 1, 2, 4)
        for idx in np.ndindex(block.shape):
            _close(V[(slice(None),) + idx], vander(block[idx], k))
        e = np.eye(k + 1, dtype=complex)
        assert np.array_equal(hom_vector("inf", k), e[k])
        assert np.array_equal(hom_vector(0.0, k), e[0])
        # representatives other than the normalized ones
        for z0, z1 in ((2.0 - 1.0j, 0.5 + 3.0j), (0.0, 1.5j)):
            _close(hom_vector(SpherePoint(z0, z1), k), _monomials(z0, z1, k))


def test_bidegree_rows_match_the_folded_pairing():
    # psi(w, z) = v(-1/w)^T Psi v(z) times (-w1)^k pairs Psi against the
    # folded vector (-w1)^(k-i) w0^i; hom_vector(w) . bidegree(Psi) is that row
    rng = np.random.default_rng(31)
    ws = [SpherePoint.of(w) for w in ["inf", 0.0, *(rng.standard_normal(6) + 1j * rng.standard_normal(6))]]
    for k in range(1, 9):
        psi = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        C = bidegree(psi)
        for w in ws:
            want = _monomials(-w.z1, w.z0, k) @ psi
            got = hom_vector(w, k) @ C
            if w.is_infinity or w.z1 == 0.0:
                assert np.array_equal(got, want)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_kernel_derivatives_match_falling_factorials():
    import math

    z = 0.7 - 1.1j
    for k in (1, 4, 9):
        want = np.array([math.perm(j, 1) * z ** (j - 1) if j >= 1 else 0.0 for j in range(k + 1)], dtype=complex)
        _close(vander_derivative(vander(z, k)), want)
        block = np.array([[z, 0.0], [2.0, -1j]])
        dv = vander_derivative(vander(block, k))
        for idx in np.ndindex(block.shape):
            _close(dv[(slice(None),) + idx], vander_derivative(vander(block[idx], k)))


E3 = np.eye(3)

# (constructor, the caller's arrays, arrays of a wrong shape) of every
# value class that holds arrays; each holds them through projective.frozen.
VALUE_CASES = {
    "SpectralMatrix": (lambda a: SpectralMatrix(1, a), [np.eye(2)], [np.eye(3)]),
    "HoloSphere": (lambda a: HoloSphere(1, a), [np.eye(2)], [np.eye(3)]),
    "CoeffTuple": (lambda a: CoeffTuple(1, a), [np.eye(2)], [np.eye(3)]),
    "Su2Triple": (Su2Triple, [E3[0], E3[1], E3[2]], [E3[0, :2], E3[1], E3[2]]),
    "ProjLine": (ProjLine, [E3[0], E3[1]], [E3[:, :1], E3[:, 1:2]]),
    "RationalMap": (RationalMap, [np.array([1.0, 2.0]), np.array([3.0, 4.0])], [[1.0, 2.0], [1.0, 2.0, 3.0]]),
    "HyperbolicPoint": (HyperbolicPoint, [np.eye(2)], [np.eye(3)]),
}


@pytest.mark.parametrize("make, arrays, bad", VALUE_CASES.values(), ids=VALUE_CASES)
def test_values_hold_read_only_copies_of_one_shape(make, arrays, bad):
    arrays = [a.copy() for a in arrays]
    value = make(*arrays)
    names = [f.name for f in fields(value) if isinstance(getattr(value, f.name), np.ndarray)]
    assert len(names) == len(arrays)
    before = {name: getattr(value, name).copy() for name in names}
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[(0,) * before[name].ndim] = 7.0
    for a in arrays:
        a[...] = 0.5
    for name in names:
        assert np.array_equal(getattr(value, name), before[name])
    with pytest.raises(ValueError, match="must be"):
        make(*bad)
