from __future__ import annotations

import numpy as np
import pytest

from monosphere.errors import IdenticallyZero
from monosphere.projective import (
    SpherePoint,
    antipode,
    chordal,
    folded_vector,
    hom_vector,
    proj_roots,
    vander,
    vander_derivative,
)


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


def test_proj_roots_zero_polynomial():
    with pytest.raises(IdenticallyZero):
        proj_roots([0.0, 0.0])


def test_sphere_point_parsing():
    assert SpherePoint.of("inf").is_infinity
    assert SpherePoint.of(SpherePoint.of(2.0)).chart == 2.0
    with pytest.raises(ValueError):
        SpherePoint.from_pair(0.0, 0.0)


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
            _close(folded_vector(p, k), _monomials(-p.z1, p.z0, k))
        block = zs.reshape(2, 4)
        V = vander(block, k)
        assert V.shape == (k + 1, 2, 4)
        for idx in np.ndindex(block.shape):
            _close(V[(slice(None),) + idx], vander(block[idx], k))
        e = np.eye(k + 1, dtype=complex)
        assert np.array_equal(hom_vector("inf", k), e[k])
        assert np.array_equal(folded_vector("inf", k), (-1.0) ** k * e[0])
        assert np.array_equal(hom_vector(0.0, k), e[0])
        assert np.array_equal(folded_vector(0.0, k), e[k])
        # representatives other than the normalized ones
        for z0, z1 in ((2.0 - 1.0j, 0.5 + 3.0j), (0.0, 1.5j)):
            _close(hom_vector(SpherePoint(z0, z1), k), _monomials(z0, z1, k))


def test_kernel_derivatives_match_falling_factorials():
    import math

    z = 0.7 - 1.1j
    for k in (1, 4, 9):
        v = vander(z, k)
        for order in range(k + 2):
            want = np.array(
                [math.perm(j, order) * z ** (j - order) if j >= order else 0.0 for j in range(k + 1)],
                dtype=complex,
            )
            _close(vander_derivative(v, order), want)
        block = np.array([[z, 0.0], [2.0, -1j]])
        dv = vander_derivative(vander(block, k), 2)
        for idx in np.ndindex(block.shape):
            _close(dv[(slice(None),) + idx], vander_derivative(vander(block[idx], k), 2))
