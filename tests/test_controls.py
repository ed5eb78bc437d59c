"""Controls: for each report verdict, an input under which it must read
false (or true where the usual reading is false), so that no verdict is
an identity that passes on every input."""

import json
from dataclasses import replace

import numpy as np
import pytest

import test_acceptance as acceptance

from monosphere import axial, boundary, charge2
from monosphere.charge2 import Su2Triple
from monosphere.cli import main
from monosphere.curves import SpectralMatrix, axial_spectral
from monosphere.projective import SpherePoint, antipode
from monosphere.ratmap import RationalMap
from monosphere.serialize import dumps_report, encode
from monosphere.spheres import CoeffTuple, eval_sphere, factor_sphere


def _run(tmp_path, argv, doc):
    path = tmp_path / "in.json"
    path.write_text(dumps_report(doc))
    out = tmp_path / "out.json"
    code = main(argv + ["--input", str(path), "--output", str(out)])
    return code, json.loads(out.read_text())


def _check(tmp_path, psi):
    return _run(tmp_path, ["check"], encode(SpectralMatrix(len(psi) - 1, np.diag(psi))))


@pytest.mark.parametrize(
    "psi, degenerate",
    [([1.0, 1.0, 1.0], False), ([1.0, 1e-9, 1e-9], True)],
    ids=["identity", "det-1e-18"],
)
def test_check_degenerate_reads_both_ways(tmp_path, psi, degenerate):
    # diag(1, 1e-9, 1e-9) passes the gate (eigenvalue ratio 1e-9 > 1e-10)
    # while its unit-norm determinant 1e-18 lies below the 1e-10 tolerance
    code, report = _check(tmp_path, psi)
    assert code == 0
    assert report["degenerate"] is degenerate


@pytest.mark.parametrize(
    "command, document",
    [("lattice", "sphere"), ("pseq", "curve"), ("poncelet", "curve")],
)
@pytest.mark.parametrize(
    "m, closed",
    [(1.0, True), (0.37, False)],
    ids=[
        "m-1",  # every walk returns to its start after 4m + 4 = 8 steps
        "m-0.37",  # 4m + 4 = 5.48 = 137/25: no return within the default step budgets
    ],
)
def test_charge2_walks_read_closed_both_ways(tmp_path, command, document, m, closed):
    S = axial_spectral(2, m)
    doc = encode(factor_sphere(S)) if document == "sphere" else encode(S)
    code, report = _run(tmp_path, ["charge2", command], doc)
    assert code == 0
    assert report["closed"] is closed


@pytest.mark.parametrize(
    "rows, full",
    [
        ([[1.5, 0, 0], [0, 0.7, 0], [0, 0, 1.5]], True),
        ([[1, 2, 0], [0, 1, 0], [3, -1, 0]], False),
    ],
    ids=[
        "axial",  # three orthogonal rows span R^3
        "coplanar",  # all three rows lie in the plane x3 = 0
    ],
)
def test_involution_full_reads_both_ways(tmp_path, rows, full):
    code, report = _run(tmp_path, ["charge2", "involution"], encode(Su2Triple(*rows)))
    assert code == 0
    assert report["full"] is full


@pytest.mark.parametrize("moves_gram", [False, True], ids=["bracket", "along-nu"])
def test_involution_first_order_invariant_reads_both_ways(tmp_path, monkeypatch, moves_gram):
    # along nu itself (bracket patched to the identity) the Gram moves at
    # 2 N N^T, so the quartic moves at twice itself and is not invariant
    if moves_gram:
        monkeypatch.setattr(charge2, "bracket", lambda nu: nu)
    nu = Su2Triple(*np.random.default_rng(47).standard_normal((3, 3)))
    code, report = _run(tmp_path, ["charge2", "involution"], encode(nu))
    assert code == 0
    assert report["first_order_invariant"] is not moves_gram


# Acceptance criteria: a monkeypatch under which the PASS line reads FAIL.


def test_criterion_01_fails_on_a_nudged_entry(monkeypatch, capsys):
    # Psi[0, 0] off the identity by 1e-11, past the 1e-12 bound
    def nudged(k, m):
        psi = axial_spectral(k, m).psi.copy()
        psi[0, 0] += 1e-11
        return SpectralMatrix(k, psi)

    monkeypatch.setattr(acceptance, "axial_spectral", nudged)
    with pytest.raises(AssertionError, match="criterion  1 FAIL"):
        acceptance.test_criterion_01_axial_half_mass_curve()
    assert "criterion  1 FAIL" in capsys.readouterr().out


def test_criterion_02_fails_on_an_unconjugated_pairing(monkeypatch, capsys):
    # without the conjugate, q(antipode(w)) . q(z) is not psi(w, z)
    monkeypatch.setattr(
        acceptance, "_paper_pairing", lambda q, w, z: np.dot(eval_sphere(q, antipode(w)), eval_sphere(q, z))
    )
    with pytest.raises(AssertionError, match="criterion  2 FAIL"):
        acceptance.test_criterion_02_factor_round_trip()
    assert "criterion  2 FAIL" in capsys.readouterr().out


def test_criterion_03_fails_on_a_shifted_flux(monkeypatch, capsys):
    patch = boundary._patch
    monkeypatch.setattr(boundary, "_patch", lambda psi: (patch(psi)[0] + 1e-3, patch(psi)[1]))
    with pytest.raises(AssertionError, match="criterion  3 FAIL"):
        acceptance.test_criterion_03_degree_integral()
    assert "criterion  3 FAIL" in capsys.readouterr().out


def test_criterion_04_fails_on_a_nudged_centred_tuple(monkeypatch, capsys):
    # every centred tuple scaled by 1 + 1e-5: |mu| stays 0 relative to
    # norm2, and the Gram spectrum moves by about 2e-5, past the 1e-6 bound
    flow = acceptance.center_flow

    def nudged(t):
        res = flow(t)
        return replace(res, tuple_centred=CoeffTuple(t.k, res.tuple_centred.v * (1.0 + 1e-5)))

    monkeypatch.setattr(acceptance, "center_flow", nudged)
    with pytest.raises(AssertionError, match="criterion  4 FAIL"):
        acceptance.test_criterion_04_centering_flow()
    assert "criterion  4 FAIL" in capsys.readouterr().out


def test_criterion_05_fails_on_a_scaled_mu_r(monkeypatch, capsys):
    # mu_r scaled by 1 + 1e-3 leaves the central difference of norm2 behind
    # by 1e-3 |mu_r|, past the 1e-5 bound relative to norm2
    moment = acceptance.moment_map

    def scaled(t):
        mu = moment(t)
        return replace(mu, mu_r=mu.mu_r * (1.0 + 1e-3))

    monkeypatch.setattr(acceptance, "moment_map", scaled)
    with pytest.raises(AssertionError, match="criterion  5 FAIL"):
        acceptance.test_criterion_05_moment_gradient()
    assert "criterion  5 FAIL" in capsys.readouterr().out


def test_criterion_06_fails_on_nudged_poles(monkeypatch, capsys):
    # every finite pole moved by 1e-7 in the chart lies off the slice
    # roots by more than the 1e-8 chordal gap
    poles = RationalMap.poles
    monkeypatch.setattr(
        RationalMap, "poles", lambda f: [p if p.is_infinity else SpherePoint.of(p.chart + 1e-7) for p in poles(f)]
    )
    with pytest.raises(AssertionError, match="criterion  6 FAIL"):
        acceptance.test_criterion_06_pole_invariance()
    assert "criterion  6 FAIL" in capsys.readouterr().out


def _nudged_vieta_step(c, r, tol, step=charge2._vieta_step):
    s0, s1 = step(c, r, tol)
    return s0, s1 * (1.0 + 1e-6)


def _doubled_winding(points, winding=charge2._winding):
    return 2 * winding(points)


@pytest.mark.parametrize(
    "name, nudged",
    [("_vieta_step", _nudged_vieta_step), ("_winding", _doubled_winding)],
    ids=["vieta-step", "winding"],
)
def test_criterion_07_fails_on_a_nudged_walk(monkeypatch, capsys, name, nudged):
    # a step moved off its line leaves the curve and does not close; a
    # doubled winding halves N/|W| = 4m + 4 and so moves every mass
    monkeypatch.setattr(charge2, name, nudged)
    with pytest.raises(AssertionError, match="criterion  7 FAIL"):
        acceptance.test_criterion_07_p_sequence_closure()
    assert "criterion  7 FAIL" in capsys.readouterr().out


def test_criterion_08_fails_on_a_nudged_lattice_step(monkeypatch, capsys):
    # the constant term of every slice read off Psi moves by 1e-6: the
    # lattice leaves the cube roots of unity and does not close
    line = charge2._line

    def nudged(rows, z0, z1):
        c0, c1, c2 = line(rows, z0, z1)
        return c0 * (1.0 + 1e-6), c1, c2

    monkeypatch.setattr(charge2, "_line", nudged)
    with pytest.raises(AssertionError, match="criterion  8 FAIL"):
        acceptance.test_criterion_08_z_lattice()
    assert "criterion  8 FAIL" in capsys.readouterr().out


def test_criterion_09_fails_on_a_moved_vertex(monkeypatch, capsys):
    # the z of the third vertex moved by 1e-6 puts its image off the conic
    walk = charge2._p_walk

    def moved(*args):
        points, period = walk(*args)
        w, (z0, z1) = points[2]
        points[2] = (w, (z0, z1 + 1e-6))
        return points, period

    monkeypatch.setattr(charge2, "_p_walk", moved)
    with pytest.raises(AssertionError, match="criterion  9 FAIL"):
        acceptance.test_criterion_09_poncelet()
    assert "criterion  9 FAIL" in capsys.readouterr().out


def test_criterion_10_fails_on_a_bracket_with_swapped_rows(monkeypatch, capsys):
    # (r2 x r0, r1 x r2, r0 x r1) squared is no longer triple_product(nu) nu
    bracket = acceptance.bracket
    monkeypatch.setattr(acceptance, "bracket", lambda nu: Su2Triple(*bracket(nu).stack()[[1, 0, 2]]))
    with pytest.raises(AssertionError, match="criterion 10 FAIL"):
        acceptance.test_criterion_10_bracket_involution()
    assert "criterion 10 FAIL" in capsys.readouterr().out


def test_criterion_11_fails_on_an_unconjugated_adjoint(monkeypatch, capsys):
    # H_z without its conjugate transpose: the exact residual of the sech
    # field no longer vanishes
    monkeypatch.setattr(axial, "_adjoint", lambda A: A)
    with pytest.raises(AssertionError, match="criterion 11 FAIL"):
        acceptance.test_criterion_11_bogomolny_residual()
    assert "criterion 11 FAIL" in capsys.readouterr().out


def test_criterion_12_fails_on_a_conjugated_design(monkeypatch, capsys):
    # rows Re((1 - i) conj(v_i) v_j) solve for the X of conj(Psi)
    def conjugated(z, k):
        v = boundary.vander(z, k).T
        return ((1 - 1j) * np.conj(v)[:, :, None] * v[:, None, :]).real.reshape(z.size, -1)

    monkeypatch.setattr(boundary, "_design_matrix", conjugated)
    with pytest.raises(AssertionError, match="criterion 12 FAIL"):
        acceptance.test_criterion_12_boundary_reconstruction()
    assert "criterion 12 FAIL" in capsys.readouterr().out
