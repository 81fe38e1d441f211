import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dirac8 import matrices, planewaves as pw, verify
from dirac8.dispersion import (ACOUSTIC_MINUS, ACOUSTIC_PLUS, BRANCHES,
                               OPTICAL_MINUS, OPTICAL_PLUS, branch_energy, modes)
from dirac8.params import QuantumParams

QP = QuantumParams(epsilon=0.5)
RNG = np.random.default_rng(7)
POINTS = [(t, z) for t, z in RNG.uniform(-10, 10, size=(20, 2))]


def phase(solution, t, z, params):
    """The plane-wave factor exp(-i (E t - p_z z)/hbar) of solution at (t, z)."""
    return np.exp(-1j * (solution.E * t - solution.p_z * z) / params.hbar)


def evaluate(solution, t, z, params):
    """The field of solution at (t, z): its amplitudes times the plane-wave factor."""
    return solution.amplitudes * phase(solution, t, z, params)


def _up_block(p_z, params):
    """The block of H_D8(0, 0, p_z) on the spin-up slots (Psi_1, Psi_3, Phi_1, Phi_3)."""
    up = pw.SPIN_SLOTS["up"]
    return matrices.hamiltonian_d8((0.0, 0.0, p_z), params)[np.ix_(up, up)]


def _amp(branch, p_z, qp=QP):
    """The spin-up solution's sector amplitudes as .b1, .b3, .d1, .d3, with its .form."""
    sol = pw.build_solution(branch, "up", p_z, qp)
    return SimpleNamespace(**dict(zip(("b1", "b3", "d1", "d3"), sol.sector_amplitudes)),
                           form=sol.form)


def test_acoustic_amplitudes():
    amp = _amp(ACOUSTIC_PLUS, 1.7)
    assert (amp.b1, amp.b3, amp.d1, amp.d3) == (1.0, 1.0, 1.0, 1.0)
    amp = _amp(ACOUSTIC_MINUS, 1.7)
    assert (amp.b1, amp.b3, amp.d1, amp.d3) == (1.0, -1.0, 1.0, -1.0)


def test_optical_plus_amplitudes_at_rest():
    amp = _amp(OPTICAL_PLUS, 0.0)
    assert amp.b1 == 1.0
    assert amp.b3 == 0.0
    assert amp.d1 == pytest.approx(-0.25)
    assert amp.d3 == 0.0


def test_optical_plus_ratio_value():
    amp = _amp(OPTICAL_PLUS, 1.0)
    expected = 1.0 / (1.5 + math.sqrt(1.25))
    assert amp.b3 == pytest.approx(expected, rel=1e-14)


def test_optical_minus_rationalized_matches_printed_form():
    # the printed ratio -c p / (sqrt(...) - gap) and the rationalized
    # -(sqrt(...) + gap) / (c p) agree away from p = 0
    for p in (0.3, 1.0, -2.0):
        amp = _amp(OPTICAL_MINUS, p)
        E_abs = math.sqrt(p**2 + QP.gap_energy**2)
        printed = -p / (E_abs - QP.gap_energy)
        assert amp.b3 == pytest.approx(printed, rel=1e-10)
        assert amp.form == "rationalized"


def test_optical_minus_rest_limit():
    amp = _amp(OPTICAL_MINUS, 0.0)
    assert amp.form == "pz0-limit"
    assert amp.b1 == 0.0
    assert amp.b3 == 1.0
    assert amp.d3 == pytest.approx(-0.25)
    # it really is the rest-frame eigenvector at the negative optical energy
    H = _up_block(0.0, QP)
    v = np.array([amp.b1, amp.b3, amp.d1, amp.d3])
    E = branch_energy(OPTICAL_MINUS, 0.0, QP)
    assert np.linalg.norm(H @ v - E * v) < 1e-14


def test_secondary_amplitude_scales_as_eps_squared():
    eps_grid = np.array([0.01, 0.03, 0.1, 0.3])
    ratios = [abs(_amp(OPTICAL_PLUS, 1.0, QuantumParams(epsilon=e)).d1)
              for e in eps_grid]
    slope = np.polyfit(np.log(eps_grid), np.log(ratios), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-6)


def test_sector_amplitudes_parallel_to_modes():
    # planewaves and dispersion.modes each write out the branch vector (b, g b),
    # with g = 1 or -eps^2 and the p_z = 0 limit of the negative optical branch;
    # modes is the spin-up sector, and spin-down negates its Psi_4 and Phi_4
    sign = {"up": np.ones(4), "down": np.array([1.0, -1.0, 1.0, -1.0])}
    for eps in (0.0, 0.5, 2.0):
        qp = QuantumParams(epsilon=eps, hbar=0.5)
        for p_z in (0.0, 0.7, -0.7, 3.0):
            _, R, _ = modes([p_z / qp.hbar], qp)
            for j, branch in enumerate(BRANCHES):
                for spin in ("up", "down"):
                    w = sign[spin] * R[0, :, j]  # a unit vector
                    v = pw.build_solution(branch, spin, p_z, qp).sector_amplitudes
                    v = v / np.linalg.norm(v)
                    assert np.linalg.norm(v - np.vdot(w, v) * w) < 1e-14, (eps, p_z, branch)


def test_build_solution_evaluator():
    sol = pw.build_solution(ACOUSTIC_PLUS, "up", 0.9, QP)
    f0 = evaluate(sol, 0.0, 0.0, QP)
    assert np.allclose(f0, sol.amplitudes)
    f = evaluate(sol, 2.3, -1.1, QP)
    # all four occupied components stay equal at every point
    assert f[0] == f[2] == f[4] == f[6]
    assert f[1] == f[3] == f[5] == f[7] == 0


def test_acoustic_minus_cancellation():
    sol = pw.build_solution(ACOUSTIC_MINUS, "up", 1.3, QP)
    scale = np.abs(sol.amplitudes).max()
    for (t, z) in RNG.uniform(-20, 20, size=(100, 2)):
        f = evaluate(sol, t, z, QP)
        assert abs(f[0] + f[2]) < 1e-14 * scale
        assert abs(f[4] + f[6]) < 1e-14 * scale


# the spin flip: swap Psi_1 <-> Psi_2 and Psi_3 <-> Psi_4 in each sector, then
# negate the new Psi_3, Psi_4 and Phi_3, Phi_4; it commutes with H_D8(0, 0, p_z)
FLIP = np.diag([1.0, 1, -1, -1, 1, 1, -1, -1]) @ np.eye(8)[[1, 0, 3, 2, 5, 4, 7, 6]]


def spin_flip(solution):
    """The solution with FLIP applied to its amplitudes and its spin label turned."""
    return replace(solution, spin="down" if solution.spin == "up" else "up",
                   amplitudes=FLIP @ solution.amplitudes)


def test_spin_flip_permutes_and_involutes():
    assert np.array_equal(FLIP @ FLIP, np.eye(8))
    sol = pw.build_solution(ACOUSTIC_PLUS, "up", 1.0, QP)
    down = spin_flip(sol)
    assert down.spin == "down"
    assert np.array_equal(down.amplitudes,
                          np.array([0, 1, 0, -1, 0, 1, 0, -1], dtype=complex))
    again = spin_flip(down)
    assert again.spin == "up"
    assert np.array_equal(again.amplitudes, sol.amplitudes)
    assert pw.residual(down, QP) < 1e-10
    for eps in (0.0, 0.5, 2.0):
        qp = QuantumParams(epsilon=eps)
        for p_z in (0.0, 1.0, -2.5):
            H = matrices.hamiltonian_d8((0.0, 0.0, p_z), qp)
            assert np.array_equal(FLIP @ H, H @ FLIP), (eps, p_z)
            for branch in BRANCHES:
                up = pw.build_solution(branch, "up", p_z, qp)
                down = pw.build_solution(branch, "down", p_z, qp)
                # the p_z = 0 limit is seeded b3 = 1 in both spins, so the flip
                # lands on it with the opposite sign
                seed = -1 if up.form == "pz0-limit" else 1
                assert np.array_equal(spin_flip(up).amplitudes, seed * down.amplitudes), (
                    eps, p_z, branch)


def test_residual_small_for_all_solutions():
    scale = QP.rest_energy
    for branch in BRANCHES:
        for spin in ("up", "down"):
            sol = pw.build_solution(branch, spin, 1.2, QP)
            r = pw.residual(sol, QP) / (scale * np.abs(sol.amplitudes).max())
            assert r < 1e-10


def test_residual_detects_corrupted_amplitude():
    sol = pw.build_solution(OPTICAL_PLUS, "up", 1.0, QP)
    bad = np.array(sol.amplitudes)
    bad[2] *= 1.01
    corrupted = pw.PlaneWaveSolution(branch=sol.branch, spin=sol.spin, p_z=sol.p_z,
                                     E=sol.E, amplitudes=bad, form=sol.form)
    assert pw.residual(corrupted, QP) > 1e-4 * QP.rest_energy


def test_residual_detects_wrong_energy():
    sol = pw.build_solution(ACOUSTIC_PLUS, "up", 1.0, QP)
    flipped = pw.PlaneWaveSolution(branch=sol.branch, spin=sol.spin, p_z=sol.p_z,
                                   E=-sol.E, amplitudes=sol.amplitudes, form=sol.form)
    assert pw.residual(flipped, QP) > 0.1 * QP.rest_energy


def _fd_residual(solution, sample_points, params, h):
    """Max modulus of the four sector equations, written out with central differences of step h.

    An independent cross-check of ``pw.residual``: it neither applies the
    plane-wave derivatives analytically nor reads the operator from ``matrices``.
    """
    hbar, c = params.hbar, params.c
    me, mf = params.mu_e, params.mu_f
    v = solution.sector_amplitudes

    def fld(tt, zz):
        return v * phase(solution, tt, zz, params)

    worst = 0.0
    for (t, z) in sample_points:
        dt = (fld(t + h, z) - fld(t - h, z)) / (2 * h)
        dz = (fld(t, z + h) - fld(t, z - h)) / (2 * h)
        f = fld(t, z)
        r = np.empty(4, dtype=complex)
        r[0] = 1j * hbar * dt[0] + 1j * hbar * c * dz[1] - me * (f[0] - f[2])
        r[1] = 1j * hbar * dt[1] + 1j * hbar * c * dz[0] + me * (f[1] - f[3])
        r[2] = 1j * hbar * dt[2] + 1j * hbar * c * dz[3] - mf * (f[2] - f[0])
        r[3] = 1j * hbar * dt[3] + 1j * hbar * c * dz[2] + mf * (f[3] - f[1])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def test_finite_difference_residual_cross_check():
    sol = pw.build_solution(OPTICAL_PLUS, "up", 1.0, QP)
    pts = POINTS[:5]
    h = 1e-5
    r_fd = _fd_residual(sol, pts, QP, h)
    # exact solution: finite-difference residual is pure discretization error
    assert r_fd < 10 * h**2 * QP.rest_energy
    r_fd2 = _fd_residual(sol, pts, QP, 2 * h)
    assert 2.0 < r_fd2 / r_fd < 8.0  # second-order in the step


def test_catalog_eight_structure():
    sols = pw.catalog_eight(1.0, QP)
    assert len(sols) == 8
    labels = {(s.branch.label, s.spin) for s in sols}
    assert len(labels) == 8
    for s in sols:
        if s.spin == "down":
            assert np.all(s.amplitudes[[0, 2, 4, 6]] == 0)
        else:
            assert np.all(s.amplitudes[[1, 3, 5, 7]] == 0)


def test_catalog_linear_independence():
    sols = pw.catalog_eight(1.0, QP)
    M = np.array([s.amplitudes for s in sols])
    assert abs(np.linalg.det(M)) > 1e-8


def test_catalog_matches_null_space():
    # both spins solve the one eight-component operator at +p_z
    for eps in (0.0, 0.5, 2.0):
        qp = QuantumParams(epsilon=eps)
        for p in (0.0, 1.0, -2.5):
            H = matrices.hamiltonian_d8((0, 0, p), qp)
            for sol in pw.catalog_eight(p, qp):
                a = sol.amplitudes
                assert (np.max(np.abs(H @ a - sol.E * a))
                        <= 1e-13 * qp.rest_energy * np.abs(a).max()), (eps, p, sol.branch, sol.spin)
                basis = matrices.null_space(H - sol.E * np.eye(8), tol=1e-8)
                assert basis.any()
                v = a / np.linalg.norm(a)
                proj = (basis.conj() @ v) @ basis
                assert np.linalg.norm(v - proj) < 1e-10, (eps, p, sol.branch, sol.spin)


def test_closed_form_vs_null_space_random_draws():
    rng = np.random.default_rng(42)
    vectors, operators = [], []
    for _ in range(50):
        p = rng.uniform(-5, 5)
        eps = rng.uniform(0.05, 2.0)
        qp = QuantumParams(epsilon=eps)
        for b in BRANCHES:
            sol = pw.build_solution(b, "up", p, qp)
            H = matrices.hamiltonian_d8((0, 0, p), qp)
            vectors.append(sol.amplitudes / np.linalg.norm(sol.amplitudes))
            operators.append(H - sol.E * np.eye(8))
    basis = matrices.null_space(np.array(operators), tol=1e-8)  # (200, 8, 8)
    v = np.array(vectors)
    proj = np.einsum("ni,nij->nj", np.einsum("nij,nj->ni", basis.conj(), v), basis)
    assert np.linalg.norm(v - proj, axis=1).max() < 1e-10


def test_fault_hook(monkeypatch):
    # planewaves holds no fault; the self-check's one fault is an argument of
    # full_report, which refuses an unknown name before any section runs
    def forbidden():
        raise AssertionError("a section ran under an unknown fault")

    monkeypatch.setattr(matrices, "check_algebra", forbidden)
    with pytest.raises(ValueError, match="unknown fault 'no-such-fault'"):
        verify.full_report(corrupt="no-such-fault")
