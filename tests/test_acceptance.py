"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from dirac8 import chain, evolution as evo, matrices, planewaves as pw, verify
from dirac8.dispersion import (ACOUSTIC_MINUS, ACOUSTIC_PLUS, BRANCHES,
                               OPTICAL_MINUS, OPTICAL_PLUS, branch_energy,
                               figure2_table, group_velocity, phase_velocity)
from dirac8.params import ChainParams, QuantumParams
from test_evolution import evolve_rk4
from test_planewaves import evaluate

QP = QuantumParams(epsilon=0.5)


def _report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_algebra_identities():
    t0 = time.perf_counter()
    rep = matrices.check_algebra()
    elapsed = time.perf_counter() - t0
    ok = rep.passed and all(c.measured == 0.0 for c in rep.checks) and elapsed < 1.0
    _report(1, "matrix algebra identities, exact", ok,
            f"{len(rep.checks)} identities in {elapsed:.3f}s")


def test_criterion_02_hamiltonian_squaring():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-5, 5, size=3)
        qp = QuantumParams(epsilon=rng.uniform(0, 2))
        H4 = matrices.hamiltonian_d4(p, qp)
        s4 = qp.rest_energy**2 + qp.c**2 * np.dot(p, p)
        worst = max(worst, np.max(np.abs(H4 @ H4 - s4 * matrices.I4)) / s4)
        H8 = matrices.hamiltonian_d8(p, qp)
        a0m, a0p = matrices.a_matrix("0-"), matrices.a_matrix("0+")
        expected = (qp.m_f**2 * qp.c**4 * (a0m @ a0m)
                    + qp.m_e**2 * qp.c**4 * (a0p @ a0p)
                    + qp.c**2 * np.dot(p, p) * matrices.I8)
        s8 = qp.gap_energy**2 + qp.c**2 * np.dot(p, p)
        worst = max(worst, np.max(np.abs(H8 @ H8 - expected)) / s8)
    elapsed = time.perf_counter() - t0
    _report(2, "Hamiltonian squaring", worst < 1e-12 and elapsed < 1.0,
            f"max rel error {worst:.2e} in {elapsed:.3f}s")


def test_criterion_03_dispersion_table():
    grid = np.linspace(-3, 3, 121)
    rows_half = figure2_table(grid, QP)
    rows_zero = figure2_table(grid, QuantumParams(epsilon=0.0))
    i0 = 60  # p_z = 0
    ok = (abs(rows_half[i0, 3] - math.sqrt(1.25)) < 1e-12
          and abs(rows_zero[i0, 3] - 1.0) < 1e-12
          and np.all(rows_half[:, 1] == grid)
          and np.all(rows_half[:, 2] == -grid)
          and not np.array_equal(rows_half[:, 3], rows_half[:, 1])
          and not np.array_equal(rows_half[:, 3], rows_zero[:, 3]))
    _report(3, "dispersion table reproduction", ok)


def test_criterion_04_velocity_product():
    worst = max(
        abs(phase_velocity(b, k, QP) * group_velocity(b, k, QP) - QP.c**2) / QP.c**2
        for b in BRANCHES for k in (0.1, 0.5, 1.0, 2.0, 5.0))
    _report(4, "phase-group velocity product", worst < 1e-12,
            f"max rel error {worst:.2e}")


def test_criterion_05_amplitudes_vs_null_space():
    rng = np.random.default_rng(5)
    vectors, operators = [], []
    for _ in range(50):
        p = rng.uniform(-5, 5)
        qp = QuantumParams(epsilon=rng.uniform(0.05, 2.0))
        H = matrices.hamiltonian_d8((0, 0, p), qp)
        for b in BRANCHES:
            sol = pw.build_solution(b, "up", p, qp)
            vectors.append(sol.amplitudes)
            operators.append(H - sol.E * np.eye(8))
    worst = verify.nullspace_deviation(np.array(vectors), np.array(operators)).max()
    _report(5, "closed-form amplitudes vs null space", worst < 1e-10,
            f"max deviation {worst:.2e} over 50 draws")


def test_criterion_06_catalog_residuals_and_independence():
    sols = pw.catalog_eight(1.0, QP)
    scale = QP.rest_energy * max(np.abs(s.amplitudes).max() for s in sols)
    worst = max(pw.residual(s, QP) for s in sols) / scale
    det = abs(np.linalg.det(np.array([s.amplitudes for s in sols])))
    _report(6, "catalog residuals and independence",
            worst < 1e-10 and det > 1e-8,
            f"max residual {worst:.2e}, |det| = {det:.2e}")


def test_criterion_07_acoustic_minus_cancellation():
    sol = pw.build_solution(ACOUSTIC_MINUS, "up", 1.0, QP)
    rng = np.random.default_rng(7)
    scale = np.abs(sol.amplitudes).max()
    worst = 0.0
    for (t, z) in rng.uniform(-20, 20, size=(100, 2)):
        f = evaluate(sol, t, z, QP)
        worst = max(worst, abs(f[0] + f[2]), abs(f[4] + f[6]))
    worst /= scale
    _report(7, "negative-acoustic cancellation", worst < 1e-14,
            f"max |sum| {worst:.2e}")


def test_criterion_08_chain_continuum_convergence():
    t0 = time.perf_counter()
    cp = ChainParams(m=1.0, M=4.0, K=1.0, I=1.0, J=1.0, a=1.0)
    slope = chain.convergence_exponent(cp)

    n, mode = 64, 3
    k = 2 * math.pi * mode / (n * cp.a)
    omega = chain.discrete_dispersion(k, cp)[0][1]
    state = chain.init_mode(n, mode, 1e-3, "optical", cp)
    dt = 0.01 / chain.max_frequency(cp)
    n_steps = int(8 * 2 * math.pi / omega / dt)
    times, samples, _ = chain.simulate(state, dt, n_steps, cp, record_every=4)
    measured = chain.measure_mode_frequency(times, samples.u[:, 0])
    rel = abs(measured - omega) / omega
    elapsed = time.perf_counter() - t0
    _report(8, "chain-continuum convergence",
            abs(slope - 2.0) < 0.2 and rel < 1e-4 and elapsed < 30.0,
            f"slope {slope:.3f}, frequency error {rel:.2e}, {elapsed:.1f}s")


def test_criterion_09_packet_group_velocities():
    kwargs = dict(n_grid=512, L=100.0, t_total=20.0, n_samples=12)
    t0 = time.perf_counter()
    v_ac = evo.measure_group_velocity(
        evo.PacketSpec(k0=1.0, sigma=4.0, branch=ACOUSTIC_PLUS), QP, **kwargs)
    errs = [abs(v_ac - QP.c) / QP.c]
    ok = errs[0] < 1e-3
    for branch, ref in ((OPTICAL_PLUS, 2 / 3), (OPTICAL_MINUS, -2 / 3)):
        v = evo.measure_group_velocity(
            evo.PacketSpec(k0=1.0, sigma=8.0, branch=branch), QP, **kwargs)
        errs.append(abs(v - ref) / abs(ref))
        ok = ok and errs[-1] < 1e-2
    elapsed = time.perf_counter() - t0
    _report(9, "packet group velocities", ok and elapsed < 180.0,
            "errors " + ", ".join(f"{e:.2e}" for e in errs) + f", {elapsed:.1f}s")


def test_criterion_10_spectral_exact_and_rk4():
    n, L = 256, 100.0
    k0 = 2 * math.pi * 16 / L
    sol = pw.build_solution(OPTICAL_PLUS, "up", QP.hbar * k0, QP)
    z = L / n * np.arange(n)
    fields = np.outer(sol.amplitudes[[0, 2, 4, 6]], np.exp(1j * k0 * z))
    state = evo.FieldState(fields, L)
    T = 7.3
    out = evo.evolve(state, T, 1, QP)
    phase_err = np.max(np.abs(out.fields - fields * np.exp(-1j * sol.E * T))) \
        / np.abs(fields).max()
    back = evo.evolve(out, -T, 1, QP)
    rev_err = np.max(np.abs(back.fields - fields)) / np.abs(fields).max()

    spec = evo.PacketSpec(k0=1.0, sigma=4.0, branch=OPTICAL_PLUS, center=25.0)
    packet = evo.init_packet(spec, 128, 50.0, QP)
    exact = evo.evolve(packet, 2.0, 1, QP)

    def rk4_err(dt):
        out = evolve_rk4(packet, dt, round(2.0 / dt), QP)
        return np.max(np.abs(out.fields - exact.fields))

    ratio = rk4_err(0.04) / rk4_err(0.02)
    ok = phase_err < 1e-10 and rev_err < 1e-10 and 13.0 < ratio < 19.0
    _report(10, "exact evolution and rk4 order",
            ok, f"phase {phase_err:.2e}, reversal {rev_err:.2e}, ratio {ratio:.1f}")


def test_criterion_11_real_spectrum_with_multiplicity():
    worst_imag = worst_match = 0.0
    for eps in (0.25, 0.5, 2.0):
        qp = QuantumParams(epsilon=eps)
        for p in (0.0, 0.3, 1.0, 4.0):
            ev = np.linalg.eigvals(matrices.hamiltonian_d8((0, 0, p), qp))
            worst_imag = max(worst_imag, np.abs(ev.imag).max() / qp.rest_energy)
            expected = np.sort(np.repeat(
                [branch_energy(b, p, qp) for b in BRANCHES], 2))
            worst_match = max(worst_match, np.max(
                np.abs(np.sort(ev.real) - expected)) / qp.gap_energy)
    _report(11, "real spectrum with multiplicity 2",
            worst_imag < 1e-10 and worst_match < 1e-10,
            f"max imag {worst_imag:.2e}, max mismatch {worst_match:.2e}")
