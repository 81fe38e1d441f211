"""Full cross-module verification suite behind the `verify` CLI subcommand.

Each check re-derives its expected value independently (closed forms, null
spaces, brute-force multiplication, time-domain measurement) and records a
pass/fail entry with its tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from . import chain, dispersion, evolution, matrices, planewaves
from .params import ChainParams, QuantumParams
from .report import Check, VerificationReport


def _add(rep, name, reference, measured, tolerance, notes=""):
    rep.add(Check(name=name, reference=reference, passed=bool(measured < tolerance),
                  measured=float(measured), tolerance=tolerance, notes=notes))


def _squaring_checks(rep: VerificationReport, rng: np.random.Generator,
                     n_draws: int = 100) -> None:
    worst4 = worst8 = 0.0
    for _ in range(n_draws):
        p = rng.uniform(-5, 5, size=3)
        eps = rng.uniform(0.0, 2.0)
        qp = QuantumParams(epsilon=eps)
        scale4 = qp.rest_energy**2 + qp.c**2 * np.dot(p, p)
        H4 = matrices.hamiltonian_d4(p, qp)
        worst4 = max(worst4, float(np.max(np.abs(H4 @ H4 - scale4 * matrices.I4)) / scale4))
        H8 = matrices.hamiltonian_d8(p, qp)
        a0m, a0p = matrices.a_matrix("0-"), matrices.a_matrix("0+")
        expected = (qp.m_f**2 * qp.c**4 * (a0m @ a0m)
                    + qp.m_e**2 * qp.c**4 * (a0p @ a0p)
                    + qp.c**2 * np.dot(p, p) * matrices.I8)
        scale8 = qp.gap_energy**2 + qp.c**2 * np.dot(p, p)
        worst8 = max(worst8, float(np.max(np.abs(H8 @ H8 - expected)) / scale8))
    _add(rep, "H_D4 squaring identity", "4x4 Hamiltonian square", worst4, 1e-12,
         f"{n_draws} random momentum draws")
    _add(rep, "H_D8 squaring identity", "8x8 Hamiltonian square", worst8, 1e-12,
         f"{n_draws} random momentum/mass-ratio draws")


def _determinant_checks(rep: VerificationReport, qp: QuantumParams) -> None:
    worst = 0.0
    for p in np.linspace(-10, 10, 41):
        for b in dispersion.BRANCHES:
            E = dispersion.branch_energy(b, p, qp)
            worst = max(worst, abs(dispersion.dirac_determinant(E, p, qp)))
    _add(rep, "branch energies are determinant roots", "characteristic determinant",
         worst, 1e-10 * qp.rest_energy**4)


def _velocity_checks(rep: VerificationReport, qp: QuantumParams) -> None:
    worst = 0.0
    for k in (0.1, 0.5, 1.0, 2.0, 5.0):
        for b in dispersion.BRANCHES:
            prod = (dispersion.phase_velocity(b, k, qp)
                    * dispersion.group_velocity(b, k, qp))
            worst = max(worst, abs(prod - qp.c**2) / qp.c**2)
    _add(rep, "phase-group velocity product = c^2", "velocity product law",
         worst, 1e-12)
    sub = max(abs(dispersion.group_velocity(b, k, qp))
              for b in (dispersion.OPTICAL_PLUS, dispersion.OPTICAL_MINUS)
              for k in (0.1, 0.5, 1.0, 2.0, 5.0))
    _add(rep, "optical group speed subluminal", "group-velocity bound",
         sub / qp.c, 1.0)


def _eigen_checks(rep: VerificationReport, eps_values=(0.25, 0.5, 2.0)) -> None:
    worst_imag = worst_match = 0.0
    for eps in eps_values:
        qp = QuantumParams(epsilon=eps)
        for p in (0.0, 0.5, 1.0, 3.0):
            H = matrices.hamiltonian_d8((0.0, 0.0, p), qp)
            ev = np.linalg.eigvals(H)
            worst_imag = max(worst_imag, float(np.abs(ev.imag).max()) / qp.rest_energy)
            expected = np.sort(np.repeat(
                [dispersion.branch_energy(b, p, qp) for b in dispersion.BRANCHES], 2))
            got = np.sort(ev.real)
            worst_match = max(worst_match, float(
                np.max(np.abs(got - expected)) / qp.gap_energy))
    _add(rep, "real spectrum of non-Hermitian H_D8", "spectrum reality", worst_imag, 1e-10)
    _add(rep, "H_D8 eigenvalues = branch energies (x2)", "spectrum consistency",
         worst_match, 1e-10)
    qp1 = QuantumParams(epsilon=1.0)
    H = matrices.hamiltonian_d8((0.3, -0.2, 0.7), qp1)
    herm = float(np.max(np.abs(H - H.conj().T)) / qp1.rest_energy)
    _add(rep, "H_D8 Hermitian at eps = 1", "equal-coupling Hermiticity", herm, 1e-14)


def nullspace_deviation(branch, p_z: float, qp: QuantumParams) -> float:
    """Distance of the closed-form amplitude vector from the numerical null space."""
    E = dispersion.branch_energy(branch, p_z, qp)
    sol = planewaves.build_solution(branch, "up", p_z, qp)
    H = matrices.hamiltonian_d8((0.0, 0.0, p_z), qp)
    basis = matrices.null_space(H - E * np.eye(8), tol=1e-8)
    if not basis:
        return math.inf
    v = sol.amplitudes / np.linalg.norm(sol.amplitudes)
    proj = sum(np.vdot(w, v) * w for w in basis)
    return float(np.linalg.norm(v - proj))


def _amplitude_checks(rep: VerificationReport, rng: np.random.Generator,
                      n_draws: int = 50) -> None:
    worst = 0.0
    for _ in range(n_draws):
        p = rng.uniform(-5, 5)
        eps = rng.uniform(0.05, 2.0)
        qp = QuantumParams(epsilon=eps)
        for b in dispersion.BRANCHES:
            worst = max(worst, nullspace_deviation(b, p, qp))
    _add(rep, "closed-form amplitudes match null space", "amplitude cross-check",
         worst, 1e-10, f"{n_draws} random (p_z, eps) draws, all branches")


def _catalog_checks(rep: VerificationReport, qp: QuantumParams, p_z: float = 1.0,
                    rng: np.random.Generator | None = None) -> None:
    rng = rng or np.random.default_rng(0)
    sols = planewaves.catalog_eight(p_z, qp)
    pts = [(t, z) for t, z in rng.uniform(-10, 10, size=(20, 2))]
    scale = qp.rest_energy * max(np.abs(s.amplitudes).max() for s in sols)
    worst = max(planewaves.residual(s, pts, qp) for s in sols) / scale
    _add(rep, "catalog residuals", "plane-wave residual", worst, 1e-10,
         f"8 solutions at p_z={p_z}")
    det = abs(np.linalg.det(planewaves.stacked_amplitude_matrix(sols)))
    _add(rep, "catalog linear independence", "stacked determinant",
         1e-8 / det if det > 0 else math.inf, 1.0,
         f"|det| = {det:.3e}, threshold 1e-8")

    am = planewaves.build_solution(dispersion.ACOUSTIC_MINUS, "up", p_z, qp)
    cancel = 0.0
    for (t, z) in rng.uniform(-10, 10, size=(100, 2)):
        f = am.evaluate(t, z, qp)
        cancel = max(cancel, abs(f[0] + f[2]), abs(f[4] + f[6]))
    cancel /= np.abs(am.amplitudes).max()
    _add(rep, "negative-acoustic cancellation", "mutually compensating waves",
         cancel, 1e-14, "Psi_1 + Psi_3 and Phi_1 + Phi_3 at 100 random points")

    # secondary-sector amplitude scales as eps^2
    eps_grid = np.array([0.02, 0.05, 0.1, 0.2, 0.4])
    ratios = [abs(planewaves.amplitudes(dispersion.OPTICAL_PLUS, p_z,
                                        QuantumParams(epsilon=e)).d1) for e in eps_grid]
    slope = np.polyfit(np.log(eps_grid), np.log(ratios), 1)[0]
    _add(rep, "secondary amplitude power law", "eps^2 coupling scaling",
         abs(slope - 2.0), 1e-6)


def _chain_checks(rep: VerificationReport) -> None:
    cp = ChainParams(m=1.0, M=4.0, K=1.0, I=1.0, J=1.0, a=1.0)
    slope = chain.convergence_exponent(cp, (0.2, 0.1, 0.05, 0.025))
    _add(rep, "chain-continuum convergence order", "long-wave limit",
         abs(slope - 2.0), 0.2, f"fitted slope {slope:.4f}")

    n_sites, mode = 64, 3
    mp = chain.discrete_dispersion(2 * math.pi * mode / (n_sites * cp.a), cp)
    omega = mp.omega_optical
    state = chain.init_mode(n_sites, mode, 1e-3 * cp.a, "optical", cp)
    dt = 0.01 / chain.max_frequency(cp)
    n_steps = int(8 * 2 * math.pi / omega / dt)
    times, us, *_ = chain.simulate(state, dt, n_steps, cp, record_every=4)
    measured = chain.measure_mode_frequency(times, us[:, 0])
    _add(rep, "time-domain mode frequency", "dispersion cross-validation",
         abs(measured - omega) / omega, 1e-4)

    s = chain.init_mode(n_sites, mode, 1e-3 * cp.a, "acoustic", cp)
    e0 = chain.total_energy(s, cp)
    *_, s = chain.simulate(s, dt, 10_000, cp, record_every=10_000)
    drift = abs(chain.total_energy(s, cp) - e0) / e0
    _add(rep, "symplectic energy drift", "energy conservation", drift, 1e-6,
         "10^4 velocity-Verlet steps, acoustic mode")


def _evolution_checks(rep: VerificationReport, qp: QuantumParams,
                      fast: bool = False) -> None:
    n_grid, L = 256, 100.0
    k0 = 2 * math.pi * 16 / L
    sol = planewaves.build_solution(dispersion.OPTICAL_PLUS, "up", qp.hbar * k0, qp)
    z = L / n_grid * np.arange(n_grid)
    wave = np.exp(1j * k0 * z)
    fields = np.outer(sol.sector_amplitudes, wave)
    state = evolution.FieldState(n_grid=n_grid, L=L, fields=fields)
    T = 7.3
    out = evolution.evolve(state, T, 1, qp)
    expected = fields * np.exp(-1j * sol.E * T / qp.hbar)
    phase_err = float(np.max(np.abs(out.fields - expected)) / np.abs(fields).max())
    _add(rep, "spectral plane-wave phase advance", "exact eigenphase", phase_err, 1e-10)

    back = evolution.evolve(out, -T, 1, qp)
    rev = float(np.max(np.abs(back.fields - fields)) / np.abs(fields).max())
    _add(rep, "time reversibility", "exact propagator inverse", rev, 1e-10)

    if fast:
        return
    grid = dict(n_grid=512, L=100.0, n_samples=12)
    spec = evolution.PacketSpec(k0=1.0, sigma=4.0, branch=dispersion.ACOUSTIC_PLUS)
    v = evolution.measure_group_velocity(spec, qp, t_total=20.0, **grid)
    _add(rep, "acoustic packet speed = c", "group-velocity measurement",
         abs(v - qp.c) / qp.c, 1e-3)
    for b, sign in ((dispersion.OPTICAL_PLUS, 1), (dispersion.OPTICAL_MINUS, -1)):
        spec = evolution.PacketSpec(k0=1.0, sigma=8.0, branch=b)
        v = evolution.measure_group_velocity(spec, qp, t_total=20.0, **grid)
        v_ref = dispersion.group_velocity(b, 1.0, qp)
        _add(rep, f"{b.label} packet group velocity", "group-velocity measurement",
             abs(v - v_ref) / abs(v_ref), 1e-2)


def full_report(epsilon: float = 0.5, corrupt: str | None = None,
                fast: bool = False, seed: int = 20240817) -> VerificationReport:
    """Run every invariant check; returns a report whose `passed` gates exit status."""
    rng = np.random.default_rng(seed)
    qp = QuantumParams(epsilon=epsilon)
    planewaves.set_fault(corrupt)
    try:
        rep = matrices.check_algebra()
        rep.notes.append(dispersion.OPTICAL_FORM_NOTE)
        _squaring_checks(rep, rng)
        _determinant_checks(rep, qp)
        _velocity_checks(rep, qp)
        _eigen_checks(rep)
        _amplitude_checks(rep, rng)
        _catalog_checks(rep, qp, rng=rng)
        _chain_checks(rep)
        _evolution_checks(rep, qp, fast=fast)
    finally:
        planewaves.set_fault(None)
    return rep
