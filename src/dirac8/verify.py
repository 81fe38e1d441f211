"""Full cross-module verification suite behind the `verify` CLI subcommand.

Each check re-derives its expected value independently (closed forms, null
spaces, brute-force multiplication, time-domain measurement) and records a
pass/fail entry with its tolerance.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from . import chain, dispersion, evolution, matrices, planewaves
from .params import ChainParams, QuantumParams
from .report import Check, VerificationReport

SEED = 20240817  # default seed of the random draws in ``full_report``


def _add(rep, name, reference, measured, tolerance, notes=""):
    rep.add(Check(name=name, reference=reference, passed=bool(measured < tolerance),
                  measured=float(measured), tolerance=tolerance, notes=notes))


def _squaring_checks(rep: VerificationReport, rng: np.random.Generator) -> None:
    n_draws = 100
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


def _eigen_checks(rep: VerificationReport) -> None:
    worst_imag = worst_match = 0.0
    for eps in (0.25, 0.5, 2.0):
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


def _amplitude_checks(rep: VerificationReport, rng: np.random.Generator) -> None:
    n_draws = 50
    worst = 0.0
    for _ in range(n_draws):
        p = rng.uniform(-5, 5)
        eps = rng.uniform(0.05, 2.0)
        qp = QuantumParams(epsilon=eps)
        for b in dispersion.BRANCHES:
            worst = max(worst, nullspace_deviation(b, p, qp))
    _add(rep, "closed-form amplitudes match null space", "amplitude cross-check",
         worst, 1e-10, f"{n_draws} random (p_z, eps) draws, all branches")


def _catalog_checks(rep: VerificationReport, qp: QuantumParams) -> None:
    p_z = 1.0
    sols = planewaves.catalog_eight(p_z, qp)
    scale = qp.rest_energy * max(np.abs(s.amplitudes).max() for s in sols)
    worst = max(planewaves.residual(s, qp) for s in sols) / scale
    _add(rep, "catalog residuals", "plane-wave residual", worst, 1e-10,
         f"8 solutions at p_z={p_z}")
    det = abs(np.linalg.det([s.amplitudes for s in sols]))
    _add(rep, "catalog linear independence", "stacked determinant",
         1e-8 / det if det > 0 else math.inf, 1.0,
         f"|det| = {det:.3e}, threshold 1e-8")

    # the plane-wave factor is common to all components, so the sums cancel everywhere
    am = planewaves.build_solution(dispersion.ACOUSTIC_MINUS, "up", p_z, qp)
    b1, b3, d1, d3 = am.sector_amplitudes
    cancel = max(abs(b1 + b3), abs(d1 + d3)) / np.abs(am.amplitudes).max()
    _add(rep, "negative-acoustic cancellation", "mutually compensating waves",
         cancel, 1e-14, "Psi_1 + Psi_3 and Phi_1 + Phi_3 from the sector amplitudes")

    # secondary-sector amplitude scales as eps^2
    eps_grid = np.array([0.02, 0.05, 0.1, 0.2, 0.4])
    ratios = [abs(planewaves.build_solution(dispersion.OPTICAL_PLUS, "up", p_z,
                                            QuantumParams(epsilon=e)).sector_amplitudes[2])
              for e in eps_grid]
    slope = np.polyfit(np.log(eps_grid), np.log(ratios), 1)[0]
    _add(rep, "secondary amplitude power law", "eps^2 coupling scaling",
         abs(slope - 2.0), 1e-6)


def verlet_steps(state: chain.LatticeState, dt: float, n_steps: int, params: ChainParams,
                 record_every: int = 1):
    """Step n_steps of velocity Verlet, recording a sample every record_every steps.

    The independent stepper of the time-domain chain checks and the tests'
    reference for ``chain.simulate``, which evaluates the same map in closed
    form: same checks, same (times, samples, final_state).  Each operation
    is elementwise and the accelerations depend on x alone, so every ring of
    a stack is bit-identical to its lone run, and a run split into two calls
    equals the unsplit one.

    x lives in one flat buffer, species-major: the u row of every ring, then
    the U row of every ring, then a mirror copy of the u rows.  Each row is
    n_sites + 2 wide, its two ghost cells holding the periodic neighbours, so
    with h = rings (n_sites + 2) the slices ``buf[1:2h-1]`` (x),
    ``buf[:2h-2]`` (left), ``buf[2:2h]`` (right) and ``buf[1+h:3h-1]`` (the
    other species: U for u, the mirrored u for U) are contiguous and every
    step is 15 ufuncs and 3 copies on 1-D arrays, each writing in place; v and
    the accelerations share the layout, and the coefficients are arrays of it.
    The padding slots hold finite values that no result reads.  Each
    operation keeps the order of the written-out form
    ``lap = (roll(x, 1) + roll(x, -1)) - 2 x``,
    ``a = (K (x_other - x) + c lap) / mass``,
    ``x <- (x + dt v) + (dt^2 / 2) a``, ``v <- v + (dt / 2)(a + a_new)``,
    so the results are bit-identical to it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or record_every < 1:
        raise ValueError("need n_steps >= 0 and record_every >= 1")
    if dt * chain.max_frequency(params) >= 2.0:
        warnings.warn("time step exceeds the velocity-Verlet stability bound "
                      "dt * omega_max < 2", RuntimeWarning, stacklevel=2)
    n, t = state.n_sites, state.t
    rings = math.prod(state.x.shape[:-2])
    h = rings * (n + 2)

    def species_major(arr):  # (..., 2, n) -> a (2, rings, n) view when arr is contiguous
        return np.moveaxis(arr.reshape(rings, 2, n), 1, 0)

    buf, vbuf = np.zeros(3 * h), np.zeros(2 * h)
    x_sites, v_sites = (b[:2 * h].reshape(2, rings, n + 2)[..., 1:-1] for b in (buf, vbuf))
    x_sites[...], v_sites[...] = species_major(state.x), species_major(state.v)
    x, left, right, other = buf[1:2 * h - 1], buf[:2 * h - 2], buf[2:2 * h], buf[1 + h:3 * h - 1]
    v = vbuf[1:2 * h - 1]
    rows = buf[:2 * h].reshape(2 * rings, n + 2)
    ghost_lo, ghost_hi, last, first = rows[:, 0], rows[:, -1], rows[:, n], rows[:, 1]
    mirror, u_rows = buf[2 * h:], buf[:h]

    def per_slot(u_value, U_value):
        return np.repeat(np.array([u_value, U_value], dtype=float), h)[1:2 * h - 1]

    coupling, mass = per_slot(params.I, params.J), per_slot(params.m, params.M)
    K, two, dt_full, half_dt2, half_dt = (np.full(len(x), c, dtype=float)
                                      for c in (params.K, 2, dt, 0.5 * dt**2, 0.5 * dt))
    a, a_new, tmp = np.empty((3, len(x)))

    def accelerations(out):
        np.copyto(ghost_lo, last)
        np.copyto(ghost_hi, first)
        np.copyto(mirror, u_rows)               # after the ghosts: the mirror copies them too
        np.add(left, right, out=out)
        np.multiply(x, two, out=tmp)
        np.subtract(out, tmp, out=out)          # Laplacian
        np.multiply(coupling, out, out=out)
        np.subtract(other, x, out=tmp)          # (U - u, u - U)
        np.multiply(K, tmp, out=tmp)
        np.add(tmp, out, out=out)
        np.divide(out, mass, out=out)

    times = np.empty(n_steps // record_every + 1)
    xs, vs = (np.empty((len(times),) + state.x.shape) for _ in range(2))
    # (time, species, ring, site) views of the records, built once
    xs_sites, vs_sites = (np.moveaxis(r.reshape(len(times), rings, 2, n), 2, 1)
                          for r in (xs, vs))
    times[0] = t
    np.copyto(xs_sites[0], x_sites)
    np.copyto(vs_sites[0], v_sites)
    accelerations(a)
    for i in range(1, n_steps + 1):
        np.multiply(dt_full, v, out=tmp)
        np.add(x, tmp, out=x)
        np.multiply(half_dt2, a, out=tmp)
        np.add(x, tmp, out=x)
        accelerations(a_new)
        np.add(a, a_new, out=tmp)
        np.multiply(half_dt, tmp, out=tmp)
        np.add(v, tmp, out=v)
        a, a_new = a_new, a
        t = t + dt
        if i % record_every == 0:
            j = i // record_every
            times[j] = t
            np.copyto(xs_sites[j], x_sites)
            np.copyto(vs_sites[j], v_sites)
    final_x, final_v = np.empty(state.x.shape), np.empty(state.x.shape)
    np.copyto(species_major(final_x), x_sites)
    np.copyto(species_major(final_v), v_sites)
    return times, chain.LatticeState(xs, vs), chain.LatticeState(final_x, final_v, t)


def _chain_checks(rep: VerificationReport) -> None:
    cp = ChainParams(m=1.0, M=4.0, K=1.0, I=1.0, J=1.0, a=1.0)
    slope = chain.convergence_exponent(cp)
    _add(rep, "chain-continuum convergence order", "long-wave limit",
         abs(slope - 2.0), 0.2, f"fitted slope {slope:.4f}")

    n_sites, mode, n_steps, amplitude = 64, 3, 10_000, 1e-3 * cp.a
    omega = chain.discrete_dispersion(2 * math.pi * mode / (n_sites * cp.a), cp)[0][1]
    runs = [chain.init_mode(n_sites, mode, amplitude, b, cp) for b in ("optical", "acoustic")]
    omega_max = chain.max_frequency(cp)
    dt = 0.01 / omega_max
    # one (2, 2, n) stack, each ring bit-identical to its lone run: optical, acoustic
    start = chain.LatticeState(np.array([s.x for s in runs]), np.array([s.v for s in runs]))
    times, samples, final = verlet_steps(start, dt, n_steps, cp, record_every=8)
    measured = chain.measure_mode_frequency(times, samples.u[:, 0, 0])
    _add(rep, "time-domain mode frequency", "dispersion cross-validation",
         abs(measured - omega) / omega, 1e-4)
    omega_verlet = chain.verlet_frequency(omega, dt)
    _add(rep, "measured frequency equals verlet_frequency", "modified frequency",
         abs(measured - omega_verlet) / omega_verlet, 1e-10,
         "the optical run turns by dt * verlet_frequency per step, exactly")

    acoustic = chain.LatticeState(final.x[1], final.v[1], final.t)
    e0, e1 = (chain.total_energy(s, cp) for s in (runs[1], acoustic))
    _add(rep, "symplectic energy drift", "energy conservation", abs(e1 - e0) / e0, 1e-6,
         "10^4 velocity-Verlet steps, acoustic mode")
    h0, h1 = (chain.modified_energy(s, dt, cp) for s in (runs[1], acoustic))
    _add(rep, "modified energy drift", "discrete energy conservation", abs(h1 - h0) / h0,
         1e-12, "the same run's E - (dt^2/8) sum F^2/mass, which Verlet conserves exactly")

    # the same run as the closed-form map; velocities in units of omega_max
    *_, exact = chain.simulate(start, dt, n_steps, cp, record_every=n_steps)
    deviation = max(np.abs(exact.x - final.x).max(),
                    np.abs(exact.v - final.v).max() / omega_max) / amplitude
    _add(rep, "loop equals the exact Verlet map", "closed-form velocity Verlet",
         deviation, 1e-10, "final states of both runs against chain.simulate")


def _evolution_checks(rep: VerificationReport, qp: QuantumParams) -> None:
    n_grid, L = 256, 100.0
    k0 = 2 * math.pi * 16 / L
    sol = planewaves.build_solution(dispersion.OPTICAL_PLUS, "up", qp.hbar * k0, qp)
    z = L / n_grid * np.arange(n_grid)
    wave = np.exp(1j * k0 * z)
    fields = np.outer(sol.sector_amplitudes, wave)
    state = evolution.FieldState(fields, L)
    T = 7.3
    out = evolution.evolve(state, T, 1, qp)
    expected = fields * np.exp(-1j * sol.E * T / qp.hbar)
    phase_err = float(np.max(np.abs(out.fields - expected)) / np.abs(fields).max())
    _add(rep, "spectral plane-wave phase advance", "exact eigenphase", phase_err, 1e-10)

    back = evolution.evolve(out, -T, 1, qp)
    rev = float(np.max(np.abs(back.fields - fields)) / np.abs(fields).max())
    _add(rep, "time reversibility", "exact propagator inverse", rev, 1e-10)

    grid = dict(n_grid=512, L=100.0, t_total=20.0, n_samples=12)
    for b, sigma, name, tol in (
            (dispersion.ACOUSTIC_PLUS, 4.0, "acoustic packet speed = c", 1e-3),
            (dispersion.OPTICAL_PLUS, 8.0, "optical+ packet group velocity", 1e-2),
            (dispersion.OPTICAL_MINUS, 8.0, "optical- packet group velocity", 1e-2)):
        spec = evolution.PacketSpec(k0=1.0, sigma=sigma, branch=b)
        v_ref = dispersion.group_velocity(b, 1.0, qp)  # +c on the acoustic branch
        try:
            v, note = evolution.measure_group_velocity(spec, qp, **grid), ""
        except ValueError as exc:  # a packet that cannot be measured fails its check
            v, note = math.inf, str(exc)
        _add(rep, name, "group-velocity measurement", abs(v - v_ref) / abs(v_ref), tol, note)


def full_report(epsilon: float = 0.5, corrupt: str | None = None,
                seed: int = SEED) -> VerificationReport:
    """Run all 52 checks, the one configuration; the report's `passed` gates exit status.

    ``seed`` seeds the random draws; ``corrupt`` names a ``planewaves`` fault to switch on.
    ``rep.timings`` holds the seconds each ``_*_checks`` section took, by function name.
    """
    rng = np.random.default_rng(seed)
    qp = QuantumParams(epsilon=epsilon)
    planewaves.set_fault(corrupt)
    try:
        rep = matrices.check_algebra()
        rep.notes.append(dispersion.OPTICAL_FORM_NOTE)
        # each section is looked up by its module name at call time, where tracers wrap it
        for section, *args in ((_squaring_checks, rng), (_determinant_checks, qp),
                               (_velocity_checks, qp), (_eigen_checks,),
                               (_amplitude_checks, rng), (_catalog_checks, qp),
                               (_chain_checks,), (_evolution_checks, qp)):
            start = time.perf_counter()
            section(rep, *args)
            rep.timings[section.__name__] = time.perf_counter() - start
    finally:
        planewaves.set_fault(None)
    return rep
