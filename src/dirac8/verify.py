"""Full cross-module verification suite behind the `verify` CLI subcommand.

Each check re-derives its expected value independently (closed forms, null
spaces, brute-force multiplication, time-domain measurement) and records a
pass/fail entry with its tolerance.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings

import numpy as np

from . import chain, dispersion, evolution, matrices, planewaves
from .params import ChainParams, ContinuumParams, QuantumParams
from .report import Check, VerificationReport

SEED = 20240817  # default seed of the random draws in ``full_report``


def _add(rep, name, reference, measured, tolerance, notes=""):
    rep.add(Check(name=name, reference=reference, passed=bool(measured < tolerance),
                  measured=float(measured), tolerance=tolerance, notes=notes))


def _fault(solution: planewaves.PlaneWaveSolution, corrupt: str | None):
    """Under "b3-ratio", optical+'s ratio slots (b3, d3 up; b4, d4 down) scaled by 1.01."""
    if corrupt is None or solution.branch != dispersion.OPTICAL_PLUS:
        return solution
    amplitudes = solution.amplitudes.copy()
    amplitudes[planewaves.SPIN_SLOTS[solution.spin][1::2]] *= 1.01
    return dataclasses.replace(solution, amplitudes=amplitudes)


def _squaring_checks(rep: VerificationReport, rng: np.random.Generator) -> None:
    n_draws = 100
    H4, H8, kgf, scales = [], [], [], []
    for _ in range(n_draws):
        p = rng.uniform(-5, 5, size=3)
        qp = QuantumParams(epsilon=rng.uniform(0.0, 2.0))
        pp = np.dot(p, p)
        H4.append(matrices.hamiltonian_d4(p, qp))
        H8.append(matrices.hamiltonian_d8(p, qp))
        # H8^2 = hbar^2 (D kron I4), D the continuum (KGF) system's matrix at k^2 = p.p / hbar^2
        cp, k2 = ContinuumParams.from_quantum(qp), pp / qp.hbar**2
        kgf.append(qp.hbar**2 * np.array([[cp.s_m**2 * k2 + cp.omega_O**2, -cp.omega_O**2],
                                          [-cp.omega_A**2, cp.s_M**2 * k2 + cp.omega_A**2]]))
        scales.append((qp.rest_energy**2 + qp.c**2 * pp, qp.gap_energy**2 + qp.c**2 * pp))
    scale4, scale8 = np.array(scales).T[..., None, None]
    H4, H8 = np.array(H4), np.array(H8)
    expected = (np.array(kgf)[:, :, None, :, None] * matrices.I4[:, None, :]).reshape(-1, 8, 8)
    worst4, worst8 = (float(np.max(np.abs(D).max(axis=(1, 2), keepdims=True) / scale))
                      for D, scale in ((H4 @ H4 - scale4 * matrices.I4, scale4),
                                       (H8 @ H8 - expected, scale8)))
    _add(rep, "H_D4 squaring identity", "4x4 Hamiltonian square", worst4, 1e-12,
         f"{n_draws} random momentum draws")
    _add(rep, "H_D8 squaring identity", "8x8 Hamiltonian square", worst8, 1e-12,
         f"{n_draws} random momentum/mass-ratio draws")


def _determinant_checks(rep: VerificationReport, qp: QuantumParams) -> None:
    p = np.linspace(-10, 10, 41)
    worst = max(float(np.abs(dispersion.dirac_determinant(
        dispersion.branch_energy(b, p, qp), p, qp)).max()) for b in dispersion.BRANCHES)
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
    p, qps = np.array([0.0, 0.5, 1.0, 3.0]), [QuantumParams(epsilon=e) for e in (0.25, 0.5, 2.0)]
    ev = np.linalg.eigvals([[matrices.hamiltonian_d8((0.0, 0.0, pz), qp) for pz in p]
                            for qp in qps])  # (eps, p, 8) in one call
    E = np.array([[dispersion.branch_energy(b, p, qp) for b in dispersion.BRANCHES] for qp in qps])
    expected = np.sort(np.repeat(E.swapaxes(1, 2), 2, axis=-1))  # each branch energy twice
    rest, gap = np.array([[qp.rest_energy, qp.gap_energy] for qp in qps]).T[..., None]
    worst_imag = float(np.max(np.abs(ev.imag).max(axis=-1) / rest))
    worst_match = float(np.max(np.abs(np.sort(ev.real) - expected).max(axis=-1) / gap))
    _add(rep, "real spectrum of non-Hermitian H_D8", "spectrum reality", worst_imag, 1e-10)
    _add(rep, "H_D8 eigenvalues = branch energies (x2)", "spectrum consistency",
         worst_match, 1e-10)
    qp1 = QuantumParams(epsilon=1.0)
    H = matrices.hamiltonian_d8((0.3, -0.2, 0.7), qp1)
    herm = float(np.max(np.abs(H - H.conj().T)) / qp1.rest_energy)
    _add(rep, "H_D8 Hermitian at eps = 1", "equal-coupling Hermiticity", herm, 1e-14)


def nullspace_deviation(vectors: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """|v - sum_w <w, v> w| per unit-scaled vector v, over its operator's null rows w.

    vectors (..., n) and operators (..., n, n) share their leading axes, and one
    ``matrices.null_space`` call (tol 1e-8) serves them all; a trivial null space reads inf.
    """
    def norm(x):  # np.linalg.norm's sums for one vector; with axis= it adds in another order
        return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))[..., None]
    basis = matrices.null_space(operators, tol=1e-8)
    v = vectors / norm(vectors)
    proj = (np.vecdot(basis, v[..., None, :])[..., None] * basis).sum(axis=-2)
    return np.where(basis.any(axis=(-2, -1)), norm(v - proj)[..., 0], math.inf)


def _amplitude_checks(rep: VerificationReport, rng: np.random.Generator,
                      corrupt: str | None) -> None:
    n_draws = 50
    H, sols = [], []  # one matrix a draw, one solution a draw and branch
    for _ in range(n_draws):
        p = rng.uniform(-5, 5)
        qp = QuantumParams(epsilon=rng.uniform(0.05, 2.0))
        H.append(matrices.hamiltonian_d8((0.0, 0.0, p), qp))
        sols += [_fault(planewaves.build_solution(b, "up", p, qp), corrupt)
                 for b in dispersion.BRANCHES]
    E = np.array([s.E for s in sols])[:, None, None]
    operators = np.repeat(H, len(dispersion.BRANCHES), axis=0) - E * np.eye(8)
    worst = float(nullspace_deviation(np.array([s.amplitudes for s in sols]), operators).max())
    _add(rep, "closed-form amplitudes match null space", "amplitude cross-check",
         worst, 1e-10, f"{n_draws} random (p_z, eps) draws, all branches")


def _catalog_checks(rep: VerificationReport, qp: QuantumParams, corrupt: str | None) -> None:
    p_z = 1.0
    sols = [_fault(s, corrupt) for s in planewaves.catalog_eight(p_z, qp)]
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
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or record_every < 1:
        raise ValueError("need n_steps >= 0 and record_every >= 1")
    if dt * chain.max_frequency(params) >= 2.0:
        warnings.warn("time step exceeds the velocity-Verlet stability bound "
                      "dt * omega_max < 2", RuntimeWarning, stacklevel=2)
    coupling = np.array([[params.I], [params.J]])
    mass = np.array([[params.m], [params.M]])

    def accelerations(x):
        lap = (np.roll(x, 1, axis=-1) + np.roll(x, -1, axis=-1)) - 2 * x
        return (params.K * (x[..., ::-1, :] - x) + coupling * lap) / mass  # (U - u, u - U)

    t, x, v = state.t, np.array(state.x, dtype=float), np.array(state.v, dtype=float)
    times = np.empty(n_steps // record_every + 1)
    xs, vs = (np.empty((len(times),) + x.shape) for _ in range(2))  # each owns its memory
    times[0], xs[0], vs[0] = t, x, v
    a = accelerations(x)
    for i in range(1, n_steps + 1):
        x = (x + dt * v) + (0.5 * dt**2) * a
        a_new = accelerations(x)
        v = v + (0.5 * dt) * (a + a_new)
        a = a_new
        t = t + dt
        if i % record_every == 0:
            j = i // record_every
            times[j], xs[j], vs[j] = t, x, v
    return times, chain.LatticeState(xs, vs), chain.LatticeState(x, v, t)


_FRAME_BLOCK = 32  # recorded frames the rings advance per matrix product


def _verlet_frames(start: chain.LatticeState, dt: float, params: ChainParams,
                   record_every: int, n_frames: int):
    """u at site 0 of the first ring over n_frames recorded frames, and the last frame.

    The same run as ``verlet_steps(start, dt, n, params, record_every)`` with
    n = record_every (n_frames - 1), from powers of its one-step map M.  The
    chain is linear, so M is a matrix, and periodic, so M commutes with a
    cyclic shift of the sites: its column for a unit state at site s is its
    column for site 0 shifted by s.  One ``verlet_steps`` step of the 4
    impulses at site 0 (one each in u, U, du/dt and dU/dt) therefore gives
    all of M as its (4n, 4) kernel, and so for every power of M.  Two such
    maps compose as the kernel ``dense(A) @ kernel(B)``, where ``dense``
    spreads a kernel into its (4n, 4n) matrix by one ``np.take``; the
    powers F = M^record_every, which moves every ring on by one frame, and
    F^_FRAME_BLOCK are formed by squaring that way.  The rings advance
    _FRAME_BLOCK frames per product with F^_FRAME_BLOCK, and row 0 of
    F^1 .. F^_FRAME_BLOCK gives each block's site-0 values, so no other
    frame is kept.
    """
    shape = start.x.shape
    n_sites, parts = shape[-1], 2 * shape[-2]  # parts: u, U, du/dt, dU/dt
    size = parts * n_sites
    impulses = np.zeros((parts, parts, n_sites))
    impulses[:, :, 0] = np.eye(parts)
    *_, one = verlet_steps(chain.LatticeState(impulses[:, :shape[-2]], impulses[:, shape[-2]:]),
                           dt, 1, params)
    # M[(p, s), (q, r)] = kernel[(p, s - r mod n), q], one flat index into the kernel
    p, s, q, r = np.ix_(range(parts), range(n_sites), range(parts), range(n_sites))
    index = ((p * n_sites + (s - r) % n_sites) * parts + q).reshape(size, size)

    def dense(kernel):
        return np.take(kernel, index)

    def power(kernel, exponent):  # exponent >= 1, by squaring
        if exponent == 1:
            return kernel
        half = power(kernel, exponent // 2)
        whole = dense(half) @ half
        return whole if exponent % 2 == 0 else dense(whole) @ kernel

    frame_kernel = power(np.concatenate((one.x, one.v), 1).reshape(parts, size).T,
                         record_every)
    frame = dense(frame_kernel)
    rows = np.empty((_FRAME_BLOCK, size))  # row 0 of F^1 .. F^_FRAME_BLOCK
    rows[0] = frame[0]
    for k in range(1, _FRAME_BLOCK):
        rows[k] = rows[k - 1] @ frame
    leap = dense(power(frame_kernel, _FRAME_BLOCK))
    rings = np.concatenate((start.x, start.v), -2).reshape(-1, size).T  # one column a ring
    trace = np.empty(n_frames)
    trace[0] = rings[0, 0]
    for j in range(1, n_frames, _FRAME_BLOCK):
        k = min(_FRAME_BLOCK, n_frames - j)
        trace[j:j + k] = rows[:k] @ rings[:, 0]
        rings = (leap if k == _FRAME_BLOCK else dense(power(frame_kernel, k))) @ rings
    x, v = np.moveaxis(rings.T.reshape(*shape[:-2], 2, *shape[-2:]), -3, 0)
    return trace, chain.LatticeState(x, v, start.t + record_every * (n_frames - 1) * dt)


def _chain_checks(rep: VerificationReport) -> None:
    cp = ChainParams(m=1.0, M=4.0, K=1.0, I=1.0, J=1.0, a=1.0)
    slope = chain.convergence_exponent(cp)
    _add(rep, "chain-continuum convergence order", "long-wave limit",
         abs(slope - 2.0), 0.2, f"fitted slope {slope:.4f}")

    n_sites, mode, n_steps, every, amplitude = 64, 3, 10_000, 8, 1e-3 * cp.a
    omega = chain.discrete_dispersion(2 * math.pi * mode / (n_sites * cp.a), cp)[0][1]
    runs = [chain.init_mode(n_sites, mode, amplitude, b, cp) for b in ("optical", "acoustic")]
    omega_max = chain.max_frequency(cp)
    dt = 0.01 / omega_max
    # one (2, 2, n) stack: optical, acoustic
    start = chain.LatticeState(np.array([s.x for s in runs]), np.array([s.v for s in runs]))
    n_frames = n_steps // every + 1
    trace, final = _verlet_frames(start, dt, cp, every, n_frames)
    measured = chain.measure_mode_frequency(every * dt * np.arange(n_frames), trace)
    _add(rep, "time-domain mode frequency", "dispersion cross-validation",
         abs(measured - omega) / omega, 1e-4)
    omega_verlet = chain.verlet_frequency(omega, dt)
    _add(rep, "measured frequency equals verlet_frequency", "modified frequency",
         abs(measured - omega_verlet) / omega_verlet, 1e-10,
         "the optical run turns by dt * verlet_frequency per step, exactly")

    acoustic = chain.LatticeState(final.x[1], final.v[1], final.t)
    e0, e1 = (chain.total_energy(s, cp) for s in (runs[1], acoustic))
    _add(rep, "symplectic energy drift", "energy conservation", abs(e1 - e0) / e0, 1e-6,
         "acoustic mode, the 10^4-step power of one stepped velocity-Verlet step")
    h0, h1 = (chain.modified_energy(s, dt, cp) for s in (runs[1], acoustic))
    _add(rep, "modified energy drift", "discrete energy conservation", abs(h1 - h0) / h0,
         1e-12, "the same run's E - (dt^2/8) sum F^2/mass, which Verlet conserves exactly")

    # the same run as the closed-form map; velocities in units of omega_max
    *_, exact = chain.simulate(start, dt, n_steps, cp, record_every=n_steps)
    deviation = max(np.abs(exact.x - final.x).max(),
                    np.abs(exact.v - final.v).max() / omega_max) / amplitude
    _add(rep, "loop equals the exact Verlet map", "closed-form velocity Verlet",
         deviation, 1e-10,
         "both rings' final states, the 10^4-step power of one stepped step, against "
         "chain.simulate")


def _evolution_checks(rep: VerificationReport, qp: QuantumParams, corrupt: str | None) -> None:
    n_grid, L = 256, 100.0
    k0 = 2 * math.pi * 16 / L
    sol = _fault(planewaves.build_solution(dispersion.OPTICAL_PLUS, "up", qp.hbar * k0, qp),
                 corrupt)
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

    ``seed`` seeds the random draws; ``corrupt`` names a ``_fault`` of the sections' own solutions.
    ``rep.timings`` holds the seconds each ``_*_checks`` section took, by function name.
    """
    if corrupt not in (None, "b3-ratio"):
        raise ValueError(f"unknown fault {corrupt!r}")
    rng = np.random.default_rng(seed)
    qp = QuantumParams(epsilon=epsilon)
    rep = matrices.check_algebra()
    rep.notes.append(dispersion.OPTICAL_FORM_NOTE)
    # each section is looked up by its module name at call time, where tracers wrap it
    for section, *args in ((_squaring_checks, rng), (_determinant_checks, qp),
                           (_velocity_checks, qp), (_eigen_checks,),
                           (_amplitude_checks, rng, corrupt), (_catalog_checks, qp, corrupt),
                           (_chain_checks,), (_evolution_checks, qp, corrupt)):
        start = time.perf_counter()
        section(rep, *args)
        rep.timings[section.__name__] = time.perf_counter() - start
    return rep
