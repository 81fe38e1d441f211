import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from dirac8 import evolution as evo
from dirac8 import planewaves as pw
from dirac8.chain import measure_mode_frequency
from dirac8.dispersion import (ACOUSTIC_MINUS, ACOUSTIC_PLUS, BRANCHES,
                               OPTICAL_MINUS, OPTICAL_PLUS, branch_energy,
                               branch_frequency, group_velocity, modes)
from dirac8.matrices import hamiltonian_d8
from dirac8.params import ContinuumParams, QuantumParams

QP = QuantumParams(epsilon=0.5)
EPSILONS = (0.0, 0.25, 0.5, 1.0, 2.0, 5.0)


def _up_block(p_z, params):
    """The block of H_D8(0, 0, p_z) on the spin-up slots (Psi_1, Psi_3, Phi_1, Phi_3),
    the four rows that ``evolve`` runs."""
    up = pw.SPIN_SLOTS["up"]
    return hamiltonian_d8((0.0, 0.0, p_z), params)[np.ix_(up, up)]


def evolve_rk4(state, dt, n_steps, params):
    """n_steps RK4 steps of each Fourier mode's dc/dt = -i H(k) c / hbar; needs dt < dz / (4 c).

    The independent cross-check of the exact propagator: H(k) is assembled
    from the operator, which is affine in the momentum p = hbar k.
    """
    if dt >= state.dz / (4 * params.c):
        raise ValueError("rk4 step too large: require dt < dz / (4 c)")
    ks = 2 * math.pi * np.fft.fftfreq(state.n_grid, d=state.dz)
    H0 = _up_block(0.0, params)
    dH = _up_block(1.0, params) - H0
    M = -1j * (H0 + (params.hbar * ks)[:, None, None] * dH) / params.hbar

    def rhs(c):
        return np.einsum("kij,kj->ki", M, c)

    coeffs = np.fft.fft(state.fields, axis=1).T  # (n, 4)
    for _ in range(n_steps):
        k1 = rhs(coeffs)
        k2 = rhs(coeffs + 0.5 * dt * k1)
        k3 = rhs(coeffs + 0.5 * dt * k2)
        k4 = rhs(coeffs + dt * k3)
        coeffs = coeffs + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    fields = np.fft.ifft(coeffs.T, axis=1)
    return evo.FieldState(fields, state.L, state.t + dt * n_steps)


def centroid_track(states) -> tuple[np.ndarray, np.ndarray]:
    """Times and centroids of states on one grid, as two float arrays: the
    real-space reference for ``packet_track``'s spectral centroids.

    A centroid is the intensity-weighted circular mean position over the
    periodic domain.  The states are read one at a time, so a generator of
    them is never held whole; exp(i theta) over the grid is formed once, from
    the first state.
    """
    times, positions, circle = [], [], None
    for state in states:
        if circle is None:
            theta = 2 * math.pi * state.z / state.L
            circle, grid = np.exp(1j * theta), (state.n_grid, state.L)
        elif (state.n_grid, state.L) != grid:
            raise ValueError("centroid track states must share one grid")
        intensity = np.sum(np.abs(state.fields) ** 2, axis=0)
        total = intensity.sum()
        if total == 0:
            raise ValueError("zero field has no centroid")
        mean = np.sum(intensity * circle) / total
        times.append(state.t)
        positions.append(float(np.angle(mean) % (2 * math.pi)) * state.L / (2 * math.pi))
    return np.array(times), np.array(positions)


def packet_centroid(state):
    """Intensity-weighted circular mean position over the periodic domain."""
    return float(centroid_track([state])[1][0])


def packet_width(state):
    """Wrap-aware RMS width about the centroid."""
    intensity = np.sum(np.abs(state.fields) ** 2, axis=0)
    c = packet_centroid(state)
    d = np.mod(state.z - c + state.L / 2, state.L) - state.L / 2
    return float(math.sqrt(np.sum(intensity * d**2) / intensity.sum()))


def _plane_wave_state(branch, k0, n_grid=256, L=100.0, qp=QP):
    sol = pw.build_solution(branch, "up", qp.hbar * k0, qp)
    z = L / n_grid * np.arange(n_grid)
    fields = np.outer(sol.amplitudes[[0, 2, 4, 6]], np.exp(1j * k0 * z))
    return evo.FieldState(fields, L), sol


def test_init_packet_validation():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_PLUS)
    with pytest.raises(ValueError):
        evo.init_packet(spec, 1000, 200.0, QP)  # not a power of two
    with pytest.raises(ValueError):
        evo.init_packet(evo.PacketSpec(k0=1.0, sigma=0.1, branch=OPTICAL_PLUS),
                        256, 200.0, QP)  # under-resolved


def test_packet_single_mode_limit():
    # huge sigma concentrates all weight on the k0 grid mode: the packet
    # degenerates to the plane-wave solution up to overall scale
    n, L = 256, 100.0
    k0 = 2 * math.pi * 16 / L
    state = evo.init_packet(
        evo.PacketSpec(k0=k0, sigma=500.0, branch=OPTICAL_PLUS), n, L, QP)
    ref, _ = _plane_wave_state(OPTICAL_PLUS, k0, n, L)
    a = state.fields.ravel()
    b = ref.fields.ravel()
    scale = np.vdot(b, a) / np.vdot(b, b)
    assert np.max(np.abs(a - scale * b)) < 1e-10 * np.abs(a).max()


def test_acoustic_packet_components_equal():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=ACOUSTIC_PLUS, center=50.0)
    state = evo.init_packet(spec, 512, 100.0, QP)
    for c in range(1, 4):
        assert np.allclose(state.fields[c], state.fields[0])


def test_plane_wave_phase_advance():
    T = 5.7
    for branch in BRANCHES:
        state, sol = _plane_wave_state(branch, 2 * math.pi * 16 / 100.0)
        out = evo.evolve(state, T, 1, QP)
        expected = state.fields * np.exp(-1j * sol.E * T / QP.hbar)
        err = np.max(np.abs(out.fields - expected)) / np.abs(state.fields).max()
        assert err < 1e-10


def test_time_reversibility():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_PLUS, center=50.0)
    state = evo.init_packet(spec, 512, 100.0, QP)
    there = evo.evolve(state, 12.5, 1, QP)
    back = evo.evolve(there, -12.5, 1, QP)
    assert np.max(np.abs(back.fields - state.fields)) < 1e-10 * np.abs(state.fields).max()


def test_rk4_fourth_order_convergence():
    spec = evo.PacketSpec(k0=1.0, sigma=4.0, branch=OPTICAL_PLUS, center=25.0)
    state = evo.init_packet(spec, 128, 50.0, QP)
    T = 2.0
    exact = evo.evolve(state, T, 1, QP)

    def err(dt):
        n = round(T / dt)
        out = evolve_rk4(state, dt, n, QP)
        return np.max(np.abs(out.fields - exact.fields))

    ratio = err(0.04) / err(0.02)
    assert 13.0 < ratio < 19.0


def test_rk4_cfl_guard():
    spec = evo.PacketSpec(k0=1.0, sigma=4.0, branch=OPTICAL_PLUS, center=25.0)
    state = evo.init_packet(spec, 128, 50.0, QP)
    with pytest.raises(ValueError):
        evolve_rk4(state, 1.0, 2, QP)


def test_centroid_translation_equivariance():
    spec = evo.PacketSpec(k0=0.0, sigma=5.0, branch=OPTICAL_PLUS, center=40.0)
    a = evo.init_packet(spec, 512, 200.0, QP)
    b = evo.init_packet(
        evo.PacketSpec(k0=0.0, sigma=5.0, branch=OPTICAL_PLUS, center=47.5),
        512, 200.0, QP)
    ca, cb = packet_centroid(a), packet_centroid(b)
    assert ca == pytest.approx(40.0, abs=1e-6)
    assert (cb - ca) % 200.0 == pytest.approx(7.5, abs=1e-6)


def test_centroid_zero_field_errors():
    state = evo.FieldState(np.zeros((4, 8), dtype=complex), 1.0)
    with pytest.raises(ValueError):
        packet_centroid(state)


def test_stationary_packet_at_band_minimum():
    spec = evo.PacketSpec(k0=0.0, sigma=8.0, branch=OPTICAL_PLUS, center=50.0)
    state = evo.init_packet(spec, 512, 100.0, QP)
    out = evo.evolve(state, 20.0, 1, QP)
    drift = abs(packet_centroid(out) - packet_centroid(state))
    assert drift < 0.01 * QP.c * 20.0


def test_group_velocity_measurements():
    kwargs = dict(n_grid=512, L=100.0, t_total=20.0, n_samples=12)
    v = evo.measure_group_velocity(
        evo.PacketSpec(k0=1.0, sigma=4.0, branch=ACOUSTIC_PLUS), QP, **kwargs)
    assert abs(v - QP.c) / QP.c < 1e-3
    for branch in (OPTICAL_PLUS, OPTICAL_MINUS):
        v = evo.measure_group_velocity(
            evo.PacketSpec(k0=1.0, sigma=8.0, branch=branch), QP, **kwargs)
        ref = group_velocity(branch, 1.0, QP)
        assert abs(v - ref) / abs(ref) < 1e-2


def test_group_velocity_displacement_guard():
    spec = evo.PacketSpec(k0=0.0, sigma=8.0, branch=OPTICAL_PLUS)
    with pytest.raises(ValueError):
        evo.measure_group_velocity(spec, QP, n_grid=512, L=100.0,
                                   t_total=5.0, n_samples=5)


def test_group_velocity_refuses_a_sample_step_of_half_the_ring():
    # one sample carries the packet past L/2, which the unwrap reads as a short
    # step backwards: the slope would be -0.111 for a packet moving at +c
    spec = evo.PacketSpec(k0=1.0, sigma=4.0, branch=ACOUSTIC_PLUS, center=20.0)
    with pytest.raises(ValueError, match="L/2"):
        evo.measure_group_velocity(spec, QP, n_grid=512, L=100.0, t_total=90.0,
                                   n_samples=1)


@pytest.mark.parametrize("n_samples", [1, 2, 3, 20])
def test_packet_track_keeps_the_start_middle_and_end_states(n_samples):
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_PLUS, center=50.0)
    state = evo.init_packet(spec, 256, 100.0, QP)
    samples = list(evo.evolve_samples(state, 20.0 / n_samples, n_samples, QP))
    times, positions, snapshots = evo.packet_track(spec, QP, 256, 100.0, 20.0, n_samples)
    # sample n_samples // 2 is the start state itself when n_samples is 1
    kept = [state] + [samples[i - 1] for i in sorted({n_samples // 2, n_samples} - {0})]
    assert [s.t for s in snapshots] == [s.t for s in kept]
    assert np.array_equal(snapshots[0].fields, state.fields)
    peak = np.abs(state.fields).max()
    for got, want in zip(snapshots[1:], kept[1:], strict=True):
        assert np.abs(got.fields - want.fields).max() <= 1e-15 * peak
    assert times.tolist() == [s.t for s in [state, *samples]]


# (n_grid, L, sigma): one point, and grids on either side of numpy's 256 KiB temporaries
@pytest.mark.parametrize("n_grid, L, sigma", [(1, 5.0, 20.0), (256, 200.0, 5.0),
                                              (8192, 200.0, 5.0)])
def test_packet_track_centroids_are_the_real_space_centroids(n_grid, L, sigma):
    n_samples = 6
    for eps, hbar in itertools.product((0.0, 0.5, 2.0), (1.0, 0.7)):
        qp = QuantumParams(epsilon=eps, hbar=hbar)
        for branch in BRANCHES:
            for k0 in (0.0, 1.3):
                spec = evo.PacketSpec(k0=k0, sigma=sigma, branch=branch, center=0.6 * L)
                times, positions, _ = evo.packet_track(spec, qp, n_grid, L, 10.0, n_samples)
                state = evo.init_packet(spec, n_grid, L, qp)
                ref_times, ref_positions = centroid_track(
                    [state, *evo.evolve_samples(state, 10.0 / n_samples, n_samples, qp)])
                assert np.array_equal(times, ref_times)
                gap = np.abs(np.mod(positions - ref_positions + L / 2, L) - L / 2)
                assert gap.max() <= 1e-12 * L, (eps, hbar, branch.label, k0, gap.max())


def test_acoustic_packet_rigid_transport():
    # linear dispersion: the packet crosses the periodic domain without
    # changing shape
    L = 100.0
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=ACOUSTIC_PLUS, center=50.0)
    state = evo.init_packet(spec, 512, L, QP)
    out = evo.evolve(state, L / QP.c, 1, QP)
    change = np.max(np.abs(out.fields - state.fields)) / np.abs(state.fields).max()
    assert change < 1e-8


def test_optical_packet_spreads():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_PLUS, center=100.0)
    state = evo.init_packet(spec, 1024, 200.0, QP)
    out = evo.evolve(state, 30.0, 1, QP)
    assert packet_width(out) > packet_width(state)


def test_conserved_quadratic_under_exact_evolution():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_PLUS, center=50.0)
    state = evo.init_packet(spec, 512, 100.0, QP)
    q0 = evo.conserved_quadratic(state, QP)
    out = evo.evolve(state, 17.0, 1, QP)
    q1 = evo.conserved_quadratic(out, QP)
    assert abs(q1 - q0) / q0 < 1e-12


def test_l2_norm_conserved_only_for_equal_couplings():
    qp1 = QuantumParams(epsilon=1.0)
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_PLUS, center=50.0)
    state = evo.init_packet(spec, 512, 100.0, qp1)
    n0 = np.sum(np.abs(state.fields) ** 2)
    out = evo.evolve(state, 17.0, 1, qp1)
    assert abs(np.sum(np.abs(out.fields) ** 2) - n0) / n0 < 1e-10


def test_second_order_system_frequency_cross_check():
    # initial data built from a first-order plane-wave solution must
    # oscillate at the matching branch frequency of the second-order system
    n, L = 256, 100.0
    k0 = 2 * math.pi * 16 / L
    qp = QP
    state4, sol = _plane_wave_state(OPTICAL_PLUS, k0, n, L, qp)
    omega = sol.E / qp.hbar
    psi = state4.fields[0]
    phi = state4.fields[2]
    kgf = evo.FieldState(np.array([psi, phi, -1j * omega * psi, -1j * omega * phi]), L)
    cp = ContinuumParams.from_quantum(qp)

    tau, n_samp = 0.25, 256
    series = np.empty(n_samp, dtype=complex)
    s = kgf
    for i in range(n_samp):
        series[i] = s.fields[0, 0]
        s = evo.evolve_kgf(s, tau, cp)
    spec = np.abs(np.fft.fft(series))
    freqs = 2 * math.pi * np.fft.fftfreq(n_samp, d=tau)
    peak = freqs[np.argmax(spec)]
    bin_width = 2 * math.pi / (n_samp * tau)
    expected = branch_frequency(OPTICAL_PLUS, k0, qp)
    assert abs(abs(peak) - expected) <= bin_width


def test_kgf_plane_wave_frequencies_both_branches():
    # real standing-wave initial data in the second-order system contains the
    # branch frequencies of the coupled dispersion relation
    n, L = 128, 64.0
    k0 = 2 * math.pi * 8 / L
    cp = ContinuumParams(s_m=1.0, s_M=1.0, omega_O=1.0, omega_A=0.5)
    z = L / n * np.arange(n)
    wave = np.exp(1j * k0 * z)
    kgf = evo.FieldState(np.array([wave, wave, 0 * wave, 0 * wave]), L)
    tau, n_samp = 0.2, 512
    series = np.empty(n_samp, dtype=complex)
    s = kgf
    for i in range(n_samp):
        series[i] = s.fields[0, 0]
        s = evo.evolve_kgf(s, tau, cp)
    times = tau * np.arange(n_samp)
    measured = measure_mode_frequency(times, series.real)
    lo = math.sqrt(k0**2)  # acoustic root at equal speeds
    hi = math.sqrt(k0**2 + 1.25)
    assert min(abs(measured - lo), abs(measured - hi)) < 2 * math.pi / (n_samp * tau)


KGF_SETS = (
    dict(s_m=1.0, s_M=1.0, omega_O=1.0, omega_A=0.5),
    dict(s_m=0.7, s_M=1.3, omega_O=1.1, omega_A=0.4),
    dict(s_m=0.7, s_M=1.3, omega_O=0.0, omega_A=0.0),
    dict(s_m=0.7, s_M=1.3, omega_O=1.1, omega_A=0.0),
    dict(s_m=0.0, s_M=0.0, omega_O=0.0, omega_A=0.0),
)


def _kgf_expm(ks, T, cp):
    """exp(M T) of the first-order reduction d/dt (psi, phi, psi', phi') = M (...)."""
    M = np.zeros((len(ks), 4, 4))
    M[:, 0, 2] = M[:, 1, 3] = 1.0
    M[:, 2, 0] = -(cp.s_m**2 * ks**2 + cp.omega_O**2)
    M[:, 2, 1] = cp.omega_O**2
    M[:, 3, 0] = cp.omega_A**2
    M[:, 3, 1] = -(cp.s_M**2 * ks**2 + cp.omega_A**2)
    return scipy.linalg.expm(M * T)


def _assert_propagator_matches_expm(ks, T, cp):
    P, ref = evo._kgf_propagator(ks, T, cp), _kgf_expm(ks, T, cp)
    err = np.max(np.abs(P - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert err.max() <= 1e-11


@pytest.mark.parametrize("T", (0.3, 7.1))
@pytest.mark.parametrize("kwargs", KGF_SETS)
def test_kgf_evolution_matches_expm(kwargs, T):
    cp = ContinuumParams(**kwargs)
    n, L = 256, 100.0
    ks = evo._wavenumbers(n, L)
    _assert_propagator_matches_expm(ks, T, cp)
    fields = np.random.default_rng(3).normal(size=(4, n, 2)) @ (1.0, 1j)
    out = evo.evolve_kgf(evo.FieldState(fields, L), T, cp)
    ref = np.fft.ifft(np.einsum("kij,jk->ik", _kgf_expm(ks, T, cp), np.fft.fft(fields)))
    assert np.max(np.abs(out.fields - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert out.t == T


@pytest.mark.parametrize("T", (0.3, 7.1))
def test_kgf_propagator_at_coincident_roots(T):
    # at omega_A = 0 the two roots meet where s_m^2 k^2 + omega_O^2 = s_M^2 k^2,
    # and D is a Jordan block there
    cp = ContinuumParams(s_m=0.7, s_M=1.3, omega_O=1.1, omega_A=0.0)
    k = math.sqrt(cp.omega_O**2 / (cp.s_M**2 - cp.s_m**2))
    _assert_propagator_matches_expm(np.array([np.nextafter(k, 0), k, np.nextafter(k, 2)]),
                                    T, cp)


def _modes_grid(n_grid=64, L=100.0):
    # the FFT wavenumbers, which include 0 and -k_max, plus +k_max
    kmax = math.pi * n_grid / L
    return np.append(evo._wavenumbers(n_grid, L), kmax)


@pytest.mark.parametrize("eps", EPSILONS)
def test_modes_are_the_eigensystem_of_the_sector_matrix(eps):
    qp = QuantumParams(epsilon=eps)
    ks = _modes_grid()
    E, R, Lt = modes(ks, qp)
    assert E.shape == (len(ks), 4) and R.shape == Lt.shape == (len(ks), 4, 4)
    for i, k in enumerate(ks):
        H = _up_block(qp.hbar * k, qp)
        scale = np.linalg.norm(H, 2)
        assert np.linalg.norm(H @ R[i] - R[i] * E[i], 2) <= 1e-12 * scale
        assert (np.linalg.norm(Lt[i] @ H - E[i][:, None] * Lt[i], 2)
                <= 1e-12 * scale * np.linalg.norm(Lt[i], 2))
        assert np.linalg.norm(Lt[i] @ R[i] - np.eye(4), 2) <= 1e-12
        assert np.allclose(np.linalg.norm(R[i], axis=0), 1.0, rtol=0, atol=1e-15)
        for j, b in enumerate(BRANCHES):
            assert E[i, j] == pytest.approx(branch_energy(b, qp.hbar * k, qp),
                                            rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("eps", EPSILONS)
def test_modes_match_numerical_eig(eps):
    qp = QuantumParams(epsilon=eps)
    ks = _modes_grid()
    ks = ks[ks != 0]  # eig's basis of the degenerate acoustic pair is arbitrary
    E, R, _ = modes(ks, qp)
    for i, k in enumerate(ks):
        H = _up_block(qp.hbar * k, qp)
        w, V = np.linalg.eig(H)
        scale = np.linalg.norm(H, 2)
        for j in range(4):
            m = np.argmin(np.abs(w - E[i, j]))
            assert abs(w[m] - E[i, j]) <= 1e-12 * scale
            # same unit vector up to a phase
            assert abs(abs(np.vdot(V[:, m], R[i, :, j])) - 1.0) <= 1e-10


@pytest.mark.parametrize("eps", (0.0, 0.5, 5.0))
def test_spectral_evolve_matches_matrix_exponential(eps):
    qp = QuantumParams(epsilon=eps)
    n, L, T = 32, 20.0, 3.7
    rng = np.random.default_rng(1)
    fields = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    out = evo.evolve(evo.FieldState(fields, L), T, 1, qp)
    coeffs = np.fft.fft(fields, axis=1)
    ref = np.empty_like(coeffs)
    for i, k in enumerate(evo._wavenumbers(n, L)):
        H = _up_block(qp.hbar * k, qp)
        ref[:, i] = scipy.linalg.expm(-1j * H * T / qp.hbar) @ coeffs[:, i]
    ref = np.fft.ifft(ref, axis=1)
    assert np.max(np.abs(out.fields - ref)) < 1e-12 * np.abs(fields).max()


@pytest.mark.parametrize("eps", (0.0, 0.5, 5.0))
def test_acoustic_pair_at_zero_wavenumber(eps):
    # at k = 0 both acoustic energies vanish: any mix of the two modes is
    # stationary, and the metric norm does not depend on how it is split
    qp = QuantumParams(epsilon=eps)
    n, L = 16, 10.0
    _, R, _ = modes(np.zeros(1), qp)
    a_plus, a_minus = R[0, :, 0], R[0, :, 1]
    quads = []
    for theta in np.linspace(0.0, math.pi / 2, 7):
        vec = math.cos(theta) * a_plus + math.sin(theta) * 1j * a_minus
        state = evo.FieldState(np.outer(vec, np.ones(n)), L)
        out = evo.evolve(state, 13.0, 1, qp)
        assert np.max(np.abs(out.fields - state.fields)) < 1e-14
        quads.append(evo.conserved_quadratic(state, qp))
    assert np.allclose(quads, n**2, rtol=1e-12, atol=0)


@pytest.mark.parametrize("eps", (0.25, 2.0))
def test_conserved_quadratic_matches_eig_reference(eps):
    # away from k = 0 the metric norm equals the squared coefficients on
    # numpy's unit-norm eigenvectors, mode by mode
    qp = QuantumParams(epsilon=eps)
    n, L = 32, 20.0
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    coeffs[:, 0] = 0.0
    state = evo.FieldState(np.fft.ifft(coeffs, axis=1), L)
    ref = 0.0
    for i, k in enumerate(evo._wavenumbers(n, L)):
        _, V = np.linalg.eig(_up_block(qp.hbar * k, qp))
        ref += np.sum(np.abs(np.linalg.solve(V, coeffs[:, i])) ** 2)
    assert evo.conserved_quadratic(state, qp) == pytest.approx(ref, rel=1e-12)


def test_production_path_needs_no_eigensolver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numerical eigen-solve on the production path")

    for name in ("eig", "eigvals", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    spec = evo.PacketSpec(k0=1.0, sigma=8.0, branch=OPTICAL_MINUS)
    state = evo.init_packet(spec, 512, 100.0, QP)
    evo.conserved_quadratic(evo.evolve(state, 3.0, 1, QP), QP)
    evo.measure_group_velocity(spec, QP, n_grid=512, L=100.0, t_total=20.0,
                               n_samples=12)
    z = np.zeros(64, dtype=complex)
    evo.evolve_kgf(evo.FieldState(np.array([z + 1, z, z, z]), 10.0), 2.0,
                   ContinuumParams.from_quantum(QP))


def test_evolve_samples_match_single_shot_evolution():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=ACOUSTIC_MINUS, center=50.0)
    state = evo.init_packet(spec, 256, 100.0, QP)
    dt = 1.5
    samples = list(evo.evolve_samples(state, dt, 4, QP))
    assert [s.t for s in samples] == [dt, 2 * dt, 3 * dt, 4 * dt]
    ref = evo.evolve(state, dt, 4, QP)
    assert np.array_equal(samples[-1].fields, ref.fields) and samples[-1].t == ref.t


def test_centroid_velocity_unwraps_the_ring():
    L = 10.0
    times = np.arange(6.0)
    positions = np.mod(7.0 + 1.5 * times, L)  # wraps once
    slope, displacement = evo.centroid_velocity(times, positions, L)
    assert slope == pytest.approx(1.5, rel=1e-12)
    assert displacement == pytest.approx(7.5, rel=1e-12)


def test_field_state_shape_validation():
    state = evo.FieldState(np.zeros((4, 8), dtype=complex), 2.0)
    assert state.n_grid == 8 and state.dz == 0.25
    for shape in ((3, 8), (8,), (1, 4, 8)):
        with pytest.raises(ValueError, match="shape"):
            evo.FieldState(np.zeros(shape, dtype=complex), 2.0)


def _reference_samples(state, dt, n_samples, params):
    """The plain sample loop: every exponential taken, real R, coefficients times phase."""
    E, R, Lt = modes(evo._wavenumbers(state.n_grid, state.L), params)
    x = evo._project(state, Lt)
    for i in range(1, n_samples + 1):
        phase = np.exp((-1j * i * dt / params.hbar) * E)
        yield np.fft.ifft(np.einsum("kij,kj->ik", R, np.multiply(x, phase)), axis=1)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# 4096 and 8192 put the phase array past the 256 KiB at which numpy reuses
# temporaries, where an unordered product would swap its operands
@pytest.mark.parametrize("n_grid", (256, 2048, 4096, 8192))
def test_evolve_samples_match_the_plain_loop_bit_for_bit(n_grid):
    for eps, hbar in ((0.0, 1.0), (0.5, 0.7), (2.0, 1.0)):
        qp = QuantumParams(epsilon=eps, hbar=hbar)
        for branch in BRANCHES:
            for k0 in (0.0, 1.3):
                spec = evo.PacketSpec(k0=k0, sigma=5.0, branch=branch, center=120.0)
                state = evo.init_packet(spec, n_grid, 200.0, qp)
                got = [s.fields for s in evo.evolve_samples(state, 2.0, 2, qp)]
                want = list(_reference_samples(state, 2.0, 2, qp))
                assert all(map(_same_bits, got, want)), (eps, hbar, branch.label, k0)


def _reference_track(spec, params, n_grid, L, t_total, n_samples):
    """The plain one-branch loop: every sample's centroid and fields from the start
    state's spectrum, each product written spectrum times phase with named operands."""
    state = evo.init_packet(spec, n_grid, L, params)
    E, _, _ = modes(evo._wavenumbers(n_grid, L), params)
    spectrum = np.fft.fft(state.fields, axis=1)
    overlap = np.sum(np.multiply(spectrum, np.conjugate(np.roll(spectrum, -1, axis=1))), axis=0)
    positions, fields = [], []
    for i in range(n_samples + 1):
        t = i * (t_total / n_samples)
        phase = np.exp((-1j * t / params.hbar) * E[:, BRANCHES.index(spec.branch)])
        pair = np.multiply(phase, np.conjugate(np.roll(phase, -1)))
        cross = np.sum(np.multiply(overlap, pair))
        positions.append(float(np.angle(cross) % (2 * math.pi)) * L / (2 * math.pi))
        fields.append(np.fft.ifft(np.multiply(spectrum, phase), axis=1))
    return np.array(positions), fields


# 16384 points make each phase array 256 KiB, where numpy reuses temporaries
def test_packet_track_matches_the_plain_loop_bit_for_bit():
    n_grid, n_samples = 16384, 4
    for eps, hbar in ((0.0, 1.0), (0.5, 0.7), (2.0, 1.0)):
        qp = QuantumParams(epsilon=eps, hbar=hbar)
        for branch in BRANCHES:
            for k0 in (0.0, 1.3):
                spec = evo.PacketSpec(k0=k0, sigma=5.0, branch=branch, center=120.0)
                _, positions, snapshots = evo.packet_track(spec, qp, n_grid, 200.0, 8.0,
                                                           n_samples)
                want_positions, want_fields = _reference_track(spec, qp, n_grid, 200.0, 8.0,
                                                               n_samples)
                assert _same_bits(positions, want_positions), (eps, hbar, branch.label, k0)
                got = [s.fields for s in snapshots[1:]]
                assert all(map(_same_bits, got, [want_fields[2], want_fields[4]])), \
                    (eps, hbar, branch.label, k0)


@pytest.mark.parametrize("eps", EPSILONS)
def test_modes_energies_are_exact_negation_pairs(eps):
    # the minus branches' phases are conjugates of the plus branches' only
    # because their energies are the exact negations
    for hbar in (1.0, 0.7):
        E, _, _ = modes(_modes_grid(), QuantumParams(epsilon=eps, hbar=hbar))
        assert _same_bits(E[:, 1], -E[:, 0]) and _same_bits(E[:, 3], -E[:, 2])
        assert _same_bits(np.exp(-1j * E[:, 1::2]), np.conjugate(np.exp(-1j * E[:, 0::2])))


def test_centroid_track_matches_the_one_state_formula():
    spec = evo.PacketSpec(k0=1.0, sigma=5.0, branch=OPTICAL_MINUS, center=150.0)
    state = evo.init_packet(spec, 512, 200.0, QP)
    states = [state, *evo.evolve_samples(state, 4.0, 5, QP)]
    times, positions = centroid_track(iter(states))
    assert list(times) == [s.t for s in states]
    for s, pos in zip(states, positions):
        intensity = np.sum(np.abs(s.fields) ** 2, axis=0)
        mean = np.sum(intensity * np.exp(1j * (2 * math.pi * s.z / s.L))) / intensity.sum()
        assert pos == float(np.angle(mean) % (2 * math.pi)) * s.L / (2 * math.pi)
        assert pos == packet_centroid(s)


def test_centroid_track_needs_one_grid():
    a = evo.FieldState(np.ones((4, 8), dtype=complex), 1.0)
    with pytest.raises(ValueError, match="one grid"):
        centroid_track([a, evo.FieldState(np.ones((4, 16), dtype=complex), 1.0)])
    with pytest.raises(ValueError, match="one grid"):
        centroid_track([a, evo.FieldState(np.ones((4, 8), dtype=complex), 2.0)])
