import math

import numpy as np
import pytest

from dirac8 import chain
from dirac8.params import ChainParams, ParameterError, characteristic_scales

PARAMS = ChainParams(m=1.0, M=4.0, K=1.0, I=1.0, J=1.0, a=1.0)


def _reference_step(state, dt, params):
    """One velocity-Verlet step written out in full, recomputing both forces."""
    def accelerations(u, U):
        lap_u = np.roll(u, 1) + np.roll(u, -1) - 2 * u
        lap_U = np.roll(U, 1) + np.roll(U, -1) - 2 * U
        return ((params.K * (U - u) + params.I * lap_u) / params.m,
                (params.K * (u - U) + params.J * lap_U) / params.M)

    a_u, a_U = accelerations(state.u, state.U)
    u = state.u + dt * state.du_dt + 0.5 * dt**2 * a_u
    U = state.U + dt * state.dU_dt + 0.5 * dt**2 * a_U
    a_u2, a_U2 = accelerations(u, U)
    du = state.du_dt + 0.5 * dt * (a_u + a_u2)
    dU = state.dU_dt + 0.5 * dt * (a_U + a_U2)
    return chain.LatticeState(state.n_sites, u, U, du, dU, state.t + dt)


def _random_state(n_sites, seed=0, t=0.0):
    u, U, du, dU = 1e-3 * np.random.default_rng(seed).standard_normal((4, n_sites))
    return chain.LatticeState(n_sites, u, U, du, dU, t)


def test_characteristic_scales():
    s = characteristic_scales(PARAMS)
    assert s.omega_O == pytest.approx(1.0)
    assert s.omega_A == pytest.approx(0.5)
    assert s.epsilon == pytest.approx(0.5)
    s0 = characteristic_scales(ChainParams(m=1, M=4, K=1, I=0, J=1, a=1))
    assert s0.s_m == 0.0


def test_invalid_chain_params():
    with pytest.raises(ValueError):
        ChainParams(m=0.0, M=1, K=1, I=1, J=1, a=1)
    with pytest.raises(ValueError):
        ChainParams(m=1, M=1, K=1, I=-1, J=1, a=1)


@pytest.mark.parametrize("kwargs", [
    dict(m=1e-300, M=1, K=1e300, I=1, J=1, a=1),     # omega_O overflows
    dict(m=1, M=1e-310, K=1, I=1, J=1, a=1),         # omega_A, omega_M overflow
    dict(m=1e300, M=1e300, K=1e-300, I=0, J=0, a=1),  # omega_O, omega_A underflow to 0
    dict(m=1e300, M=1e-300, K=1, I=1, J=1, a=1),     # mass ratio overflows
])
def test_chain_params_reject_unrepresentable_scales(kwargs):
    with pytest.raises(ParameterError):
        ChainParams(**kwargs)


def test_discrete_dispersion_at_zero():
    mp = chain.discrete_dispersion(0.0, PARAMS)
    assert mp.omega_acoustic == 0.0
    assert mp.omega_optical == pytest.approx(math.sqrt(1.25))
    assert np.allclose(mp.eigvec_acoustic, [1, 1] / np.sqrt(2))


def test_discrete_dispersion_long_wave_limit():
    # acoustic branch behaves as (speed * k)^2 with the speed from a Taylor
    # expansion of the 2x2 eigenproblem at k -> 0
    s = characteristic_scales(PARAMS)
    # effective sound speed: weighted mix of the two spring speeds
    v2 = (PARAMS.m * s.s_m**2 + PARAMS.M * s.s_M**2) / (PARAMS.m + PARAMS.M)
    for ka in (1e-3, 1e-4):
        k = ka / PARAMS.a
        w = chain.discrete_dispersion(k, PARAMS).omega_acoustic
        assert w**2 == pytest.approx(v2 * k**2, rel=1e-5)


def test_init_mode_basic():
    state = chain.init_mode(64, 0, 1e-3, "acoustic", PARAMS)
    assert np.allclose(state.u, state.u[0])  # uniform translation
    a_u, a_U = chain._accelerations(state.u, state.U, PARAMS)
    assert np.allclose(a_u, 0) and np.allclose(a_U, 0)

    state = chain.init_mode(64, 5, 1e-3, "optical", PARAMS)
    assert np.abs(state.u).max() <= 1e-3 + 1e-15


def test_init_mode_eigvec_ratio():
    n = 64
    state = chain.init_mode(n, 1, 1e-3, "optical", PARAMS)
    mp = chain.discrete_dispersion(2 * math.pi / (n * PARAMS.a), PARAMS)
    expected = mp.eigvec_optical[0] / mp.eigvec_optical[1]
    assert state.u[0] / state.U[0] == pytest.approx(expected, rel=1e-12)


def test_init_mode_invalid_index():
    with pytest.raises(ValueError):
        chain.init_mode(64, 64, 1e-3, "acoustic", PARAMS)


def test_step_equilibrium_fixed_point():
    z = np.zeros(16)
    state = chain.LatticeState(16, z.copy(), z.copy(), z.copy(), z.copy())
    *_, out = chain.simulate(state, 0.01, 1, PARAMS)
    assert np.allclose(out.u, 0) and np.allclose(out.dU_dt, 0)


def test_step_stability_warning():
    state = chain.init_mode(16, 1, 1e-3, "acoustic", PARAMS)
    with pytest.warns(RuntimeWarning):
        chain.simulate(state, 2.5 / chain.max_frequency(PARAMS), 1, PARAMS)


def test_mode_returns_after_period():
    n, mode = 32, 4
    k = 2 * math.pi * mode / (n * PARAMS.a)
    omega = chain.discrete_dispersion(k, PARAMS).omega_acoustic
    state = chain.init_mode(n, mode, 1e-3, "acoustic", PARAMS)
    period = 2 * math.pi / omega
    n_steps = 4000
    dt = period / n_steps
    *_, s = chain.simulate(state, dt, n_steps, PARAMS, record_every=n_steps)
    assert np.allclose(s.u, state.u, atol=1e-8)


def test_total_energy_examples():
    z = np.zeros(8)
    state = chain.LatticeState(8, z.copy(), z.copy(), z.copy(), z.copy())
    assert chain.total_energy(state, PARAMS) == 0.0
    v = np.full(8, 0.3)
    state = chain.LatticeState(8, z.copy(), z.copy(), v.copy(), z.copy())
    assert chain.total_energy(state, PARAMS) == pytest.approx(0.5 * 8 * 1.0 * 0.3**2)


def test_energy_drift_symplectic():
    state = chain.init_mode(64, 3, 1e-3, "acoustic", PARAMS)
    dt = 0.01 / chain.max_frequency(PARAMS)
    e0 = chain.total_energy(state, PARAMS)
    *_, s = chain.simulate(state, dt, 10_000, PARAMS, record_every=10_000)
    assert abs(chain.total_energy(s, PARAMS) - e0) / e0 < 1e-6


def test_simulate_matches_reference_steps():
    state = _random_state(24, t=0.3)
    dt, n_steps, every = 0.05, 1200, 7
    times, us, Us, dus, dUs, final = chain.simulate(state, dt, n_steps, PARAMS,
                                                    record_every=every)
    s = state
    expected = [(s.t, s.u, s.U, s.du_dt, s.dU_dt)]
    for i in range(1, n_steps + 1):
        s = _reference_step(s, dt, PARAMS)
        if i % every == 0:
            expected.append((s.t, s.u, s.U, s.du_dt, s.dU_dt))
    for got, want in zip((times, us, Us, dus, dUs), zip(*expected)):
        assert np.array_equal(got, np.array(want))
    assert final.t == s.t and final.n_sites == s.n_sites
    for got, want in ((final.u, s.u), (final.U, s.U), (final.du_dt, s.du_dt),
                      (final.dU_dt, s.dU_dt)):
        assert np.array_equal(got, want)


def test_simulate_record_every_not_dividing_n_steps():
    state = _random_state(8, t=1.0)
    dt = 0.1
    times, us, Us, dus, dUs, final = chain.simulate(state, dt, 10, PARAMS, record_every=3)
    # samples at steps 0, 3, 6, 9; step 10 ends the run unrecorded
    assert times == pytest.approx([1.0, 1.3, 1.6, 1.9], abs=1e-12)
    assert all(a.shape == (4, 8) for a in (us, Us, dus, dUs))
    assert final.t == pytest.approx(2.0, abs=1e-12)
    assert not np.array_equal(final.u, us[-1])


def test_simulate_leaves_input_unchanged():
    state = _random_state(16, t=0.5)
    before = [a.copy() for a in (state.u, state.U, state.du_dt, state.dU_dt)]
    chain.simulate(state, 0.05, 50, PARAMS, record_every=5)
    assert state.t == 0.5
    for got, want in zip((state.u, state.U, state.du_dt, state.dU_dt), before):
        assert np.array_equal(got, want)


def test_simulate_rejects_bad_arguments():
    state = _random_state(8)
    with pytest.raises(ValueError):
        chain.simulate(state, 0.05, 10, PARAMS, record_every=0)
    with pytest.raises(ValueError):
        chain.simulate(state, 0.0, 10, PARAMS)


def test_measure_mode_frequency_single_mode():
    n, mode = 64, 3
    k = 2 * math.pi * mode / (n * PARAMS.a)
    omega = chain.discrete_dispersion(k, PARAMS).omega_optical
    state = chain.init_mode(n, mode, 1e-3, "optical", PARAMS)
    dt = 0.01 / chain.max_frequency(PARAMS)
    n_steps = int(8 * 2 * math.pi / omega / dt)
    times, us, *_ = chain.simulate(state, dt, n_steps, PARAMS, record_every=4)
    measured = chain.measure_mode_frequency(times, us[:, 0])
    assert measured == pytest.approx(omega, rel=1e-4)


def test_measure_mode_frequency_equilibrium_errors():
    times = np.linspace(0, 100, 500)
    with pytest.raises(ValueError):
        chain.measure_mode_frequency(times, np.zeros(500))


def test_measure_mode_frequency_superposition():
    # synthetic two-tone signal: must lock onto the stronger component
    times = np.linspace(0, 400, 8192)
    sig = 1.0 * np.cos(1.3 * times) + 0.3 * np.cos(2.1 * times)
    measured = chain.measure_mode_frequency(times, sig)
    assert measured == pytest.approx(1.3, rel=1e-2)


def test_convergence_exponent():
    slope = chain.convergence_exponent(PARAMS, (0.2, 0.1, 0.05, 0.025))
    assert slope == pytest.approx(2.0, abs=0.2)


def test_kgf_limit_heavy_host():
    # with no same-mass springs and M >> m the small mass oscillates at
    # nearly its bare frequency while the host stays almost still
    params = ChainParams(m=1.0, M=400.0, K=1.0, I=0.0, J=0.0, a=1.0)
    s = characteristic_scales(params)
    state = chain.init_mode(32, 2, 1e-3, "optical", params)
    dt = 0.01 / chain.max_frequency(params)
    n_steps = int(8 * 2 * math.pi / s.omega_O / dt)
    times, us, Us, *_ = chain.simulate(state, dt, n_steps, params, record_every=4)
    measured = chain.measure_mode_frequency(times, us[:, 0])
    eps = s.epsilon
    assert abs(measured - s.omega_O) / s.omega_O < eps**2 + 1e-4
    assert np.abs(Us).max() < 0.05 * np.abs(us).max()
