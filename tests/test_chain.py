import decimal
import json
import math

import numpy as np
import pytest

from dirac8 import chain, dispersion, verify
from dirac8.cli import main
from dirac8.params import ChainParams, ContinuumParams, ParameterError
from dirac8.report import VerificationReport

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
    return chain.LatticeState(np.array((u, U)), np.array((du, dU)), state.t + dt)


def _reference_discrete_dispersion(k, params):
    """The per-root scalar dispersion solve, written out with its own 2x2 matrix.

    The lower root is det D / (upper root), with det D summed from the
    wavenumber parts p, q: pq + p w_A^2 + q w_O^2, free of cancellation.
    """
    sin2 = math.sin(0.5 * k * params.a) ** 2
    p, q = 4 * params.omega_m**2 * sin2, 4 * params.omega_M**2 * sin2
    D = np.array([
        [params.omega_O**2 + p, -params.omega_O**2],
        [-params.omega_A**2, params.omega_A**2 + q],
    ])
    tr = D[0, 0] + D[1, 1]
    det = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    half = 0.5 * tr
    disc = math.sqrt(max(half**2 - det, 0.0))
    upper = half + disc
    det_pq = p * q + p * params.omega_A**2 + q * params.omega_O**2
    lam = (det_pq / upper if upper > 0 else 0.0, upper)

    vecs = []
    for l in lam:
        # (D - l) v = 0; pick the row with the larger leading coefficient
        r0 = np.array([D[0, 0] - l, D[0, 1]])
        r1 = np.array([D[1, 0], D[1, 1] - l])
        row = r0 if np.abs(r0).max() >= np.abs(r1).max() else r1
        v = np.array([-row[1], row[0]])
        n = np.linalg.norm(v)
        if n == 0:  # D is a multiple of the identity
            v = np.array([1.0, 0.0])
            n = 1.0
        v = v / n
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        vecs.append(v)
    return math.sqrt(lam[0]), math.sqrt(lam[1]), vecs[0], vecs[1]


def _random_state(n_sites, seed=0, t=0.0):
    x, v = 1e-3 * np.random.default_rng(seed).standard_normal((2, 2, n_sites))
    return chain.LatticeState(x, v, t)


def _stack(*states, t=0.0):
    return chain.LatticeState(np.array([s.x for s in states]),
                              np.array([s.v for s in states]), t)


def _scales(p):
    return (p.omega_O, p.omega_A, p.omega_m, p.omega_M, p.s_m, p.s_M, p.epsilon)


def test_chain_params_derive_their_scales():
    assert _scales(PARAMS) == pytest.approx((1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 0.5))
    ring = ChainParams(m=1, M=4, K=1, I=0, J=1, a=1)
    assert _scales(ring) == pytest.approx((1.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.5))
    assert ring.s_m == 0.0
    other = ChainParams(m=0.7, M=2.5, K=1.3, I=0.4, J=3.0, a=0.9)
    assert _scales(other) == pytest.approx((math.sqrt(1.3 / 0.7), math.sqrt(1.3 / 2.5),
                                            math.sqrt(0.4 / 0.7), math.sqrt(3.0 / 2.5),
                                            0.9 * math.sqrt(0.4 / 0.7),
                                            0.9 * math.sqrt(3.0 / 2.5),
                                            math.sqrt(0.7 / 2.5)))
    for p in (PARAMS, ring, other):  # dataclass equality compares field for field
        assert ContinuumParams.from_chain(p) == ContinuumParams(p.s_m, p.s_M, p.omega_O, p.omega_A)


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
    dict(m=1, M=1, K=1, I=1, J=1, a=1e200),          # continuum speed squared overflows
    dict(m=1, M=4, K=1e-320, I=0, J=0, a=1),         # omega_O^4 underflows in modal_pair
    dict(m=1, M=4, K=1e154, I=1, J=1, a=1),          # the zone-edge trace squared overflows
    dict(m=1, M=4, K=1, I=1, J=1, a=5e-324),         # the zone edge 2 pi / a overflows
])
def test_chain_params_reject_unrepresentable_scales(kwargs):
    with pytest.raises(ParameterError):
        ChainParams(**kwargs)


def test_discrete_dispersion_at_zero():
    omega, vecs = chain.discrete_dispersion(0.0, PARAMS)
    assert omega[0] == 0.0
    assert omega[1] == pytest.approx(math.sqrt(1.25))
    assert np.allclose(vecs[0], [1, 1] / np.sqrt(2))


def test_discrete_dispersion_matches_reference():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(3000):
        m, M, K, I, J, a = rng.uniform(0.1, 10.0, 6)
        I, J = (0.0 if rng.random() < 0.1 else I), (0.0 if rng.random() < 0.1 else J)
        cases.append((rng.uniform(-math.pi / a, math.pi / a),
                      ChainParams(m=m, M=M, K=K, I=I, J=J, a=a)))
    # m = M gives the optical vector (1, -1) / sqrt(2) at k = 0, a tie in the sign rule
    for params in (PARAMS, ChainParams(m=1, M=400, K=1, I=0, J=0, a=1),
                   ChainParams(m=1, M=1, K=1, I=1, J=1, a=1)):
        cases += [(0.0, params), (math.pi / params.a, params), (-math.pi / params.a, params)]
    for k, params in cases:
        omega, vecs = chain.discrete_dispersion(k, params)
        w_ac, w_op, v_ac, v_op = _reference_discrete_dispersion(k, params)
        assert omega[0] == w_ac and omega[1] == w_op
        assert np.array_equal(vecs[0], v_ac)
        assert np.array_equal(vecs[1], v_op)


def test_modal_pair_roots_exact_at_small_k():
    # both roots to a few ulp of an 80-digit evaluation from the same float p, q;
    # at 10^6 sites and M/m = 100, half - disc loses 3e-5 of W- to cancellation
    four_ulp = decimal.Decimal(4 * np.finfo(float).eps)
    for params in (PARAMS, ChainParams(m=1, M=100, K=3, I=0.5, J=2, a=1)):
        ks = 2 * math.pi / (params.a * np.array([128, 4096, 10**6, 10**8]))
        sin2 = np.sin(0.5 * ks * params.a) ** 2
        p, q = 4 * params.omega_m**2 * sin2, 4 * params.omega_M**2 * sin2
        o2, a2 = params.omega_O**2, params.omega_A**2
        W, _ = dispersion.modal_pair(p, q, o2, a2)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for j in range(len(ks)):
                P, Q, O, A = (decimal.Decimal(float(x)) for x in (p[j], q[j], o2, a2))
                half = (P + O + Q + A) / 2
                disc = (((P + O - Q - A) / 2) ** 2 + O * A).sqrt()
                for got, exact in zip(W[:, j], (half - disc, half + disc)):
                    assert abs(decimal.Decimal(float(got)) - exact) <= four_ulp * exact


def test_discrete_dispersion_long_wave_limit():
    # acoustic branch behaves as (speed * k)^2 with the speed from a Taylor
    # expansion of the 2x2 eigenproblem at k -> 0
    # effective sound speed: weighted mix of the two spring speeds
    v2 = (PARAMS.m * PARAMS.s_m**2 + PARAMS.M * PARAMS.s_M**2) / (PARAMS.m + PARAMS.M)
    for ka in (1e-3, 1e-4):
        k = ka / PARAMS.a
        w = chain.discrete_dispersion(k, PARAMS)[0][0]
        assert w**2 == pytest.approx(v2 * k**2, rel=1e-5)


def test_init_mode_basic():
    state = chain.init_mode(64, 0, 1e-3, "acoustic", PARAMS)
    assert np.allclose(state.u, state.u[0])  # uniform translation
    # no force: from rest, one step leaves the velocities at dt * (mean acceleration) = 0
    dt = 0.01
    *_, out = chain.simulate(state, dt, 1, PARAMS)
    assert np.allclose(out.du_dt / dt, 0) and np.allclose(out.dU_dt / dt, 0)

    state = chain.init_mode(64, 5, 1e-3, "optical", PARAMS)
    assert np.abs(state.u).max() <= 1e-3 + 1e-15


def test_init_mode_eigvec_ratio():
    n = 64
    state = chain.init_mode(n, 1, 1e-3, "optical", PARAMS)
    vec = chain.discrete_dispersion(2 * math.pi / (n * PARAMS.a), PARAMS)[1][1]
    expected = vec[0] / vec[1]
    assert state.u[0] / state.U[0] == pytest.approx(expected, rel=1e-12)


def test_init_mode_invalid_index():
    with pytest.raises(ValueError):
        chain.init_mode(64, 64, 1e-3, "acoustic", PARAMS)


def test_lattice_state_validates_shapes():
    for x, v in [(np.zeros((2, 8)), np.zeros((2, 7))),      # mismatched
                 (np.zeros((3, 8)), np.zeros((3, 8))),      # three rows
                 (np.zeros(8), np.zeros(8)),                # one-dimensional
                 (np.zeros((2, 2, 8)), np.zeros((2, 8)))]:  # stack against one ring
        with pytest.raises(ValueError):
            chain.LatticeState(x, v)
    for shape in [(2, 8), (3, 2, 8)]:
        x, v = np.arange(2 * np.prod(shape), dtype=float).reshape((2,) + shape)
        state = chain.LatticeState(x, v)
        assert state.n_sites == 8 and state.t == 0.0
        rows = (state.u, state.U, state.du_dt, state.dU_dt)
        for row, whole, i in zip(rows, (x, x, v, v), (0, 1, 0, 1)):
            assert row.shape == shape[:-2] + (8,)
            assert np.shares_memory(row, whole) and np.array_equal(row, whole[..., i, :])
        with pytest.raises(AttributeError):
            state.u = np.zeros(8)


def test_step_equilibrium_fixed_point():
    state = chain.LatticeState(np.zeros((2, 16)), np.zeros((2, 16)))
    *_, out = chain.simulate(state, 0.01, 1, PARAMS)
    assert np.allclose(out.u, 0) and np.allclose(out.dU_dt, 0)


def test_step_stability_warning():
    # simulate refuses dt omega_max >= 2; the stepping reference warns and steps
    state = chain.init_mode(16, 1, 1e-3, "acoustic", PARAMS)
    for margin in (2.0, 2.5):
        with pytest.raises(ValueError, match="stability bound"):
            chain.simulate(state, margin / chain.max_frequency(PARAMS), 1, PARAMS)
    with pytest.warns(RuntimeWarning, match="stability bound"):
        verify.verlet_steps(state, 2.5 / chain.max_frequency(PARAMS), 1, PARAMS)


def test_mode_returns_after_period():
    n, mode = 32, 4
    k = 2 * math.pi * mode / (n * PARAMS.a)
    omega = chain.discrete_dispersion(k, PARAMS)[0][0]
    state = chain.init_mode(n, mode, 1e-3, "acoustic", PARAMS)
    period = 2 * math.pi / omega
    n_steps = 4000
    dt = period / n_steps
    *_, s = chain.simulate(state, dt, n_steps, PARAMS, record_every=n_steps)
    assert np.allclose(s.u, state.u, atol=1e-8)


def test_total_energy_examples():
    z = np.zeros((2, 8))
    state = chain.LatticeState(z, z.copy())
    assert chain.total_energy(state, PARAMS) == 0.0
    state = chain.LatticeState(z, np.array([np.full(8, 0.3), np.zeros(8)]))
    assert chain.total_energy(state, PARAMS) == pytest.approx(0.5 * 8 * 1.0 * 0.3**2)


def test_total_energy_of_a_stack_is_the_sum_of_its_rings():
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    rings = [chain.LatticeState(*np.random.default_rng(seed).standard_normal((2, 2, 16)))
             for seed in (7, 8)]
    lone = sum(chain.total_energy(s, params) for s in rings)
    assert chain.total_energy(_stack(*rings), params) == pytest.approx(lone, rel=1e-14)


def test_energy_drift_symplectic():
    state = chain.init_mode(64, 3, 1e-3, "acoustic", PARAMS)
    dt = 0.01 / chain.max_frequency(PARAMS)
    e0 = chain.total_energy(state, PARAMS)
    *_, s = chain.simulate(state, dt, 10_000, PARAMS, record_every=10_000)
    assert abs(chain.total_energy(s, PARAMS) - e0) / e0 < 1e-6


def _assert_close_to_loop(start, dt, n_steps, every, got, want, rel=1e-12):
    """simulate's (times, samples, final) against the loop's, for the same run from start.

    Step n is at start.t + dt n, bit for bit, and the loop's clock, summed
    one dt at a time, is within n_steps rounding errors of it.  Every cell of
    each row (u, U, du_dt, dU_dt) of the samples, and of the final x and v,
    is within rel of the largest entry of the loop's array (its amplitude).
    """
    (times, samples, final), (loop_times, loop_samples, loop_final) = got, want
    assert samples.x.shape == (len(times),) + start.x.shape
    steps = every * np.arange(n_steps // every + 1)
    assert np.array_equal(times, start.t + dt * steps)
    assert final.t == start.t + dt * n_steps
    drift = n_steps * np.finfo(float).eps * abs(final.t)
    assert np.abs(loop_times - times).max() <= drift and abs(loop_final.t - final.t) <= drift
    for a, b in zip((samples.u, samples.U, samples.du_dt, samples.dU_dt, final.x, final.v),
                    (loop_samples.u, loop_samples.U, loop_samples.du_dt, loop_samples.dU_dt,
                     loop_final.x, loop_final.v)):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= rel * np.abs(b).max()
    assert not any(np.shares_memory(arr, other) for arr in (final.x, final.v)
                   for other in (samples.x, samples.v, start.x, start.v))


def _assert_matches_reference(state, params, dt=0.05, n_steps=1200, every=7):
    """The verify loop equals the written-out reference bit for bit; simulate is within 1e-12."""
    times, samples, final = run = verify.verlet_steps(state, dt, n_steps, params,
                                                      record_every=every)
    s = state
    expected = [(s.t, s.u, s.U, s.du_dt, s.dU_dt)]
    for i in range(1, n_steps + 1):
        s = _reference_step(s, dt, params)
        if i % every == 0:
            expected.append((s.t, s.u, s.U, s.du_dt, s.dU_dt))
    for got, want in zip((times, samples.u, samples.U, samples.du_dt, samples.dU_dt),
                         zip(*expected)):
        assert np.array_equal(got, np.array(want))
    assert final.t == s.t and final.n_sites == s.n_sites
    assert np.array_equal(final.x, s.x) and np.array_equal(final.v, s.v)
    # the final state owns its arrays: no views into the kernel's buffers or the records
    assert final.x.flags.owndata and final.v.flags.owndata
    assert not np.shares_memory(final.x, final.v)
    assert not any(np.shares_memory(arr, rec) for arr in (final.x, final.v)
                   for rec in (samples.x, samples.v))
    _assert_close_to_loop(state, dt, n_steps, every,
                          chain.simulate(state, dt, n_steps, params, record_every=every), run)


def test_simulate_matches_reference_steps():
    _assert_matches_reference(_random_state(24, t=0.3), PARAMS)


@pytest.mark.parametrize("params, n_sites, t0", [
    (ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1), 24, 0.0),  # I != J: rows not swapped
    (ChainParams(m=1, M=4, K=1, I=0, J=0, a=1), 24, 2.5),        # no neighbour springs
    # 1 to 3 sites: a site's np.roll neighbours are sites of its own small ring
    (PARAMS, 1, 0.0),
    (PARAMS, 2, 0.7),
    (ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1), 3, -1.25),
])
def test_simulate_matches_reference_edge_cases(params, n_sites, t0):
    # _random_state starts with nonzero velocities
    _assert_matches_reference(_random_state(n_sites, seed=n_sites, t=t0), params)


def test_stacked_kernel_matches_lone_runs_and_reference():
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    states = [_random_state(24, seed=1, t=0.3), _random_state(24, seed=2, t=0.3)]
    dt, n_steps = 0.05, 300
    stack = _stack(*states, t=0.3)
    *_, out = verify.verlet_steps(stack, dt, n_steps, params, record_every=n_steps)
    for b, state in enumerate(states):
        *_, lone = verify.verlet_steps(state, dt, n_steps, params, record_every=n_steps)
        ref = state
        for _ in range(n_steps):
            ref = _reference_step(ref, dt, params)
        for s in (lone, ref):
            assert out.t == s.t
            assert np.array_equal(out.x[b], s.x) and np.array_equal(out.v[b], s.v)
    # the input is left unchanged
    again = _stack(*states, t=0.3)
    assert np.array_equal(stack.x, again.x) and np.array_equal(stack.v, again.v)


def test_stacked_kernel_split_run_equals_unsplit():
    states = [_random_state(16, seed=3), _random_state(16, seed=4)]
    dt, m, n_steps = 0.05, 137, 400
    *_, both = verify.verlet_steps(_stack(*states), dt, m, PARAMS, record_every=m)
    rest = chain.LatticeState(both.x[1], both.v[1], both.t)
    *_, split = verify.verlet_steps(rest, dt, n_steps - m, PARAMS, record_every=n_steps)
    *_, whole = verify.verlet_steps(states[1], dt, n_steps, PARAMS, record_every=n_steps)
    assert split.t == whole.t
    assert np.array_equal(split.x, whole.x) and np.array_equal(split.v, whole.v)


def test_kernel_with_two_leading_axes_matches_lone_runs_and_reference():
    # a (2, 3) grid of rings: each ring keeps its place in the stack
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    states = [_random_state(16, seed=10 + r, t=0.4) for r in range(6)]
    stack = chain.LatticeState(np.array([s.x for s in states]).reshape(2, 3, 2, 16),
                               np.array([s.v for s in states]).reshape(2, 3, 2, 16), 0.4)
    dt, n_steps, every = 0.05, 200, 40
    with np.errstate(all="raise"):
        times, samples, out = verify.verlet_steps(stack, dt, n_steps, params,
                                                  record_every=every)
        for r, state in enumerate(states):
            b = np.unravel_index(r, (2, 3))
            lone_times, lone_samples, lone = verify.verlet_steps(state, dt, n_steps, params,
                                                                 record_every=every)
            assert np.array_equal(times, lone_times)
            assert np.array_equal(samples.x[(slice(None),) + b], lone_samples.x)
            assert np.array_equal(samples.v[(slice(None),) + b], lone_samples.v)
            ref = state
            for _ in range(n_steps):
                ref = _reference_step(ref, dt, params)
            for s in (lone, ref):
                assert out.t == s.t
                assert np.array_equal(out.x[b], s.x) and np.array_equal(out.v[b], s.v)


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_kernel_padding_slots_raise_nothing_near_the_stability_bound(n_sites):
    # at dt omega_max = 1.99 the loop must stay finite and raise nothing, and
    # the ring must still equal the reference
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    state = _random_state(n_sites, seed=20 + n_sites)
    dt, n_steps = 1.99 / chain.max_frequency(params), 3000
    with np.errstate(all="raise"):
        _, samples, final = verify.verlet_steps(state, dt, n_steps, params,
                                                record_every=100)
        ref = state
        for _ in range(n_steps):
            ref = _reference_step(ref, dt, params)
    assert np.isfinite(samples.x).all() and np.isfinite(samples.v).all()
    assert np.array_equal(final.x, ref.x) and np.array_equal(final.v, ref.v)


@pytest.mark.parametrize("shape", [(2, 5), (2, 2, 5), (2, 3, 2, 5)])
def test_kernel_results_own_their_memory(shape):
    rng = np.random.default_rng(31)
    start = chain.LatticeState(1e-3 * rng.standard_normal(shape),
                               1e-3 * rng.standard_normal(shape))
    with np.errstate(all="raise"):
        _, samples, final = verify.verlet_steps(start, 0.05, 30, PARAMS, record_every=10)
    arrays = (samples.x, samples.v, final.x, final.v)
    assert all(arr.flags.owndata for arr in arrays)
    for i, arr in enumerate(arrays):
        for other in arrays[i + 1:] + (start.x, start.v):
            assert not np.shares_memory(arr, other)


@pytest.mark.parametrize("states, every", [
    ([_random_state(24, seed=1, t=0.3), _random_state(24, seed=2, t=0.3)], 7),
    ([_random_state(24, seed=1, t=0.3), _random_state(24, seed=2, t=0.3)], 300),
    ([_random_state(12, seed=5, t=1.0), _random_state(12, seed=6, t=1.0)], 4),
    ([_random_state(512, seed=7)], 25),
], ids=["stack-every-7", "stack-every-300", "stack-whole", "512-sites"])
def test_simulate_matches_verlet_steps(states, every):
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    stack = _stack(*states, t=states[0].t)
    dt, n_steps = 0.05, 2000
    got = chain.simulate(stack, dt, n_steps, params, record_every=every)
    _assert_close_to_loop(stack, dt, n_steps, every, got,
                          verify.verlet_steps(stack, dt, n_steps, params, record_every=every))


@pytest.mark.parametrize("margin", [1.9, 1.99, 1.999999, 2 - 1e-12])
def test_simulate_near_the_stability_bound_matches_verlet_steps(margin):
    # the zone-edge optical mode turns by theta near pi, where sin(theta) -> 0:
    # the flipped half of _verlet_power.  Over 12 steps the loop's own rounding
    # stays below 1e-12 of the amplitude; over thousands it would not.
    state = _random_state(16, seed=9)
    dt = margin / chain.max_frequency(PARAMS)
    _assert_close_to_loop(state, dt, 12, 1, chain.simulate(state, dt, 12, PARAMS),
                          verify.verlet_steps(state, dt, 12, PARAMS))


@pytest.mark.parametrize("n_sites", [2, 8, 16, 17])
def test_simulate_at_the_largest_stable_dt_stays_finite(n_sites):
    # the largest dt that simulate accepts; even rings hold the zone-edge mode,
    # whose theta is then within ~4e-8 of pi
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    omega_max = chain.max_frequency(params)
    dt = 2 / omega_max
    while dt * omega_max >= 2.0:
        dt = np.nextafter(dt, 0.0)
    state = _random_state(n_sites, seed=30 + n_sites)
    with np.errstate(all="raise"):
        _, samples, final = chain.simulate(state, dt, 3000, params, record_every=100)
    for arr in (samples.x, samples.v, final.x, final.v):
        assert np.isfinite(arr).all()


def test_verlet_steps_grows_past_the_stability_bound():
    # past dt omega_max = 2 the zone-edge optical mode's iterates grow by cosh(n phi)
    state = _random_state(16, seed=9)
    with pytest.warns(RuntimeWarning, match="stability bound"):
        *_, final = verify.verlet_steps(state, 2.5 / chain.max_frequency(PARAMS), 12, PARAMS)
    assert np.abs(final.x).max() > 1e3 * np.abs(state.x).max()


def test_simulate_translates_the_uniform_mode():
    # k = 0 on the acoustic branch (omega = 0, sin(theta) = 0): x_n = x_0 + n dt v_0
    x = np.full((2, 8), 0.3)
    v = np.full((2, 8), -1.7e-3)
    dt, n_steps = 0.01, 123_457
    times, samples, final = chain.simulate(chain.LatticeState(x, v), dt, n_steps, PARAMS,
                                           record_every=1000)
    steps = 1000 * np.arange(len(times))[:, None]
    for got, want in ((samples.u, 0.3 - 1.7e-3 * dt * steps),
                      (samples.U, 0.3 - 1.7e-3 * dt * steps), (final.x, x + n_steps * dt * v)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for got in (samples.du_dt, samples.dU_dt, final.v):
        assert np.abs(got + 1.7e-3).max() <= 1e-16


def _assert_within_amplitude(pairs, rel=1e-12):
    """Each (got, want) pair agrees within rel of the largest entry of want."""
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_verlet_frames_match_the_loop():
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    stack = _stack(_random_state(24, seed=41), _random_state(24, seed=42))
    dt, n_steps, every = 0.05, 2000, 8  # 250 intervals: seven whole blocks and a part
    times, samples, end = verify.verlet_steps(stack, dt, n_steps, params, record_every=every)
    trace, final = verify._verlet_frames(stack, dt, params, every, len(times))
    _assert_within_amplitude(((trace, samples.u[:, 0, 0]), (final.x, end.x), (final.v, end.v)))


@pytest.mark.parametrize("n_sites, params, dt", [
    (64, PARAMS, 0.01 / chain.max_frequency(PARAMS)),  # the rings of verify's chain checks
    (24, ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1), 0.05),
], ids=["64-sites", "24-sites"])
def test_one_step_map_is_its_site_0_impulses_shifted(n_sites, params, dt):
    # _verlet_frames steps the 4 impulses at site 0 and reads every other
    # column of the one-step map as their cyclic shift, bit for bit
    size = 4 * n_sites
    units = np.eye(size).reshape(size, 2, 2, n_sites)  # unit state (part, site) at part * n + site
    *_, full = verify.verlet_steps(chain.LatticeState(units[:, 0], units[:, 1]), dt, 1, params)
    impulses = units.reshape(4, n_sites, 2, 2, n_sites)[:, 0]
    *_, kernel = verify.verlet_steps(chain.LatticeState(impulses[:, 0], impulses[:, 1]),
                                     dt, 1, params)
    kernel = np.concatenate((kernel.x, kernel.v), 1)  # (part, stepped part, site)
    shifted = [[np.roll(k, site, axis=-1) for site in range(n_sites)] for k in kernel]
    assert np.array_equal(np.concatenate((full.x, full.v), 1).reshape(4, n_sites, 4, n_sites),
                          shifted)


def test_verlet_frames_steps_only_the_site_0_impulses(monkeypatch):
    stepped, step = [], verify.verlet_steps

    def counted(state, *args, **kwargs):
        stepped.append(state.x.shape)
        return step(state, *args, **kwargs)

    monkeypatch.setattr(verify, "verlet_steps", counted)
    stack = _stack(_random_state(64, seed=3), _random_state(64, seed=4))
    verify._verlet_frames(stack, 0.01, PARAMS, 8, 100)
    assert stepped == [(4, 2, 64)]


def test_chain_checks_equal_two_lone_runs():
    rep = VerificationReport()
    verify._chain_checks(rep)
    freq_check, verlet_check, drift_check, modified_check, map_check = rep.checks[-5:]

    # the two runs as separate ``verify.verlet_steps`` calls, 10^4 steps each
    n_sites, mode, n_steps = 64, 3, 10_000
    omega = chain.discrete_dispersion(2 * math.pi * mode / n_sites, PARAMS)[0][1]
    omega_max = chain.max_frequency(PARAMS)
    dt = 0.01 / omega_max
    optical = chain.init_mode(n_sites, mode, 1e-3, "optical", PARAMS)
    times, samples, optical_end = verify.verlet_steps(optical, dt, n_steps, PARAMS,
                                                      record_every=8)
    acoustic = chain.init_mode(n_sites, mode, 1e-3, "acoustic", PARAMS)
    *_, acoustic_end = verify.verlet_steps(acoustic, dt, n_steps, PARAMS,
                                           record_every=n_steps)
    # the checks read the stacked run's frames and final states, from matrix powers
    trace, final = verify._verlet_frames(_stack(optical, acoustic), dt, PARAMS, 8, len(times))
    _assert_within_amplitude(((trace, samples.u[:, 0]),
                              (final.x[0], optical_end.x), (final.v[0], optical_end.v),
                              (final.x[1], acoustic_end.x), (final.v[1], acoustic_end.v)))

    # each check's measured value, recomputed from them
    measured = chain.measure_mode_frequency(8 * dt * np.arange(len(trace)), trace)
    end = chain.LatticeState(final.x[1], final.v[1])
    e0 = chain.total_energy(acoustic, PARAMS)
    deviation = 0.0
    for b, state in enumerate((optical, acoustic)):
        *_, exact = chain.simulate(state, dt, n_steps, PARAMS, record_every=n_steps)
        deviation = max(deviation, np.abs(exact.x - final.x[b]).max(),
                        np.abs(exact.v - final.v[b]).max() / omega_max)

    assert (len(trace), len(rep.checks)) == (1251, 6)
    assert freq_check.measured == abs(measured - omega) / omega and freq_check.passed
    omega_verlet = chain.verlet_frequency(omega, dt)
    assert verlet_check.name == "measured frequency equals verlet_frequency"
    assert verlet_check.measured == abs(measured - omega_verlet) / omega_verlet
    assert verlet_check.passed
    assert drift_check.measured == abs(chain.total_energy(end, PARAMS) - e0) / e0
    h0, h1 = (chain.modified_energy(s, dt, PARAMS) for s in (acoustic, end))
    assert modified_check.measured == abs(h1 - h0) / h0 and modified_check.passed
    assert map_check.name == "loop equals the exact Verlet map"
    assert map_check.measured == deviation / 1e-3 and map_check.passed


@pytest.mark.parametrize("branch", ["optical", "acoustic"])
def test_simulate_matches_exact_verlet_rotation(branch):
    # A normal mode started at rest: velocity Verlet advances it by an exact
    # rotation at the modified frequency w~, sin(w~ dt / 2) = w dt / 2 (Hairer,
    # Lubich & Wanner, Geometric Numerical Integration, ch. I.5), so
    # x_j = x_0 cos(w~ j dt), for the closed form and for the stepping loop.
    # Settings of verify's chain run.
    n_sites, mode = 64, 3
    omegas = chain.discrete_dispersion(2 * math.pi * mode / n_sites, PARAMS)[0]
    omega = omegas[dispersion.KINDS.index(branch)]
    dt = 0.01 / chain.max_frequency(PARAMS)
    omega_verlet = chain.verlet_frequency(omega, dt)
    state = chain.init_mode(n_sites, mode, 1e-3, branch, PARAMS)
    for stepper in (chain.simulate, verify.verlet_steps):
        _, samples, _ = stepper(state, dt, 10_000, PARAMS, record_every=8)
        us, Us = samples.u, samples.U
        phase = np.cos(omega_verlet * dt * 8 * np.arange(len(us)))[:, None]
        err = max(np.abs(us - state.u * phase).max(), np.abs(Us - state.U * phase).max())
        assert err < 1e-10 * 1e-3


def test_verlet_frequency_is_the_one_step_angle():
    # the one-step map of x'' = -omega^2 x has trace 2 cos(theta) = 2 - (omega dt)^2
    dt = 0.1
    for margin in (1e-6, 0.3, 1.0, 1.9, 2.0):
        theta = dt * chain.verlet_frequency(margin / dt, dt)
        assert math.cos(theta) == pytest.approx(1 - margin**2 / 2, rel=1e-14, abs=1e-15)
    assert chain.verlet_frequency(2 / dt, dt) == pytest.approx(math.pi / dt, rel=1e-15)
    # past the bound: theta = pi + i phi, cos(theta) = -cosh(phi)
    theta = dt * chain.verlet_frequency(2.5 / dt + 0j, dt)
    assert theta.real == pytest.approx(math.pi, rel=1e-15)
    assert -math.cosh(theta.imag) == pytest.approx(1 - 2.5**2 / 2, rel=1e-14)


def test_modified_energy_is_conserved_by_the_loop():
    # Verlet conserves E - (dt^2 / 8) sum F^2 / mass exactly on the linear ring,
    # where the energy itself oscillates at O(dt^2)
    params = ChainParams(m=1, M=4, K=1.5, I=0.7, J=2.0, a=1)
    state = _random_state(32, seed=10)
    dt = 0.5 / chain.max_frequency(params)
    *_, end = verify.verlet_steps(state, dt, 3000, params, record_every=3000)
    h0, h1 = (chain.modified_energy(s, dt, params) for s in (state, end))
    e0, e1 = (chain.total_energy(s, params) for s in (state, end))
    assert abs(h1 - h0) / h0 < 1e-12
    assert abs(e1 - e0) / e0 > 1e-6
    # no force, no correction: a uniform translation's modified energy is its energy
    shift = chain.LatticeState(np.full((2, 8), 0.4), np.full((2, 8), 0.2))
    assert chain.modified_energy(shift, dt, params) == chain.total_energy(shift, params)
    # a stack's total
    assert chain.modified_energy(_stack(state, end), dt, params) == pytest.approx(
        h0 + h1, rel=1e-14)


def _run_chain_cli(tmp_path, argv):
    """The summary and the CSV columns (t, u, U, du_dt, dU_dt) as (frames, sites) arrays."""
    csv, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(["chain", *argv, "-o", str(csv), "--summary", str(summary)]) == 0
    s = json.loads(summary.read_text())
    rows = np.loadtxt(csv, delimiter=",", skiprows=3)
    n_sites = int(rows[:, 1].max()) + 1
    t, _, *cells = rows.reshape(-1, n_sites, 6).transpose(2, 0, 1)
    return s, t, cells


@pytest.mark.parametrize("argv, n_sites, mode", [([], 128, 2),
                                                 (["--n", "512", "--mode", "3"], 512, 3)])
def test_chain_cli_matches_verlet_steps(tmp_path, argv, n_sites, mode):
    s, t, cells = _run_chain_cli(tmp_path, argv)
    state = chain.init_mode(n_sites, mode, 1e-3, "optical", PARAMS)
    every = max(s["n_steps"] // 400, 1)
    _, loop, _ = verify.verlet_steps(state, s["dt"], s["n_steps"], PARAMS, record_every=every)
    steps = every * np.arange(len(t))
    assert np.array_equal(t, np.repeat(s["dt"] * steps[:, None], n_sites, axis=1))
    for got, want in zip(cells, (loop.u, loop.U, loop.du_dt, loop.dU_dt)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_chain_cli_long_acoustic_run_is_the_verlet_rotation(tmp_path):
    # 364,518 steps: the low acoustic mode that stepping took seconds to reach
    s, _, (us, Us, dus, dUs) = _run_chain_cli(
        tmp_path, ["--n", "128", "--mode", "1", "--branch", "acoustic"])
    assert s["n_steps"] == 364_518
    dt = s["dt"]
    theta = dt * chain.verlet_frequency(s["omega_dispersion"], dt)
    assert s["omega_verlet"] == theta / dt
    state = chain.init_mode(128, 1, 1e-3, "acoustic", PARAMS)
    n = (s["n_steps"] // 400) * np.arange(len(us))[:, None]
    # x_n = x_0 cos(n theta), v_n = -x_0 sin(n theta) sin(theta) / dt
    for got, x0 in ((us, state.u), (Us, state.U)):
        assert np.abs(got - x0 * np.cos(n * theta)).max() < 1e-10 * 1e-3
    speed = math.sin(theta) / dt
    for got, x0 in ((dus, state.u), (dUs, state.U)):
        assert np.abs(got + x0 * np.sin(n * theta) * speed).max() < 1e-10 * 1e-3 * speed


def test_simulate_record_every_not_dividing_n_steps():
    state = _random_state(8, t=1.0)
    dt = 0.1
    times, samples, final = chain.simulate(state, dt, 10, PARAMS, record_every=3)
    # samples at steps 0, 3, 6, 9; step 10 ends the run unrecorded
    assert times.tolist() == [1.0, 1.3, 1.6, 1.9]
    assert all(a.shape == (4, 8) for a in (samples.u, samples.U, samples.du_dt, samples.dU_dt))
    assert final.t == 2.0
    assert not np.array_equal(final.u, samples.u[-1])


@pytest.mark.parametrize("branch", dispersion.KINDS)
@pytest.mark.parametrize("mode", [1, 2, 3, 4])
def test_simulate_costs_its_samples_not_its_steps(mode, branch):
    # 10^12 steps, 101 frames: no per-step work, so the run takes milliseconds.
    # The phase n theta reaches ~1e9 rad, so the samples match x_0 cos(n theta)
    # only if each frame is evaluated at its exact step count, and each mode
    # turns by the very angle dt verlet_frequency gives (a 1-ulp error in
    # theta moves the phase by ~1e-7).
    state = chain.init_mode(8, mode, 1e-3, branch, PARAMS)
    dt = 0.01 / chain.max_frequency(PARAMS)
    n_steps, every = 10**12, 10**10
    times, samples, final = chain.simulate(state, dt, n_steps, PARAMS, record_every=every)
    steps = every * np.arange(101)
    assert len(times) == 101 and np.array_equal(times, dt * steps)
    assert final.t == dt * n_steps
    omega = chain.discrete_dispersion(2 * math.pi * mode / 8, PARAMS)[0]
    theta = dt * chain.verlet_frequency(omega[dispersion.KINDS.index(branch)], dt)
    assert np.abs(samples.u - state.u * np.cos(steps[:, None] * theta)).max() <= 1e-12 * 1e-3


def test_simulate_leaves_input_unchanged():
    state = _random_state(16, t=0.5)
    before = [a.copy() for a in (state.u, state.U, state.du_dt, state.dU_dt)]
    chain.simulate(state, 0.05, 50, PARAMS, record_every=5)
    assert state.t == 0.5
    for got, want in zip((state.u, state.U, state.du_dt, state.dU_dt), before):
        assert np.array_equal(got, want)


def test_simulate_rejects_bad_arguments():
    state = _random_state(8)
    for stepper in (chain.simulate, verify.verlet_steps):
        for dt, n_steps, every in ((0.05, 10, 0), (0.0, 10, 1), (0.05, -1, 1)):
            with pytest.raises(ValueError):
                stepper(state, dt, n_steps, PARAMS, record_every=every)


def test_measure_mode_frequency_single_mode():
    n, mode = 64, 3
    k = 2 * math.pi * mode / (n * PARAMS.a)
    omega = chain.discrete_dispersion(k, PARAMS)[0][1]
    state = chain.init_mode(n, mode, 1e-3, "optical", PARAMS)
    dt = 0.01 / chain.max_frequency(PARAMS)
    n_steps = int(8 * 2 * math.pi / omega / dt)
    times, samples, _ = chain.simulate(state, dt, n_steps, PARAMS, record_every=4)
    measured = chain.measure_mode_frequency(times, samples.u[:, 0])
    assert measured == pytest.approx(chain.verlet_frequency(omega, dt), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_measure_mode_frequency_recovers_a_partial_period_tone(seed):
    # one tone over a non-integer number of periods, at a random phase: the
    # linear-prediction estimate is exact, where zero-crossing spacings are not
    rng = np.random.default_rng(seed)
    theta, phase = rng.uniform(0.05, 0.5), rng.uniform(0, 2 * math.pi)
    n = int(rng.uniform(8.1, 12.9) * 2 * math.pi / theta)
    assert (n * theta / (2 * math.pi)) % 1 > 0.01
    dt = 0.37
    signal = np.cos(theta * np.arange(n) + phase)
    measured = chain.measure_mode_frequency(dt * np.arange(n), signal)
    assert measured * dt == pytest.approx(theta, rel=1e-12)


def test_measure_mode_frequency_rejects_an_estimate_with_no_angle():
    # the Nyquist tone (-1)^j with raised end samples: sin^2(theta / 2) > 1 has
    # no angle, so it raises, not a math domain error
    signal = (-1.0) ** np.arange(40)
    signal[[0, -1]] *= 1.01
    with pytest.raises(ValueError, match=r"no single tone: sin\^2\(theta / 2\) = 1\.0001"):
        chain.measure_mode_frequency(np.arange(40.0), signal)


def test_measure_mode_frequency_equilibrium_errors():
    times = np.linspace(0, 100, 500)
    with pytest.raises(ValueError):
        chain.measure_mode_frequency(times, np.zeros(500))


def test_measure_mode_frequency_rejects_a_subnormal_trajectory():
    times = 0.1 * np.arange(500)
    with pytest.raises(ValueError, match="underflows"):
        chain.measure_mode_frequency(times, 1e-310 * np.cos(times))


def test_measure_mode_frequency_signed_zeros_are_one_side():
    # +0 then -0 is no change of side.  The signal is no one tone, so it
    # raises that, and no floating-point error on the way.
    dt = 0.1
    signal = np.tile([1.0, 0.0, -0.0, -1.0, -0.0, 0.0], 20)  # mean exactly 0
    with np.errstate(all="raise"), pytest.raises(ValueError, match="no single tone"):
        chain.measure_mode_frequency(dt * np.arange(len(signal)), signal)


def test_measure_mode_frequency_superposition():
    # two superposed tones are no normal mode: no one-tone recurrence fits them
    times = np.linspace(0, 400, 8192)
    sig = 1.0 * np.cos(1.3 * times) + 0.3 * np.cos(2.1 * times)
    with pytest.raises(ValueError, match="no single tone"):
        chain.measure_mode_frequency(times, sig)


@pytest.mark.parametrize("margin", [1.5, 1.9])
def test_measure_mode_frequency_reads_a_tone_with_few_samples_a_period(margin, tmp_path):
    # near the stability bound the zone-edge optical mode turns by most of pi
    # a step, and a chain run records every step: 2-4 samples a period, whose
    # linear-interpolated zero crossings are uneven.  They are still one tone.
    n, mode = 4, 2
    omega = chain.discrete_dispersion(math.pi / PARAMS.a, PARAMS)[0][1]
    dt = margin / chain.max_frequency(PARAMS)
    omega_verlet = chain.verlet_frequency(omega, dt)
    state = chain.init_mode(n, mode, 1e-3, "optical", PARAMS)
    n_steps = int(8 * 2 * math.pi / omega / dt)
    times, samples, _ = chain.simulate(state, dt, n_steps, PARAMS)
    measured = chain.measure_mode_frequency(times, samples.u[:, 0])
    assert measured == pytest.approx(omega_verlet, rel=1e-12)
    s, t, _ = _run_chain_cli(tmp_path, ["--n", str(n), "--mode", str(mode), "--dt", repr(float(dt))])
    assert (s["n_steps"], len(t)) == (n_steps, n_steps + 1)
    assert s["omega_measured"] == pytest.approx(omega_verlet, rel=1e-12)


def test_convergence_exponent():
    slope = chain.convergence_exponent(PARAMS)
    assert slope == pytest.approx(2.0, abs=0.2)


def test_kgf_limit_heavy_host():
    # with no same-mass springs and M >> m the small mass oscillates at
    # nearly its bare frequency while the host stays almost still
    params = ChainParams(m=1.0, M=400.0, K=1.0, I=0.0, J=0.0, a=1.0)
    state = chain.init_mode(32, 2, 1e-3, "optical", params)
    dt = 0.01 / chain.max_frequency(params)
    n_steps = int(8 * 2 * math.pi / params.omega_O / dt)
    times, samples, _ = chain.simulate(state, dt, n_steps, params, record_every=4)
    measured = chain.measure_mode_frequency(times, samples.u[:, 0])
    eps = params.epsilon
    assert abs(measured - params.omega_O) / params.omega_O < eps**2 + 1e-4
    assert np.abs(samples.U).max() < 0.05 * np.abs(samples.u).max()
