"""Discrete mass-in-mass chain on a periodic ring: exact dispersion (the 2x2
problem solved by ``dispersion.modal_pair``), velocity Verlet in closed form
(``simulate``, ``verlet_frequency``, ``modified_energy``), energy, and
mode-frequency measurement.

Both branches travel together, on a leading axis in ``dispersion.KINDS``
order (acoustic first), as ``modal_pair`` returns them.  A ``LatticeState``
holds the displacements (u, U) and velocities of one ring as (2, n) arrays,
or of a stack of rings as (..., 2, n) arrays; ``simulate`` returns its
samples as one such stack, with time leading.  The ring is linear and
periodic, so ``simulate`` steps neither kind: it evaluates the n-step Verlet
map of each Fourier mode at the recorded steps, at a cost set by the number
of samples alone.  The step-by-step loop is ``verify.verlet_steps``, the
independent check of that map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import KINDS, continuum_dispersion, modal_pair
from .params import ChainParams, ContinuumParams

CONVERGENCE_KA = (0.2, 0.1, 0.05, 0.025)  # the k a of ``convergence_exponent``'s fit


@dataclass
class LatticeState:
    """Displacements x and velocities v of both mass species on a ring of n sites.

    x and v have shape (..., 2, n): rows (u, U) and (du_dt, dU_dt) on the
    second-to-last axis, and any leading axes stack independent rings.
    ``u``, ``U``, ``du_dt`` and ``dU_dt`` are views of those rows.
    """

    x: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.x.shape != self.v.shape or self.x.shape[-2:-1] != (2,):
            raise ValueError("x and v must have the same shape (..., 2, n_sites)")

    n_sites = property(lambda self: self.x.shape[-1])
    u = property(lambda self: self.x[..., 0, :])      # small-mass displacements
    U = property(lambda self: self.x[..., 1, :])      # large-mass displacements
    du_dt = property(lambda self: self.v[..., 0, :])
    dU_dt = property(lambda self: self.v[..., 1, :])


def discrete_dispersion(k, params: ChainParams):
    """Exact dispersion (omega, vecs) of both branches at wavenumber k (a float or an array).

    Eigenproblem omega^2 (b, d) = D(k) (b, d) with the 2x2 matrix obtained by
    substituting plane waves into the equations of motion, solved by
    ``dispersion.modal_pair``: omega has shape (2, ...) and the unit
    eigenvectors (b, d) shape (2, ..., 2), both indexed by branch in
    ``dispersion.KINDS`` order, acoustic first.
    """
    sin2 = np.sin(0.5 * k * params.a) ** 2
    W, vecs = modal_pair(4 * params.omega_m**2 * sin2, 4 * params.omega_M**2 * sin2,
                         params.omega_O**2, params.omega_A**2)
    return np.sqrt(W), vecs


def max_frequency(params: ChainParams) -> float:
    """Largest mode frequency on the ring (attained at the zone edge)."""
    return discrete_dispersion(math.pi / params.a, params)[0][1]


def init_mode(n_sites: int, mode_index: int, amplitude: float, branch: str,
              params: ChainParams) -> LatticeState:
    """Standing-wave initial condition for one normal mode of the ring.

    The (u, U) ratio follows the dispersion eigenvector at
    k = 2 pi mode_index / (n_sites a); velocities start at zero, so the state
    oscillates harmonically at the mode frequency.  Returns one (2, n_sites) ring.
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    if not 0 <= mode_index < n_sites:
        raise ValueError(f"mode_index must be in [0, {n_sites}), got {mode_index}")
    if branch not in KINDS:
        raise ValueError(f"unknown branch {branch!r}")
    k = 2 * math.pi * mode_index / (n_sites * params.a)
    vec = discrete_dispersion(k, params)[1][KINDS.index(branch)]
    scale = amplitude / np.abs(vec).max()
    profile = np.cos(k * params.a * np.arange(n_sites))
    x = scale * vec[:, None] * profile
    return LatticeState(x, np.zeros_like(x))


def total_energy(state: LatticeState, params: ChainParams) -> float:
    """Kinetic plus spring potential energy, with periodic indexing; a stack's total."""
    kin = 0.5 * params.m * np.sum(state.du_dt**2) + 0.5 * params.M * np.sum(state.dU_dt**2)
    pot = 0.5 * params.K * np.sum((state.U - state.u) ** 2)
    pot += 0.5 * params.I * np.sum((np.roll(state.u, -1, axis=-1) - state.u) ** 2)
    pot += 0.5 * params.J * np.sum((np.roll(state.U, -1, axis=-1) - state.U) ** 2)
    return float(kin + pot)


def verlet_frequency(omega, dt):
    """Modified frequency w~ of velocity Verlet: sin(w~ dt / 2) = omega dt / 2.

    Verlet turns a harmonic mode of frequency omega by the angle w~ dt per step
    (Hairer, Lubich & Wanner, *Geometric Numerical Integration*, ch. I.5).  It
    is real for omega dt <= 2; a complex omega continues it past that bound,
    to pi + i phi, where the iterates grow by cosh and sinh of n phi.
    """
    return 2 / dt * np.arcsin(omega * dt / 2)


def modified_energy(state: LatticeState, dt: float, params: ChainParams) -> float:
    """E - (dt^2 / 8) sum F^2 / mass, which velocity Verlet conserves exactly on the ring.

    F is the spring force on each mass (Hairer, Lubich & Wanner, ch. IX); a
    stack's total, as for ``total_energy``.
    """
    x = state.x
    lap = np.roll(x, 1, axis=-1) + np.roll(x, -1, axis=-1) - 2 * x
    force = params.K * (x[..., ::-1, :] - x) + np.array([[params.I], [params.J]]) * lap
    mass = np.array([[params.m], [params.M]])
    return total_energy(state, params) - dt**2 / 8 * float(np.sum(force**2 / mass))


_CHUNK = 16  # samples evaluated at once: bounds the closed form's scratch memory


def _verlet_power(theta, dt: float, steps):
    """cos(n theta), dt S_n and sin(n theta) sin(theta) / dt, S_n = sin(n theta) / sin(theta).

    For each n in steps, shaped (len(steps),) + theta.shape: the entries of
    n velocity-Verlet steps of one mode turning by theta per step,
    M^n = cos(n theta) I + S_n (M - cos(theta) I) on (x, v), whose
    off-diagonal entries are dt and -sin(theta)^2 / dt.  sin(theta) vanishes at
    theta = 0 (omega = 0) and at theta = pi (omega dt = 2).  Each is the centre
    of one half of [0, pi]: about it, at the angle beta = theta or pi - theta,
    S_n = +-n sinc(n beta) / sinc(beta), whose denominator has no zero on that
    half and takes the limit n at beta = 0.
    """
    n = np.asarray(steps, dtype=float).reshape((-1,) + (1,) * np.ndim(theta))
    flip = theta > math.pi / 2
    beta = np.where(flip, math.pi - theta, theta)
    sign = np.where(flip, -1.0, 1.0)  # (-1)^n cos(n beta) = cos(n theta) on the flipped half
    sign_n = sign**n
    cos_n = sign_n * np.cos(n * beta)
    s_n = sign_n * sign * n * np.sinc(n * beta / math.pi) / np.sinc(beta / math.pi)
    r_n = sign_n * sign * np.sin(n * beta) * np.sin(beta)
    return cos_n, dt * s_n, r_n / dt


def simulate(state: LatticeState, dt: float, n_steps: int, params: ChainParams,
             record_every: int = 1):
    """The states after n_steps of velocity Verlet, sampled every record_every steps.

    The ring is periodic.  Returns (times, samples, final_state), where
    samples is a ``LatticeState`` of shape (len(times),) + state.x.shape, one
    recorded state per time (the initial state first).  A stacked state runs
    every ring with the same dt and params.  The input state is left
    unchanged and the final state shares no memory with it or with the
    samples.

    Nothing is stepped.  Verlet turns each Fourier mode of each branch of
    ``discrete_dispersion`` by theta = dt ``verlet_frequency`` per step, so a
    sample is the n-step map applied to the start state: an ``rfft`` over
    the sites, the branch eigenvectors' closed-form 2x2 inverse,
    x_n = cos(n theta) x_0 + dt S_n v_0 and
    v_n = cos(n theta) v_0 - (sin(n theta) sin(theta) / dt) x_0 per mode
    (``_verlet_power``), the eigenvectors and an ``irfft`` back, ``_CHUNK``
    samples at a time, so the cost follows the samples and not the steps.
    Step n is at time state.t + n dt.  The states agree with stepping
    (``verify.verlet_steps``) to rounding error; its clock, summed one dt at
    a time, drifts from n dt by rounding.  Raises ``ValueError`` unless
    dt ``max_frequency`` < 2, the stability bound, so every angle is real.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or record_every < 1:
        raise ValueError("need n_steps >= 0 and record_every >= 1")
    if dt * max_frequency(params) >= 2.0:
        raise ValueError("time step violates the stability bound dt * omega_max < 2")
    n = state.n_sites
    omega, vecs = discrete_dispersion(2 * math.pi * np.fft.rfftfreq(n, params.a), params)
    theta = dt * verlet_frequency(omega, dt)
    vec = vecs.transpose(2, 0, 1).copy()  # [species, branch, k], contiguous
    (a0, o0), (a1, o1) = vec
    inv = np.array([[o1, -o0], [-a1, a0]]) / (a0 * o1 - o0 * a1)     # [branch, species, k]

    def modal(y):  # [..., species, site] -> [..., branch, k]
        return (inv * np.fft.rfft(y)[..., None, :, :]).sum(axis=-2)

    def advance(q, p, steps):  # the states after each of steps, on a new first axis
        lead = (1,) * (q.ndim - 2)
        c, s, r = (f.reshape(f.shape[:1] + lead + f.shape[1:])
                   for f in _verlet_power(theta, dt, steps))
        return [np.fft.irfft((vec * y[..., None, :, :]).sum(axis=-2), n)
                for y in (c * q + s * p, c * p - r * q)]

    steps = record_every * np.arange(n_steps // record_every + 1)
    xs, vs = np.empty((2, len(steps)) + state.x.shape)
    xs[0], vs[0] = state.x, state.v
    q, p = modal(state.x), modal(state.v)
    for j in range(1, len(steps), _CHUNK):
        xs[j:j + _CHUNK], vs[j:j + _CHUNK] = advance(q, p, steps[j:j + _CHUNK])
    x, v = (y[0] for y in advance(q, p, [n_steps]))
    return (state.t + dt * steps, LatticeState(xs, vs),
            LatticeState(x, v, state.t + dt * n_steps))


def measure_mode_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Angular frequency of a uniformly sampled site displacement: one tone about 0.

    A tone (a normal mode) obeys x_{j+1} + x_{j-1} = 2 cos(theta) x_j,
    solved by least squares as
    sin^2(theta / 2) = sum x_j (2 x_j - x_{j+1} - x_{j-1}) / (4 sum x_j^2):
    exact at any phase and length, however few samples a period has (Prony;
    Kay, *Modern Spectral Estimation*, 1988).  Raises if the trajectory shows
    no oscillation, is subnormal (too few significant bits to time), changes
    side of 0 fewer than 6 times (~3 periods), or is no single tone: the fit
    has no angle, or leaves more than 1e-6 of the second differences
    unexplained (rounding leaves ~1e-12 on a chain run; a second tone leaves
    about its relative amplitude).  +0 and -0 are one side of 0.
    """
    sig = np.asarray(signal, dtype=float)
    amp = np.abs(sig - sig.mean()).max()
    if amp == 0 or not np.isfinite(amp):
        raise ValueError("trajectory shows no oscillation")
    if amp < np.finfo(float).tiny:
        raise ValueError("trajectory underflows: its displacements are subnormal")
    if np.count_nonzero(np.diff(sig < 0)) < 6:
        raise ValueError("trajectory too short: need at least 3 oscillation periods")
    mid = sig[1:-1]
    curve = 2 * mid - sig[2:] - sig[:-2]
    half_sin2 = np.dot(mid, curve) / (4 * np.dot(mid, mid))
    if not 0 <= half_sin2 <= 1:
        raise ValueError(f"signal is no single tone: sin^2(theta / 2) = {float(half_sin2)!r}")
    misfit = np.linalg.norm(curve - 4 * half_sin2 * mid) / np.linalg.norm(curve)
    if misfit > 1e-6:
        raise ValueError(f"signal is no single tone: the one-tone fit leaves "
                         f"{misfit:.3g} of its second differences")
    return 2 * math.asin(math.sqrt(half_sin2)) / ((times[-1] - times[0]) / (len(times) - 1))


def convergence_exponent(params: ChainParams) -> float:
    """Fitted log-log slope of the acoustic-branch discrete-vs-continuum error.

    The error metric is |omega_disc^2 - omega_cont^2| / omega_cont^2 at
    k = ka / a for each ka in ``CONVERGENCE_KA``; second-order convergence to
    the continuum gives slope ~2.
    """
    ka = np.asarray(CONVERGENCE_KA)
    k = ka / params.a
    w2_disc = discrete_dispersion(k, params)[0][0] ** 2
    w2_cont = continuum_dispersion(k, ContinuumParams.from_chain(params))[0]
    errs = np.abs(w2_disc - w2_cont) / np.abs(w2_cont)
    return float(np.polyfit(np.log(ka), np.log(errs), 1)[0])
