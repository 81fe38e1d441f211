"""Discrete mass-in-mass chain on a periodic ring: exact dispersion,
velocity-Verlet time stepping (``simulate``, the one integrator), energy, and
mode-frequency measurement."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dispersion import continuum_dispersion
from .params import ChainParams, ContinuumParams, characteristic_scales


@dataclass
class LatticeState:
    """Displacements and velocities of both mass species on a ring of n sites."""

    n_sites: int
    u: np.ndarray       # small-mass displacements
    U: np.ndarray       # large-mass displacements
    du_dt: np.ndarray
    dU_dt: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for arr in (self.u, self.U, self.du_dt, self.dU_dt):
            if arr.shape != (self.n_sites,):
                raise ValueError("all state arrays must have length n_sites")


@dataclass(frozen=True)
class ModePair:
    """Both dispersion roots at one wavenumber, with eigenvectors (b, d)."""

    omega_acoustic: float
    omega_optical: float
    eigvec_acoustic: np.ndarray
    eigvec_optical: np.ndarray


def _dispersion_matrix(k: float, params: ChainParams) -> np.ndarray:
    s = characteristic_scales(params)
    sin2 = math.sin(0.5 * k * params.a) ** 2
    return np.array([
        [s.omega_O**2 + 4 * s.omega_m**2 * sin2, -s.omega_O**2],
        [-s.omega_A**2, s.omega_A**2 + 4 * s.omega_M**2 * sin2],
    ])


def discrete_dispersion(k: float, params: ChainParams) -> ModePair:
    """Exact two-branch dispersion of the ring at wavenumber k.

    Eigenproblem omega^2 (b, d) = D(k) (b, d) with the 2x2 matrix obtained by
    substituting plane waves into the equations of motion; roots returned
    ascending with unit eigenvectors.
    """
    D = _dispersion_matrix(k, params)
    tr = D[0, 0] + D[1, 1]
    det = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    half = 0.5 * tr
    disc = math.sqrt(max(half**2 - det, 0.0))
    lam = (max(half - disc, 0.0), half + disc)

    vecs = []
    for l in lam:
        # (D - l) v = 0; pick the row with the larger leading coefficient
        r0 = np.array([D[0, 0] - l, D[0, 1]])
        r1 = np.array([D[1, 0], D[1, 1] - l])
        row = r0 if np.abs(r0).max() >= np.abs(r1).max() else r1
        v = np.array([-row[1], row[0]])
        n = np.linalg.norm(v)
        if n == 0:  # D is a multiple of the identity (degenerate k = 0, I = J = 0 edge)
            v = np.array([1.0, 0.0])
            n = 1.0
        v = v / n
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        vecs.append(v)
    return ModePair(omega_acoustic=math.sqrt(lam[0]),
                    omega_optical=math.sqrt(lam[1]),
                    eigvec_acoustic=vecs[0], eigvec_optical=vecs[1])


def max_frequency(params: ChainParams) -> float:
    """Largest mode frequency on the ring (attained at the zone edge)."""
    return discrete_dispersion(math.pi / params.a, params).omega_optical


def init_mode(n_sites: int, mode_index: int, amplitude: float, branch: str,
              params: ChainParams) -> LatticeState:
    """Standing-wave initial condition for one normal mode of the ring.

    The (u, U) ratio follows the dispersion eigenvector at
    k = 2 pi mode_index / (n_sites a); velocities start at zero, so the state
    oscillates harmonically at the mode frequency.
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    if not 0 <= mode_index < n_sites:
        raise ValueError(f"mode_index must be in [0, {n_sites}), got {mode_index}")
    if branch not in ("acoustic", "optical"):
        raise ValueError(f"unknown branch {branch!r}")
    k = 2 * math.pi * mode_index / (n_sites * params.a)
    mp = discrete_dispersion(k, params)
    vec = mp.eigvec_acoustic if branch == "acoustic" else mp.eigvec_optical
    scale = amplitude / np.abs(vec).max()
    profile = np.cos(k * params.a * np.arange(n_sites))
    return LatticeState(
        n_sites=n_sites,
        u=scale * vec[0] * profile,
        U=scale * vec[1] * profile,
        du_dt=np.zeros(n_sites),
        dU_dt=np.zeros(n_sites),
    )


def _accelerations(u, U, params: ChainParams):
    lap_u = np.roll(u, 1) + np.roll(u, -1) - 2 * u
    lap_U = np.roll(U, 1) + np.roll(U, -1) - 2 * U
    a_u = (params.K * (U - u) + params.I * lap_u) / params.m
    a_U = (params.K * (u - U) + params.J * lap_U) / params.M
    return a_u, a_U


def total_energy(state: LatticeState, params: ChainParams) -> float:
    """Kinetic plus spring potential energy, with periodic indexing."""
    kin = 0.5 * params.m * np.sum(state.du_dt**2) + 0.5 * params.M * np.sum(state.dU_dt**2)
    pot = 0.5 * params.K * np.sum((state.U - state.u) ** 2)
    pot += 0.5 * params.I * np.sum((np.roll(state.u, -1) - state.u) ** 2)
    pot += 0.5 * params.J * np.sum((np.roll(state.U, -1) - state.U) ** 2)
    return float(kin + pot)


def simulate(state: LatticeState, dt: float, n_steps: int, params: ChainParams,
             record_every: int = 1):
    """Advance n_steps of velocity Verlet, recording a sample every record_every steps.

    The ring is periodic.  Returns (times, u, U, du_dt, dU_dt, final_state)
    where the arrays have one row per recorded sample (including the initial
    state); the input state is left unchanged.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or record_every < 1:
        raise ValueError("need n_steps >= 0 and record_every >= 1")
    if dt * max_frequency(params) >= 2.0:
        warnings.warn("time step exceeds the velocity-Verlet stability bound "
                      "dt * omega_max < 2", RuntimeWarning, stacklevel=2)
    u, U, du, dU, t = state.u, state.U, state.du_dt, state.dU_dt, state.t
    times = np.empty(n_steps // record_every + 1)
    rec = np.empty((4, len(times), state.n_sites))
    times[0], rec[:, 0] = t, (u, U, du, dU)
    a_u, a_U = _accelerations(u, U, params)
    for i in range(1, n_steps + 1):
        u = u + dt * du + 0.5 * dt**2 * a_u
        U = U + dt * dU + 0.5 * dt**2 * a_U
        a_u2, a_U2 = _accelerations(u, U, params)
        du = du + 0.5 * dt * (a_u + a_u2)
        dU = dU + 0.5 * dt * (a_U + a_U2)
        a_u, a_U = a_u2, a_U2
        t = t + dt
        if i % record_every == 0:
            j = i // record_every
            times[j], rec[:, j] = t, (u, U, du, dU)
    return (times, *rec, LatticeState(state.n_sites, u, U, du, dU, t))


def _spectral_peak(times: np.ndarray, signal: np.ndarray) -> float:
    dt = times[1] - times[0]
    sig = signal - signal.mean()
    spec = np.abs(np.fft.rfft(sig))
    freqs = 2 * math.pi * np.fft.rfftfreq(len(sig), d=dt)
    i = int(np.argmax(spec[1:])) + 1
    # parabolic interpolation around the peak bin
    if 1 <= i < len(spec) - 1 and spec[i - 1] > 0 and spec[i + 1] > 0:
        la, lb, lc = np.log(spec[i - 1]), np.log(spec[i]), np.log(spec[i + 1])
        denom = la - 2 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        return float(freqs[i] + shift * (freqs[1] - freqs[0]))
    return float(freqs[i])


def measure_mode_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Dominant angular frequency of a sampled site displacement.

    Uses averaged zero-crossing spacing for a monochromatic signal; falls back
    to the interpolated spectral peak when the crossing spacings are uneven
    (e.g. superposed modes).  Raises if the trajectory shows no oscillation or
    spans fewer than ~3 periods.
    """
    sig = np.asarray(signal, dtype=float)
    sig = sig - sig.mean()
    amp = np.abs(sig).max()
    if amp == 0 or not np.isfinite(amp):
        raise ValueError("trajectory shows no oscillation")
    idx = np.nonzero(np.diff(np.signbit(sig)))[0]
    if len(idx) < 6:
        raise ValueError("trajectory too short: need at least 3 oscillation periods")
    # linear-interpolated crossing times
    t_cross = times[idx] + (times[idx + 1] - times[idx]) * (
        -sig[idx] / (sig[idx + 1] - sig[idx]))
    gaps = np.diff(t_cross)
    mean_gap = gaps.mean()
    if gaps.std() > 0.01 * mean_gap:
        return _spectral_peak(times, sig)
    return math.pi / mean_gap


def convergence_exponent(params: ChainParams, ka_values) -> float:
    """Fitted log-log slope of the acoustic-branch discrete-vs-continuum error.

    The error metric is |omega_disc^2 - omega_cont^2| / omega_cont^2 at
    k = ka / a; second-order convergence to the continuum gives slope ~2.
    """
    cp = ContinuumParams.from_chain(params)
    errs = []
    for ka in ka_values:
        k = ka / params.a
        w2_disc = discrete_dispersion(k, params).omega_acoustic ** 2
        w2_cont = continuum_dispersion(k, cp)[0]
        errs.append(abs(w2_disc - w2_cont) / abs(w2_cont))
    slope = np.polyfit(np.log(np.asarray(ka_values)), np.log(np.asarray(errs)), 1)[0]
    return float(slope)
