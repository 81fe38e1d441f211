"""Discrete mass-in-mass chain on a periodic ring: exact dispersion (the 2x2
problem solved by ``dispersion.modal_pair``), velocity-Verlet time stepping
(``simulate``), energy, and mode-frequency measurement.

A ``LatticeState`` holds the displacements (u, U) and velocities of one ring
as (2, n) arrays, or of a stack of rings as (..., 2, n) arrays; ``simulate``
steps either kind in place on a preallocated (..., 2, n + 2) buffer, whose two
ghost columns give the Laplacian its periodic neighbours instead of
``np.roll``, bit-identically to the ``np.roll`` form."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dispersion import continuum_dispersion, modal_pair
from .params import ChainParams, ContinuumParams, characteristic_scales

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


@dataclass(frozen=True)
class ModePair:
    """Both dispersion roots at a wavenumber (or array of them), with eigenvectors (b, d)."""

    omega_acoustic: float
    omega_optical: float
    eigvec_acoustic: np.ndarray
    eigvec_optical: np.ndarray


def discrete_dispersion(k, params: ChainParams) -> ModePair:
    """Exact two-branch dispersion of the ring at wavenumber k (a float or an array).

    Eigenproblem omega^2 (b, d) = D(k) (b, d) with the 2x2 matrix obtained by
    substituting plane waves into the equations of motion, solved by
    ``dispersion.modal_pair``: roots ascending with unit eigenvectors.
    """
    s = characteristic_scales(params)
    sin2 = np.sin(0.5 * k * params.a) ** 2
    w_O2, w_A2 = s.omega_O**2, s.omega_A**2
    W, vecs = modal_pair(w_O2 + 4 * s.omega_m**2 * sin2, w_A2 + 4 * s.omega_M**2 * sin2,
                         w_O2, w_A2)
    return ModePair(*np.sqrt(W), *vecs)


def max_frequency(params: ChainParams) -> float:
    """Largest mode frequency on the ring (attained at the zone edge)."""
    return discrete_dispersion(math.pi / params.a, params).omega_optical


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
    if branch not in ("acoustic", "optical"):
        raise ValueError(f"unknown branch {branch!r}")
    k = 2 * math.pi * mode_index / (n_sites * params.a)
    mp = discrete_dispersion(k, params)
    vec = mp.eigvec_acoustic if branch == "acoustic" else mp.eigvec_optical
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


def simulate(state: LatticeState, dt: float, n_steps: int, params: ChainParams,
             record_every: int = 1, member=()):
    """Advance n_steps of velocity Verlet, recording a sample every record_every steps.

    The ring is periodic.  Returns (times, u, U, du_dt, dU_dt, final_state)
    where the arrays have one row per recorded sample (including the initial
    state); the input state is left unchanged and the final state owns its
    arrays.  A stacked state steps every ring with the same dt and params;
    only ``x[member]`` and ``v[member]`` are recorded, where member is a
    basic index (ints and slices) into the leading axes and the default ()
    records the whole state.  Each
    operation is elementwise and the accelerations depend on x alone, so
    every ring of a stack is bit-identical to its lone run, and a run split
    into two calls equals the unsplit one.

    (u, U) is the interior of one preallocated (..., 2, n_sites + 2) buffer
    whose two ghost columns hold the periodic neighbours, so the Laplacian is
    a difference of slices, and every update writes in place.  Each
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
    if dt * max_frequency(params) >= 2.0:
        warnings.warn("time step exceeds the velocity-Verlet stability bound "
                      "dt * omega_max < 2", RuntimeWarning, stacklevel=2)
    n, t = state.n_sites, state.t
    xp = np.empty(state.x.shape[:-1] + (n + 2,))  # columns 0 and n + 1 are ghosts
    x = xp[..., 1:-1]
    x[...] = state.x
    v = np.array(state.v)
    ghost_lo, ghost_hi, last, first = xp[..., 0], xp[..., -1], xp[..., n], xp[..., 1]
    left, right, swapped = xp[..., :-2], xp[..., 2:], x[..., ::-1, :]
    coupling = np.array([[params.I], [params.J]])
    mass = np.array([[params.m], [params.M]])
    a, a_new, tmp = np.empty((3,) + x.shape)
    half_dt, half_dt2 = 0.5 * dt, 0.5 * dt**2

    def accelerations(out):
        np.copyto(ghost_lo, last)
        np.copyto(ghost_hi, first)
        np.add(left, right, out=out)
        np.multiply(x, 2, out=tmp)
        np.subtract(out, tmp, out=out)          # Laplacian
        np.multiply(coupling, out, out=out)
        np.subtract(swapped, x, out=tmp)        # (U - u, u - U)
        np.multiply(params.K, tmp, out=tmp)
        np.add(tmp, out, out=out)
        np.divide(out, mass, out=out)

    times = np.empty(n_steps // record_every + 1)
    x_rec, v_rec = x[member], v[member]
    # a copy (advanced indexing) would record step 0 for ever; a row would be no state
    if x_rec.shape[-2:] != x.shape[-2:] or not np.may_share_memory(x_rec, x):
        raise ValueError("member must be a basic index into the leading axes")
    xs, vs = np.empty((2, len(times)) + x_rec.shape)
    times[0], xs[0], vs[0] = t, x_rec, v_rec
    accelerations(a)
    for i in range(1, n_steps + 1):
        np.multiply(dt, v, out=tmp)
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
            times[j], xs[j], vs[j] = t, x_rec, v_rec
    rec = LatticeState(xs, vs)  # the samples, as a stack of states
    return times, rec.u, rec.U, rec.du_dt, rec.dU_dt, LatticeState(x.copy(), v, t)


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


def convergence_exponent(params: ChainParams) -> float:
    """Fitted log-log slope of the acoustic-branch discrete-vs-continuum error.

    The error metric is |omega_disc^2 - omega_cont^2| / omega_cont^2 at
    k = ka / a for each ka in ``CONVERGENCE_KA``; second-order convergence to
    the continuum gives slope ~2.
    """
    ka = np.asarray(CONVERGENCE_KA)
    k = ka / params.a
    w2_disc = discrete_dispersion(k, params).omega_acoustic ** 2
    w2_cont = continuum_dispersion(k, ContinuumParams.from_chain(params))[0]
    errs = np.abs(w2_disc - w2_cont) / np.abs(w2_cont)
    return float(np.polyfit(np.log(ka), np.log(errs), 1)[0])
