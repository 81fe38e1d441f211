"""1-D time evolution of the first-order coupled system and of the coupled
second-order (Klein-Gordon-type) system on a periodic grid.

The systems are linear with constant coefficients, so evolution is done per
Fourier mode.  The eigensystem of the 4x4 momentum-space sector matrix H(k)
is known in closed form (``dispersion.modes``): the four branch energies, the
unit right eigenvectors R and the dual left rows Lt with Lt R = I.  H is
pseudo-Hermitian, eta H = H^T eta with eta = diag(eps^2, eps^2, 1, 1), so each
left row is eta times its right vector up to scale.  The default propagator
projects the Fourier coefficients with Lt, advances each branch by its phase
exp(-i E t / hbar) and reconstructs with R.  No numerical eigen-solve is
involved, and at k = 0, where the acoustic energies coincide, the two
acoustic vectors stay independent by construction.  An RK4 method-of-lines
stepper on the assembled sector matrices is provided as an independent
cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dispersion import BRANCHES, Branch, modes
from .matrices import spin_sector_hamiltonian
from .params import ContinuumParams, QuantumParams


@dataclass
class FieldState:
    """Four complex component arrays of one spin sector on a periodic grid.

    Component order (Psi_1, Psi_3, Phi_1, Phi_3); the opposite spin sector is
    the same system under the index relabeling.
    """

    n_grid: int
    L: float
    fields: np.ndarray  # shape (4, n_grid), complex
    t: float = 0.0

    def __post_init__(self):
        if self.fields.shape != (4, self.n_grid):
            raise ValueError("fields must have shape (4, n_grid)")

    @property
    def dz(self) -> float:
        return self.L / self.n_grid

    @property
    def z(self) -> np.ndarray:
        return self.dz * np.arange(self.n_grid)


@dataclass
class KgfFieldState:
    """State of the coupled second-order system: both fields and their time derivatives."""

    n_grid: int
    L: float
    psi: np.ndarray
    phi: np.ndarray
    dpsi_dt: np.ndarray
    dphi_dt: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("psi", "phi", "dpsi_dt", "dphi_dt"):
            if getattr(self, name).shape != (self.n_grid,):
                raise ValueError(f"{name} must have shape (n_grid,)")

    @property
    def dz(self) -> float:
        return self.L / self.n_grid

    @property
    def z(self) -> np.ndarray:
        return self.dz * np.arange(self.n_grid)


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian wave packet riding on a single dispersion branch."""

    k0: float
    sigma: float
    branch: Branch
    spin: str = "up"
    center: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.spin not in ("up", "down"):
            raise ValueError("spin must be 'up' or 'down'")


def _wavenumbers(n_grid: int, L: float) -> np.ndarray:
    return 2 * math.pi * np.fft.fftfreq(n_grid, d=L / n_grid)


def init_packet(spec: PacketSpec, n_grid: int, L: float,
                params: QuantumParams) -> FieldState:
    """Single-branch Gaussian packet built mode-by-mode in Fourier space."""
    if n_grid & (n_grid - 1):
        raise ValueError("n_grid must be a power of two")
    dz = L / n_grid
    if spec.sigma < 4 * dz:
        raise ValueError("packet width under-resolved: sigma must be >= 4 grid spacings")
    ks = _wavenumbers(n_grid, L)
    with np.errstate(over="ignore"):  # far from k0 the square overflows; exp(-inf) = 0 is intended
        weights = np.exp(-0.5 * (ks - spec.k0) ** 2 * spec.sigma**2)
    weights = weights * np.exp(-1j * ks * spec.center)
    _, R, _ = modes(ks, params)
    coeffs = weights * R[:, :, BRANCHES.index(spec.branch)].T
    fields = np.fft.ifft(coeffs, axis=1) * n_grid
    peak = np.abs(fields).max()
    if peak == 0:
        raise ValueError("packet has no weight on the grid: k0 lies far outside its band")
    fields /= peak
    return FieldState(n_grid=n_grid, L=L, fields=fields)


def _sector_matrices(ks: np.ndarray, params: QuantumParams) -> np.ndarray:
    """Sector matrix per wavenumber; H is affine in the momentum p = hbar k."""
    H0 = spin_sector_hamiltonian(0.0, params)
    dH = spin_sector_hamiltonian(1.0, params) - H0
    return H0 + (params.hbar * ks)[:, None, None] * dH


def _project(state: FieldState, Lt: np.ndarray) -> np.ndarray:
    """Branch coefficients (n, 4) of the state's Fourier coefficients."""
    return np.einsum("kji,ik->kj", Lt, np.fft.fft(state.fields, axis=1))


def _modal_propagator(state: FieldState, params: QuantumParams):
    """Project the state onto the branch modes once; return t -> state at state.t + t.

    Each call is then a phase multiply, a reconstruction with R and one
    inverse FFT.
    """
    E, R, Lt = modes(_wavenumbers(state.n_grid, state.L), params)
    x = _project(state, Lt)

    def at(t: float) -> FieldState:
        coeffs = np.einsum("kij,kj->ik", R, x * np.exp((-1j * t / params.hbar) * E))
        return FieldState(state.n_grid, state.L, np.fft.ifft(coeffs, axis=1),
                          state.t + t)

    return at


def evolve(state: FieldState, dt: float, n_steps: int, params: QuantumParams,
           method: str = "spectral") -> FieldState:
    """Advance the sector field by n_steps of size dt.

    'spectral' applies the exact modal propagator for the total interval in
    one shot (dt * n_steps); 'rk4' takes n_steps classical RK4 steps of the
    method-of-lines system with spectral spatial derivatives, subject to
    dt < dz / (4 c).
    """
    if method == "spectral":
        return _modal_propagator(state, params)(dt * n_steps)
    if method != "rk4":
        raise ValueError(f"unknown method {method!r}")
    if dt >= state.dz / (4 * params.c):
        raise ValueError("rk4 step too large: require dt < dz / (4 c)")
    M = -1j * _sector_matrices(_wavenumbers(state.n_grid, state.L), params) / params.hbar

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
    return FieldState(state.n_grid, state.L, fields, state.t + dt * n_steps)


def evolve_samples(state: FieldState, dt: float, n_samples: int,
                   params: QuantumParams,
                   method: str = "spectral") -> Iterator[FieldState]:
    """Yield the states at state.t + i * dt for i = 1 .. n_samples.

    'spectral' projects onto the branch modes once and evaluates the exact
    propagator at each sample time; 'rk4' runs ``evolve`` from each sample to
    the next in the fewest equal steps that keep below dz / (4 c).
    """
    if method == "spectral":
        at = _modal_propagator(state, params)
        for i in range(1, n_samples + 1):
            yield at(i * dt)
        return
    n_sub = math.floor(4 * params.c * abs(dt) / state.dz) + 1
    for _ in range(n_samples):
        state = evolve(state, dt / n_sub, n_sub, params, method=method)
        yield state


def packet_centroid(state: FieldState) -> float:
    """Intensity-weighted circular mean position over the periodic domain."""
    intensity = np.sum(np.abs(state.fields) ** 2, axis=0)
    total = intensity.sum()
    if total == 0:
        raise ValueError("zero field has no centroid")
    theta = 2 * math.pi * state.z / state.L
    mean = np.sum(intensity * np.exp(1j * theta)) / total
    return float(np.angle(mean) % (2 * math.pi)) * state.L / (2 * math.pi)


def packet_width(state: FieldState) -> float:
    """Wrap-aware RMS width about the centroid."""
    intensity = np.sum(np.abs(state.fields) ** 2, axis=0)
    total = intensity.sum()
    if total == 0:
        raise ValueError("zero field has no width")
    c = packet_centroid(state)
    d = np.mod(state.z - c + state.L / 2, state.L) - state.L / 2
    return float(math.sqrt(np.sum(intensity * d**2) / total))


def centroid_velocity(times, positions, L: float) -> tuple[float, float]:
    """Least-squares slope of a centroid track on a ring of length L.

    Returns (slope, |net displacement|).  Consecutive positions are unwrapped
    to the nearest periodic image, so samples must move less than L/2 apart.
    """
    pos = np.asarray(positions, dtype=float)
    d = np.mod(np.diff(pos) + L / 2, L) - L / 2
    unwrapped = pos[0] + np.concatenate([[0.0], np.cumsum(d)])
    slope = np.polyfit(np.asarray(times, dtype=float), unwrapped, 1)[0]
    return float(slope), float(abs(unwrapped[-1] - unwrapped[0]))


def conserved_quadratic(state: FieldState, params: QuantumParams) -> float:
    """Metric norm sum_k |Lt(k) c(k)|^2 of the Fourier coefficients c(k).

    Lt c are the coefficients on the four branch modes, which only change
    phase under exact evolution, so the sum is constant.  Equivalently it is
    sum_k c^H G c with the positive metric G = Lt^H Lt, for which G H = H^H G
    (H is pseudo-Hermitian).  The closed-form modes keep the degenerate
    acoustic pair at k = 0 independent, so the value does not depend on a
    choice of basis there.  This is not the plain L2 norm, which is conserved
    only when the sector matrix is Hermitian (eps = 1).
    """
    _, _, Lt = modes(_wavenumbers(state.n_grid, state.L), params)
    return float(np.sum(np.abs(_project(state, Lt)) ** 2))


def measure_group_velocity(spec: PacketSpec, params: QuantumParams,
                           n_grid: int = 1024, L: float = 200.0,
                           t_total: float = 40.0, n_samples: int = 20,
                           method: str = "spectral",
                           min_displacement: float | None = None) -> float:
    """Least-squares slope of the packet centroid versus time.

    The total displacement must stay below L/4 (wrap ambiguity) and, unless
    min_displacement is overridden, above 10 grid spacings.
    """
    state = init_packet(spec, n_grid, L, params)
    if min_displacement is None:
        min_displacement = 10 * state.dz
    times = [state.t]
    positions = [packet_centroid(state)]
    for s in evolve_samples(state, t_total / n_samples, n_samples, params, method):
        times.append(s.t)
        positions.append(packet_centroid(s))
    slope, displacement = centroid_velocity(times, positions, L)
    if displacement > L / 4:
        raise ValueError("packet displacement exceeds L/4; shorten the run")
    if displacement < min_displacement:
        raise ValueError("packet displacement below the measurement floor; lengthen the run")
    return slope


def init_kgf_from_fields(psi, phi, dpsi_dt, dphi_dt, L: float) -> KgfFieldState:
    psi = np.asarray(psi, dtype=complex)
    return KgfFieldState(n_grid=len(psi), L=L, psi=psi,
                         phi=np.asarray(phi, dtype=complex),
                         dpsi_dt=np.asarray(dpsi_dt, dtype=complex),
                         dphi_dt=np.asarray(dphi_dt, dtype=complex))


def evolve_kgf(state: KgfFieldState, T: float, params: ContinuumParams) -> KgfFieldState:
    """Exact per-mode evolution of the coupled second-order system.

    Each Fourier mode follows the first-order reduction
    d/dt (psi, phi, psi', phi') = M(k) (...) with
    M = [[0, 0, 1, 0], [0, 0, 0, 1],
         [-(s_m^2 k^2 + w_O^2), w_O^2, 0, 0],
         [w_A^2, -(s_M^2 k^2 + w_A^2), 0, 0]].
    """
    ks = _wavenumbers(state.n_grid, state.L)
    coeffs = np.stack([np.fft.fft(state.psi), np.fft.fft(state.phi),
                       np.fft.fft(state.dpsi_dt), np.fft.fft(state.dphi_dt)]).T
    Ms = np.zeros((state.n_grid, 4, 4))
    Ms[:, 0, 2] = 1.0
    Ms[:, 1, 3] = 1.0
    Ms[:, 2, 0] = -(params.s_m**2 * ks**2 + params.omega_O**2)
    Ms[:, 2, 1] = params.omega_O**2
    Ms[:, 3, 0] = params.omega_A**2
    Ms[:, 3, 1] = -(params.s_M**2 * ks**2 + params.omega_A**2)
    Ps = scipy.linalg.expm(Ms * T)
    coeffs = np.einsum("kij,kj->ki", Ps, coeffs.astype(complex))
    return KgfFieldState(
        n_grid=state.n_grid, L=state.L,
        psi=np.fft.ifft(coeffs[:, 0]), phi=np.fft.ifft(coeffs[:, 1]),
        dpsi_dt=np.fft.ifft(coeffs[:, 2]), dphi_dt=np.fft.ifft(coeffs[:, 3]),
        t=state.t + T)
