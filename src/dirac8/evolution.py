"""1-D time evolution of the first-order coupled system and of the coupled
second-order (Klein-Gordon-type) system on a periodic grid.

The systems are linear with constant coefficients, so evolution is done per
Fourier mode.  The eigensystem of the 4x4 momentum-space sector matrix H(k)
is known in closed form (``dispersion.modes``): the four branch energies, the
unit right eigenvectors R and the dual left rows Lt with Lt R = I.  H is
pseudo-Hermitian, eta H = H^T eta with eta = diag(eps^2, eps^2, 1, 1), so each
left row is eta times its right vector up to scale.  The first-order system
has one propagator: it projects the Fourier coefficients with Lt, advances
each branch by its phase exp(-i E t / hbar) and reconstructs with R.  The
branches come in pairs of opposite energy, so each minus branch's phase is
the conjugate of its plus branch's, and only half the exponentials are taken.
No numerical eigen-solve is involved, and at k = 0, where the acoustic
energies coincide, the two acoustic vectors stay independent by construction.
The tests cross-check it with an RK4 method-of-lines stepper on the assembled
sector matrices.  A packet built on one branch stays on it, so ``packet_track``
advances its spectrum by that branch's phase alone and reads each position,
the intensity-weighted circular mean, from the spectrum; it inverse-transforms
only the states it keeps.  The second-order system x'' = -D x
evolves per mode by its closed-form propagator in cos and sinc of the roots
of D.  Both systems have four rows per grid point and share one state type,
``FieldState(fields, L, t)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dispersion import BRANCHES, Branch, branch_energy, modal_pair, modes
from .params import ContinuumParams, QuantumParams


@dataclass
class FieldState:
    """Four complex rows on a periodic grid of n_grid points, fields of shape (4, n_grid).

    For ``evolve`` the rows are the spin-up sector's (Psi_1, Psi_3, Phi_1, Phi_3);
    spin-down is the spin-up system with Psi_4 and Phi_4 negated (the spin-up
    system at -p_z), and ``evolve`` runs spin-up only.
    For ``evolve_kgf`` they are (psi, phi, dpsi/dt, dphi/dt).
    """

    fields: np.ndarray
    L: float
    t: float = 0.0

    def __post_init__(self):
        if self.fields.ndim != 2 or self.fields.shape[0] != 4:
            raise ValueError("fields must have shape (4, n_grid)")

    @property
    def n_grid(self) -> int:
        return self.fields.shape[-1]

    @property
    def dz(self) -> float:
        return self.L / self.n_grid

    @property
    def z(self) -> np.ndarray:
        return self.dz * np.arange(self.n_grid)


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian wave packet riding on a single dispersion branch (of either spin sector)."""

    k0: float
    sigma: float
    branch: Branch
    center: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


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
    if not math.isfinite(spec.sigma * spec.sigma):
        raise ValueError("packet width too large: sigma squared overflows")
    k_nyquist = math.pi * n_grid / L
    if not math.isfinite(k_nyquist):
        raise ValueError("grid too fine: the Nyquist wavenumber pi n_grid / L overflows")
    if not math.isfinite(k_nyquist * spec.center):
        raise ValueError("packet center too far out: its phase k * center overflows")
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
    return FieldState(fields, L)


def _project(state: FieldState, Lt: np.ndarray) -> np.ndarray:
    """Branch coefficients (n, 4) of the state's Fourier coefficients."""
    return np.einsum("kji,ik->kj", Lt, np.fft.fft(state.fields, axis=1))


def evolve(state: FieldState, dt: float, n_steps: int, params: QuantumParams) -> FieldState:
    """Advance the sector field by dt * n_steps, as the single sample of ``evolve_samples``."""
    return next(evolve_samples(state, dt * n_steps, 1, params))


def evolve_samples(state: FieldState, dt: float, n_samples: int,
                   params: QuantumParams) -> Iterator[FieldState]:
    """Yield the states at state.t + i * dt, i = 1 .. n_samples, from one modal projection.

    Each sample is then a phase multiply, a reconstruction with R and one
    inverse FFT.  The minus branches (columns 1 and 3 of ``BRANCHES``) have
    exactly the negated energies of the plus branches, so their phases are
    written as the conjugates of the plus phases, bit for bit what exp
    gives, signed zeros at k = 0 included.  The multiply is always written
    coefficients times phase: numpy's complex multiply is not commutative
    bit for bit, and on a temporary operand of 256 KiB or more numpy would
    reuse the temporary and swap the order, so the bits would depend on the
    grid size.
    """
    E, R, Lt = modes(_wavenumbers(state.n_grid, state.L), params)
    x = _project(state, Lt)
    del Lt
    R = R.astype(complex)  # cast once here rather than inside every sample's einsum
    plus = E.T[0::2]  # (2, n): the energies of the plus branches
    phase = np.empty((4, state.n_grid), dtype=complex)
    for i in range(1, n_samples + 1):
        t = i * dt
        np.exp((-1j * t / params.hbar) * plus, out=phase[0::2])
        np.conjugate(phase[0::2], out=phase[1::2])
        coeffs = np.einsum("kij,kj->ik", R, x * phase.T)
        yield FieldState(np.fft.ifft(coeffs, axis=1), state.L, state.t + t)


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


def packet_track(spec: PacketSpec, params: QuantumParams, n_grid: int, L: float, t_total: float,
                 n_samples: int) -> tuple[np.ndarray, np.ndarray, list[FieldState]]:
    """Times and centroids of an ``init_packet`` run sampled n_samples times over
    t_total, and its states at samples 0, n_samples // 2 and n_samples.

    The packet lives on one branch b, so every row of the start state's
    spectrum F = fft(fields) = R_b a advances by the one phase
    exp(-i E_b t / hbar).  A centroid is the intensity-weighted circular mean
    position, the angle of sum_z |f(z)|^2 exp(2 pi i z / L), which over the
    spectrum is (1/N) sum_k G(k) phase(k) conj(phase(k+1)) with the overlap
    G(k) = F(k) . conj(F(k+1)) = rho(k) a(k) conj(a(k+1)), rho(k) = R_b(k) . R_b(k+1),
    built once; k+1 wraps around the DFT index.  So a sample costs one
    exponential, and only the kept states are inverse transformed.  Each
    product is written with its operands in a fixed order (see ``evolve_samples``).

    A t_total that squares to 0 and a sample step dt = t_total / n_samples with
    c dt >= L/2 are refused: a step of L/2 or more unwraps to a short one backwards.
    """
    state = init_packet(spec, n_grid, L, params)
    if t_total * t_total == 0:  # the centroid fit scales the times by their norm
        raise ValueError(f"t_total {t_total!r} is too short to square")
    dt = t_total / n_samples
    if params.c * dt >= L / 2:  # no branch outruns c, so this bounds a step's travel
        raise ValueError(f"a packet can travel c * t_total / n_samples = {params.c * dt!r}, "
                         "at least L/2, between samples; take more samples")
    energy = branch_energy(spec.branch, params.hbar * _wavenumbers(n_grid, L), params)
    spectrum = np.fft.fft(state.fields, axis=1)
    overlap = np.sum(np.multiply(spectrum, np.conjugate(np.roll(spectrum, -1, axis=1))), axis=0)
    times, positions = np.empty(n_samples + 1), np.empty(n_samples + 1)
    snapshots = [state]
    for i in range(n_samples + 1):
        t = i * dt
        times[i] = state.t + t
        phase = np.exp((-1j * t / params.hbar) * energy)
        pair = np.multiply(phase, np.conjugate(np.roll(phase, -1)))
        cross = np.sum(np.multiply(overlap, pair))
        positions[i] = float(np.angle(cross) % (2 * math.pi)) * L / (2 * math.pi)
        if i and i in (n_samples // 2, n_samples):
            fields = np.fft.ifft(np.multiply(spectrum, phase), axis=1)
            snapshots.append(FieldState(fields, L, state.t + t))
    return times, positions, snapshots


def measure_group_velocity(spec: PacketSpec, params: QuantumParams,
                           n_grid: int = 1024, L: float = 200.0,
                           t_total: float = 40.0, n_samples: int = 20) -> float:
    """Least-squares slope of the ``packet_track`` centroids versus time; the net displacement
    must stay below L/4 (wrap ambiguity) and above 10 grid spacings (the measurement floor)."""
    times, positions, snapshots = packet_track(spec, params, n_grid, L, t_total, n_samples)
    slope, displacement = centroid_velocity(times, positions, L)
    if displacement > L / 4:
        raise ValueError("packet displacement exceeds L/4; shorten the run")
    if displacement < 10 * snapshots[0].dz:
        raise ValueError("packet displacement below the measurement floor; lengthen the run")
    return slope


def _kgf_propagator(ks: np.ndarray, T: float, params: ContinuumParams) -> np.ndarray:
    """P(T) = [[C, S], [-D S, C]] on (psi, phi, psi', phi') per wavenumber, (n, 4, 4).

    C = cos(sqrt(D) T) and S = sin(sqrt(D) T) / sqrt(D) are each c0 I + c1 D:
    c1 is the divided difference of the function over the roots W-, W+ of D, in
    cos and sinc of s, d = T (sqrt(W+) +/- sqrt(W-)) / 2, and c0 = f(W-) - c1 W-.
    S takes the plain difference where W+ - W- >= W- and a product form for
    closer roots, so that neither cancels badly.
    """
    def sinc(x):  # sin(x) / x, continued by 1 at x = 0
        return np.sin(x) / np.where(x == 0, 1.0, x) + (x == 0)

    w_O2, w_A2 = params.omega_O**2, params.omega_A**2
    p, q = params.s_m**2 * ks**2, params.s_M**2 * ks**2
    (lo, hi), _ = modal_pair(p, q, w_O2, w_A2)
    r_lo, r_hi = np.sqrt(lo), np.sqrt(hi)
    s, d = 0.5 * T * (r_hi + r_lo), 0.5 * T * (r_hi - r_lo)
    c1_cos = -0.5 * T**2 * sinc(s) * sinc(d)
    c0_cos = np.cos(r_lo * T) - c1_cos * lo
    far = hi - lo >= lo
    num = np.where(far, T * (sinc(r_hi * T) - sinc(r_lo * T)),
                   0.5 * T * (np.cos(s) * sinc(d) - sinc(s) * np.cos(d)))
    den = np.where(far, hi - lo, r_hi * r_lo)  # 0 only where W+ = 0: the limit -T^3 / 6
    c1_sin = np.divide(num, den, out=np.full_like(den, -T**3 / 6), where=den != 0)
    c0_sin = T * sinc(r_lo * T) - c1_sin * lo
    D = np.array([[p + w_O2, np.full_like(p, -w_O2)],
                  [np.full_like(p, -w_A2), q + w_A2]]).transpose(2, 0, 1)
    C = c0_cos[:, None, None] * np.eye(2) + c1_cos[:, None, None] * D
    S = c0_sin[:, None, None] * np.eye(2) + c1_sin[:, None, None] * D
    return np.block([[C, S], [-(D @ S), C]])


def evolve_kgf(state: FieldState, T: float, params: ContinuumParams) -> FieldState:
    """Exact per-mode evolution of the coupled second-order system.

    Each Fourier mode of x = (psi, phi) obeys x'' = -D x, D = [[s_m^2 k^2 + w_O^2,
    -w_O^2], [-w_A^2, s_M^2 k^2 + w_A^2]]: FFT, closed-form P(T) (``_kgf_propagator``), IFFT.
    """
    P = _kgf_propagator(_wavenumbers(state.n_grid, state.L), T, params)
    coeffs = np.einsum("kij,jk->ik", P, np.fft.fft(state.fields))
    return FieldState(np.fft.ifft(coeffs), state.L, state.t + T)
