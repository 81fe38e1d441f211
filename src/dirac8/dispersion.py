"""Analytic dispersion relations: the 2x2 modal solver (``modal_pair``) of the
chain, continuum and second-order systems, the four relativistic branches and
their closed-form eigensystem (``modes``), velocities, and table generation.

Note on the optical branch: the frequency is E(hbar k_z) / hbar, i.e.
Omega^2 = c^2 k_z^2 + omega_O^2 + omega_A^2 (a single momentum term),
consistent with the determinant factorization and the energy form
E^2 = c^2 p_z^2 + (1 + eps^2) m_e^2 c^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ContinuumParams, QuantumParams

OPTICAL_FORM_NOTE = (
    "optical branch implemented as Omega^2 = c^2 k_z^2 + omega_O^2 + omega_A^2 "
    "(single momentum term), the form consistent with the determinant roots"
)

KINDS = ("acoustic", "optical")  # the order of ``modal_pair``'s roots, lower first


@dataclass(frozen=True)
class Branch:
    """One of the four dispersion branches: {acoustic, optical} x {+, -}."""

    kind: str        # "acoustic" | "optical"
    energy_sign: int  # +1 | -1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown branch kind {self.kind!r}")
        if self.energy_sign not in (1, -1):
            raise ValueError("energy_sign must be +1 or -1")

    @property
    def label(self) -> str:
        return self.kind + ("+" if self.energy_sign > 0 else "-")


ACOUSTIC_PLUS = Branch("acoustic", 1)
ACOUSTIC_MINUS = Branch("acoustic", -1)
OPTICAL_PLUS = Branch("optical", 1)
OPTICAL_MINUS = Branch("optical", -1)
BRANCHES = (ACOUSTIC_PLUS, ACOUSTIC_MINUS, OPTICAL_PLUS, OPTICAL_MINUS)


def parse_branch(label: str) -> Branch:
    """Parse a label like 'optical+' or 'acoustic-'."""
    for b in BRANCHES:
        if b.label == label:
            return b
    raise ValueError(f"unknown branch label {label!r}")


def modal_pair(p, q, omega_O2, omega_A2):
    """Roots W = Omega^2 and unit eigenvectors of the matrix D of x'' = -D x.

    D = [[p + omega_O2, -omega_O2], [-omega_A2, q + omega_A2]] in the chain,
    continuum and second-order systems, which differ only in the wavenumber
    parts p, q: 4 omega_m^2 sin^2(k a / 2) and 4 omega_M^2 sin^2(k a / 2) on
    the chain, s_m^2 k^2 and s_M^2 k^2 in the continuum.  All four arguments
    are non-negative floats or broadcastable arrays.
    Returns W (2, ...) ascending and vecs (2, ..., 2), each orthogonal to the
    row of D - W with the larger largest entry, its larger component (the
    first on a tie) positive; nan where D is a multiple of I.  W+ = half + disc;
    W- = det D / W+, with det D = pq + p omega_A2 + q omega_O2 a sum of
    non-negative terms, so W- does not cancel at small k as half - disc does.
    """
    a, b = p + omega_O2, q + omega_A2
    half = 0.5 * (a + b)  # on floats half**2 is libm pow, as in the scalar reference test
    disc = np.sqrt(np.maximum(half**2 - (a * b - omega_O2 * omega_A2), 0.0))
    hi = half + disc  # 0 only where D = 0
    det = p * q + p * omega_A2 + q * omega_O2
    W = np.stack([np.divide(det, hi, out=np.zeros_like(hi), where=hi > 0), hi])
    a_W, b_W = a - W, b - W
    first = np.maximum(np.abs(a_W), omega_O2) >= np.maximum(omega_A2, np.abs(b_W))
    v = np.stack([np.where(first, omega_O2, -b_W), np.where(first, a_W, -omega_A2)], axis=-1)
    with np.errstate(invalid="ignore"):  # 0 / 0 where D is a multiple of the identity
        v = v / np.sqrt(np.vecdot(v, v))[..., None]
    lead = np.where(np.abs(v[..., 0]) >= np.abs(v[..., 1]), v[..., 0], v[..., 1])
    return W, np.where(lead[..., None] < 0, -v, v)


def continuum_dispersion(k, params: ContinuumParams) -> np.ndarray:
    """Both squared-frequency roots of the coupled continuum system, ascending.

    Roots of det [[W - s_m^2 k^2 - w_O^2, w_O^2], [w_A^2, W - s_M^2 k^2 - w_A^2]] = 0
    in W = Omega^2, shape (2, ...) for a float or array k.  For s_m = s_M = c
    these are exactly c^2 k^2 and c^2 k^2 + w_O^2 + w_A^2.
    """
    return modal_pair(params.s_m**2 * k**2, params.s_M**2 * k**2,
                      params.omega_O**2, params.omega_A**2)[0]


def dirac_determinant(E: float, p_z: float, params: QuantumParams) -> float:
    """Characteristic determinant (E^2 - c^2 p_z^2)(E^2 - c^2 p_z^2 - gap^2)."""
    x = E**2 - (params.c * p_z) ** 2
    return x * (x - params.gap_energy**2)


def branch_energy(branch: Branch, p_z, params: QuantumParams):
    """Energy of the given branch at momentum p_z (a float or an array).

    Acoustic: +/- c p_z.  Optical: +/- sqrt(c^2 p_z^2 + (1 + eps^2) m_e^2 c^4),
    squared by a plain product so array and scalar calls agree bit for bit.
    """
    cp = params.c * p_z
    if branch.kind == "acoustic":
        return branch.energy_sign * cp
    return branch.energy_sign * np.sqrt(cp * cp + params.gap_energy**2)


def amplitude_pair(branch: Branch, p_z, params: QuantumParams):
    """Unnormalised (b1, b3) of the branch eigenvector at momentum p_z.

    Acoustic: (1, +/-1).  Positive optical: (E + gap, c p_z), with E the
    positive optical energy.  Negative optical: the rationalized
    (c p_z, -(E + gap)); the printed ratio b3/b1 = c p_z / (gap - E) has a
    vanishing denominator at p_z = 0, whereas here only b1 vanishes there.
    """
    cp = params.c * p_z
    if branch.kind == "acoustic":
        one = np.ones_like(cp)
        return one, branch.energy_sign * one
    big = branch_energy(OPTICAL_PLUS, p_z, params) + params.gap_energy
    return (big, cp) if branch.energy_sign > 0 else (cp, -big)


def modes(ks, params: QuantumParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigensystem (E, R, Lt) of the sector matrix at each wavenumber.

    All three are real, with shapes (n, 4), (n, 4, 4) and (n, 4, 4) for n
    wavenumbers (a scalar is n = 1); branch index j follows ``BRANCHES``.
    E[:, j] is the branch energy at p = hbar k, the column R[:, :, j] the
    unit right eigenvector (b1, b3, d1, d3), and the row Lt[:, j, :] its dual
    left eigenvector, so Lt @ R = I and H = R diag(E) Lt.  Each right vector
    is (u, g u) up to scale, where u is ``amplitude_pair`` normalised, g = 1
    on the acoustic and g = -eps^2 on the optical branches; the left rows are
    (eps^2 u, u) and (u, -u) up to scale.  At k = 0 the two acoustic vectors
    stay independent.
    """
    p = params.hbar * np.atleast_1d(np.asarray(ks, dtype=float))
    if p.ndim > 1:
        raise ValueError(f"ks must be one wavenumber or a 1-D array, got shape {p.shape}")
    eps2 = params.epsilon**2
    E = np.array([branch_energy(b, p, params) for b in BRANCHES])
    # rows are branches, the last axis runs over k
    b1, b3 = np.array([amplitude_pair(b, p, params) for b in BRANCHES]).swapaxes(0, 1)
    inv_norm = 1.0 / np.sqrt(b1**2 + b3**2)
    u1, u3 = b1 * inv_norm, b3 * inv_norm
    U = np.array([u1, u3, u1, u3])  # (component, branch, k)
    # per-branch weight of u in each component: right columns (u, g u) and
    # left rows (h u, f u), scaled so columns are unit and Lt R = I
    g = np.array([1.0, 1.0, -eps2, -eps2])
    h = np.array([eps2, eps2, 1.0, 1.0])
    f = np.array([1.0, 1.0, -1.0, -1.0])
    scale = np.sqrt(1.0 + g**2)
    right = np.array([1.0 / scale, 1.0 / scale, g / scale, g / scale])
    left = np.array([h, h, f, f]) * (scale / (1.0 + eps2))
    R = (U * right[:, :, None]).transpose(2, 0, 1)
    Lt = (U * left[:, :, None]).transpose(2, 1, 0)
    return E.T, R, Lt


def branch_frequency(branch: Branch, k_z, params: QuantumParams):
    """Signed angular frequency Omega = E(hbar k_z) / hbar of the branch."""
    return branch_energy(branch, params.hbar * k_z, params) / params.hbar


def phase_velocity(branch: Branch, k_z: float, params: QuantumParams) -> float:
    """Omega / k_z.  Undefined (domain error) at k_z = 0."""
    if k_z == 0:
        raise ValueError("phase velocity undefined at k_z = 0")
    return branch_frequency(branch, k_z, params) / k_z


def group_velocity(branch: Branch, k_z: float, params: QuantumParams) -> float:
    """d Omega / d k_z: +/- c on the acoustic branches, c^2 k_z / Omega on the optical."""
    if branch.kind == "acoustic":
        return branch.energy_sign * params.c
    return params.c**2 * k_z / branch_frequency(branch, k_z, params)


FIGURE2_COLUMNS = ("p_z", "E_acoustic_plus", "E_acoustic_minus",
                   "E_optical_plus", "E_optical_minus")


def figure2_table(p_grid, params: QuantumParams) -> np.ndarray:
    """Branch energies on a momentum grid, at the mass ratio params.epsilon.

    Returns an array of rows (p_z, E_A+, E_A-, E_O+, E_O-); at eps = 0 the
    optical columns reduce to the standard single-mass hyperbola.
    """
    p = np.asarray(p_grid, dtype=float)
    return np.column_stack([p] + [branch_energy(b, p, params) for b in BRANCHES])
