"""Closed-form plane-wave solutions of the 1-D first-order coupled system.

Eight linearly independent solutions exist at each momentum: two dispersion
branches x two energy signs x two spin orientations.  Spin-up solutions live
in wave-function components (1, 3) of each sector, spin-down ones in (2, 4).
Spin-down is the spin-up system with Psi_4 and Phi_4 negated (the spin-up
system at -p_z).  Every solution is measured against ``hamiltonian_d8``.

Amplitude vectors are ordered (b1, b2, b3, b4, d1, d2, d3, d4), matching the
eight-component wave function (Psi_1..Psi_4, Phi_1..Phi_4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import BRANCHES, OPTICAL_MINUS, Branch, amplitude_pair, branch_energy
from .matrices import hamiltonian_d8
from .params import QuantumParams

# positions of (b, b', d, d') in the eight-component vector, per spin
SPIN_SLOTS = {"up": [0, 2, 4, 6], "down": [1, 3, 5, 7]}


@dataclass(frozen=True)
class PlaneWaveSolution:
    """A single plane-wave eigenmode with its eight complex amplitudes."""

    branch: Branch
    spin: str            # "up" | "down"
    p_z: float
    E: float
    amplitudes: np.ndarray  # shape (8,), complex
    form: str

    def __post_init__(self):
        if self.spin not in ("up", "down"):
            raise ValueError(f"spin must be 'up' or 'down', got {self.spin!r}")

    @property
    def sector_amplitudes(self) -> np.ndarray:
        """The four amplitudes of the occupied spin sector, ordered (b, b', d, d')."""
        return self.amplitudes[SPIN_SLOTS[self.spin]]


def build_solution(branch: Branch, spin: str, p_z: float,
                   params: QuantumParams) -> PlaneWaveSolution:
    """The cataloged plane-wave solution for one (branch, spin), seeded b1 = 1.

    Its sector amplitudes (b1, b3, d1, d3) are closed forms: b3 is the ratio
    b3/b1 of ``dispersion.amplitude_pair`` (the negative optical branch uses
    its rationalized form).  The secondary sector repeats the primary one on
    the acoustic branches and is d = -eps^2 b on the optical ones.  Spin-down
    is the spin-up system with Psi_4 and Phi_4 negated (the spin-up system at
    -p_z), so its sector (b2, b4, d2, d4) holds the negated ratio.  At p_z = 0
    exactly, the negative-optical eigenvector has no component on b1; the
    continuous limit (0, 1, 0, d3) is returned, seeded b3 = 1, for both spins,
    whose blocks are equal there.
    """
    g = 1.0 if branch.kind == "acoustic" else -params.epsilon**2
    pair_b1, pair_b3 = amplitude_pair(branch, p_z, params)
    if pair_b1 == 0:
        sector, form = (0.0, 1.0, 0.0, g), "pz0-limit"
    else:
        ratio = pair_b3 / pair_b1 if spin == "up" else -pair_b3 / pair_b1
        sector = (1.0, ratio, g, ratio * g)
        form = "rationalized" if branch == OPTICAL_MINUS else "closed-form"
    sol = PlaneWaveSolution(branch=branch, spin=spin, p_z=p_z,
                            E=branch_energy(branch, p_z, params),
                            amplitudes=np.zeros(8, dtype=complex), form=form)
    sol.amplitudes[SPIN_SLOTS[spin]] = sector
    return sol


def residual(solution: PlaneWaveSolution, params: QuantumParams) -> float:
    """Max modulus of the eight equations on the solution: max |E a - H_D8 a|.

    H_D8 is ``hamiltonian_d8((0, 0, p_z), params)`` and a runs over all eight
    amplitudes, so both spins meet the same operator: spin-down is the spin-up
    system with Psi_4 and Phi_4 negated (the spin-up system at -p_z).  The
    plane-wave factor exp(-i (E t - p_z z)/hbar) has modulus 1 and the
    derivatives act on it as d/dt -> -iE/hbar, d/dz -> i p_z/hbar, so the
    residual at every (t, z) is that of the amplitudes a.
    """
    a = solution.amplitudes
    H = hamiltonian_d8((0.0, 0.0, solution.p_z), params)
    return float(np.max(np.abs(solution.E * a - H @ a)))


def catalog_eight(p_z: float, params: QuantumParams) -> list[PlaneWaveSolution]:
    """All eight solutions at momentum p_z: branches x energy signs x spins."""
    return [build_solution(branch, spin, p_z, params)
            for branch in BRANCHES for spin in ("up", "down")]
