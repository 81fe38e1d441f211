"""Parameter containers for the discrete chain and its relativistic continuum limit."""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """A parameter set is out of range, or its derived scales do not fit in a float."""


@dataclass(frozen=True)
class QuantumParams:
    """Rest mass, mass ratio, and fundamental constants of the coupled wave system.

    Defaults are natural units (hbar = c = m_e = 1), in which all energies come
    out in multiples of the electron rest energy.
    """

    m_e: float = 1.0
    epsilon: float = 0.5
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.m_e <= 0 or self.c <= 0 or self.hbar <= 0:
            raise ParameterError("m_e, c and hbar must be positive")
        if self.epsilon < 0:
            raise ParameterError("epsilon must be non-negative")
        rest = self.m_e * (self.c * self.c)  # products: out of range reads inf, never raises
        gap = rest * math.sqrt(1.0 + self.epsilon * self.epsilon)
        omega_O = rest / self.hbar
        if not all(map(math.isfinite, (gap * gap, omega_O, self.epsilon * omega_O))):
            raise ParameterError("gap energy squared, omega_O and omega_A must be finite")

    @property
    def m_f(self) -> float:
        """Secondary rest mass, epsilon * m_e."""
        return self.epsilon * self.m_e

    @property
    def rest_energy(self) -> float:
        return self.m_e * self.c**2

    @property
    def mu_e(self) -> float:
        """Mass coupling of the primary (Psi) sector: m_e c^2 / sqrt(1 + eps^2)."""
        return self.m_e * self.c**2 / math.sqrt(1.0 + self.epsilon**2)

    @property
    def mu_f(self) -> float:
        """Mass coupling of the secondary (Phi) sector.

        Written as eps^2 m_e c^2 / sqrt(1 + eps^2), which equals
        m_f c^2 / sqrt(1 + eps^-2) for eps > 0 and extends continuously to 0
        at eps = 0.
        """
        return self.epsilon**2 * self.m_e * self.c**2 / math.sqrt(1.0 + self.epsilon**2)

    @property
    def gap_energy(self) -> float:
        """Rest energy of the optical branch: m_e c^2 sqrt(1 + eps^2)."""
        return self.m_e * self.c**2 * math.sqrt(1.0 + self.epsilon**2)

    @property
    def omega_O(self) -> float:
        """Angular frequency m_e c^2 / hbar."""
        return self.m_e * self.c**2 / self.hbar

    @property
    def omega_A(self) -> float:
        """Angular frequency m_f c^2 / hbar."""
        return self.m_f * self.c**2 / self.hbar

    def replace_epsilon(self, epsilon: float) -> "QuantumParams":
        return QuantumParams(m_e=self.m_e, epsilon=epsilon, c=self.c, hbar=self.hbar)


@dataclass(frozen=True)
class ChainParams:
    """Masses, spring constants, and lattice period of the mass-in-mass chain.

    m : inner (small) mass, coupled to its host M by a spring of constant K.
    I : spring constant between neighbouring small masses.
    J : spring constant between neighbouring large masses.
    a : lattice period.
    """

    m: float
    M: float
    K: float
    I: float
    J: float
    a: float

    def __post_init__(self):
        if self.m <= 0 or self.M <= 0 or self.K <= 0 or self.a <= 0:
            raise ParameterError("m, M, K and a must be positive")
        if self.I < 0 or self.J < 0:
            raise ParameterError("I and J must be non-negative")
        s = characteristic_scales(self)
        if not (all(map(math.isfinite, vars(s).values())) and s.omega_O > 0 and s.omega_A > 0):
            raise ParameterError("derived scales must be finite, omega_O and omega_A nonzero")


@dataclass(frozen=True)
class CharacteristicScales:
    """Characteristic frequencies and speeds derived from chain parameters."""

    omega_O: float
    omega_A: float
    omega_m: float
    omega_M: float
    s_m: float
    s_M: float
    epsilon: float


def characteristic_scales(params: ChainParams) -> CharacteristicScales:
    """Derive the characteristic frequencies/speeds and the mass ratio sqrt(m/M)."""
    omega_O = math.sqrt(params.K / params.m)
    omega_A = math.sqrt(params.K / params.M)
    omega_m = math.sqrt(params.I / params.m)
    omega_M = math.sqrt(params.J / params.M)
    return CharacteristicScales(
        omega_O=omega_O,
        omega_A=omega_A,
        omega_m=omega_m,
        omega_M=omega_M,
        s_m=params.a * omega_m,
        s_M=params.a * omega_M,
        epsilon=math.sqrt(params.m / params.M),
    )


@dataclass(frozen=True)
class ContinuumParams:
    """Coefficients of the coupled second-order continuum system."""

    s_m: float
    s_M: float
    omega_O: float
    omega_A: float

    def __post_init__(self):
        if min(self.s_m, self.s_M, self.omega_O, self.omega_A) < 0:
            raise ValueError("continuum coefficients must be non-negative")

    @classmethod
    def from_chain(cls, params: ChainParams) -> "ContinuumParams":
        s = characteristic_scales(params)
        return cls(s_m=s.s_m, s_M=s.s_M, omega_O=s.omega_O, omega_A=s.omega_A)

    @classmethod
    def from_quantum(cls, params: QuantumParams) -> "ContinuumParams":
        return cls(s_m=params.c, s_M=params.c,
                   omega_O=params.omega_O, omega_A=params.omega_A)
