"""Parameter containers for the discrete chain and its relativistic continuum limit."""

from __future__ import annotations

import math
import sys
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
        finite = all(map(math.isfinite, (gap * gap, omega_O, self.epsilon * omega_O)))
        if not (finite and gap * gap > 0):  # gap^2 underflowing to 0 makes the modes singular
            raise ParameterError("gap energy squared must be finite and nonzero, "
                                 "omega_O and omega_A finite")

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


@dataclass(frozen=True)
class ChainParams:
    """Masses, spring constants, and lattice period of the mass-in-mass chain.

    m : inner (small) mass, coupled to its host M by a spring of constant K.
    I : spring constant between neighbouring small masses.
    J : spring constant between neighbouring large masses.
    a : lattice period.

    The derived scales are properties: the coupling frequencies omega_O =
    sqrt(K/m) and omega_A = sqrt(K/M), the same-mass frequencies omega_m =
    sqrt(I/m) and omega_M = sqrt(J/M), the continuum speeds s_m = a omega_m
    and s_M = a omega_M, and the mass ratio epsilon = sqrt(m/M).
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
        scales = (self.omega_O, self.omega_A, self.omega_m, self.omega_M,
                  self.s_m, self.s_M, self.epsilon)
        finite = all(math.isfinite(x * x) for x in scales)  # the dispersion squares them
        # modal_pair multiplies entries of D: the couplings' squares must be normal floats,
        # and twice the square of the zone-edge trace, which bounds every entry and root, finite
        w_O2, w_A2 = self.omega_O * self.omega_O, self.omega_A * self.omega_A
        trace = w_O2 + w_A2 + 4 * (self.omega_m * self.omega_m + self.omega_M * self.omega_M)
        if not (finite and min(w_O2 * w_O2, w_A2 * w_A2) >= sys.float_info.min
                and math.isfinite(2 * trace * trace) and math.isfinite(2 * math.pi / self.a)):
            raise ParameterError("derived scales must fit in a float: finite squares, normal "
                                 "omega_O^4 and omega_A^4, finite zone-edge D and 2 pi / a")

    omega_O = property(lambda self: math.sqrt(self.K / self.m))
    omega_A = property(lambda self: math.sqrt(self.K / self.M))
    omega_m = property(lambda self: math.sqrt(self.I / self.m))
    omega_M = property(lambda self: math.sqrt(self.J / self.M))
    s_m = property(lambda self: self.a * self.omega_m)
    s_M = property(lambda self: self.a * self.omega_M)
    epsilon = property(lambda self: math.sqrt(self.m / self.M))


@dataclass(frozen=True)
class ContinuumParams:
    """Coefficients of the coupled second-order continuum system."""

    s_m: float
    s_M: float
    omega_O: float
    omega_A: float

    def __post_init__(self):
        coefficients = (self.s_m, self.s_M, self.omega_O, self.omega_A)
        if not all(x >= 0 and math.isfinite(x * x) for x in coefficients):  # nan >= 0 is False
            raise ParameterError("continuum coefficients must be non-negative with finite squares")

    @classmethod
    def from_chain(cls, params: ChainParams) -> "ContinuumParams":
        return cls(s_m=params.s_m, s_M=params.s_M,
                   omega_O=params.omega_O, omega_A=params.omega_A)

    @classmethod
    def from_quantum(cls, params: QuantumParams) -> "ContinuumParams":
        return cls(s_m=params.c, s_M=params.c,
                   omega_O=params.omega_O, omega_A=params.omega_A)
