"""Coupled-branch relativistic wave toolkit.

Implements the modified mass-in-mass chain, its coupled continuum limit, the
eight-component first-order relativistic system, all four dispersion branches
with plane-wave solutions, and 1-D time evolution.
"""

from .params import ChainParams, ContinuumParams, QuantumParams

__all__ = [
    "ChainParams",
    "ContinuumParams",
    "QuantumParams",
]

__version__ = "0.1.0"
