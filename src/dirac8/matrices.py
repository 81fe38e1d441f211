"""Pauli, alpha, and generalized 8x8 coupling matrices, and the momentum-space
Hamiltonians built from them.

All matrices are dense ``numpy`` arrays of ``complex128``; the entries of the
basis matrices are exact integers and +/- i, so algebraic identities can be
checked with exact equality.
"""

from __future__ import annotations

import numpy as np

from .params import QuantumParams
from .report import Check, VerificationReport

I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)
I4 = np.eye(4, dtype=complex)
Z4 = np.zeros((4, 4), dtype=complex)
I8 = np.eye(8, dtype=complex)
Z8 = np.zeros((8, 8), dtype=complex)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


_ALPHA = {0: np.block([[I2, Z2], [Z2, -I2]]),
          **{j: np.block([[Z2, s], [s, Z2]]) for j, s in enumerate(_PAULI.values(), 1)}}
_A = {"0-": np.block([[Z4, Z4], [-_ALPHA[0], _ALPHA[0]]]),
      "0+": np.block([[_ALPHA[0], -_ALPHA[0]], [Z4, Z4]]),
      **{str(j): np.block([[_ALPHA[j], Z4], [Z4, _ALPHA[j]]]) for j in (1, 2, 3)}}


def alpha(index: int) -> np.ndarray:
    """Return a copy of one of the four anticommuting 4x4 alpha matrices.

    alpha_0 = diag(I2, -I2); alpha_j (j = 1, 2, 3) has the Pauli matrix
    sigma_j in the off-diagonal 2x2 blocks.  Built once, at import.
    """
    try:
        return _ALPHA[index].copy()
    except (KeyError, TypeError):
        raise ValueError(f"alpha index must be 0..3, got {index}") from None


def a_matrix(tag: str) -> np.ndarray:
    """Return a copy of one of the five 8x8 generalized coupling matrices.

    Tags: '0-', '0+', '1', '2', '3'.  The '0-'/'0+' matrices carry the mass
    couplings (they are not involutions); A_1..A_3 are block-diagonal copies
    of the corresponding alpha matrices and square to the identity.  Built
    once, at import.
    """
    try:
        return _A[tag].copy()
    except (KeyError, TypeError):
        raise ValueError(f"unknown matrix tag {tag!r}") from None


def anticommutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """AB + BA for square matrices of equal size."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need equal-size square matrices, got {A.shape} and {B.shape}")
    return A @ B + B @ A


def hamiltonian_d4(p, params: QuantumParams) -> np.ndarray:
    """4x4 momentum-space Hamiltonian m_e c^2 alpha_0 + c sum_j alpha_j p_j."""
    p = np.asarray(p, dtype=float)
    H = params.m_e * params.c**2 * _ALPHA[0]
    for j in range(3):
        H = H + params.c * p[j] * _ALPHA[j + 1]
    return H


def hamiltonian_d8(p, params: QuantumParams) -> np.ndarray:
    """8x8 momentum-space Hamiltonian of the coupled two-sector system.

    mu_f A_{0-} + mu_e A_{0+} + c sum_j A_j p_j.  Non-Hermitian unless
    eps = 1, yet its spectrum is real (the four branch energies, each with
    multiplicity 2).
    """
    p = np.asarray(p, dtype=float)
    H = params.mu_f * _A["0-"] + params.mu_e * _A["0+"]
    for j in range(3):
        H = H + params.c * p[j] * _A[str(j + 1)]
    return H


def null_space(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal bases of the numerical null spaces of a stack M (..., n, n), one SVD.

    Per matrix, singular values below tol * ||M||_2 count as zero.  Returns
    (..., n, n): the row of each zero singular value is a basis vector and
    every other row is zero, so a trivial null space reads all zeros.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("null_space expects square matrices")
    s, vh = np.linalg.svd(M)[1:]
    vh[~(s < tol * np.where(s[..., :1] > 0, s[..., :1], 1.0))] = 0  # keep the null rows
    return np.conjugate(vh, out=vh)


def _exact(report: VerificationReport, name: str, reference: str,
           lhs: np.ndarray, rhs: np.ndarray) -> None:
    diff = float(np.max(np.abs(lhs - rhs)))
    report.add(Check(name=name, reference=reference,
                     passed=bool(np.array_equal(lhs, rhs)),
                     measured=diff, tolerance=0.0))


def check_algebra() -> VerificationReport:
    """Verify every algebraic identity of the alpha and 8x8 coupling matrices.

    All entries are integers and +/- i, so every identity is checked with
    exact equality; the identities are parameter-free.
    """
    rep = VerificationReport()
    al = [alpha(j) for j in range(4)]
    for j in range(4):
        _exact(rep, f"alpha_{j}^2 = I4", "alpha involution", al[j] @ al[j], I4)
    for i in range(4):
        for j in range(i + 1, 4):
            _exact(rep, f"{{alpha_{i}, alpha_{j}}} = 0", "alpha anticommutation",
                   anticommutator(al[i], al[j]), Z4)

    a0m, a0p = a_matrix("0-"), a_matrix("0+")
    aj = {j: a_matrix(str(j)) for j in (1, 2, 3)}
    low = np.block([[Z4, Z4], [-I4, I4]])
    up = np.block([[I4, -I4], [Z4, Z4]])
    _exact(rep, "A0-^2 = [[0,0],[-I,I]]", "minus-coupler square", a0m @ a0m, low)
    _exact(rep, "A0-^2 = A0- A0+", "minus-coupler square", a0m @ a0m, a0m @ a0p)
    _exact(rep, "A0+^2 = [[I,-I],[0,0]]", "plus-coupler square", a0p @ a0p, up)
    _exact(rep, "A0+^2 = A0+ A0-", "plus-coupler square", a0p @ a0p, a0p @ a0m)
    for j in (1, 2, 3):
        _exact(rep, f"A{j}^2 = I8", "momentum-matrix involution", aj[j] @ aj[j], I8)
    _exact(rep, "{A0+, A0-} = [[I,-I],[-I,I]]", "coupler anticommutator",
           anticommutator(a0p, a0m), up + low)
    _exact(rep, "A0-^2 + A0+^2 = {A0+, A0-}", "coupler anticommutator",
           a0m @ a0m + a0p @ a0p, anticommutator(a0p, a0m))
    for j in (1, 2, 3):
        _exact(rep, f"{{A0-, A{j}}} = 0", "coupler/momentum anticommutation",
               anticommutator(a0m, aj[j]), Z8)
        _exact(rep, f"{{A0+, A{j}}} = 0", "coupler/momentum anticommutation",
               anticommutator(a0p, aj[j]), Z8)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                _exact(rep, f"{{A{i}, A{j}}} = 0", "momentum-matrix anticommutation",
                       anticommutator(aj[i], aj[j]), Z8)
    return rep
