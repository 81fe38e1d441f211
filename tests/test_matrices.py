import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirac8 import matrices
from dirac8.dispersion import BRANCHES, branch_energy
from dirac8.params import QuantumParams


def test_alpha_blocks():
    a0 = matrices.alpha(0)
    assert np.array_equal(a0, np.diag([1, 1, -1, -1]))
    a3 = matrices.alpha(3)
    assert np.array_equal(a3[:2, 2:], [[1, 0], [0, -1]])
    assert np.array_equal(a3[2:, :2], [[1, 0], [0, -1]])
    assert np.array_equal(a3[:2, :2], matrices.Z2)


def test_alpha_squares():
    for j in range(4):
        a = matrices.alpha(j)
        assert np.array_equal(a @ a, matrices.I4)


def test_alpha_index_range():
    with pytest.raises(ValueError):
        matrices.alpha(4)


def test_a_matrix_squares():
    a1 = matrices.a_matrix("1")
    assert np.array_equal(a1 @ a1, matrices.I8)
    a0m = matrices.a_matrix("0-")
    low = np.block([[matrices.Z4, matrices.Z4], [-matrices.I4, matrices.I4]])
    assert np.array_equal(a0m @ a0m, low)
    a0p = matrices.a_matrix("0+")
    up = np.block([[matrices.I4, -matrices.I4], [matrices.Z4, matrices.Z4]])
    assert np.array_equal(a0p @ a0p, up)


def test_a_matrix_bad_tag():
    with pytest.raises(ValueError):
        matrices.a_matrix("4")


def test_basis_matrices_are_returned_as_copies():
    for get, key in ((matrices.alpha, 0), (matrices.alpha, 3),
                     (matrices.a_matrix, "0-"), (matrices.a_matrix, "2")):
        before = get(key)
        get(key)[...] = 7.0
        assert np.array_equal(get(key), before)
    matrices.alpha(0)[0, 0] = 5.0
    assert np.array_equal(matrices.hamiltonian_d4((0, 0, 0), QuantumParams()),
                          np.diag([1, 1, -1, -1]))


def test_anticommutator_examples():
    assert np.array_equal(
        matrices.anticommutator(matrices.alpha(1), matrices.alpha(2)), matrices.Z4)
    assert np.array_equal(
        matrices.anticommutator(matrices.a_matrix("1"), matrices.a_matrix("2")),
        matrices.Z8)
    assert np.array_equal(
        matrices.anticommutator(matrices.a_matrix("0-"), matrices.a_matrix("1")),
        matrices.Z8)


def test_anticommutator_size_mismatch():
    with pytest.raises(ValueError):
        matrices.anticommutator(matrices.I2, matrices.I4)


def test_check_algebra_all_pass():
    rep = matrices.check_algebra()
    assert rep.passed
    assert len(rep.checks) >= 25


def test_hamiltonian_d4_rest():
    qp = QuantumParams()
    H = matrices.hamiltonian_d4((0, 0, 0), qp)
    assert np.array_equal(H, qp.rest_energy * matrices.alpha(0))
    assert np.allclose(H @ H, qp.rest_energy**2 * matrices.I4)


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.floats(0, 2))
def test_hamiltonian_squaring(p, eps):
    qp = QuantumParams(epsilon=eps)
    H4 = matrices.hamiltonian_d4(p, qp)
    scale = qp.rest_energy**2 + qp.c**2 * np.dot(p, p)
    assert np.max(np.abs(H4 @ H4 - scale * matrices.I4)) < 1e-12 * scale

    H8 = matrices.hamiltonian_d8(p, qp)
    a0m, a0p = matrices.a_matrix("0-"), matrices.a_matrix("0+")
    expected = (qp.m_f**2 * qp.c**4 * (a0m @ a0m)
                + qp.m_e**2 * qp.c**4 * (a0p @ a0p)
                + qp.c**2 * np.dot(p, p) * matrices.I8)
    scale8 = qp.gap_energy**2 + qp.c**2 * np.dot(p, p)
    assert np.max(np.abs(H8 @ H8 - expected)) < 1e-12 * scale8


def test_hamiltonian_d8_decouples_at_zero_mass_ratio():
    qp = QuantumParams(epsilon=0.0)
    p = (0.4, -1.1, 0.7)
    H8 = matrices.hamiltonian_d8(p, qp)
    assert np.allclose(H8[:4, :4], matrices.hamiltonian_d4(p, qp))
    # secondary-sector rows carry no mass term
    momentum_only = sum(qp.c * p[j] * matrices.alpha(j + 1) for j in range(3))
    assert np.allclose(H8[4:, 4:], momentum_only)


def test_hamiltonian_d8_eigenvalues_at_rest():
    qp = QuantumParams(epsilon=0.5)
    ev = np.sort(np.linalg.eigvals(matrices.hamiltonian_d8((0, 0, 0), qp)).real)
    expected = np.sort([0, 0, 0, 0, np.sqrt(1.25), np.sqrt(1.25),
                        -np.sqrt(1.25), -np.sqrt(1.25)])
    assert np.allclose(ev, expected, atol=1e-12)


def test_hamiltonian_d4_hermitian_d8_not():
    qp = QuantumParams(epsilon=0.5)
    p = (0.3, -0.2, 1.1)
    H4 = matrices.hamiltonian_d4(p, qp)
    assert np.allclose(H4, H4.conj().T)
    H8 = matrices.hamiltonian_d8(p, qp)
    assert not np.allclose(H8, H8.conj().T)
    H8h = matrices.hamiltonian_d8(p, QuantumParams(epsilon=1.0))
    assert np.allclose(H8h, H8h.conj().T)


def test_d8_spectrum_matches_branches():
    for eps in (0.25, 0.5, 2.0):
        qp = QuantumParams(epsilon=eps)
        for p in (0.5, 1.0, 3.0):
            ev = np.linalg.eigvals(matrices.hamiltonian_d8((0, 0, p), qp))
            assert np.abs(ev.imag).max() < 1e-10 * qp.rest_energy
            expected = np.sort(np.repeat(
                [branch_energy(b, p, qp) for b in BRANCHES], 2))
            assert np.allclose(np.sort(ev.real), expected, atol=1e-10 * qp.gap_energy)


def test_null_space_trivial_and_full():
    assert not matrices.null_space(matrices.I4).any()
    assert np.array_equal(matrices.null_space(matrices.Z4), matrices.I4)


def test_null_space_orthonormal():
    M = np.diag([1.0, 0.0, 0.0, 2.0]).astype(complex)
    basis = matrices.null_space(M)
    assert basis.shape == (4, 4)
    assert not basis[:2].any()  # the rows of the nonzero singular values, 2 and 1
    G = basis[2:].conj() @ basis[2:].T
    assert np.allclose(G, np.eye(2))
    assert np.allclose(M @ basis[2:].T, 0)


def test_null_space_acoustic_eigenvector():
    qp = QuantumParams(epsilon=0.5)
    p = 0.8
    E = qp.c * p
    H = matrices.hamiltonian_d8((0, 0, p), qp)
    basis = matrices.null_space(H - E * np.eye(8))
    assert np.count_nonzero(basis.any(axis=1)) == 2  # spin degeneracy
    v = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=complex)
    v /= np.linalg.norm(v)
    proj = (basis.conj() @ v) @ basis
    assert np.linalg.norm(v - proj) < 1e-12


def test_null_space_of_a_stack_equals_lone_calls():
    qp = QuantumParams(epsilon=0.5)
    H = matrices.hamiltonian_d8((0, 0, 0.8), qp)
    stack = np.array([[H - 0.8 * np.eye(8), np.eye(8)], [np.zeros((8, 8)), H]])
    got = matrices.null_space(stack)
    assert got.shape == (2, 2, 8, 8)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(got[i, j], matrices.null_space(stack[i, j]))
    with pytest.raises(ValueError):
        matrices.null_space(np.ones((2, 3)))
