"""verify's draw sections run as stacks; the per-draw loops they replace are kept
here as references, and their readings must agree bit for bit."""

import collections
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dirac8 import dispersion, matrices, planewaves, verify
from dirac8.params import QuantumParams
from dirac8.report import VerificationReport

EPSILONS = (0.0, 0.25, 0.5, 2.0, 5.0)  # the epsilons the selfcheck benchmark draws from


def _reference_squaring(rng):
    """(worst4, worst8) of the H_D4 and H_D8 squaring identities, one draw at a time."""
    worst4 = worst8 = 0.0
    for _ in range(100):
        p = rng.uniform(-5, 5, size=3)
        eps = rng.uniform(0.0, 2.0)
        qp = QuantumParams(epsilon=eps)
        scale4 = qp.rest_energy**2 + qp.c**2 * np.dot(p, p)
        H4 = matrices.hamiltonian_d4(p, qp)
        worst4 = max(worst4, float(np.max(np.abs(H4 @ H4 - scale4 * matrices.I4)) / scale4))
        H8 = matrices.hamiltonian_d8(p, qp)
        a0m, a0p = matrices.a_matrix("0-"), matrices.a_matrix("0+")
        expected = (qp.m_f**2 * qp.c**4 * (a0m @ a0m)
                    + qp.m_e**2 * qp.c**4 * (a0p @ a0p)
                    + qp.c**2 * np.dot(p, p) * matrices.I8)
        scale8 = qp.gap_energy**2 + qp.c**2 * np.dot(p, p)
        worst8 = max(worst8, float(np.max(np.abs(H8 @ H8 - expected)) / scale8))
    return worst4, worst8


def _b3_ratio(solution):
    """solution with the b3/b1 ratio of the positive optical branch scaled by 1.01."""
    if solution.branch != dispersion.OPTICAL_PLUS:
        return solution
    amplitudes = solution.amplitudes.copy()
    amplitudes[planewaves.SPIN_SLOTS[solution.spin][1::2]] *= 1.01
    return dataclasses.replace(solution, amplitudes=amplitudes)


def _reference_deviation(branch, p_z, qp, fault):
    """One amplitude vector against a null-space basis from its own SVD."""
    E = dispersion.branch_energy(branch, p_z, qp)
    sol = planewaves.build_solution(branch, "up", p_z, qp)
    if fault is not None:
        sol = _b3_ratio(sol)
    H = matrices.hamiltonian_d8((0.0, 0.0, p_z), qp)
    _, s, vh = np.linalg.svd(H - E * np.eye(8))
    norm = s[0] if s[0] > 0 else 1.0
    basis = [vh[i].conj() for i in range(len(s)) if s[i] < 1e-8 * norm]
    if not basis:
        return math.inf
    v = sol.amplitudes / np.linalg.norm(sol.amplitudes)
    proj = sum(np.vdot(w, v) * w for w in basis)
    return float(np.linalg.norm(v - proj))


def _reference_amplitudes(rng, fault):
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(-5, 5)
        qp = QuantumParams(epsilon=rng.uniform(0.05, 2.0))
        for b in dispersion.BRANCHES:
            worst = max(worst, _reference_deviation(b, p, qp, fault))
    return worst


def _reference_eigen():
    worst_imag = worst_match = 0.0
    for eps in (0.25, 0.5, 2.0):
        qp = QuantumParams(epsilon=eps)
        for p in (0.0, 0.5, 1.0, 3.0):
            ev = np.linalg.eigvals(matrices.hamiltonian_d8((0.0, 0.0, p), qp))
            worst_imag = max(worst_imag, float(np.abs(ev.imag).max()) / qp.rest_energy)
            expected = np.sort(np.repeat(
                [dispersion.branch_energy(b, p, qp) for b in dispersion.BRANCHES], 2))
            worst_match = max(worst_match, float(
                np.max(np.abs(np.sort(ev.real) - expected)) / qp.gap_energy))
    return worst_imag, worst_match


def _reference_determinant(qp):
    return max(abs(dispersion.dirac_determinant(dispersion.branch_energy(b, p, qp), p, qp))
               for p in np.linspace(-10, 10, 41) for b in dispersion.BRANCHES)


def _readings(section, *args):
    rep = VerificationReport()
    section(rep, *args)
    return [c.measured for c in rep.checks]


@pytest.mark.parametrize("fault", [None, "b3-ratio"])
def test_stacked_draw_sections_equal_the_per_draw_loops(fault):
    # full_report hands one generator to the squaring and then the amplitude section
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _readings(verify._squaring_checks, rng) == list(_reference_squaring(ref))
        assert (_readings(verify._amplitude_checks, rng, fault)
                == [_reference_amplitudes(ref, fault)])
        assert rng.bit_generator.state == ref.bit_generator.state


def test_the_library_stays_clean_during_a_faulted_report(monkeypatch):
    # the chain section runs between the faulted sections; a library call made
    # there builds the clean solution
    qp = QuantumParams(epsilon=0.5)
    clean = planewaves.build_solution(dispersion.OPTICAL_PLUS, "up", 1.0, qp)
    chain_checks, seen = verify._chain_checks, []

    def spy(rep):
        seen.append(planewaves.build_solution(dispersion.OPTICAL_PLUS, "up", 1.0, qp))
        chain_checks(rep)

    monkeypatch.setattr(verify, "_chain_checks", spy)
    assert len(verify.full_report(corrupt="b3-ratio").failures) == 3
    assert len(seen) == 1 and np.array_equal(seen[0].amplitudes, clean.amplitudes)


@pytest.mark.parametrize("epsilon", (0.0, 0.5, 5.0))
def test_an_outside_patch_of_build_solution_gives_the_faulted_report(monkeypatch, epsilon):
    # the fault applied by wrapping the library's constructor, as a harness would
    faulted = verify.full_report(epsilon, corrupt="b3-ratio").to_rows()
    build = planewaves.build_solution
    monkeypatch.setattr(planewaves, "build_solution", lambda *args: _b3_ratio(build(*args)))
    assert verify.full_report(epsilon).to_rows() == faulted


def test_stacked_matrix_sections_equal_the_per_matrix_loops():
    assert _readings(verify._eigen_checks)[:2] == list(_reference_eigen())
    for eps in EPSILONS:
        qp = QuantumParams(epsilon=eps)
        assert _readings(verify._determinant_checks, qp) == [_reference_determinant(qp)]


def test_full_report_makes_one_svd_and_one_eigvals_call(monkeypatch):
    calls = collections.Counter()
    for name in ("svd", "eigvals"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert verify.full_report().passed
    assert calls == {"svd": 1, "eigvals": 1}


def test_nullspace_deviation_stack_equals_lone_calls():
    qp = QuantumParams(epsilon=0.7)
    H = matrices.hamiltonian_d8((0.0, 0.0, 1.3), qp)
    sols = [planewaves.build_solution(b, "up", 1.3, qp) for b in dispersion.BRANCHES]
    vectors = np.array([s.amplitudes for s in sols] + [np.ones(8)])
    operators = np.array([H - s.E * np.eye(8) for s in sols] + [np.eye(8)])
    got = verify.nullspace_deviation(vectors, operators)
    assert got.shape == (5,)
    assert np.all(got[:4] < 1e-14) and got[4] == math.inf  # I has a trivial null space
    lone = [verify.nullspace_deviation(v, M) for v, M in zip(vectors, operators)]
    assert np.array_equal(got, lone)
    assert np.array_equal(verify.nullspace_deviation(vectors.reshape(5, 1, 8),
                                                     operators.reshape(5, 1, 8, 8)),
                          got.reshape(5, 1))


def test_stated_check_count_is_the_reports():
    # the README and full_report's docstring both state how many checks verify runs
    count = len(verify.full_report().checks)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"runs all (\d+) checks", readme) == [str(count)]
    assert re.findall(r"Run all (\d+) checks", verify.full_report.__doc__) == [str(count)]


def test_stated_readings_are_the_reports():
    # the README quotes three of verify's readings as '"<check>" ... reads X against Y'
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    number = r"(\d(?:\.\d+)?e[-+]?\d+)"
    stated = re.findall(rf'"([^"]+)"[^"]*? reads {number} against {number}', readme)
    assert len(stated) == 3
    checks = {c.name: c for c in verify.full_report().checks}
    for name, measured, tolerance in stated:
        assert (f"{checks[name].measured:.1e}", float(tolerance)) == (
            measured, checks[name].tolerance), name


def test_catalog_residuals_catch_spin_down_as_a_plain_relabeling(monkeypatch):
    # spin-down taken as spin-up with Psi_1 <-> Psi_2, Psi_3 <-> Psi_4 swapped in
    # each sector and nothing negated: that solves H_D8 at -p_z, not at +p_z
    build = planewaves.build_solution

    def permuted(branch, spin, p_z, params):
        up = build(branch, "up", p_z, params)
        if spin == "up":
            return up
        return dataclasses.replace(up, spin="down",
                                   amplitudes=up.amplitudes[[1, 0, 3, 2, 5, 4, 7, 6]])

    monkeypatch.setattr(planewaves, "build_solution", permuted)
    rep = verify.full_report()
    failed = {c.name: c for c in rep.checks if not c.passed}
    assert set(failed) == {"catalog residuals"}
    assert failed["catalog residuals"].measured > 1.0
