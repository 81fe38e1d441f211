import math

import numpy as np
import pytest

from dirac8 import dispersion as dsp
from dirac8.params import ContinuumParams, ParameterError, QuantumParams


def test_parse_branch():
    assert dsp.parse_branch("optical+") is dsp.OPTICAL_PLUS
    assert dsp.parse_branch("acoustic-") is dsp.ACOUSTIC_MINUS
    with pytest.raises(ValueError):
        dsp.parse_branch("optic")


@pytest.mark.parametrize("kwargs", [
    dict(epsilon=1e300),           # gap energy squared overflows
    dict(c=1e200),                 # c^2 overflows
    dict(m_e=1e-250, c=1e160),     # c^2 overflows though m_e c^2 fits
    dict(hbar=1e-320),             # omega_O overflows
    dict(epsilon=1e10, hbar=1e-300),  # only omega_A overflows
])
def test_quantum_params_reject_unrepresentable_scales(kwargs):
    with pytest.raises(ParameterError):
        QuantumParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(s_m=math.nan),        # nan fails every comparison, so min(...) < 0 let it through
    dict(s_M=math.inf),
    dict(omega_O=math.nan),
    dict(omega_A=-0.5),
    dict(s_m=1e200),           # the square overflows
])
def test_continuum_params_reject_nonfinite_or_negative(kwargs):
    with pytest.raises(ParameterError):
        ContinuumParams(**{**dict(s_m=1.0, s_M=1.0, omega_O=1.0, omega_A=0.5), **kwargs})


def test_continuum_dispersion_at_zero():
    cp = ContinuumParams(s_m=1.0, s_M=1.0, omega_O=1.0, omega_A=0.5)
    lo, hi = dsp.continuum_dispersion(0.0, cp)
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(1.25)


def test_continuum_dispersion_equal_speeds():
    cp = ContinuumParams(s_m=1.0, s_M=1.0, omega_O=1.0, omega_A=0.5)
    lo, hi = dsp.continuum_dispersion(1.0, cp)
    assert lo == pytest.approx(1.0, rel=1e-14)
    assert hi == pytest.approx(2.25, rel=1e-14)


def test_continuum_dispersion_unequal_speeds_against_root_oracle():
    cp = ContinuumParams(s_m=0.7, s_M=1.3, omega_O=1.1, omega_A=0.4)
    ks = (0.3, 1.0, 2.5)
    for k in ks:
        a = cp.s_m**2 * k**2 + cp.omega_O**2
        b = cp.s_M**2 * k**2 + cp.omega_A**2
        # quadratic-formula oracle on the 2x2 determinant
        roots = np.sort(np.roots([1.0, -(a + b), a * b - cp.omega_O**2 * cp.omega_A**2]))
        lo, hi = dsp.continuum_dispersion(k, cp)
        assert lo == pytest.approx(roots[0], rel=1e-12)
        assert hi == pytest.approx(roots[1], rel=1e-12)
        assert lo != hi
    # an array of wavenumbers gives the same roots, shape (2, n)
    W = dsp.continuum_dispersion(np.array(ks), cp)
    assert W.shape == (2, len(ks))
    np.testing.assert_allclose(W, np.array([dsp.continuum_dispersion(k, cp) for k in ks]).T,
                               rtol=1e-15)


def test_determinant_roots():
    qp = QuantumParams(epsilon=0.5)
    assert dsp.dirac_determinant(qp.c * 1.7, 1.7, qp) == pytest.approx(0.0, abs=1e-12)
    E = math.sqrt((qp.c * 1.7) ** 2 + qp.gap_energy**2)
    assert dsp.dirac_determinant(E, 1.7, qp) == pytest.approx(0.0, abs=1e-12)
    assert dsp.dirac_determinant(0.0, 0.0, qp) == 0.0


def test_branch_energy_examples():
    qp = QuantumParams(epsilon=0.5)
    assert dsp.branch_energy(dsp.ACOUSTIC_PLUS, 2.0, qp) == pytest.approx(2.0)
    assert dsp.branch_energy(dsp.OPTICAL_PLUS, 0.0, qp) == pytest.approx(math.sqrt(1.25))
    qp0 = QuantumParams(epsilon=0.0)
    assert dsp.branch_energy(dsp.OPTICAL_MINUS, 0.0, qp0) == pytest.approx(-1.0)


def test_phase_velocity_examples():
    qp = QuantumParams(epsilon=0.5)
    assert dsp.phase_velocity(dsp.ACOUSTIC_PLUS, 0.7, qp) == pytest.approx(1.0)
    assert dsp.phase_velocity(dsp.ACOUSTIC_MINUS, 0.7, qp) == pytest.approx(-1.0)
    assert dsp.phase_velocity(dsp.OPTICAL_PLUS, 1.0, qp) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        dsp.phase_velocity(dsp.ACOUSTIC_PLUS, 0.0, qp)


def test_group_velocity_examples():
    qp = QuantumParams(epsilon=0.5)
    assert dsp.group_velocity(dsp.ACOUSTIC_PLUS, 0.3, qp) == pytest.approx(1.0)
    assert dsp.group_velocity(dsp.OPTICAL_PLUS, 1.0, qp) == pytest.approx(2.0 / 3.0)
    assert dsp.group_velocity(dsp.OPTICAL_PLUS, 0.0, qp) == 0.0


def test_velocity_product_law():
    qp = QuantumParams(epsilon=0.5)
    for k in (0.1, 0.5, 1.0, 2.0, 5.0, -1.3):
        for b in dsp.BRANCHES:
            prod = dsp.phase_velocity(b, k, qp) * dsp.group_velocity(b, k, qp)
            assert abs(prod - qp.c**2) < 1e-12 * qp.c**2


def test_optical_group_speed_subluminal():
    qp = QuantumParams(epsilon=0.5)
    for k in np.linspace(0.01, 20, 50):
        assert abs(dsp.group_velocity(dsp.OPTICAL_PLUS, k, qp)) < qp.c


def test_figure2_table_rows():
    rows = dsp.figure2_table([0.0, 1.0], QuantumParams(epsilon=0.5))
    assert rows.shape == (2, 5)
    p0 = rows[0]
    assert p0[1] == 0.0 and p0[2] == 0.0
    assert p0[3] == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert p0[4] == pytest.approx(-math.sqrt(1.25), abs=1e-12)
    rows0 = dsp.figure2_table([0.0], QuantumParams(epsilon=0.0))
    assert rows0[0][3] == pytest.approx(1.0, abs=1e-12)


def test_optical_energy_asymptotics():
    qp = QuantumParams(epsilon=0.5)
    ratios = [dsp.branch_energy(dsp.OPTICAL_PLUS, p, qp) / (qp.c * p)
              for p in (5.0, 20.0, 100.0)]
    assert all(r > 1 for r in ratios)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] == pytest.approx(1.0, abs=1e-4)


def test_zero_mass_ratio_continuity():
    p = 1.3
    base = QuantumParams(epsilon=0.0)
    limit = math.sqrt((base.c * p) ** 2 + base.rest_energy**2)
    for eps in (1e-3, 1e-5):
        qp = QuantumParams(epsilon=eps)
        assert dsp.branch_energy(dsp.OPTICAL_PLUS, p, qp) == pytest.approx(
            limit, rel=1e-5)


def test_continuum_matches_quantum_mapping():
    # with s_m = s_M = c, w_O = m_e c^2/hbar, w_A = eps m_e c^2/hbar the
    # continuum roots equal the squared branch energies divided by hbar^2
    qp = QuantumParams(epsilon=0.5, hbar=1.7, c=0.9, m_e=1.3)
    cp = ContinuumParams.from_quantum(qp)
    for p in (0.4, 1.1):
        k = p / qp.hbar
        lo, hi = dsp.continuum_dispersion(k, cp)
        E_ac = dsp.branch_energy(dsp.ACOUSTIC_PLUS, p, qp)
        E_op = dsp.branch_energy(dsp.OPTICAL_PLUS, p, qp)
        assert lo == pytest.approx(E_ac**2 / qp.hbar**2, rel=1e-12)
        assert hi == pytest.approx(E_op**2 / qp.hbar**2, rel=1e-12)


@pytest.mark.parametrize("eps", (0.0, 0.5, 5.0))
def test_branch_energy_array_equals_scalar_calls(eps):
    qp = QuantumParams(epsilon=eps)
    ps = np.concatenate([np.linspace(-7.3, 7.3, 301),
                         np.random.default_rng(3).uniform(-50, 50, 500)])
    assert 0.0 in ps
    for b in dsp.BRANCHES:
        scalar = np.array([dsp.branch_energy(b, p, qp) for p in ps.tolist()])
        assert np.array_equal(dsp.branch_energy(b, ps, qp), scalar)


def test_modes_take_a_scalar_as_one_wavenumber():
    qp = QuantumParams(epsilon=0.5)
    scalar, listed = dsp.modes(0.7, qp), dsp.modes([0.7], qp)
    assert [a.shape for a in scalar] == [(1, 4), (1, 4, 4), (1, 4, 4)]
    for a, b in zip(scalar, listed):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="1-D"):
        dsp.modes(np.zeros((2, 3)), qp)
