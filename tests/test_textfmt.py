"""The vectorised CSV cells against ``repr``, value by value and file by file."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac8 import chain, dispersion, evolution, textfmt
from dirac8.cli import main
from dirac8.params import ChainParams, QuantumParams


def _joined(values):
    """The kernel's cells of values, one per line, compacted as the CLI compacts them."""
    with np.errstate(all="raise"):
        cells = textfmt.cells(values).reshape(-1, textfmt.WIDTH)
    block = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return block[block != 0].tobytes().decode("ascii")


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    got = _joined(values).split("\n")[:-1]
    expected = [repr(v) for v in values.tolist()]
    if got != expected:
        bad = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        pytest.fail(f"{values[bad].view(np.uint64):#018x}: {got[bad]!r} != {expected[bad]!r}")


def test_random_bit_patterns():
    bits = np.random.default_rng(20240817).integers(0, 2**64, size=2**20, dtype=np.uint64)
    for chunk in np.split(bits, 16):
        _assert_repr(chunk.view(np.float64))


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert len(powers) == 2098 and powers[0] == 5e-324
    # each binary exponent once with the narrower gap below, once with equal gaps
    above = np.nextafter(powers, np.inf)
    _assert_repr(np.concatenate([powers, -powers, above, np.nextafter(powers, 0)]))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{n}") for n in range(-323, 309)])
    _assert_repr(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]))


def test_integers_around_two_to_the_53():
    ints = np.arange(2**53 - 4096, 2**53 + 4096, dtype=np.int64)
    _assert_repr(np.concatenate([ints, -ints]).astype(np.float64))


def test_extremes_and_specials():
    values = [5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
              sys.float_info.max, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 1e15,
              123456789012345678.0, 1e-4, 1e-5, 0.1, 0.30000000000000004, 2.0**-25]
    _assert_repr(values + [-v for v in values])
    assert _joined(np.array([-np.nan, -0.0])) == "nan\n-0.0\n"


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats(values):
    _assert_repr(values)


def test_cells_keep_the_shape_and_pad_with_nul():
    cells = textfmt.cells(np.array([[1.0, -2.5e-300]]))
    assert cells.shape == (1, 2, textfmt.WIDTH) and cells.dtype == np.uint8
    assert bytes(cells[0, 1]) == b"-2.5e-300".ljust(textfmt.WIDTH, b"\0")
    assert textfmt.cells(np.array([])).shape == (0, textfmt.WIDTH)


# The CLI's CSV before the kernel: the independent reference for whole files.
def _csv(head, frames):
    """The header lines, then one chunk per frame of (label columns, numeric columns) by repr."""
    yield "".join(line + "\n" for line in head)
    for labels, columns in frames:
        cells = [map(repr, col.tolist()) for col in columns]
        yield "\n".join(map(",".join, zip(*labels, *cells))) + "\n"


@pytest.mark.parametrize("argv, n, springs", [
    ([], 128, {}),
    (["--n", "16", "--mode", "3", "--branch", "acoustic", "--I", "0.7", "--M", "2.5"], 16,
     {"I": 0.7, "M": 2.5})], ids=["defaults", "acoustic"])
def test_chain_file_is_the_repr_reference(tmp_path, argv, n, springs):
    csv, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(["chain", *argv, "-o", str(csv), "--summary", str(summary)]) == 0
    s = json.loads(summary.read_text())
    params = ChainParams(**{"m": 1.0, "M": 4.0, "K": 1.0, "I": 1.0, "J": 1.0, "a": 1.0,
                            **springs})
    state = chain.init_mode(n, s["mode_index"], 1e-3, s["branch"], params)
    times, *arrays, _ = chain.simulate(state, s["dt"], s["n_steps"], params,
                                       record_every=max(s["n_steps"] // 400, 1))
    sites = list(map(str, range(n)))
    frames = ((([repr(t)] * n, sites), sample) for t, *sample in zip(times.tolist(), *arrays))
    head = ["# units: natural (hbar = c = m_e = 1)", f"# epsilon: {s['epsilon']!r}",
            "t,site,u,U,du_dt,dU_dt"]
    assert csv.read_text() == "".join(_csv(head, frames))


@pytest.mark.parametrize("n_grid", [1024, 8192])
def test_evolve_file_is_the_repr_reference(tmp_path, n_grid):
    csv = tmp_path / "snap.csv"
    assert main(["evolve", "--n-grid", str(n_grid), "-o", str(csv)]) == 0
    qp = QuantumParams(epsilon=0.5)
    spec = evolution.PacketSpec(k0=1.0, sigma=5.0, branch=dispersion.OPTICAL_PLUS, center=50.0)
    state0 = evolution.init_packet(spec, n_grid, 200.0, qp)
    later = list(evolution.evolve_samples(state0, 40.0 / 20, 20, qp))
    frames = ((([repr(float(s.t))] * n_grid,), (s.z, *np.abs(s.fields) ** 2))
              for s in (state0, later[9], later[19]))
    head = ["# units: natural (hbar = c = m_e = 1)", "# epsilon: 0.5",
            "t,z,psi1_sq,psi3_sq,phi1_sq,phi3_sq"]
    assert csv.read_text() == "".join(_csv(head, frames))


def test_dispersion_file_is_the_repr_reference(tmp_path):
    csv = tmp_path / "disp.csv"
    assert main(["dispersion", "--epsilon", "0.5", "--epsilon", "2", "--epsilon", "0",
                 "-o", str(csv)]) == 0
    grid = np.linspace(-3.0, 3.0, 121)
    expected = "".join(
        "".join(_csv(["# units: natural (hbar = c = m_e = 1)", f"# epsilon: {eps!r}",
                      ",".join(dispersion.FIGURE2_COLUMNS)],
                     [((), dispersion.figure2_table(grid, QuantumParams(epsilon=eps)).T)]))
        for eps in (0.5, 2.0, 0.0))
    assert csv.read_text() == expected
