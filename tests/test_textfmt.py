"""The vectorised CSV cells against ``repr``, value by value and file by file."""

import functools
import json
import math
import sys
import tracemalloc
from fractions import Fraction

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


def test_digits_times_powers_of_ten():
    # d 10^j with up to 16 trailing zeros before the digits are stripped, across the range
    _assert_repr([float(f"{d}e{j + base}") for d in range(1, 10) for j in range(17)
                  for base in (-324, -17, 0, 6, 292)])


@functools.cache
def _schubfach(q, asymmetric):
    """Schubfach's k, g and h for c 2^q, from exact rationals.

    k = floor(log10(2^q)), or of 3/4 2^q where the gap below v is half the gap
    above; 10^-k = beta 2^r with 2^125 <= beta < 2^126, g = floor(beta) + 1 and
    h = q + r + 127.
    """
    width = Fraction(2) ** q * (Fraction(3, 4) if asymmetric else 1)
    k = math.floor(q * math.log10(2))
    while Fraction(10) ** k > width:
        k -= 1
    while Fraction(10) ** (k + 1) <= width:
        k += 1
    scale = Fraction(10) ** -k
    r = scale.numerator.bit_length() - scale.denominator.bit_length() - 126
    while scale / Fraction(2) ** r >= 2**126:
        r += 1
    while scale / Fraction(2) ** r < 2**125:
        r -= 1
    return k, math.floor(scale / Fraction(2) ** r) + 1, q + r + 127


def _rop(g, cp):
    """The reference's rop in Python ints: g cp / 2^127 rounded to odd, after dropping the
    low bit of g1 cp and the low 64 bits of g0 cp, for g = g1 2^63 + g0."""
    z = (g >> 63) * cp // 2 + (g & (2**63 - 1)) * cp // 2**64
    return z >> 63 | (z % 2**63 != 0)


def test_bounds_are_the_reference_products():
    rng = np.random.default_rng(20261018)
    sweep = np.arange(-1074, 972)
    c = np.concatenate([rng.integers(2**52, 2**53, size=10**5, dtype=np.uint64),
                        np.repeat(np.array([2**52, 2**52 + 1, 2**53 - 1], np.uint64), len(sweep)),
                        rng.integers(1, 2**52, size=4096, dtype=np.uint64),  # subnormal
                        np.array([1, 2, 3, 2**51, 2**52 - 1], np.uint64)])
    q = np.concatenate([rng.integers(-1074, 972, size=10**5), np.tile(sweep, 3),
                        np.full(4096 + 5, -1074)])
    with np.errstate(all="raise"):
        got = zip(*(part.tolist() for part in textfmt._bounds(c, q)))
    for ci, qi, row in zip(c.tolist(), q.tolist(), got):
        asymmetric = ci == 2**52 and qi > -1074
        k, g, h = _schubfach(qi, asymmetric)
        bounds = [_rop(g, x << h) for x in (4 * ci - 2 + asymmetric, 4 * ci, 4 * ci + 2)]
        assert row == (k, *bounds), (ci, qi)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats(values):
    _assert_repr(values)


def test_cells_keep_the_shape_and_pad_with_nul():
    cells = textfmt.cells(np.array([[1.0, -2.5e-300]]))
    assert cells.shape == (1, 2, textfmt.WIDTH) and cells.dtype == np.uint8
    assert bytes(cells[0, 1]) == b"-2.5e-300".ljust(textfmt.WIDTH, b"\0")
    assert textfmt.cells(np.array([])).shape == (0, textfmt.WIDTH)


def test_cells_peak_memory_on_a_cli_chunk():
    # 4 columns of 1,365 rows: 1,654,516 bytes was the peak of the kernel that multiplied
    # out each bound's products separately.  4 columns of 2,730 rows, the chain's old pass,
    # and of 5,461 rows, its pass at 32,768 cells: 908,716 and 1,801,840 bytes measured
    # (83.2 and 82.5 bytes a value), bounded at 88 bytes a value.
    for rows, bound in ((1365, 1_654_516), (2730, 88 * 4 * 2730), (5461, 88 * 4 * 5461)):
        values = np.sin(np.arange(4.0 * rows)).reshape(4, rows) * 1e-3
        textfmt.cells(values)  # the tables are built on the first call only
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            textfmt.cells(values)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound, rows


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
     {"I": 0.7, "M": 2.5}),
    # passes of 5,461 rows that cross the 512-site frames
    (["--n", "512", "--mode", "3"], 512, {}),
    (["--n", "512", "--mode", "220", "--branch", "acoustic"], 512, {})],
    ids=["defaults", "acoustic", "n512-optical", "n512-acoustic"])
def test_chain_file_is_the_repr_reference(tmp_path, argv, n, springs):
    csv, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(["chain", *argv, "-o", str(csv), "--summary", str(summary)]) == 0
    s = json.loads(summary.read_text())
    params = ChainParams(**{"m": 1.0, "M": 4.0, "K": 1.0, "I": 1.0, "J": 1.0, "a": 1.0,
                            **springs})
    state = chain.init_mode(n, s["mode_index"], 1e-3, s["branch"], params)
    times, samples, _ = chain.simulate(state, s["dt"], s["n_steps"], params,
                                       record_every=max(s["n_steps"] // 400, 1))
    arrays = (samples.u, samples.U, samples.du_dt, samples.dU_dt)
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
    _, _, snapshots = evolution.packet_track(spec, qp, n_grid, 200.0, 40.0, 20)
    frames = ((([repr(float(s.t))] * n_grid,), (s.z, *np.abs(s.fields) ** 2))
              for s in snapshots)
    head = ["# units: natural (hbar = c = m_e = 1)", "# epsilon: 0.5",
            "t,z,psi1_sq,psi3_sq,phi1_sq,phi3_sq"]
    same = csv.read_text() == "".join(_csv(head, frames))  # no multi-MB diff on failure
    assert same


@pytest.mark.parametrize("extra", [0, 1], ids=["two-passes", "one-row-more"])
def test_dispersion_file_ends_on_a_pass_boundary(tmp_path, extra):
    from dirac8 import cli
    n = 2 * (cli._CHUNK_CELLS // len(dispersion.FIGURE2_COLUMNS)) + extra
    csv = tmp_path / "disp.csv"
    assert main(["dispersion", "--n", str(n), "-o", str(csv)]) == 0
    grid = np.linspace(-3.0, 3.0, n)
    head = ["# units: natural (hbar = c = m_e = 1)", "# epsilon: 0.5",
            ",".join(dispersion.FIGURE2_COLUMNS)]
    table = dispersion.figure2_table(grid, QuantumParams(epsilon=0.5)).T
    assert csv.read_text() == "".join(_csv(head, [((), table)]))


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
