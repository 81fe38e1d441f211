import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dirac8 import chain, verify
from dirac8.cli import build_parser, main
from dirac8.params import ChainParams


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_dispersion_table(tmp_path):
    out = tmp_path / "disp.csv"
    code = main(["dispersion", "--epsilon", "0.5", "--epsilon", "0",
                 "--pmax", "3", "--n", "121", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("#")
    headers = [l for l in lines if l.startswith("p_z,")]
    assert len(headers) == 2
    assert headers[0] == "p_z,E_acoustic_plus,E_acoustic_minus,E_optical_plus,E_optical_minus"
    data = [l for l in lines if not l.startswith(("#", "p_z"))]
    assert len(data) == 242
    # mid-grid row is p_z = 0
    row = [float(x) for x in data[60].split(",")]
    assert row[0] == 0.0
    assert row[3] == pytest.approx(math.sqrt(1.25), abs=1e-12)
    row0 = [float(x) for x in data[121 + 60].split(",")]
    assert row0[3] == pytest.approx(1.0, abs=1e-12)
    # monotone positive-optical column
    eo = [float(l.split(",")[3]) for l in data[60:121]]
    assert all(b > a for a, b in zip(eo, eo[1:]))


def test_dispersion_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["dispersion", "--pmax", "2", "--n", "41", "-o", str(a)])
    main(["dispersion", "--pmax", "2", "--n", "41", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_dispersion_usage_error():
    assert main(["dispersion", "--pmax", "-1"]) == 2


def test_unit_flags_alone_select_the_units(capsys):
    # the three numbers are the unit system: --m-e 2 doubles the gap at p_z = 0
    assert main(["dispersion", "--m-e", "2", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# units: custom (m_e=2.0, c=1.0, hbar=1.0)"
    assert lines[4].split(",")[:4] == ["0.0", "0.0", "-0.0", "2.23606797749979"]


def test_unknown_subcommand_exits_2(capsys):
    for argv in ([], ["no-such-command"], ["--bogus"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dirac8: error: ") and err.count("\n") == 1


def test_verify_fast_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "-o", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "# units" in printed and "PASS" in printed
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert any("single momentum term" in n for n in rep["notes"])
    assert rep["seed"] == 20240817 and "fast" not in rep
    assert len(rep["checks"]) == 52
    assert set(rep["versions"]) == {"python", "numpy", "platform"}


def test_verify_times_each_section_in_the_json_only(tmp_path, capsys):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["verify", "-o", str(out)]) == 0
    elapsed = time.perf_counter() - start
    printed = capsys.readouterr().out
    rep = json.loads(out.read_text())
    assert list(rep) == ["epsilon", "seed", "versions", "passed", "notes", "checks", "timings"]
    timings = rep["timings"]
    assert list(timings) == ["_squaring_checks", "_determinant_checks", "_velocity_checks",
                             "_eigen_checks", "_amplitude_checks", "_catalog_checks",
                             "_chain_checks", "_evolution_checks"]
    assert all(isinstance(s, float) and s >= 0 for s in timings.values())
    assert sum(timings.values()) <= elapsed
    assert "timing" not in printed and "_checks" not in printed
    assert not any(repr(s) in printed for s in timings.values())


def test_verify_fault_injection(tmp_path, monkeypatch, capsys):
    # the CLI has no fault flag; switch the library's fault hook on under it
    full_report = verify.full_report
    monkeypatch.setattr(verify, "full_report",
                        lambda **kwargs: full_report(corrupt="b3-ratio", **kwargs))
    out = tmp_path / "report.json"
    for epsilon in ("0", "0.5", "5"):
        assert main(["verify", "--epsilon", epsilon, "-o", str(out)]) == 1
        failed = {c["name"] for c in json.loads(out.read_text())["checks"]
                  if c["status"] == "fail"}
        assert failed == {"closed-form amplitudes match null space", "catalog residuals",
                          "spectral plane-wave phase advance"}
        assert capsys.readouterr().out.count("\nFAIL  ") == 3


def test_verify_hermitian_at_unit_ratio(capsys):
    code = main(["verify", "--epsilon", "1"])
    assert code == 0
    assert "Hermitian" in capsys.readouterr().out


def test_chain_run(tmp_path):
    traj = tmp_path / "traj.csv"
    summ = tmp_path / "summary.json"
    code = main(["chain", "--m", "1", "--M", "4", "--K", "1", "--I", "1",
                 "--J", "1", "--a", "1", "--mode", "2", "--n", "128",
                 "-o", str(traj), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    assert s["relative_error"] < 1e-4
    assert s["continuum_convergence_exponent"] == pytest.approx(2.0, abs=0.2)
    assert s["epsilon"] == pytest.approx(0.5)
    lines = traj.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "t,site,u,U,du_dt,dU_dt" in lines[:3]


def test_chain_summary_reports_the_run(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(["chain", "-o", str(tmp_path / "t.csv"), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    assert list(s) == ["mode_index", "branch", "wavenumber", "omega_dispersion",
                       "omega_measured", "relative_error", "continuum_convergence_exponent",
                       "epsilon", "dt", "n_steps", "n_samples", "stability_margin",
                       "relative_energy_drift",
                       "omega_verlet", "relative_modified_energy_drift"]
    omega_max = chain.max_frequency(ChainParams(m=1, M=4, K=1, I=1, J=1, a=1))
    assert s["dt"] == 0.01 / omega_max
    assert s["stability_margin"] == pytest.approx(0.01, rel=1e-12)
    assert 0 < s["relative_energy_drift"] < 1e-6
    assert s["omega_verlet"] == chain.verlet_frequency(s["omega_dispersion"], s["dt"])
    assert s["omega_verlet"] > s["omega_dispersion"]
    assert s["relative_modified_energy_drift"] < 1e-12
    assert s["n_steps"] == int(8 * 2 * math.pi / s["omega_dispersion"] / s["dt"])


@pytest.mark.parametrize("argv, n_sites", [([], 128),
                                           (["--n", "128", "--mode", "1", "--branch",
                                             "acoustic"], 128)])
def test_chain_summary_counts_the_recorded_frames(tmp_path, argv, n_sites):
    csv, summ = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(["chain", *argv, "-o", str(csv), "--summary", str(summ)]) == 0
    s = json.loads(summ.read_text())
    lines = csv.read_text().splitlines()
    assert len(lines) - lines.index("t,site,u,U,du_dt,dU_dt") - 1 == s["n_samples"] * n_sites
    assert s["n_samples"] == s["n_steps"] // max(s["n_steps"] // 400, 1) + 1


@pytest.mark.parametrize("argv", [["--periods", "12.25"], ["--n", "512", "--mode", "6"],
                                  ["--n", "128", "--mode", "1", "--branch", "acoustic"]])
def test_chain_measures_the_verlet_frequency(tmp_path, argv):
    # a partial last period does not bias the measured frequency, and the spacing of
    # the recorded steps is exact however many steps the run takes (364,518 in the last)
    summ = tmp_path / "summary.json"
    assert main(["chain", *argv, "-o", os.devnull, "--summary", str(summ)]) == 0
    s = json.loads(summ.read_text())
    assert abs(s["omega_measured"] - s["omega_verlet"]) / s["omega_verlet"] <= 1e-13


def test_chain_periods_keep_eight_frames_a_period(tmp_path, capsys):
    # ~400 frames a run: past 50 periods the site-0 series would alias the mode
    summ = tmp_path / "summary.json"
    assert main(["chain", "--n", "16", "--periods", "250", "--summary", str(summ)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dirac8 chain: error: --periods ")
    assert not summ.exists()
    code = main(["chain", "--n", "16", "--periods", "50", "-o", str(tmp_path / "t.csv"),
                 "--summary", str(summ)])
    assert code == 0
    assert json.loads(summ.read_text())["relative_error"] < 1e-4


def test_chain_csv_matches_rowwise_reference(tmp_path):
    csv, summ = tmp_path / "t.csv", tmp_path / "summary.json"
    code = main(["chain", "--n", "16", "--mode", "3", "--M", "2.5", "--I", "0.7",
                 "-o", str(csv), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    params = ChainParams(m=1, M=2.5, K=1, I=0.7, J=1, a=1)
    state = chain.init_mode(16, 3, 1e-3, "optical", params)
    times, samples, _ = chain.simulate(state, s["dt"], s["n_steps"], params,
                                       record_every=max(s["n_steps"] // 400, 1))
    arrays = (samples.u, samples.U, samples.du_dt, samples.dU_dt)
    lines = ["# units: natural (hbar = c = m_e = 1)", f"# epsilon: {s['epsilon']!r}",
             "t,site,u,U,du_dt,dU_dt"]
    for f, t in enumerate(times.tolist()):
        for site in range(16):
            row = [t, site] + [a[f, site].item() for a in arrays]
            lines.append(",".join(map(repr, row)))
    assert csv.read_text() == "\n".join(lines) + "\n"


def test_chain_zero_mode(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(["chain", "--mode", "0", "--branch", "acoustic", "--n", "16",
                 "-o", str(tmp_path / "t.csv"), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    assert s["omega_dispersion"] == 0.0
    assert s["omega_measured"] == 0.0


def test_chain_unstable_dt(capsys):
    assert main(["chain", "--dt", "10.0", "-o", "/dev/null"]) == 1
    assert capsys.readouterr().err == ("dirac8 chain: error: time step violates the "
                                       "stability bound dt * omega_max < 2\n")


@pytest.mark.parametrize("argv", [
    ["chain", "--amplitude", "5e-324", "-o", os.devnull],  # the displacements underflow to 0
    ["verify", "--epsilon", "1e20"],  # the packets are too slow to measure
])
def test_unmeasurable_runs_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == (argv[0] == "chain")  # verify reports its failed checks on stdout
    assert all(line.startswith(f"dirac8 {argv[0]}: error: ") for line in err)


def test_chain_bad_mode():
    assert main(["chain", "--mode", "500", "--n", "16"]) == 2


def test_solutions_catalog(tmp_path):
    out = tmp_path / "sols.json"
    code = main(["solutions", "--pz", "1", "--epsilon", "0.5", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["solutions"]) == 8
    assert data["independence_determinant"] > 1e-8
    for entry in data["solutions"]:
        assert entry["residual"] < 1e-10
        amps = np.array([complex(re, im) for re, im in entry["amplitudes"]])
        if entry["spin"] == "down":
            assert np.all(amps[[0, 2, 4, 6]] == 0)
        else:
            assert np.all(amps[[1, 3, 5, 7]] == 0)


def test_evolve_optical(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(["evolve", "--branch", "optical+", "--k0", "1",
                 "--epsilon", "0.5", "--sigma", "8", "--n-grid", "512",
                 "--L", "100", "--t-total", "20", "--samples", "10",
                 "-o", str(tmp_path / "snap.csv"), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    assert s["analytic_group_velocity"] == pytest.approx(2.0 / 3.0)
    assert s["relative_error"] < 1e-2
    snap = (tmp_path / "snap.csv").read_text().splitlines()
    assert snap[0].startswith("#")
    assert "t,z,psi1_sq,psi3_sq,phi1_sq,phi3_sq" in snap[:3]


def test_evolve_underresolved_packet():
    assert main(["evolve", "--sigma", "0.01", "--n-grid", "128",
                 "--L", "100"]) == 2


def test_evolve_stationary(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(["evolve", "--branch", "optical+", "--k0", "0",
                 "--sigma", "8", "--n-grid", "512", "--L", "100",
                 "--t-total", "20", "--samples", "10", "--center", "50",
                 "-o", str(tmp_path / "s.csv"), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    assert abs(s["measured_group_velocity"]) < 0.01


@pytest.mark.parametrize("branch, speed", [("acoustic+", "1.0"), ("acoustic-", "-1.0"),
                                           ("optical+", "0.0"), ("optical-", "0.0")])
def test_evolve_group_velocity_at_zero_wavenumber(branch, speed, tmp_path):
    # c on the acoustic branches at every k, k0 = 0 included; 0.0, never -0.0, on the optical
    summ = tmp_path / "summary.json"
    assert main(["evolve", "--branch", branch, "--k0", "0", "-o", os.devnull,
                 "--summary", str(summ)]) == 0
    text = summ.read_text()
    assert f'"analytic_group_velocity": {speed},' in text
    s = json.loads(text)
    if s["analytic_group_velocity"]:
        assert s["relative_error"] < 1e-12
    else:
        assert s["relative_error"] is None


def _python(*args):
    """Run a fresh interpreter that imports this checkout's dirac8."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_import_leaves_scipy_out():
    proc = _python("-c", "import dirac8.cli, sys; assert not any("
                   "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    assert proc.returncode == 0, proc.stderr


# The modules outside the package that src/ imports, and locale, which argparse
# loads to build a parser: the CLI's start-up loads nothing beyond what they load.
_STARTUP_IMPORTS = ("__future__", "argparse", "collections.abc", "dataclasses", "itertools",
                    "json", "locale", "math", "os", "platform", "sys", "typing", "warnings",
                    "numpy")


def test_cli_startup_builds_no_table_and_imports_nothing_new():
    listing = "print(' '.join(m for m in sys.modules if not m.startswith('dirac8')))"
    proc = _python("-c", "import sys, dirac8.cli, dirac8.textfmt, numpy\n"
                   "dirac8.cli.build_parser()\n"
                   "print(dirac8.textfmt._tables.cache_info().currsize, *(name for name, value in "
                   "vars(dirac8.textfmt).items() if isinstance(value, numpy.ndarray)))\n"
                   + listing)
    assert proc.returncode == 0, proc.stderr
    built, loaded = proc.stdout.splitlines()
    reference = _python("-c", f"import {', '.join(_STARTUP_IMPORTS)}\n" + listing)
    assert built == "0"  # nor is any array made at module level
    assert set(loaded.split()) <= set(reference.stdout.split())


def test_closed_stdout_exits_1_quietly():
    proc = _python("-c", "import subprocess, sys\n"
                   "p = subprocess.Popen([sys.executable, '-m', 'dirac8.cli', 'dispersion', "
                   "'--n', '5000'], stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
                   "p.stdout.readline()\n"
                   "p.stdout.close()\n"
                   "sys.stderr.write(p.stderr.read().decode())\n"
                   "sys.exit(p.wait())")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


# The CSV pipeline: passes formatted on worker threads and written in order.
def _table():
    """A small _csv table of many passes: a written column, then four float columns."""
    values = np.random.default_rng(19).standard_normal((4, 37, 11))
    labels = np.arange(11).astype("S").view(np.uint8).reshape(1, 11, -1)
    return ["# head", "label,a,b,c,d"], (37, 11), [labels, *values]


def _csv_threads():
    return [t for t in threading.enumerate() if t.name.startswith("dirac8-csv")]


@pytest.fixture
def passes(monkeypatch):
    """Passes of 12 rows on two workers, and each ``textfmt.cells`` call's values,
    thread and overflow mode."""
    from dirac8 import cli, textfmt
    monkeypatch.setattr(cli, "_CHUNK_CELLS", 60)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls, cells = [], textfmt.cells

    def recorded(values):
        values = np.asarray(values, dtype=float)
        calls.append((values, threading.current_thread().name, np.geterr()["over"]))
        return cells(values)

    monkeypatch.setattr(textfmt, "cells", recorded)
    return calls


def _serial(head, shape, columns):
    """The table as one pass on the calling thread: the pipeline's reference."""
    from dirac8 import cli
    return "".join(line + "\n" for line in head) + cli._pass(shape, columns, 0, math.prod(shape))


def test_csv_passes_finishing_out_of_order_are_written_in_order(passes, monkeypatch):
    from dirac8 import cli, textfmt
    head, shape, columns = _table()
    expected = _serial(head, shape, columns)
    first, finished, recorded = columns[1].flat[0], [], textfmt.cells

    def first_pass_sleeps(values):
        values = np.asarray(values, dtype=float)
        if values.size and values.flat[0] == first:
            time.sleep(0.2)
        out = recorded(values)
        if values.size:
            finished.append(values.flat[0])
        return out

    monkeypatch.setattr(textfmt, "cells", first_pass_sleeps)
    assert "".join(cli._csv(head, shape, columns)) == expected
    assert len(finished) == 34 and finished[0] != first  # a later pass finished first


def test_csv_passes_match_the_serial_table_under_fast_thread_switching(passes):
    from dirac8 import cli
    head, shape, columns = _table()
    expected = _serial(head, shape, columns)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert "".join(cli._csv(head, shape, columns)) == expected
    finally:
        sys.setswitchinterval(interval)


def test_csv_reraises_a_pass_error_and_joins_its_workers(passes, monkeypatch):
    from dirac8 import cli, textfmt
    head, shape, columns = _table()
    baseline = threading.active_count()
    third, recorded = columns[1].flat[2 * 12], textfmt.cells  # the first float of pass 3

    def third_pass_fails(values):
        values = np.asarray(values, dtype=float)
        if values.size and values.flat[0] == third:
            raise RuntimeError("pass 3")
        return recorded(values)

    monkeypatch.setattr(textfmt, "cells", third_pass_fails)
    with pytest.raises(RuntimeError, match="pass 3"):
        "".join(cli._csv(head, shape, columns))
    assert threading.active_count() == baseline and not _csv_threads()


def test_closing_the_csv_generator_early_joins_its_workers(passes):
    from dirac8 import cli
    head, shape, columns = _table()
    first = cli._pass(shape, columns, 0, 12)
    passes.clear()
    baseline = threading.active_count()
    chunks = cli._csv(head, shape, columns)
    assert next(chunks) == "# head\nlabel,a,b,c,d\n"
    assert next(chunks) == first
    assert _csv_threads()
    chunks.close()
    assert threading.active_count() == baseline and not _csv_threads()
    # of the table's 34 passes, no more than the three in flight were formatted
    assert sum(values.size > 0 for values, _, _ in passes) <= 3


def test_csv_workers_keep_mains_float_errors(passes, tmp_path):
    assert main(["chain", "--n", "16", "-o", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 0
    workers = [over for _, thread, over in passes if thread.startswith("dirac8-csv")]
    assert workers and set(workers) == {"raise"}
    assert np.geterr()["over"] == "warn"  # outside main


def test_one_usable_cpu_writes_the_same_bytes(passes, tmp_path, monkeypatch):
    argv = ["chain", "--n", "16", "--mode", "3", "--summary", str(tmp_path / "s.json"), "-o"]
    assert main([*argv, str(tmp_path / "two.csv")]) == 0
    two = {thread for _, thread, _ in passes if thread.startswith("dirac8-csv")}
    passes.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main([*argv, str(tmp_path / "one.csv")]) == 0
    one = {thread for _, thread, _ in passes if thread.startswith("dirac8-csv")}
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert two == {"dirac8-csv_0", "dirac8-csv_1"} and one == {"dirac8-csv_0"}


@pytest.mark.parametrize("samples", ["0", "-3", "two"])
def test_evolve_rejects_nonpositive_samples(samples):
    proc = _python("-m", "dirac8.cli", "evolve", "--samples", samples)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--samples" in proc.stderr.splitlines()[-1]


def test_evolve_deterministic(tmp_path):
    outputs = []
    for name in ("a", "b"):
        csv, summ = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        code = main(["evolve", "--branch", "acoustic-", "--k0", "1.5",
                     "--n-grid", "256", "--L", "100", "--t-total", "10",
                     "--samples", "6", "-o", str(csv), "--summary", str(summ)])
        assert code == 0
        outputs.append((csv.read_bytes(), summ.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["dispersion", "--epsilon", "-1"],
    ["dispersion", "--epsilon", "nan"],
    ["dispersion", "--pmax", "inf"],
    ["dispersion", "--n", "1"],
    ["solutions", "--epsilon", "-1"],
    ["verify", "--epsilon", "-1"],
    ["evolve", "--epsilon", "-1"],
    ["evolve", "--c", "0"],
    ["evolve", "--hbar", "nan"],
    ["evolve", "--t-total", "0"],
    ["evolve", "--samples", "1" + "0" * 400],
    ["evolve", "--n-grid", "0"],
    ["evolve", "--L", "-5"],
    ["evolve", "--n-grid", "1000"],
    ["evolve", "--sigma", "-1"],
    ["evolve", "--sigma", "0.01", "--n-grid", "128", "--L", "100"],
    ["evolve", "--k0", "nan"],
    ["evolve", "--k0", "1e308"],
    ["evolve", "--center", "inf"],
    ["solutions", "--pz", "nan"],
    ["chain", "--dt", "-1"],
    ["chain", "--amplitude", "0"],
    ["chain", "--m", "0"],
    ["chain", "--I", "-1"],
    ["chain", "--periods", "1"],
    ["chain", "--periods", "2"],
    ["chain", "--periods", "2.5"],
    ["dispersion", "--epsilon", "1e300"],
    ["verify", "--epsilon", "1e300"],
    ["dispersion", "--c", "1e200"],
    ["chain", "--m", "1e-300", "--K", "1e300", "--n", "8", "--mode", "1"],
    ["chain", "--m", "1e300", "--M", "1e300", "--K", "1e-300", "--I", "0", "--J", "0"],
    ["chain", "--a", "1e200"],  # the continuum speeds squared overflow
    ["evolve", "--hbar", "1e-320"],
    ["verify", "--corrupt", "foo"],
    ["evolve", "--sigma", "1e160", "--L", "1e162", "--center", "0"],
    ["evolve", "--m-e", "1e-320"],
    ["dispersion", "--pmax", "1e300"],
    ["dispersion", "--m-e", "1e154", "--epsilon", "0", "--pmax", "1.3e154"],
    ["chain", "--K", "1e-320", "--I", "0", "--J", "0", "--n", "8", "--mode", "2"],
    ["verify", "--units", "natural"],  # verify and chain run in natural units only
    ["verify", "--c", "2"],
    ["chain", "--units", "natural"],
    ["evolve", "--units", "custom"],  # the unit system is --m-e, --c and --hbar alone
    ["evolve", "--samples", "1", "--t-total", "400"],  # c dt >= L/2: the track cannot unwrap
    ["evolve", "--method", "spectral"],  # evolve always uses the exact propagator
    ["chain", "--dt", "5e-324"],  # the step count overflows a float
    ["evolve", "--L", "5e-324"],  # the Nyquist wavenumber overflows
    ["evolve", "--center", "1e308"],  # the packet phase k * center overflows
    ["evolve", "--samples", "8", "--t-total", "7.2e-309"],  # the fitted times square to 0
    ["verify", "--fast"],  # verify has one configuration
    ["chain", "--dt", "1e-300"],  # a step does not advance the clock
    ["chain", "--periods", "1e300"],
    ["evolve", "--L", "1e-154"],  # c k overflows in the modes' normalisation
    ["solutions", "--pz", "1e-154"],  # the amplitudes' determinant overflows
])
def test_bad_arguments_exit_2(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith(f"dirac8 {argv[0]}: error: ")


def test_float_range_error_leaves_no_output_file(tmp_path, capsys):
    # the summary's energies overflow; the run must fail before writing anything
    csv, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = main(["chain", "--amplitude", "1e300", "-o", str(csv), "--summary", str(summary)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "out of float range" in err[0]
    assert not csv.exists() and not summary.exists()


# --- the CLI contract over drawn arguments ------------------------------------

_JUNK = st.sampled_from(["", "abc", "1e", "0x10", "1,5", "--", "nan", "inf", "-inf"])
_EDGE = st.sampled_from(["5e-324", "1e-320", "2.2e-308", "1e-160", "1e-154", "1e154", "1e200",
                            "1.7976931348623157e308", "1e400", "0", "-0", "-1"])
_NUMBER = st.one_of(  # finite, huge, tiny, subnormal, nan, inf and not a number
    _EDGE, _EDGE, st.floats(0.01, 10.0).map(repr), st.floats().map(repr),
    st.integers(-10, 10**400).map(str), _JUNK)


def _small_int(hi):
    return st.one_of(st.integers(-2, hi).map(str), _JUNK)


def _choice(*values):
    return st.one_of(st.sampled_from(values), _JUNK)


_UNITS = {"--m-e": _NUMBER, "--c": _NUMBER, "--hbar": _NUMBER}
_UNIT_SYSTEM = {"--units": _choice("natural", "custom")}
_BRANCHES = ("acoustic+", "acoustic-", "optical+", "optical-")
# --n, --n-grid, --samples, --periods and --t-total are bounded only to keep the runs short
_FLAGS = {
    "dispersion": {"--epsilon": _NUMBER, "--pmax": _NUMBER, "--n": _small_int(200), **_UNITS},
    "verify": {"--epsilon": _NUMBER},
    "chain": {**{f: _NUMBER for f in ("--m", "--M", "--K", "--I", "--J", "--a",
                                      "--amplitude", "--dt")},
              "--mode": st.one_of(st.integers(-2, 20).map(str), _NUMBER),
              "--n": _small_int(16), "--branch": _choice("acoustic", "optical"),
              "--periods": st.one_of(st.floats(0, 4).map(repr), _JUNK)},
    "solutions": {"--pz": _NUMBER, "--epsilon": _NUMBER, **_UNITS},
    "evolve": {**{f: _NUMBER for f in ("--k0", "--epsilon", "--sigma", "--center", "--L")},
               "--branch": _choice(*_BRANCHES), "--n-grid": _small_int(512),
               "--samples": _small_int(8),
               "--t-total": st.one_of(st.floats(-1, 50).map(repr), _JUNK), **_UNITS},
}
# flags that the subcommands do not take: drawing one must exit 2
_REMOVED = {"dispersion": _UNIT_SYSTEM,
            "verify": {**_UNITS, **_UNIT_SYSTEM, "--fast": None, "--corrupt": _choice("b3-ratio")},
            "chain": _UNIT_SYSTEM, "solutions": _UNIT_SYSTEM,
            "evolve": {**_UNIT_SYSTEM, "--method": _choice("spectral", "rk4")}}
_OUTPUTS = {"dispersion": ("-o",), "verify": ("-o",), "chain": ("-o", "--summary"),
            "solutions": ("-o",), "evolve": ("-o", "--summary")}
_MAX_CHAIN_STEPS = 10**6


@st.composite
def _argv(draw, command):
    removed = _REMOVED.get(command, {})
    flags = {**_FLAGS[command], **removed}
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))
    argv = [command]
    for name in names:
        argv += [name] if flags[name] is None else [name, draw(flags[name])]
    return argv, any(name in removed for name in names)


@pytest.mark.parametrize("command, examples", [
    ("dispersion", 60), ("solutions", 60), ("evolve", 100), ("chain", 100), ("verify", 8)])
def test_cli_contract_on_drawn_arguments(command, examples, tmp_path):
    """Every drawn argv exits 0, 1 or 2, never with a traceback; exit 2 prints one line.

    An exception out of ``main`` is the traceback.  Warnings are raised, as in
    the rest of the suite, so an accepted input that warns fails the test.
    Chain runs longer than _MAX_CHAIN_STEPS steps are discarded when they
    start stepping: their length follows from --dt and the frequency ratio as
    well as from --n and --periods.
    """
    outputs = [a for flag in _OUTPUTS[command] for a in (flag, str(tmp_path / flag.strip("-")))]
    simulate = chain.simulate

    def short_simulate(state, dt, n_steps, params, record_every=1):
        assume(n_steps <= _MAX_CHAIN_STEPS)
        return simulate(state, dt, n_steps, params, record_every=record_every)

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(_argv(command))
    def check(drawn):
        argv, removed = drawn
        err = io.StringIO()
        budget = mock.patch.object(chain, "simulate", short_simulate) \
            if command == "chain" else contextlib.nullcontext()  # verify's own runs are fixed
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(), budget:
            warnings.simplefilter("error")
            try:
                code = main(argv + outputs)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        if removed:
            assert code == 2, argv

    check()


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self.reads = set()

    def __getattribute__(self, name):
        object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["dispersion", "--n", "5"],
    ["verify"],
    ["chain", "--n", "8", "--periods", "3", "--summary", "summary.json"],
    ["solutions"],
    ["evolve", "--n-grid", "256", "--samples", "2",
     "--summary", "summary.json"],
])
def test_every_flag_reaches_its_handler(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    args = parser.parse_args(argv + ["-o", "out"], namespace=_ReadRecorder())
    args.reads.clear()  # argparse reads the namespace while it fills it
    assert args.func(args) == 0
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices[argv[0]]._actions} - {"help"}
    assert dests <= args.reads, f"flags never read: {sorted(dests - args.reads)}"
