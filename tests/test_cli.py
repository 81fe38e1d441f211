import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac8.cli import main


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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_fast_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--fast", "-o", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "# units" in printed and "PASS" in printed
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert any("single momentum term" in n for n in rep["notes"])


def test_verify_fault_injection(capsys):
    code = main(["verify", "--fast", "--corrupt", "b3-ratio"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_hermitian_at_unit_ratio(capsys):
    code = main(["verify", "--fast", "--epsilon", "1"])
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


def test_chain_zero_mode(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(["chain", "--mode", "0", "--branch", "acoustic", "--n", "16",
                 "-o", str(tmp_path / "t.csv"), "--summary", str(summ)])
    assert code == 0
    s = json.loads(summ.read_text())
    assert s["omega_dispersion"] == 0.0
    assert s["omega_measured"] == 0.0


def test_chain_unstable_dt():
    assert main(["chain", "--dt", "10.0", "-o", "/dev/null"]) == 1


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


@pytest.mark.parametrize("samples", ["0", "-3", "two"])
def test_evolve_rejects_nonpositive_samples(samples):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "dirac8.cli", "evolve",
                           "--samples", samples],
                          capture_output=True, text=True, env=env, timeout=120)
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
    ["evolve", "--units", "custom", "--c", "0"],
    ["evolve", "--units", "custom", "--hbar", "nan"],
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
    ["verify", "--epsilon", "1e300", "--fast"],
    ["dispersion", "--units", "custom", "--c", "1e200"],
    ["chain", "--m", "1e-300", "--K", "1e300", "--n", "8", "--mode", "1"],
    ["chain", "--m", "1e300", "--M", "1e300", "--K", "1e-300", "--I", "0", "--J", "0"],
    ["evolve", "--units", "custom", "--hbar", "1e-320"],
    ["verify", "--corrupt", "foo"],
])
def test_bad_arguments_exit_2(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]


def test_evolve_rk4_at_defaults_matches_spectral(tmp_path):
    velocities = []
    for method in ("spectral", "rk4"):
        summ = tmp_path / f"{method}.json"
        code = main(["evolve", "--method", method, "-o", str(tmp_path / f"{method}.csv"),
                     "--summary", str(summ)])
        assert code == 0
        velocities.append(json.loads(summ.read_text())["measured_group_velocity"])
    spectral, rk4 = velocities
    assert abs(rk4 - spectral) <= 1e-4 * abs(spectral)
