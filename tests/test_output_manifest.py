"""Byte-determinism of the CLI's outputs, pinned by a manifest of sha256 digests.

Each recorded run is one fresh ``python -m dirac8.cli`` process.  Its exit
code and the digests of its stdout, its stderr and every file it writes must
equal the entry in ``output_manifest.json``.  ``verify`` is left out: its
chain values come from BLAS matrix products.  A change that alters an output
on purpose rewrites the manifest with ``python tests/test_output_manifest.py``
and lists the changed entries.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("output_manifest.json")

# "{out}" is replaced by the run's own empty output directory
RUNS = (
    ["chain"],
    ["evolve"],
    ["dispersion"],
    ["solutions"],
    ["dispersion", "--epsilon", "0.5", "--epsilon", "2"],
    ["solutions", "--pz", "0", "--epsilon", "2"],
    ["chain", "--n", "16", "--mode", "3", "--branch", "acoustic",
     "-o", "{out}/trajectory.csv", "--summary", "{out}/summary.json"],
    # 364,518 steps: where a clock summed one dt at a time would drift most from n * dt
    ["chain", "--n", "128", "--mode", "1", "--branch", "acoustic",
     "-o", "{out}/trajectory.csv", "--summary", "{out}/summary.json"],
    # optical mode 3 of 8 sites, where a complex arcsin's angle is off the real one by an ulp
    ["chain", "--n", "8", "--mode", "3",
     "-o", "{out}/trajectory.csv", "--summary", "{out}/summary.json"],
    ["evolve", "--branch", "acoustic-", "--k0", "0",
     "-o", "{out}/snapshots.csv", "--summary", "{out}/summary.json"],
    ["chain", "--dt", "10.0"],              # exit 1: past the stability bound
    ["chain", "--n", "16", "--mode", "500"],  # exit 2: no such mode
    # past 4096 points, where an unordered complex product would depend on numpy's temporaries
    ["evolve", "--n-grid", "8192", "--branch", "optical-", "--k0", "1.3", "--center", "120",
     "-o", "{out}/snapshots.csv", "--summary", "{out}/summary.json"],
)


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(argv, out: Path) -> dict:
    out.mkdir()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "dirac8.cli",
                           *(arg.format(out=out) for arg in argv)],
                          capture_output=True, env=env, timeout=120)
    return {"argv": argv, "exit": proc.returncode, "stdout": _digest(proc.stdout),
            "stderr": _digest(proc.stderr),
            "files": {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())}}


def _record_all(root: Path) -> list:
    with ThreadPoolExecutor(2) as pool:  # two runs at a time keeps the test near 2 s
        return list(pool.map(_record, RUNS, (root / str(i) for i in range(len(RUNS)))))


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    recorded = {key: manifest[key] for key in _versions()}
    where = f"manifest recorded under {recorded}, running under {_versions()}"
    if recorded != _versions():
        where += ": the versions differ, and transcendental and FFT bits may differ with them"
    runs = _record_all(tmp_path)
    assert [r["argv"] for r in manifest["runs"]] == [r["argv"] for r in runs]
    for want, got in zip(manifest["runs"], runs):
        assert got == want, f"{' '.join(got['argv'])}: {where}"


def test_stated_run_count_is_the_manifests():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"for (\d+) fixed runs", readme) == [str(len(RUNS))]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = _record_all(Path(tmp))
    MANIFEST.write_text(json.dumps({**_versions(), "runs": runs}, indent=1) + "\n")
