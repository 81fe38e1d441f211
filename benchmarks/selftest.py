"""Self-tests of the benchmark harness (not of dirac8).  About two minutes.

    python3 benchmarks/selftest.py

1. One seed always draws the same inputs, and input i does not depend on how
   many inputs are drawn.
2. With the library's fault hook on (``verify.full_report(corrupt=
   "b3-ratio")``), every selfcheck unit fails its gate: fail_frac = 1.
3. Two traced runs with the same seed give exactly the same counts and traced
   inputs, on every workload, and report every per-layer metric that
   BENCHMARK.json names.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from layers import EXACT_COUNTS
from workloads import NAMES, draw_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str) -> tuple[dict, dict]:
    """Run the benchmark; return its result line and its record file."""
    argv = dict(zip(args[::2], args[1::2]))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             + proc.stderr)
    record = ROOT / ".bench_out" / (f"{argv['--workload']}-seed{argv['--seed']}"
                                    f"-trace{argv['--trace']}.json")
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(record.read_text())


def test_inputs_repeat() -> None:
    for w in NAMES:
        first = draw_inputs(w, 5, 8)
        assert first == draw_inputs(w, 5, 8), w
        assert first[:3] == draw_inputs(w, 5, 3), w
        assert first != draw_inputs(w, 6, 8), w


def test_fault_fails_every_unit() -> None:
    result, _ = bench("--workload", "selfcheck", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--corrupt", "b3-ratio")
    assert result["attempted"] >= 1, result
    assert result["failed"] == result["attempted"], result
    assert result["correct"] is False, result


def test_traced_counts_repeat() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for w in NAMES:
        runs = [bench("--workload", w, "--seed", "7", "--seconds", "1", "--trace", "1")
                for _ in range(2)]
        (a, rec_a), (b, rec_b) = runs
        assert a["correct"] and b["correct"], (w, a, b)
        assert set(a["metrics"]) == names, (w, names ^ set(a["metrics"]))
        for name in EXACT_COUNTS:
            assert a["metrics"][name] == b["metrics"][name], (w, name)
        assert ([u["inputs"] for u in rec_a["traced_units"]]
                == [u["inputs"] for u in rec_b["traced_units"]]), w


def main() -> int:
    failures = 0
    for test in (test_inputs_repeat, test_fault_fails_every_unit, test_traced_counts_repeat):
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
