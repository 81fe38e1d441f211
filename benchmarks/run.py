"""dirac8 benchmark: one workload, timed end to end, optionally traced per layer.

    python3 benchmarks/run.py --workload {selfcheck,packet,trajectory} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``fail_frac`` is ``failed / attempted``.  With
``--trace 1`` they are the per-layer metrics of ``layers.py``.  The lines
above it print the same numbers for people, and the full record (machine
facts, every unit's inputs, time and gate) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
DEADLINE_S = 175.0

# A fresh interpreter's set-up before the first unit: the library with numpy
# and scipy.linalg imported, and the CLI parser built.
PROBE = ("import scipy.linalg, dirac8.cli\n"
         "dirac8.cli.build_parser()\n"
         "print('ready', flush=True)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(env: dict) -> list[float]:
    """Seconds from starting an interpreter to its ``ready`` line, per probe.

    One extra first probe is discarded: it compiles the library's bytecode.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        if i:
            times.append(elapsed)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default=None,
                    help="fault to inject into selfcheck (harness self-test)")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    if not (ROOT / "src" / "dirac8" / "__init__.py").is_file():
        print(f"run.py: no dirac8 sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    env = _child_env()
    try:
        setup = setup_times(env)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - t_start))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"run.py: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(out.read_text())
    units = result["units"] + result.get("traced_units", [])
    attempted = len(units)
    failed = sum(1 for u in units if u["errors"])
    wall = [u["seconds"] for u in result["units"]]
    wall_s = result["wall_s"]
    # Rescaled by the worker's kernel timings, taken moments later in the
    # same run: kernel timings between probes also read the probes' own
    # start-up and exit.
    setup_s = calib.rescale(statistics.median(setup), result["cal_s"])
    result["run"] = {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "corrupt": args.corrupt, "setup_s": setup}
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"# dirac8 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# facts: " + json.dumps(result["facts"], sort_keys=True))
    print(f"wall_s       {wall_s:.4f} s   median of {len(wall)} units at reference speed "
          f"(raw median {statistics.median(wall):.4f} s, min {min(wall):.4f}, "
          f"max {max(wall):.4f})")
    print(f"setup_s      {setup_s:.4f} s   median of {len(setup)} fresh interpreters at "
          f"reference speed (raw median {statistics.median(setup):.4f} s)")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"fail_frac    {failed / attempted:.4f}     {failed} of {attempted} units failed")
    for u in units:
        for err in u["errors"]:
            print(f"# FAIL {json.dumps(u['inputs'])}: {err}")
    if args.trace:
        metrics = result["per_layer"]
        for name, m in metrics.items():
            absent = "  (absent)" if name in result["absent"] else ""
            print(f"{name:40s} {m['value']:.6g} {m['unit']}{absent}")
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
