"""One workload in one process: timed units, their gates and, with --trace, spans.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; writes a JSON result to
``--out``.  Untraced units run in a closed loop (the next starts when the
previous has been checked) until the next one would end after ``--seconds``.
With ``--trace 1`` the loop gets half the time, then the first
``TRACED_UNITS`` inputs of the seed run again under the span wrappers, so the
traced counts depend on the seed alone.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import calib
import dirac8
import layers
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_UNITS = 2
MAX_UNITS = 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_unit(unit: workloads.Unit, runner=None) -> dict:
    """Time ``unit.run()`` (wall and CPU), then gate it; never drops a failure."""
    call = unit.run if runner is None else (lambda: runner(unit.run))
    c0, t0 = time.process_time(), time.perf_counter()
    outputs = raised = None
    try:
        outputs = call()
    except Exception as exc:  # a raising unit is a failed unit, not a crash
        raised = exc
    record = {"inputs": unit.inputs, "seconds": time.perf_counter() - t0,
              "cpu_seconds": time.process_time() - c0, "peak_rss_mb": _peak_rss_mb()}
    if raised is not None:
        record["errors"] = [f"raised {type(raised).__name__}: {raised}"]
        return record
    try:
        record["errors"] = unit.check(outputs)
    except Exception as exc:
        record["errors"] = [f"gate raised {type(exc).__name__}: {exc}"]
    return record


def _closed_loop(workload, inputs, workdir, seconds, corrupt):
    """Units back to back until the next would end after ``seconds``.

    Returns the unit records and the calibration kernel's timings, taken
    before the first unit and after each one.
    """
    records, cal = [], [calib.kernel_seconds()]
    start = time.perf_counter()
    for x in inputs:
        unit = workloads.Unit(workload, x, workdir, corrupt)
        records.append(_run_unit(unit))
        unit.clean()
        cal.append(calib.kernel_seconds())
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in records)
        if elapsed + typical > seconds:
            break
    return records, cal


def _fft_floor_ms(n: int, repeats: int = 30) -> float:
    """Median time of one fft + ifft of a (4, n) complex field."""
    if n == 0:
        return 0.0
    field = np.random.default_rng(0).standard_normal((4, n)) + 0j
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.fft.ifft(np.fft.fft(field, axis=1), axis=1)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _traced(workload, inputs, workdir, corrupt, untraced, spans_path):
    """Run ``inputs`` under the span wrappers; return (records, per-layer result)."""
    tracer = spans.Tracer()
    spans.install(tracer)
    records, out_bytes, rows = [], 0, 0
    for i, x in enumerate(inputs):
        unit = workloads.Unit(workload, x, workdir, corrupt)
        records.append(_run_unit(unit, lambda fn, i=i: tracer.run_unit(i, fn)))
        b, r = unit.output_stats()
        out_bytes, rows = out_bytes + b, rows + r
        unit.clean()
    tracer.save(spans_path)
    wall = sum(r["seconds"] for r in untraced)
    per_layer, absent = layers.per_layer(
        tracer.summary(), tracer.present, tracer.work, len(inputs),
        fft_floor_ms=_fft_floor_ms(workloads.FFT_GRID[workload]),
        out_bytes=out_bytes, rows=rows,
        cpu_over_wall=sum(r["cpu_seconds"] for r in untraced) / wall,
        trace_overhead=statistics.median(r["seconds"] for r in records)
        / statistics.median(r["seconds"] for r in untraced) - 1)
    return records, {"per_layer": per_layer, "absent": absent}


def _openblas_threads():
    """Thread count OpenBLAS reports, from numpy's bundled library if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def machine_facts() -> dict:
    """Facts that decide whether two results are comparable."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--corrupt", default=None)
    args = ap.parse_args(argv)
    if ROOT / "src" not in Path(dirac8.__file__).resolve().parents:
        print(f"dirac8 imported from {dirac8.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    inputs = workloads.draw_inputs(args.workload, args.seed, MAX_UNITS)
    workdir = args.out.parent / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        records, cal = _closed_loop(args.workload, inputs, workdir, budget, args.corrupt)
        # Later units add allocator fragmentation that depends on the order
        # of inputs, so the peak is taken through the first unit.
        result = {"units": records, "cal_s": cal,
                  "wall_s": calib.rescale(statistics.median(r["seconds"] for r in records), cal),
                  "peak_rss_mb": records[0]["peak_rss_mb"]}
        if args.trace:
            result["traced_units"], trace = _traced(
                args.workload, inputs[:TRACED_UNITS], workdir, args.corrupt, records,
                args.out.with_name(f"spans-{args.workload}.npz"))
            result.update(trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["facts"] = machine_facts()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
