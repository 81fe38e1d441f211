"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_<n>.json [--seed 1] [--workdir DIR]

The parent commit is exported with ``git archive`` into a temporary
directory.  Then, for each workload of BENCHMARK.json and each of ``PAIRS``
pairs i, ``benchmarks/run.py --trace 0 --seed <seed + i>`` runs for the
benchmark's ``run_seconds`` once in that copy and once in the working tree,
the parent first in even pairs and second in odd ones, so that a drift of the
host's speed falls on both sides alike.  The output file holds every
pair's end-to-end metrics, their medians and interquartile ranges per side,
in how many pairs the working tree was better, both commits and the machine
facts that the runs recorded.  Run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "current")
PAIRS = 10  # alternating pairs per workload


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path) -> None:
    """Write the files of commit into the directory into, by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``run.py --trace 0`` in tree: its last output line, and its record's machine facts."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    record = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(record.read_text())["facts"]


def _spread(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """The summary of one workload's pairs.

    Each pair maps "parent" and "current" to the result line of one run (the
    JSON object that ``run.py`` prints last).  better maps each metric to
    "lower" or "higher".  Per metric: both sides' values in pair order, their
    median and IQR, the relative change of the medians, and in how many pairs
    the current run was strictly better.  Failed units are summed per side.
    """
    summary = {"pairs": len(pairs), "metrics": {},
               "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
               "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES}}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        entry = {"unit": pairs[0]["current"]["metrics"][name]["unit"], "better": direction}
        for side in SIDES:
            entry[side] = values[side]
            entry.update({f"{side}_{key}": value for key, value in _spread(values[side]).items()})
        entry["change"] = entry["current_median"] / entry["parent_median"] - 1
        entry["current_better_in"] = sum(sign * (c - p) < 0 for p, c in
                                         zip(values["parent"], values["current"]))
        summary["metrics"][name] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--seed", type=int, default=1, help="pair i runs seed + i")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the parent's copy goes (default: a temporary directory)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commits = {"parent": _git("rev-parse", args.parent), "current": _git("rev-parse", "HEAD")}
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    copy = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    trees = {"parent": copy, "current": ROOT}
    facts, results = {}, {}
    try:
        export(commits["parent"], copy)
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = args.seed + i
                pair = {"seed": seed, "first": SIDES[i % 2]}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    pair[side], facts[side] = run_once(trees[side], workload, seed, seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                    f"{pair['current']['metrics'][name]['value']:.4g}" for name in better),
                    flush=True)
            results[workload] = summarize(pairs, better)
            results[workload]["seeds"] = [p["seed"] for p in pairs]
            results[workload]["first"] = [p["first"] for p in pairs]
    finally:
        shutil.rmtree(copy, ignore_errors=True)

    out = {"command": ["python3", "tools/bench_pairs.py", *(argv if argv is not None
                                                            else sys.argv[1:])],
           "parent": {"commit": commits["parent"], "facts": facts.get("parent")},
           "current": {"commit": commits["current"], "uncommitted_changes": dirty,
                       "facts": facts.get("current")},
           "pairs": PAIRS, "seconds": seconds, "workloads": results}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, summary in results.items():
        for name, m in summary["metrics"].items():
            print(f"{workload:10s} {name:12s} {m['parent_median']:.4g} -> "
                  f"{m['current_median']:.4g} {m['unit']} ({m['change']:+.1%}), "
                  f"better in {m['current_better_in']} of {summary['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
