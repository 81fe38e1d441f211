"""The summary of ``tools/bench_pairs.py``, on canned result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _line(wall, rss, failed=0):
    """The last line that ``benchmarks/run.py`` prints, as text."""
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_summary_of_canned_pairs():
    lines = [(_line(0.20, 48.0), _line(0.15, 50.0)),
             (_line(0.30, 48.5), _line(0.14, 48.0, failed=1)),
             (_line(0.22, 49.0), _line(0.25, 52.0)),
             (_line(0.26, 47.0), _line(0.12, 51.0))]
    pairs = [{"parent": json.loads(p), "current": json.loads(c)} for p, c in lines]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    assert summary["pairs"] == 4
    assert summary["failed"] == {"parent": 0, "current": 1}
    assert summary["attempted"] == {"parent": 40, "current": 40}
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == [0.20, 0.30, 0.22, 0.26] and wall["unit"] == "s"
    assert wall["parent_median"] == pytest.approx(0.24)
    assert wall["current_median"] == pytest.approx(0.145)
    # inclusive quartiles of 0.20, 0.22, 0.26, 0.30: 0.215 and 0.27
    assert wall["parent_iqr"] == pytest.approx(0.055)
    assert wall["change"] == pytest.approx(0.145 / 0.24 - 1)
    assert wall["current_better_in"] == 3
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["current_better_in"] == 1 and rss["better"] == "lower"
    assert rss["current_median"] - rss["parent_median"] == pytest.approx(50.5 - 48.25)


def test_higher_is_better_counts_the_other_way():
    pairs = [{"parent": json.loads(_line(1.0, 1.0)), "current": json.loads(_line(2.0, 1.0))}]
    summary = bench_pairs.summarize(pairs, {"wall_s": "higher", "peak_rss_mb": "lower"})
    assert summary["metrics"]["wall_s"]["current_better_in"] == 1
    assert summary["metrics"]["wall_s"]["parent_iqr"] == 0.0
    assert summary["metrics"]["peak_rss_mb"]["current_better_in"] == 0  # a tie is not better
