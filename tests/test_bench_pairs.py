"""The summary that tools/bench_pairs.py writes for each workload and metric."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}


def _pairs(parent, change):
    """One pair per (parent, change) value tuple, each tuple (ops_per_s, peak_rss_mb)."""
    def run(values):
        return {"metrics": {name: {"value": v} for name, v in zip(METRICS, values)}}

    return [{"workload": "w", "parent": run(p), "change": run(c)} for p, c in zip(parent, change)]


def test_over_bound_marks_a_median_worse_by_more_than_the_bound():
    summary = bench_pairs.summarize(_pairs([(100, 30)] * 3, [(70, 33.5), (80, 34), (74, 33)]), METRICS)["w"]
    assert summary["ops_per_s"]["change_median"] == 74
    assert summary["ops_per_s"]["over_bound"] is True
    assert summary["peak_rss_mb"]["change_median"] == 33.5
    assert summary["peak_rss_mb"]["over_bound"] is True


def test_within_the_bound_or_better_is_not_over():
    summary = bench_pairs.summarize(_pairs([(100, 30)] * 2, [(75, 33), (200, 20)]), METRICS)["w"]
    assert summary["ops_per_s"]["change_median"] == 137.5
    assert summary["ops_per_s"]["over_bound"] is False
    summary = bench_pairs.summarize(_pairs([(100, 30)], [(75, 33)]), METRICS)["w"]
    assert summary["ops_per_s"]["over_bound"] is False  # exactly at the bound
    assert summary["peak_rss_mb"]["over_bound"] is False


def test_unresolved_marks_a_parent_spread_wider_than_the_bound():
    # Parent ops_per_s quartiles 80 and 120 (spread 40, bound 25); peak_rss_mb 30 and 31 (spread 1, bound 3).
    parent = [(60, 30), (80, 30), (100, 31), (120, 31), (140, 31)]
    summary = bench_pairs.summarize(_pairs(parent, parent), METRICS)["w"]
    assert summary["ops_per_s"]["parent_quartiles"] == [80, 120]
    assert summary["ops_per_s"]["unresolved"] is True
    assert summary["peak_rss_mb"]["unresolved"] is False
