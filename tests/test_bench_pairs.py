"""scripts/bench_pairs.py: the aggregation of hand-made run records."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))

from bench_pairs import aggregate, summary  # noqa: E402


def record(verify, setup, rss, passes, failed=0):
    return {"metrics": {"verify_s": verify, "setup_s": setup, "peak_rss_mb": rss},
            "passes": passes, "failed": failed}


def test_summary_gives_median_quartiles_and_runs():
    s = summary([0.5, 0.1, 0.4, 0.2, 0.3])
    assert s == {"median": 0.3, "q1": 0.15, "q3": 0.45, "runs": [0.5, 0.1, 0.4, 0.2, 0.3]}


def test_summary_rounds_to_six_places():
    assert summary([1 / 3, 2 / 3, 1.0])["runs"] == [0.333333, 0.666667, 1.0]


def test_aggregate_counts_pairs_won_by_the_change():
    parent = [record(0.24, 0.06, 17.0, 7), record(0.25, 0.07, 17.2, 6),
              record(0.23, 0.06, 17.1, 8), record(0.22, 0.06, 17.3, 7, failed=2)]
    change = [record(0.20, 0.06, 17.4, 9), record(0.26, 0.05, 17.1, 8),
              record(0.19, 0.07, 17.5, 9), record(0.21, 0.06, 17.3, 10)]
    w = aggregate([1, 2, 3, 4], parent, change)
    assert w["seeds"] == [1, 2, 3, 4]
    assert w["passes"] == {"parent": [7, 6, 8, 7], "new": [9, 8, 9, 10]}
    assert w["verify_s"]["pairs_lower_on_change"] == 3
    assert w["setup_s"]["pairs_lower_on_change"] == 1          # a tie is not a win
    assert w["peak_rss_mb"]["pairs_lower_on_change"] == 1
    assert w["verify_s"]["parent"]["median"] == pytest.approx(0.235)
    assert w["verify_s"]["change"]["runs"] == [0.2, 0.26, 0.19, 0.21]
    assert w["peak_rss_mb"]["median_passes_per_run"] == {"parent": 7.0, "change": 9.0}
    assert w["failed_ops"] == {"parent": 2, "new": 0}


def test_aggregate_has_the_fields_of_a_bench_file():
    w = aggregate([7, 8], [record(1, 1, 1, 1)] * 2, [record(1, 1, 1, 1)] * 2)
    assert set(w) == {"seeds", "passes", "verify_s", "setup_s", "peak_rss_mb", "failed_ops"}
    for m in ("verify_s", "setup_s"):
        assert set(w[m]) == {"parent", "change", "pairs_lower_on_change"}
        assert set(w[m]["parent"]) == {"median", "q1", "q3", "runs"}
