"""scripts/bench_pairs.py: the aggregation of hand-made run records, and
one probe-scaled ``all`` run in a stub checkout."""

import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))

from bench_pairs import aggregate, all_run, pair_record, summary  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def report(*results):
    return {"results": [{"id": cid, "status": status} for cid, status in results]}


def all_record(scaled, raw, wall, doc):
    return {"scaled_s": scaled, "raw_s": raw, "wall_s": wall, "duration_ms": int(wall * 1000),
            "peak_rss_mb": 20.0, "doc": doc}


def test_pair_record_takes_its_ratio_from_scaled_seconds():
    same = report(("a", "pass"), ("b", "fail"))
    rec = pair_record("change", all_record(5.0, 7.5, 4.0, same),
                      all_record(4.0, 5.2, 6.0, same))
    assert rec["first"] == "change"
    assert rec["ratio"] == 0.8
    assert rec["wall_ratio"] == 1.5
    assert (rec["parent_scaled_s"], rec["parent_raw_s"]) == (5.0, 7.5)
    assert (rec["change_scaled_s"], rec["change_raw_s"]) == (4.0, 5.2)
    assert rec["parent_duration_ms"] == 4000 and rec["change_peak_rss_mb"] == 20.0
    assert rec["differences"] == []


def test_pair_record_names_the_checks_that_differ():
    rec = pair_record("parent", all_record(1.0, 1.0, 1.0, report(("a", "pass"))),
                      all_record(1.0, 1.0, 1.0, report(("a", "fail"))))
    assert rec["differences"] == ["a: status 'pass' != 'fail'"]


STUB_CLI = """
def run_suite(suite, order):
    total = sum(k * k for k in range(200000))
    return {"suite": suite, "order": order, "duration_ms": 7,
            "results": [{"id": "x", "status": "pass", "detail": str(total % 10)}]}
"""


def test_all_run_times_run_suite_under_the_speed_probe(tmp_path):
    """The child imports ``SpeedProbe`` from the checkout's own
    ``perfbench/worker.py`` and ``run_suite`` from its ``src``."""
    root = tmp_path / "checkout"
    (root / "src" / "darboux").mkdir(parents=True)
    (root / "src" / "darboux" / "__init__.py").write_text("")
    (root / "src" / "darboux" / "cli.py").write_text(STUB_CLI)
    (root / "perfbench").mkdir()
    shutil.copy(os.path.join(ROOT, "perfbench", "worker.py"), root / "perfbench")
    rec = all_run(str(root), 9, str(tmp_path / "out.json"))
    assert rec["doc"] == {"suite": "all", "order": 9, "duration_ms": 7,
                          "results": [{"id": "x", "status": "pass", "detail": "0"}]}
    assert rec["duration_ms"] == 7
    assert rec["scaled_s"] > 0 and rec["raw_s"] > 0 and rec["wall_s"] > 0
    assert rec["peak_rss_mb"] > 0


def test_all_run_reports_a_failing_child(tmp_path):
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "perfbench", "worker.py"), root / "perfbench")
    with pytest.raises(RuntimeError):
        all_run(str(root), 9, str(tmp_path / "out.json"))
