"""scripts/compare_reports.py on hand-made reports."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "compare_reports.py")

MISMATCH = {"exponent": "5/2", "left": "1", "right": "2"}


def report(*results):
    return {"version": 1, "suite": "all", "order": 20, "duration_ms": 9, "status": "pass",
            "results": [dict(r, anchor="a", duration_ms=7) for r in results]}


def run(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return subprocess.run([sys.executable, SCRIPT, *paths], capture_output=True, text=True,
                          timeout=60)


def test_identical_reports_exit_zero_and_ignore_durations(tmp_path):
    a = report({"id": "x", "status": "pass"}, {"id": "y", "status": "fail", "detail": "d",
                                                "first_mismatch": MISMATCH})
    b = json.loads(json.dumps(a))
    for r in b["results"]:
        r["duration_ms"] = 12345
    proc = run(tmp_path, a, b)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == "identical: 2 checks\n"


def test_each_difference_is_printed_and_exits_one(tmp_path):
    a = report({"id": "x", "status": "pass"}, {"id": "y", "status": "fail", "detail": "d",
                                                "first_mismatch": MISMATCH},
               {"id": "z", "status": "pass"})
    b = report({"id": "x", "status": "error", "detail": "boom"},
               {"id": "y", "status": "fail", "detail": "d",
                "first_mismatch": dict(MISMATCH, exponent="3")},
               {"id": "w", "status": "pass"})
    proc = run(tmp_path, a, b)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "w: only in B",
        "x: status 'pass' != 'error'",
        "x: detail None != 'boom'",
        "y: first_mismatch {'exponent': '5/2', 'left': '1', 'right': '2'} != "
        "{'exponent': '3', 'left': '1', 'right': '2'}",
        "z: only in A",
    ]
