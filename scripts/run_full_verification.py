#!/usr/bin/env python3
"""Run every suite at the orders used by the acceptance gate and write a
combined JSON report.

Usage: python scripts/run_full_verification.py [report.json]

The script imports ``darboux`` from the ``src/`` of its own checkout, so it
runs without an install or ``PYTHONPATH``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from darboux.cli import run_suite  # noqa: E402

SUITE_ORDERS = {
    "belyi": 64,
    "divisors": 64,
    "genus0": 64,
    "genus0-omega": 48,
    "genus1-e7": 64,
    "genus1-e4": 64,
    "transformations": 64,
    "klein-invariants": 40,
    "modular-level5": 60,
    "modular-level7": 60,
    "modular-low-levels": 50,
}


def main() -> int:
    out = {"suites": [], "status": "pass"}
    t0 = time.monotonic()
    for suite, order in SUITE_ORDERS.items():
        doc = run_suite(suite, order)
        n_pass = sum(r["status"] == "pass" for r in doc["results"])
        print(f"{suite:22s} order {order:3d}  {n_pass}/{len(doc['results'])} pass  "
              f"({doc['duration_ms']} ms)")
        out["suites"].append(doc)
        if doc["status"] != "pass":
            out["status"] = "fail"
            for r in doc["results"]:
                if r["status"] != "pass":
                    print(f"    {r['id']}: {r['status']} {r.get('detail', '')}")
    out["duration_ms"] = int((time.monotonic() - t0) * 1000)
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
        print(f"report written to {sys.argv[1]}")
    print(f"overall: {out['status']} in {out['duration_ms']} ms")
    return 0 if out["status"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
