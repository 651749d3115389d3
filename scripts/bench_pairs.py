#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as one BENCH file.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --workloads W [W ...]
        --seeds S [S ...] --output BENCH_<n>.json
        [--change TEXT] [--claimed TEXT] [--all-orders N [N ...]] [--all-pairs K]

PARENT and CHANGE are the roots of two checkouts.  For every workload and
seed it runs ``python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0`` once in each checkout, with the checkout as working directory:
the parent first on even seeds, the change first on odd ones.  Of each run
it keeps the metrics of the last line of standard output and the number of
passes in ``perfbench/out/<W>-seed<S>-trace0.json`` of that checkout.  With
``--all-orders`` it then runs the suite ``all`` at order N K times per
order in each checkout, alternating which goes first.  Each run is one
child process that runs ``run_suite("all", N)`` of that checkout under
``SpeedProbe(timer=True)`` from its ``perfbench/worker.py``, as a perfbench
pass runs its operations.  Of each it keeps the CPU seconds scaled to the
probe's reference speed and raw, the wall time, the report's
``duration_ms``, the peak RSS of the process and whether the two reports
agree (``compare_reports.differences``); the ratio of a pair is that of the
scaled seconds, since wall seconds swing with the machine's speed.

The output holds, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles``) and the runs of each side and the
number of pairs in which the change read lower, as ``BENCH_12.json`` does.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from compare_reports import differences

METRICS = ("verify_s", "setup_s", "peak_rss_mb")
SECONDS = 30


def summary(runs) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(r, 6) for r in runs]}


def aggregate(seeds, parent, change) -> dict:
    """The entry of one workload from the run records of each side, in seed
    order; a record is {"metrics": {name: value}, "passes": n, "failed": n}."""
    out = {"seeds": list(seeds),
           "passes": {"parent": [r["passes"] for r in parent],
                      "new": [r["passes"] for r in change]}}
    for m in METRICS:
        p = [r["metrics"][m] for r in parent]
        c = [r["metrics"][m] for r in change]
        out[m] = {"parent": summary(p), "change": summary(c),
                  "pairs_lower_on_change": sum(b < a for a, b in zip(p, c))}
    out["peak_rss_mb"]["median_passes_per_run"] = {
        "parent": float(statistics.median(out["passes"]["parent"])),
        "change": float(statistics.median(out["passes"]["new"]))}
    out["failed_ops"] = {"parent": sum(r["failed"] for r in parent),
                         "new": sum(r["failed"] for r in change)}
    return out


def perfbench_run(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(root, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")) as fh:
        record = json.load(fh)
    failed = last["failed"] + (0 if last["correct"] else 1)
    return {"metrics": {m: last["metrics"][m]["value"] for m in METRICS},
            "passes": len(record["passes"]), "failed": failed}


# The child of ``all_run``: argv is the checkout, the order and the output path.
ALL_CHILD = """
import json, os, sys
root, order, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from worker import SpeedProbe
from darboux.cli import run_suite
with SpeedProbe(timer=True) as probe:
    doc = run_suite("all", order)
with open(path, "w") as fh:
    json.dump({"scaled_s": probe.scaled_s, "raw_s": probe.raw_s, "doc": doc}, fh)
"""


def all_run(root: str, order: int, path: str) -> dict:
    """One ``run_suite("all", order)`` process: probe-scaled and raw CPU
    seconds, wall seconds, report and peak RSS."""
    cmd = [sys.executable, "-c", ALL_CHILD, os.path.abspath(root), str(order), path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"all --order {order} failed in {root}")
    wall = time.perf_counter() - t0
    with open(path) as fh:
        got = json.load(fh)
    return {"scaled_s": round(got["scaled_s"], 3), "raw_s": round(got["raw_s"], 3),
            "wall_s": round(wall, 2), "duration_ms": got["doc"]["duration_ms"],
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "doc": got["doc"]}


def pair_record(first: str, parent: dict, change: dict) -> dict:
    """One ``all`` pair from the ``all_run`` records of each side."""
    return {"first": first,
            **{f"{s}_{k}": got[k] for s, got in (("parent", parent), ("change", change))
               for k in ("scaled_s", "raw_s", "wall_s", "duration_ms", "peak_rss_mb")},
            "ratio": round(change["scaled_s"] / parent["scaled_s"], 3),
            "wall_ratio": round(change["wall_s"] / parent["wall_s"], 3),
            "differences": differences(parent["doc"], change["doc"])}


def all_pairs(parent: str, change: str, order: int, pairs: int, tmp: str) -> dict:
    out = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in sides:
            root = parent if side == "parent" else change
            got[side] = all_run(root, order, os.path.join(tmp, f"{side}-{order}-{i}.json"))
        out.append(pair_record(sides[0], got["parent"], got["change"]))
    return {"pairs": out, "median_ratio": round(statistics.median(p["ratio"] for p in out), 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--change", dest="what", default="", help="what the change does")
    ap.add_argument("--claimed", default="", help="the metric a gain is claimed on")
    ap.add_argument("--all-orders", nargs="*", type=int, default=[])
    ap.add_argument("--all-pairs", type=int, default=2)
    args = ap.parse_args(argv)

    workloads = {}
    for w in args.workloads:
        runs = {"parent": [], "change": []}
        for seed in args.seeds:
            for side in (("parent", "change") if seed % 2 == 0 else ("change", "parent")):
                root = args.parent if side == "parent" else args.change
                runs[side].append(perfbench_run(root, w, seed))
                print(f"{w} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
        workloads[w] = aggregate(args.seeds, runs["parent"], runs["change"])
    doc = {
        "change": args.what,
        "machine": f"Python {platform.python_version()}, {os.cpu_count()} CPUs",
        "perfbench": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                       "--trace 0",
            "pairs": "one run of the parent and one of the change per seed and workload, "
                     "each in its own checkout; the parent ran first on even seeds",
            "source": "the metrics of the last stdout line and the passes of "
                      "perfbench/out/<workload>-seed<S>-trace0.json of each checkout",
            "claimed": args.claimed,
            "workloads": workloads,
        },
    }
    if args.all_orders:
        with tempfile.TemporaryDirectory() as tmp:
            doc["all"] = {"command": "run_suite('all', N) under perfbench's "
                                     "SpeedProbe(timer=True), one process each, alternating "
                                     "parent and change; scaled_s and raw_s are its CPU "
                                     "seconds scaled to the probe's reference speed and raw, "
                                     "wall_s the process wall time, duration_ms the report's, "
                                     "peak_rss_mb the process's ru_maxrss; ratio is change "
                                     "over parent in scaled_s",
                          **{f"order_{n}": all_pairs(args.parent, args.change, n,
                                                     args.all_pairs, tmp)
                             for n in args.all_orders}}
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
