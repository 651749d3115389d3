"""Benchmark of the darboux verifier: cold passes timed in CPU seconds.

    python3 perfbench/run.py --workload {evaluations,qseries,algebra,controls}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run starts cold passes, each a fresh
interpreter running the workload's fixed list of operations, until about S
seconds have gone by.  Before each pass it takes a burst of set-up samples
(fresh interpreters that only import ``darboux``), 24 in every run.  Times
are CPU seconds scaled to the reference speed of a fixed probe interleaved
with the measured code (``worker.SpeedProbe``).  Every operation's verdict
is checked, and the program outputs the oracles cover are recomputed
independently (see ``oracles.py``).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones (medians over set-ups and
passes), with ``--trace 1`` the per-layer ones from traced passes.  A
record of the run, with the unscaled CPU seconds too, and with
``--trace 1`` the spans of its first pass, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170         # the whole run, whatever --seconds says
SETUP_SAMPLES = 24       # set-up samples per run, whatever its length
SETUP_BURST = 4          # set-up samples taken before each pass


class BenchError(RuntimeError):
    pass


def worker(root, env, args, deadline):
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"), "--root", root] + args
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise BenchError("run deadline passed")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["process_wall_s"] = time.perf_counter() - t0
    return doc


def check_outputs(passes):
    """Oracle verdict per output key, computed once per distinct output."""
    verdicts: dict = {}
    for p in passes:
        for key, value in p["outputs"].items():
            cache_key = (key, json.dumps(value, sort_keys=True))
            if cache_key not in verdicts:
                try:
                    verdicts[cache_key] = oracles.check(key, value)
                except Exception as exc:        # an oracle that cannot run is a disagreement
                    verdicts[cache_key] = f"oracle raised {type(exc).__name__}: {exc}"
        p["oracle"] = {key: verdicts[(key, json.dumps(value, sort_keys=True))]
                       for key, value in p["outputs"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "darboux", "catalog.py")):
        print("error: run from the root of a darboux checkout; src/darboux is missing",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        worker(root, env, common + ["--setup-only"], deadline)      # warm-up, not counted

        def setup_sample():
            doc = worker(root, env, common + ["--setup-only"], deadline)
            setups.append(doc["setup_s"])
            setup_cpu.append(doc["setup_cpu_s"])
            setup_walls.append(doc["process_wall_s"])

        setups, setup_cpu, setup_walls, passes = [], [], [], []
        while True:
            # set-up samples in bursts before each pass spread them over the run
            for _ in range(min(SETUP_BURST, SETUP_SAMPLES - len(setups))):
                setup_sample()
            extra = []
            if args.trace:
                extra = ["--trace"]
                if not passes:
                    extra += ["--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")]
            passes.append(worker(root, env, common + extra, deadline))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["process_wall_s"] for p in passes)
            still_to_sample = (SETUP_SAMPLES - len(setups)) * statistics.median(setup_walls)
            if elapsed + still_to_sample + typical / 2 > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setup_sample()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check_outputs(passes)
    ids = [op["id"] for op in passes[0]["ops"]]
    attempted = failed = 0
    complete = True
    failures = []
    for p in passes:
        complete &= [op["id"] for op in p["ops"]] == ids
        for op in p["ops"]:
            attempted += 1
            bad = [f"{k}: {p['oracle'].get(k, 'no output')}" for k in op["oracle_keys"]
                   if p["oracle"].get(k, "no output") is not None]
            if not op["ok"] or bad:
                failed += 1
                failures.append({"id": op["id"], "detail": op["detail"], "oracle": bad})

    if args.trace:
        counts_first = {k: v for k, v in passes[0]["trace"].items() if not k.endswith("_s")}
        repeatable = all({k: v for k, v in p["trace"].items() if not k.endswith("_s")}
                         == counts_first for p in passes)
        metrics = {}
        for key, value in passes[0]["trace"].items():
            if key.endswith("_s"):
                value = statistics.median(p["trace"][key] for p in passes)
            metrics[key] = {"value": value, "unit": tracer.unit(key)}
        metrics["catalog.import_s"] = {"value": statistics.median(setups), "unit": "s"}
    else:
        repeatable = None
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "verify_s": {"value": statistics.median(p["verify_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpus": os.cpu_count(), "run_wall_s": time.perf_counter() - start,
        "setup_s": setups, "setup_cpu_s": setup_cpu,
        "passes": [dict({k: v for k, v in p.items() if k not in ("ops", "outputs")},
                        op_cpu_s=[op["cpu_s"] for op in p["ops"]]) for p in passes],
        "op_cpu_s": {op["id"]: statistics.median(p["ops"][i]["cpu_s"] for p in passes)
                     for i, op in enumerate(passes[0]["ops"])},
        "oracle": passes[0]["oracle"], "failures": failures,
        "trace_counts_repeat": repeatable, "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": complete, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
