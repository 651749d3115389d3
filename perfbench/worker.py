"""One cold pass (or one set-up sample) in a fresh interpreter.

    python3 perfbench/worker.py --root <checkout> --workload <name> --seed <n>
                                [--setup-only] [--trace --spans <file>]

Imports ``darboux`` from ``<checkout>/src``, runs the workload's operations
back to back, and prints one JSON line: the CPU seconds of the import and
of the pass, raw and scaled to the reference speed (see ``SpeedProbe``),
the pass's wall seconds and peak resident set size, each operation's
verdict, and the program outputs the oracles check.  ``run.py`` starts it;
it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

# The probe: a fixed truncated product of two Fraction series, the kind of
# arithmetic the series layer does.  PROBE_REF_S is its CPU time at the
# reference speed: its median over the passes of the machine the benchmark
# was written on (see the README).
_PROBE_A = [Fraction(k + 1, 2 * k + 3) for k in range(24)]
_PROBE_B = [Fraction(3 - k, k + 5) for k in range(24)]
PROBE_REF_S = 0.0035
PROBE_EVERY_S = 0.1      # seconds of the pass between two probes


def probe() -> float:
    """CPU seconds of one run of the probe, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.process_time()
    for _ in range(2):
        [sum((_PROBE_A[i] * _PROBE_B[k - i] for i in range(k + 1)), Fraction(0))
         for k in range(24)]
    spent = time.process_time() - t0
    if enabled:
        gc.enable()
    return spent


class SpeedProbe:
    """CPU seconds scaled to the reference speed.

    The machine's speed swings by up to 1.8x within seconds, in CPU time as
    much as in wall time (neighbours on the host; see the README).  The
    probe runs before and after the measured code and, with ``timer=True``,
    every PROBE_EVERY_S inside it, from a SIGALRM handler.  (A CPU-time
    timer would do, but while one is armed Linux reads the process CPU clock
    in whole scheduler ticks.)  Each stretch of work between two probes is
    scaled by PROBE_REF_S over the mean of those two probes, so ``scaled_s``
    is what the work would take at the reference speed.  ``raw_s`` is plain
    CPU seconds; probe time is in neither.
    """

    def __init__(self, timer: bool = False):
        self.timer = timer
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0

    def _tick(self, *_):
        now = time.process_time()
        work = now - self.mark
        p = probe()
        self.raw_s += work
        self.scaled_s += work * PROBE_REF_S / ((p + self.last_probe) / 2)
        self.last_probe = p
        self.probes += 1
        self.mark = time.process_time()

    def __enter__(self):
        self.last_probe = probe()
        if self.timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.mark = time.process_time()
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    with SpeedProbe() as setup:
        import darboux.catalog
    if os.path.dirname(os.path.abspath(darboux.__file__)) != os.path.join(src, "darboux"):
        raise SystemExit(f"darboux imported from {darboux.__file__}, not from {src}")
    times = {"setup_s": setup.scaled_s, "setup_cpu_s": setup.raw_s}
    if args.setup_only:
        print(json.dumps(times))
        return 0

    import darboux.hypergeom
    import darboux.verifier
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, darboux.catalog, darboux.verifier)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(darboux)

    results = []

    def run_ops():
        for i, op in enumerate(ops):
            token = tracer.begin_op(i, op.id) if tracer else None
            t = time.process_time()
            try:
                ok, detail = op.run()
            except Exception as exc:        # a raising check is a failed operation
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append((ok, detail, time.process_time() - t))
            if tracer:
                tracer.end_op(token)

    w0 = time.perf_counter()
    if tracer:
        # no probe in a traced pass: its arithmetic would be counted and
        # would land in the self time of whichever span it interrupted
        c0 = time.process_time()
        run_ops()
        times["verify_cpu_s"] = time.process_time() - c0
    else:
        with SpeedProbe(timer=True) as verify:
            run_ops()
        times.update(verify_s=verify.scaled_s, verify_cpu_s=verify.raw_s,
                     probes=verify.probes)
    wall_s = time.perf_counter() - w0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = dict(times, **{
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ops": [{"id": op.id, "ok": ok, "detail": detail, "cpu_s": cpu_s,
                 "oracle_keys": list(op.oracle_keys)}
                for op, (ok, detail, cpu_s) in zip(ops, results)],
    })
    if tracer:
        tracer.uninstall()
        doc["trace"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans, [op.id for op in ops])
    doc["outputs"] = workloads.program_outputs(args.workload, darboux)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
