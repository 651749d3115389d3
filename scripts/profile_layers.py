#!/usr/bin/env python3
"""Per-layer profile of one suite or one check.

Usage:
    python scripts/profile_layers.py SUITE [--order N]
    python scripts/profile_layers.py --spec ID [--order N]

It runs ``cli.run_suite(SUITE, N)`` or ``catalog.run_check(ID, N)`` of the
checkout it lives in once, in a fresh process and so on a cold memo,
under perfbench's ``Tracer`` (imported from ``perfbench/tracer.py``, which
it does not change).  It prints one line per traced layer that was
called: its calls and its self CPU seconds, the time spent in it and in no
traced layer it calls, with the tracer's own bookkeeping left out.  The
last lines give the time of the run outside every traced layer, the count
of ``Fraction``/``Omega`` operations (``scalars.ops``) and the largest
coefficient of a series result in bits (``scalars.max_bits``).  The order
defaults to 64, as the CLI's does.  The operation counters stay in the
seconds, so they show where the time goes, not how long an untraced run
takes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import darboux  # noqa: E402
from darboux import catalog, cli  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def profile(suite=None, spec=None, order=64) -> dict:
    """The tracer's metrics of one run, and its CPU seconds less the
    tracer's bookkeeping as "total_s"."""
    tracer = Tracer()
    tracer.install(darboux)
    try:
        token = tracer.begin_op(0, spec or suite)
        t0 = tracer.clock()
        if spec:
            catalog.run_check(spec, order)
        else:
            cli.run_suite(suite, order)
        total = tracer.clock() - t0
        tracer.end_op(token)
    finally:
        tracer.uninstall()
    return dict(tracer.metrics(), total_s=total)


def render(m: dict) -> str:
    rows = [(f"{mod}.{qual}", m[f"{mod}.{qual}.calls"], m[f"{mod}.{qual}.self_s"])
            for mod, qual in TRACED]
    rows = sorted((r for r in rows if r[1]), key=lambda r: -r[2])
    width = max(len(r[0]) for r in rows) if rows else 10
    lines = [f"{'layer':<{width}}  {'calls':>8}  {'self_s':>9}"]
    lines += [f"{name:<{width}}  {calls:>8}  {self_s:>9.4f}" for name, calls, self_s in rows]
    outside = m["total_s"] - sum(r[2] for r in rows)
    lines.append(f"{'(no traced layer)':<{width}}  {'':>8}  {outside:>9.4f}")
    lines.append(f"scalars.ops {m['scalars.ops']}")
    lines.append(f"scalars.max_bits {m['scalars.max_bits']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Per-layer profile of one suite or one check.")
    ap.add_argument("suite", nargs="?", choices=sorted(catalog.SUITES))
    ap.add_argument("--spec", metavar="ID")
    ap.add_argument("--order", type=int, default=64)
    args = ap.parse_args(argv)
    if bool(args.suite) == bool(args.spec):
        ap.error("give either a suite or --spec ID")
    if args.spec:
        try:
            catalog.check_anchor(args.spec)
        except KeyError as e:
            ap.error(e.args[0])
    print(render(profile(args.suite, args.spec, args.order)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
