"""Command-line front end: suite selection, order configuration, report
emission and series inspection.

Exit status is 0 when every executed check passed, 1 when a check failed
or raised (a raising check is reported with status ``error`` and the run
goes on), and 2 for bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from contextlib import nullcontext

from . import __version__, catalog
from .report import ERROR, PASS, VerificationReport
from .scalars import BACKEND, QQ
from .verifier import MIN_ORDER, chart_series, expand_terms

# far above the 128 of the heaviest documented runs; series sizes, q-product
# factor lists and run times all grow with the order
ORDER_CEILING = 1024

CHART_VARS = {"x": "x", "s": "s", "xw": "x", "t7": "t", "t4": "t", "q": "q"}


def run_suite(suite: str, order: int) -> dict:
    """Execute every check of a suite and assemble the report document."""
    if suite not in catalog.SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return _run_checks(suite, sorted(catalog.SUITES[suite]), order)


def run_single(check_id: str, order: int) -> dict:
    catalog.check_anchor(check_id)               # KeyError for an unknown id
    return _run_checks(f"spec:{check_id}", [check_id], order)


def _run_checks(label: str, ids, order: int) -> dict:
    """Run the checks one by one; a check that raises is reported as an
    error, its traceback goes to stderr, and the run goes on."""
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    t0 = time.monotonic()
    results = []
    for cid in ids:
        t = time.monotonic()
        try:
            rep = catalog.run_check(cid, order)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            rep = VerificationReport(ERROR, detail=f"{type(e).__name__}: {e}")
        results.append({"id": cid, "anchor": catalog.check_anchor(cid), **rep.as_dict(),
                        "duration_ms": int((time.monotonic() - t) * 1000)})
    ok = all(r["status"] == PASS for r in results)
    return {
        "version": __version__,
        "backend": BACKEND,
        "suite": label,
        "order": order,
        "results": results,
        "duration_ms": int((time.monotonic() - t0) * 1000),
        "status": "pass" if ok else "fail",
    }


def dump_series(name: str, order, fmt: str = "text") -> str:
    """Exponent/coefficient listing of a named series or of a spec side."""
    series, var = _resolve_series(name, order)
    pairs = [(e, c) for e, c in series.terms() if e < QQ(order)]
    if fmt == "json":
        return json.dumps({"name": name, "order": str(order),
                           "terms": [[str(e), str(c)] for e, c in pairs]}, indent=2)
    return ", ".join(f"{var}^{e}: {c}" for e, c in pairs)


def _resolve_series(name: str, order):
    if "." in name:
        spec_id, side = name.rsplit(".", 1)
        if side not in ("left", "right") or spec_id not in catalog.IDENTITY_BY_ID:
            raise KeyError(f"cannot resolve {name!r}")
        spec = catalog.IDENTITY_BY_ID[spec_id]
        terms = spec.left if side == "left" else spec.right
        return expand_terms(terms, spec.chart, order + 4), CHART_VARS[spec.chart]
    if ":" in name:
        chart, entry = name.split(":", 1)
        return chart_series(chart, entry, order + 2), CHART_VARS[chart]
    return chart_series("q", name, order + 1), "q"


def list_checks() -> str:
    lines = []
    for suite in sorted(catalog.SUITES):
        if suite == "all":
            continue
        lines.append(f"[{suite}]")
        for cid in sorted(catalog.SUITES[suite]):
            lines.append(f"  {cid:24s} {catalog.check_anchor(cid)}")
    return "\n".join(lines)


def format_text(doc: dict) -> str:
    width = max((len(r["id"]) for r in doc["results"]), default=4)
    lines = [f"suite {doc['suite']}  order {doc['order']}  ({doc['duration_ms']} ms)"]
    for r in doc["results"]:
        line = f"  {r['id']:{width}s}  {r['status']:6s}  {r['anchor']}"
        if r.get("first_mismatch"):
            m = r["first_mismatch"]
            line += f"  [first mismatch at {m['exponent']}: {m['left']} != {m['right']}]"
        elif r.get("detail") and r["status"] != "pass":
            line += f"  [{r['detail']}]"
        lines.append(line)
    lines.append(f"overall: {doc['status']}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="darboux",
        description="Exact verification of the shipped identity catalog.")
    p.add_argument("suite", nargs="?", choices=sorted(catalog.SUITES),
                   help="suite of checks to run")
    p.add_argument("--spec", metavar="ID", help="run a single check by id")
    p.add_argument("--list", action="store_true", help="list check ids with their anchors")
    p.add_argument("--dump", metavar="NAME",
                   help="print a catalog series (name, chart:name, or spec-id.left/right)")
    p.add_argument("--order", type=int,
                   help=f"truncation order, at most {ORDER_CEILING} (default 64; env DARBOUX_ORDER)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="FILE", help="also write the JSON report to a file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.order is None:
        raw = os.environ.get("DARBOUX_ORDER", "64")
        try:
            args.order = int(raw)
        except ValueError:
            print(f"error: DARBOUX_ORDER must be an integer, got {raw!r}", file=sys.stderr)
            return 2
    if args.order > ORDER_CEILING:
        print(f"error: order must be at most {ORDER_CEILING}, got {args.order}", file=sys.stderr)
        return 2
    if args.list:
        print(list_checks())
        return 0
    if args.dump:
        if args.order < 1:
            print(f"error: --dump order must be at least 1, got {args.order}", file=sys.stderr)
            return 2
        try:
            print(dump_series(args.dump, args.order, args.format))
        except (KeyError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        return 0
    if not (args.spec or args.suite):
        build_parser().print_usage()
        return 2
    try:
        # opened before any check runs, so that a bad path costs no run
        out = open(args.output, "w") if args.output else nullcontext()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    with out:
        try:
            doc = run_single(args.spec, args.order) if args.spec else run_suite(args.suite, args.order)
        except (KeyError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if args.output:
            json.dump(doc, out, indent=2, sort_keys=True)
    print(format_text(doc) if args.format == "text" else json.dumps(doc, indent=2, sort_keys=True))
    return 0 if doc["status"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
