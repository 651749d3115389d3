#!/usr/bin/env python3
"""Compare the results of two ``darboux ... --format json`` reports.

Usage: python scripts/compare_reports.py A.json B.json

For every check id of either report it compares ``status``, ``detail`` and
``first_mismatch``; ``duration_ms`` and the other fields are ignored.  Each
difference is printed on one line.  The exit code is 0 when the reports
agree and 1 when they differ.
"""

import json
import sys

FIELDS = ("status", "detail", "first_mismatch")


def differences(a, b):
    """One line for each field that differs between two reports, by check id."""
    ra = {r["id"]: r for r in a["results"]}
    rb = {r["id"]: r for r in b["results"]}
    out = []
    for cid in sorted(ra.keys() | rb.keys()):
        if cid not in rb or cid not in ra:
            out.append(f"{cid}: only in {'A' if cid in ra else 'B'}")
            continue
        for f in FIELDS:
            if ra[cid].get(f) != rb[cid].get(f):
                out.append(f"{cid}: {f} {ra[cid].get(f)!r} != {rb[cid].get(f)!r}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    diff = differences(*docs)
    for line in diff:
        print(line)
    if not diff:
        print(f"identical: {len(docs[0]['results'])} checks")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
