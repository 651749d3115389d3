"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``darboux`` layer in
every ``darboux`` module namespace that holds them (so calls through names
imported with ``from ... import`` are seen too), and wraps the arithmetic
operators of ``Fraction`` and ``Omega`` with a counter.  Each wrapped call
records a span (operation, name, start, end, parent) in memory; spans are
written out once, after the pass.

Times are CPU seconds.  Bookkeeping done between spans (argument hashing,
counting coefficient products, scanning result bit lengths) runs on a
separate clock that is subtracted from the span clock, so it lands in no
span's self time.  The operator counters are not subtracted: they are part
of the tracing overhead the README reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction
from math import gcd

TRACED = (
    ("series", "ps_mul"),
    ("series", "ps_div"),
    ("series", "ps_pow"),
    ("series", "ps_compose"),
    ("series", "first_mismatch"),
    ("hypergeom", "hpg_series"),
    ("polyalg", "RationalMap.eval_series"),
    ("polyalg", "resultant"),
    ("polyalg", "squarefree_multiplicities"),
    ("polyalg", "MultiPoly.reduce_mod"),
    ("ellcurve", "local_expansion"),
    ("ellcurve", "verify_divisor"),
    ("ellcurve", "CurveFunction.norm_map"),
    ("belyi", "branching_pattern"),
    ("belyi", "belyi_certify"),
    ("belyi", "verify_cover_relation"),
    ("modular", "qseries"),
    ("modular", "klein_invariant_congruence"),
    ("verifier", "verify_identity"),
    ("verifier", "expand_terms"),
    ("verifier", "chart_series"),
)

# calls whose repeated arguments a memo would save
MEMO_CANDIDATES = {"ellcurve.local_expansion", "verifier.chart_series", "modular.qseries"}
SERIES_RESULTS = {"series.ps_mul", "series.ps_div", "series.ps_pow", "series.ps_compose"}

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__")
OMEGA_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__pow__", "__neg__")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, as BENCHMARK.json lists it."""
    if metric.endswith("_s"):
        return "s"
    return "bits" if metric.endswith("max_bits") else "count"


def _bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if hasattr(c, "a") and hasattr(c, "b"):                     # Omega
        return max(_bits(c.a), _bits(c.b))
    return max(int(c.numerator).bit_length(), int(c.denominator).bit_length())


def _ceil_grid(exp, grid: int) -> int:
    """Grid index bound of an exponent, in integers only (no counted ops)."""
    num, den = int(exp.numerator), int(exp.denominator)
    return -((-num * grid) // den)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def term_products(a, b) -> int:
    """Coefficient products ps_mul(a, b) forms: nonzero pairs (i, j) on the
    common grid with i + j inside the result's window."""
    if a.is_zero() or b.is_zero():
        return 0
    g = _lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    n = min(a.order + b.lead, b.order + a.lead) - (a.lead + b.lead)
    nz_a = [i for i, c in enumerate(a.coeffs) if c]
    nz_b = [j for j, c in enumerate(b.coeffs) if c]
    return sum(1 for i in nz_a for j in nz_b if i + j < n)


def coeffs_compared(a, b, below, hit) -> int:
    """Exponents first_mismatch(a, b, below) inspected before returning."""
    g = _lcm(a.grid, b.grid)
    fa, fb = g // a.grid, g // b.grid
    stop = min(a.order * fa, b.order * fb)
    if below is not None:
        stop = min(stop, _ceil_grid(Fraction(below), g))
    start = min(a.lead * fa if a.coeffs else stop, b.lead * fb if b.coeffs else stop)
    if hit is None:
        return max(stop - start, 0)
    return _ceil_grid(Fraction(hit[0]), g) - start + 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list = []          # (op, name, start, end, parent)
        self.span_names: list[int] = []  # name of each span, set when it opens
        self.stack: list[int] = []
        self.op = -1
        self.overhead = 0.0
        self.scalar_ops = [0]
        self.counts: dict[str, int] = {}
        self.unit_exp_s = 0.0
        self.max_bits = 0
        self.seen: dict[str, set] = {n: set() for n in MEMO_CANDIDATES}
        self._undo: list = []

    # -- clocks --------------------------------------------------------------
    def clock(self) -> float:
        return time.process_time() - self.overhead

    def _name(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def _bump(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    # -- operations ------------------------------------------------------------
    def begin_op(self, op_index: int, op_id: str):
        self.op = op_index
        idx = len(self.spans)
        name = self._name("op:" + op_id)
        self.spans.append(None)
        self.span_names.append(name)
        self.stack.append(idx)
        return idx, name, self.clock()

    def end_op(self, token):
        idx, name, t0 = token
        self.stack.pop()
        self.spans[idx] = (self.op, name, t0, self.clock(), -1)

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, qualname: str, fn):
        name = self._name(qualname)
        spans, span_names, stack, tracer = self.spans, self.span_names, self.stack, self
        clock = self.clock
        after = self._after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            span_names.append(name)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (tracer.op, name, t0, t1, parent)
            after(qualname, parent, args, kwargs, result, t1 - t0)
            return result

        return traced

    def _after(self, qualname, parent, args, kwargs, result, duration):
        e0 = time.process_time()
        if qualname in MEMO_CANDIDATES:
            key = (args, tuple(sorted(kwargs.items())))
            if key in self.seen[qualname]:
                self._bump(qualname + ".repeat_calls")
            else:
                self.seen[qualname].add(key)
        if qualname in SERIES_RESULTS:
            for c in result.coeffs:
                b = _bits(c)
                if b > self.max_bits:
                    self.max_bits = b
        if qualname == "series.ps_mul":
            self._bump("series.ps_mul.term_products", term_products(args[0], args[1]))
        elif qualname == "series.ps_pow":
            if args[1] == 1:
                self._bump("series.ps_pow.unit_exp_calls")
                self.unit_exp_s += duration
        elif qualname == "series.ps_compose":
            self._bump("series.ps_compose.horner_steps", max(args[0].order, 0))
        elif qualname == "series.first_mismatch":
            if parent >= 0 and self.names[self.span_names[parent]] == "verifier.verify_identity":
                below = args[2] if len(args) > 2 else kwargs.get("below")
                self._bump("verifier.coeffs_compared",
                           coeffs_compared(args[0], args[1], below, result))
        self.overhead += time.process_time() - e0

    def install(self, darboux_pkg):
        """Wrap every traced function and the scalar operators."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "darboux" or n.startswith("darboux.")) and m is not None]
        for modname, qual in TRACED:
            mod = getattr(darboux_pkg, modname)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{modname}.{qual}", orig))
                continue
            orig = getattr(mod, qual)
            wrapped = self._wrap(f"{modname}.{qual}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        counter = self.scalar_ops
        for cls, names in ((Fraction, FRACTION_OPS), (darboux_pkg.scalars.Omega, OMEGA_OPS)):
            for attr in names:
                orig = cls.__dict__.get(attr)
                if orig is None:
                    continue
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, _counting(orig, counter))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results ---------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass (see the README table)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        expand_children = [0] * len(self.spans)
        expand = self.name_index.get("verifier.expand_terms", -2)
        for op, name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
                if name == expand:
                    expand_children[parent] += 1
        verify = self.name_index.get("verifier.verify_identity", -2)
        pad_rounds = 0
        for i, (op, name, t0, t1, parent) in enumerate(self.spans):
            qual = self.names[name]
            calls[qual] = calls.get(qual, 0) + 1
            self_s[qual] = self_s.get(qual, 0.0) + (t1 - t0) - child_s[i]
            if name == verify:
                pad_rounds += max(expand_children[i] // 2 - 1, 0)
        out = {
            "scalars.ops": self.scalar_ops[0],
            "scalars.max_bits": self.max_bits,
            "series.ps_mul.term_products": self.counts.get("series.ps_mul.term_products", 0),
            "series.ps_pow.unit_exp_calls": self.counts.get("series.ps_pow.unit_exp_calls", 0),
            "series.ps_pow.unit_exp_s": self.unit_exp_s,
            "series.ps_compose.horner_steps": self.counts.get("series.ps_compose.horner_steps", 0),
            "verifier.pad_rounds": pad_rounds,
            "verifier.coeffs_compared": self.counts.get("verifier.coeffs_compared", 0),
        }
        for modname, qual in TRACED:
            key = f"{modname}.{qual}"
            out[key + ".calls"] = calls.get(key, 0)
            out[key + ".self_s"] = self_s.get(key, 0.0)
            if key in MEMO_CANDIDATES:
                out[key + ".repeat_calls"] = self.counts.get(key + ".repeat_calls", 0)
        return out

    def write_spans(self, path, ops):
        """One JSON line per span: [op, name, start, end, parent]; the
        first line names the operations and the span names."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": ops, "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _counting(fn, counter):
    @functools.wraps(fn)
    def counted(*args):
        counter[0] += 1
        return fn(*args)
    return counted
