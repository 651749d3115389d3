"""The identity-verification engine.

An identity spec holds two recipes (weighted products of powers of named
chart series, optionally with a hypergeometric factor composed with a
named argument series) plus the chart they expand in.  Verification
expands both sides exactly and compares coefficient-for-coefficient below
the requested order; the engine bumps its internal padding until both
sides are provably known that far, so a reported pass never rests on
unknown coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

from .hypergeom import HpgParams, hpg_series
from .report import INSUFFICIENT, Mismatch, VerificationReport, failed, passed
from .scalars import QQ, ONE
from .series import PuiseuxSeries, first_mismatch, ps_compose, ps_div, ps_mul, ps_pow

__all__ = [
    "Pw",
    "Hpg",
    "Term",
    "IdentitySpec",
    "MIN_ORDER",
    "memo",
    "register_chart",
    "chart_series",
    "expand_terms",
    "verify_identity",
    "exponent_slots",
    "perturb",
    "verify_radical_candidate_separation",
]


@dataclass(frozen=True)
class Pw:
    """A named chart series raised to a rational exponent."""
    name: str
    exp: object = 1

    def __post_init__(self):
        object.__setattr__(self, "exp", QQ(self.exp))


@dataclass(frozen=True)
class Hpg:
    """A hypergeometric series composed with a named chart series."""
    upper: tuple
    lower: tuple
    arg: str

    def params(self) -> HpgParams:
        return HpgParams(self.upper, self.lower)


@dataclass(frozen=True)
class Term:
    weight: object = 1
    factors: tuple = ()


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    anchor: str
    chart: str
    left: tuple
    right: tuple


# the lowest order any check runs at: verify_identity reports a lower one as
# insufficient, and the command line refuses it
MIN_ORDER = 8


# -- chart registry and the series memo ----------------------------------------

_CHARTS: dict = {}
_MEMO: dict = {}


def memo(key, build):
    """The one series memo: the value of ``build()``, computed once per key.

    Keys end in the exact order a caller asked for.  Builders do not reach
    exactly that order, so a deeper entry is never truncated to serve a
    shallower key: that would change the precision a caller sees.  A memoized
    series is shared and must not be mutated.
    """
    if key not in _MEMO:
        _MEMO[key] = build()
    return _MEMO[key]


def register_chart(name: str, builders: dict):
    _CHARTS[name] = builders


def chart_series(chart: str, name: str, n: int) -> PuiseuxSeries:
    """The named series of a chart, known below exponent n (a whole number)."""
    builders = _CHARTS[chart]
    if name not in builders:
        raise KeyError(f"no series {name!r} in chart {chart!r}")
    return memo((chart, name, n), lambda: builders[name](n))


# -- expansion ---------------------------------------------------------------

def _expand_factor(f, chart: str, target) -> PuiseuxSeries:
    if isinstance(f, Pw):
        base = chart_series(chart, f.name, target)
        return ps_pow(base, f.exp)
    if isinstance(f, Hpg):
        arg = chart_series(chart, f.arg, target)
        if arg.is_zero() or arg.lead_exponent <= 0:
            raise ValueError(f"argument {f.arg!r} has no positive valuation")
        v = arg.lead_exponent
        m = int(ceil(QQ(target) / v)) + 2
        return ps_compose(hpg_series(f.params(), m), arg)
    raise TypeError(f"unknown recipe atom {f!r}")


def expand_terms(terms, chart: str, target) -> PuiseuxSeries:
    """Exact series of a recipe side at the given chart order."""
    total = None
    for term in terms:
        acc = None
        for f in term.factors:
            s = _expand_factor(f, chart, target)
            acc = s if acc is None else ps_mul(acc, s)
        if acc is None:
            acc = PuiseuxSeries.const(ONE, target)
        if term.weight != 1:
            acc = acc.scale(term.weight)
        total = acc if total is None else total + acc
    if total is None:
        return PuiseuxSeries.zero(target)
    return total


def verify_identity(spec: IdentitySpec, order: int) -> VerificationReport:
    """Compare both sides exactly for all exponents below the order."""
    order = int(order)
    if order < MIN_ORDER:
        return VerificationReport(INSUFFICIENT, order, detail=f"needs order >= {MIN_ORDER}")
    pad = 8
    for _ in range(6):
        target = order + pad
        left = expand_terms(spec.left, spec.chart, target)
        right = expand_terms(spec.right, spec.chart, target)
        cov = min(left.order_exponent, right.order_exponent)
        if cov >= order:
            hit = first_mismatch(left, right, below=order)
            if hit is None:
                return passed(order)
            return failed(order, Mismatch(*hit))
        pad += int(ceil(QQ(order) - cov)) + 8
    raise RuntimeError(f"could not reach order {order} for {spec.id}")


# -- negative controls --------------------------------------------------------

def exponent_slots(spec: IdentitySpec):
    """All perturbable exponent positions: (side, term index, factor index)."""
    out = []
    for side_name, side in (("left", spec.left), ("right", spec.right)):
        for i, term in enumerate(side):
            for k, f in enumerate(term.factors):
                if isinstance(f, Pw):
                    out.append((side_name, i, k))
    return out


def perturb(spec: IdentitySpec, slot, delta=None) -> IdentitySpec:
    """The spec with a single exponent shifted (default by 1/42)."""
    delta = QQ(1, 42) if delta is None else QQ(delta)
    side_name, i, k = slot
    side = spec.left if side_name == "left" else spec.right
    term = side[i]
    f = term.factors[k]
    nf = Pw(f.name, f.exp + delta)
    nterm = Term(term.weight, term.factors[:k] + (nf,) + term.factors[k + 1:])
    nside = side[:i] + (nterm,) + side[i + 1:]
    if side_name == "left":
        return replace(spec, id=spec.id + "~perturbed", left=nside)
    return replace(spec, id=spec.id + "~perturbed", right=nside)


# -- the radical-candidate separation re-enactment ----------------------------

def _dlog(s: PuiseuxSeries) -> PuiseuxSeries:
    return ps_div(s.derivative(), s)


def _product_dlog(chart: str, factors, n) -> PuiseuxSeries:
    total = None
    for name, e in factors:
        d = _dlog(chart_series(chart, name, n)).scale(QQ(e))
        total = d if total is None else total + d
    return total


def _hpg_side_dlog(chart: str, slot_exponent, upper, lower, n) -> PuiseuxSeries:
    """Logarithmic derivative of z^slot * F(params; z) pulled through the
    degree-24 covering; scalar-free, so candidate matching needs no radical
    normalizations."""
    b = chart_series(chart, "Phi3", n + 2)
    db = b.derivative()
    f = hpg_series(HpgParams(upper, lower), int(n) + 4)
    fb = ps_compose(f, b)
    dfb = ps_compose(f.derivative(), b)
    out = ps_div(ps_mul(dfb, db), fb)
    if QQ(slot_exponent):
        out = out + ps_div(db, b).scale(QQ(slot_exponent))
    return out


CANDIDATE_SETS = {
    "3A": [
        # slot exponent, params, true candidate, decoy (factor, exponent) lists
        (QQ(0), ("-1/42", "13/42", "9/14"), ("4/7", "6/7"),
         [("one_minus_x", QQ(1, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))],
         [("one_minus_x", QQ(3, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))]),
        (QQ(1, 7), ("5/42", "19/42", "11/14"), ("5/7", "8/7"),
         [("x", QQ(1, 7)), ("one_minus_x", QQ(3, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))],
         [("x", QQ(1, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))]),
        (QQ(3, 7), ("17/42", "31/42", "15/14"), ("9/7", "10/7"),
         [("x", QQ(3, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))],
         [("x", QQ(3, 7)), ("one_minus_x", QQ(1, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))]),
    ],
}


def verify_radical_candidate_separation(class_id: str, n: int = 10) -> VerificationReport:
    """Re-enact the selection of the true radical solution among candidates.

    For the first family the two candidates differ by a power of (1-x) and
    are separated by comparing logarithmic derivatives against the
    hypergeometric side.  For the second family each candidate carries an
    undetermined linear prefactor (1 - c x); c is solved from the first
    series coefficient and the later coefficients must then agree, which
    singles out one family and pins c.
    """
    if class_id == "3A":
        for slot, upper, lower, true_f, decoy_f in CANDIDATE_SETS["3A"]:
            target = _hpg_side_dlog("x", slot, upper, lower, n)
            good = _product_dlog("x", true_f, n + 2)
            bad = _product_dlog("x", decoy_f, n + 2)
            lim = min(target.order_exponent, good.order_exponent, bad.order_exponent)
            if first_mismatch(target, good, below=lim) is not None:
                return failed(n, detail=f"true candidate rejected at slot {slot}")
            if first_mismatch(target, bad, below=lim) is None:
                return failed(n, detail=f"both candidates match at slot {slot}: engine bug")
        return passed(n)
    if class_id == "3B":
        slot = QQ(0)
        target = _hpg_side_dlog("x", slot, ("-1/14", "11/42", "25/42"), ("4/7", "5/7"), n)
        outcomes = {}
        for label, e1 in (("A", QQ(2, 7)), ("B", QQ(3, 7))):
            fixed = _product_dlog("x", [("one_minus_x", e1), ("G0", QQ(-3, 14)),
                                        ("G1", QQ(-3, 14))], n + 2)
            g = target - fixed
            # remaining part must be dlog(1 - c x) = -c - c^2 x - c^3 x^2 - ...
            c = -g.coefficient(0)
            consistent = bool(c) or g.is_zero()
            for k in range(1, 5):
                if g.coefficient(k) != -(c ** (k + 1)):
                    consistent = False
                    break
            outcomes[label] = (consistent, c)
        okb, cb = outcomes["B"]
        oka, _ = outcomes["A"]
        if okb and not oka and cb == 3:
            return passed(n, detail="prefactor (1-3x) variant matches")
        if okb and oka:
            return failed(n, detail="both families admit a prefactor: engine bug")
        return failed(n, detail=f"selection failed: {outcomes}")
    raise KeyError(f"no candidate family {class_id!r}")
