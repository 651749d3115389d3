"""Truncated Puiseux series over exact scalars.

A series lives on an exponent grid 1/D: it is determined by integers
``lead <= order`` (both in units of 1/D) and a coefficient tuple for the
exponents lead/D, (lead+1)/D, ..., (order-1)/D.  The series is known
*exactly* for every exponent below order/D and unknown beyond; every
operation propagates the tightest provable bound, so a claimed coefficient
is never an artifact of silent precision loss.

Canonical form: coeffs[0] != 0, except for the zero series which carries
an empty tuple and lead == order.

Every product of coefficient lists (``ps_mul``, the Newton inverse behind
``ps_div`` and ``_horner``) and every power (``ps_pow``) runs on the exact
integer kernel in ``darboux.kernel``.  ``_horner`` is the one evaluator of
a coefficient list at a series: ``ps_compose`` and
``polyalg.UniPoly.eval_series`` both go through it.  It takes baby steps
and giant steps (Paterson & Stockmeyer 1973; Brent & Kung 1978): for K
steps that reach the window and k = isqrt(K), the baby powers b^0 ... b^k,
blocks of k terms summed as integer vectors, and Horner in b^k over the
blocks, each block kept below the window it still has to reach.  That is
about 2*sqrt(K) full-size products instead of K.
"""

from __future__ import annotations

from math import isqrt, lcm

from .kernel import _kdot, _kmul, _kpow, _reduced, _scalars, _unit_inverse, _vec
from .scalars import QQ, ZERO, ONE

__all__ = [
    "PuiseuxSeries",
    "ps_mul",
    "ps_div",
    "ps_compose",
    "ps_pow",
    "first_mismatch",
    "PowBaseError",
    "ValuationError",
]


class PowBaseError(ValueError):
    """Fractional power of a series whose unit coefficient is not 1."""


class ValuationError(ValueError):
    """Composition argument without strictly positive valuation."""


def _ceil_div(n, d):
    return -((-n) // d)


class PuiseuxSeries:
    __slots__ = ("grid", "lead", "coeffs", "order")

    def __init__(self, grid: int, lead: int, coeffs, order: int):
        # trusts its inputs; use make() to canonicalize
        self.grid = grid
        self.lead = lead
        self.coeffs = tuple(coeffs)
        self.order = order

    @staticmethod
    def make(grid: int, lead: int, coeffs, order: int) -> "PuiseuxSeries":
        if grid < 1:
            raise ValueError("grid must be a positive integer")
        coeffs = list(coeffs)
        if len(coeffs) != order - lead:
            raise ValueError("coefficient count does not match lead/order")
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            lead += 1
        if not coeffs:
            lead = order
        return PuiseuxSeries(grid, lead, coeffs, order)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(order_exp, grid: int = 1) -> "PuiseuxSeries":
        n = _exp_to_grid_floorplus(order_exp, grid)
        return PuiseuxSeries(grid, n, (), n)

    @staticmethod
    def const(c, order_exp, grid: int = 1) -> "PuiseuxSeries":
        if not c:
            return PuiseuxSeries.zero(order_exp, grid)
        n = _exp_to_grid_floorplus(order_exp, grid)
        if n <= 0:
            raise ValueError("order bound must exceed 0 for a constant")
        return PuiseuxSeries.make(grid, 0, [c] + [ZERO] * (n - 1), n)

    @staticmethod
    def monomial(exp, order_exp, coeff=ONE) -> "PuiseuxSeries":
        e = QQ(exp)
        grid = int(e.denominator)
        lead = int(e.numerator)
        n = _exp_to_grid_floorplus(order_exp, grid)
        if n <= lead:
            raise ValueError("order bound must exceed the monomial exponent")
        return PuiseuxSeries.make(grid, lead, [coeff] + [ZERO] * (n - lead - 1), n)

    @staticmethod
    def from_pairs(pairs, order_exp, grid: int = 1) -> "PuiseuxSeries":
        """Series from (exponent, coefficient) pairs, known below order_exp,
        on a multiple of the given grid."""
        pairs = [(QQ(e), c) for e, c in pairs]
        for e, _ in pairs:
            grid = lcm(grid, int(e.denominator))
        n = _exp_to_grid_floorplus(order_exp, grid)
        if not pairs:
            return PuiseuxSeries(grid, n, (), n)
        idx = [int(e.numerator) * (grid // int(e.denominator)) for e, _ in pairs]
        lead = min(idx)
        if n <= max(idx):
            raise ValueError("order bound must exceed every listed exponent")
        coeffs = [ZERO] * (n - lead)
        for i, (_, c) in zip(idx, pairs):
            coeffs[i - lead] = coeffs[i - lead] + c
        return PuiseuxSeries.make(grid, lead, coeffs, n)

    # -- basic queries ----------------------------------------------------
    @property
    def lead_exponent(self):
        return QQ(self.lead, self.grid)

    @property
    def order_exponent(self):
        return QQ(self.order, self.grid)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exp):
        e = QQ(exp)
        num = e.numerator * self.grid
        if num % e.denominator:
            return ZERO
        k = num // e.denominator
        if k >= self.order:
            raise ValueError(f"coefficient of exponent {e} is beyond the known order")
        if k < self.lead:
            return ZERO
        return self.coeffs[k - self.lead]

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield QQ(self.lead + i, self.grid), c

    def __repr__(self):
        parts = []
        for e, c in self.terms():
            parts.append(f"{c}*z^{e}")
            if len(parts) == 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<series {body} + O(z^{self.order_exponent})>"

    # -- grid handling ----------------------------------------------------
    def to_grid(self, grid: int) -> "PuiseuxSeries":
        if grid == self.grid:
            return self
        if grid % self.grid:
            raise ValueError("grid refinement must be a multiple of the old grid")
        f = grid // self.grid
        coeffs = [ZERO] * (len(self.coeffs) * f)
        for i, c in enumerate(self.coeffs):
            coeffs[i * f] = c
        return PuiseuxSeries(grid, self.lead * f, coeffs, self.order * f)

    # -- arithmetic -------------------------------------------------------
    def __neg__(self):
        return PuiseuxSeries(self.grid, self.lead, [-c for c in self.coeffs], self.order)

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        g = lcm(self.grid, other.grid)
        a, b = self.to_grid(g), other.to_grid(g)
        order = min(a.order, b.order)
        if a.is_zero() and b.is_zero():
            return PuiseuxSeries(g, order, (), order)
        lead = min(a.lead if a.coeffs else order, b.lead if b.coeffs else order)
        out = [ZERO] * (order - lead)
        for s in (a, b):
            for i, c in enumerate(s.coeffs):
                k = s.lead + i - lead
                if 0 <= k < len(out):
                    out[k] = out[k] + c
        return PuiseuxSeries.make(g, lead, out, order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PuiseuxSeries":
        if not c:
            return PuiseuxSeries(self.grid, self.order, (), self.order)
        return PuiseuxSeries.make(self.grid, self.lead, [c * x for x in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, PuiseuxSeries):
            return ps_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def truncate(self, order_exp) -> "PuiseuxSeries":
        n = _exp_to_grid_floorplus(order_exp, self.grid)
        if n >= self.order:
            return self
        m = max(n, self.lead)
        return PuiseuxSeries.make(self.grid, self.lead, self.coeffs[: m - self.lead], m)

    def derivative(self) -> "PuiseuxSeries":
        g = self.grid
        coeffs = [c * QQ(self.lead + i, g) for i, c in enumerate(self.coeffs)]
        return PuiseuxSeries.make(g, self.lead - g, coeffs, self.order - g)

    def zderivative(self) -> "PuiseuxSeries":
        """Apply z*d/dz (multiplies each coefficient by its exponent)."""
        g = self.grid
        coeffs = [c * QQ(self.lead + i, g) for i, c in enumerate(self.coeffs)]
        return PuiseuxSeries.make(g, self.lead, coeffs, self.order)


def _exp_to_grid_floorplus(exp, grid: int) -> int:
    """Smallest grid index n with {exponents < exp} == {indices < n}."""
    e = QQ(exp)
    return _ceil_div(int(e.numerator) * grid, int(e.denominator))


# -- series operations -------------------------------------------------------

def ps_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Exact product; order = min(Na + lead_b, Nb + lead_a)."""
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    la = a.lead if a.coeffs else a.order
    lb = b.lead if b.coeffs else b.order
    order = min(a.order + lb, b.order + la)
    if a.is_zero() or b.is_zero():
        return PuiseuxSeries(g, order, (), order)
    lead = a.lead + b.lead
    out = _kmul(_vec(a.coeffs), _vec(b.coeffs), order - lead)
    return PuiseuxSeries.make(g, lead, _scalars(out), order)


def ps_div(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Exact quotient a/b; b must not be the zero series.

    Same result and window as ps_mul(a, 1/b), where 1/b is known to as
    many terms as b.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero series")
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    rel = b.order - b.lead
    la = a.lead if a.coeffs else a.order
    order = min(a.order - b.lead, rel - b.lead + la)
    if a.is_zero():
        return PuiseuxSeries(g, order, (), order)
    lead = a.lead - b.lead
    n = order - lead
    out = _kmul(_vec(a.coeffs), _unit_inverse(_vec(b.coeffs), n), n)
    return PuiseuxSeries.make(g, lead, _scalars(out), order)


def ps_pow(a: PuiseuxSeries, r) -> PuiseuxSeries:
    """a**r for rational r.

    The unit part of a must have constant coefficient exactly 1; scalar
    radical prefactors are the caller's problem by design.  The unit part
    is raised on the integer kernel (``kernel._kpow``), one recurrence for
    every exponent, and spread onto the grid of the new lead.
    """
    r = QQ(r)
    if a.is_zero():
        raise PowBaseError("fractional power of the zero series")
    if a.coeffs[0] != ONE:
        raise PowBaseError(
            f"series power requires unit coefficient 1, got {a.coeffs[0]!r}"
        )
    if r == 1:
        return a
    new_lead = a.lead_exponent * r
    g = lcm(a.grid, int(new_lead.denominator))
    rel = a.order - a.lead
    lead = int(new_lead.numerator) * (g // int(new_lead.denominator))
    f = g // a.grid
    coeffs = [ZERO] * (rel * f)
    coeffs[::f] = _kpow(_vec(a.coeffs), int(r.numerator), int(r.denominator), rel)
    return PuiseuxSeries.make(g, lead, coeffs, lead + rel * f)


def _horner(c, b: PuiseuxSeries, stop: int) -> PuiseuxSeries:
    """sum of c[j] b^j for a coefficient list c and a nonzero series b of
    any valuation v, exact below grid index stop of b's grid.

    Every evaluation of a coefficient list at a series runs here, by baby
    steps and giant steps (Paterson & Stockmeyer 1973).  Only the terms
    with j*v < stop reach the window; let top be the last of them and
    k = isqrt(top + 1).  The integer vectors run on one anchor, grid index
    base = min(0, top*v), below every partial sum.  The baby powers b^0 ...
    b^k are built on the kernel, b^i cut at stop - max(0, i*v) - base.
    Block m is P_m = sum_i c[mk+i] b^i, and the giant steps run Horner in
    b^k over the blocks: A_m = A_(m+1) b^k + P_m, one scalar-times-vector
    sum (kernel._kdot) per block.  A_m still gets multiplied by b^k m more
    times, which shifts it by m*k*v; so it is kept only below
    stop - m*k*v.  For top < 3, k = 1 and this is plain Horner.  The
    caller keeps stop where the known coefficients of b reach: below
    N(b) + (e-1)*v, with e the lowest power >= 1 present when v > 0 and
    the top power otherwise.
    """
    v = b.lead
    live = [j for j, cj in enumerate(c) if cj and j * v < stop]
    if not live:
        return PuiseuxSeries(b.grid, stop, (), stop)
    top = live[-1]
    base = min(0, top * v)
    k = isqrt(top + 1)
    powers = [([1], None, 1), _vec(b.coeffs)]
    for i in range(2, k + 1):
        powers.append(_kmul(powers[-1], powers[1], stop - max(0, i * v) - base))
    acc = None
    for m in range(top // k, -1, -1):
        terms = [(c[j], powers[j - m * k], (j - m * k) * v - base)
                 for j in live if m * k <= j < (m + 1) * k]
        if acc is not None:
            # the product starts at base + k*v: lift it by k*v, or drop -k*v slots
            terms.append((ONE, _kmul(acc, powers[k], len(acc[0])), k * v))
        if terms:
            acc = _reduced(*_kdot(terms, stop - m * k * v - base))
    return PuiseuxSeries.make(b.grid, base, _scalars(acc), stop)


def ps_compose(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """a(b) for an integer-grid a and positive-valuation b.

    The part of a at exponents >= 0 is a polynomial in b, the part below 0
    a polynomial in 1/b of valuation -v(b); both run through _horner.
    """
    if a.grid != 1:
        raise ValuationError("composition requires an integer exponent grid on the outer series")
    if b.is_zero() or b.lead <= 0:
        raise ValuationError("composition argument must have positive valuation")
    vb = b.lead_exponent
    nb = b.order_exponent
    bound = QQ(a.order) * vb
    support = [a.lead + i for i, c in enumerate(a.coeffs) if c and (a.lead + i)]
    if support:
        e0 = min(support)
        bound = min(bound, nb + (e0 - 1) * vb)
    stop = _exp_to_grid_floorplus(bound, b.grid)

    def at(k):
        return a.coeffs[k - a.lead] if 0 <= k - a.lead < len(a.coeffs) else ZERO

    acc = _horner([at(k) for k in range(a.order)], b, stop)
    if a.lead < 0:
        # 1/b is known below N(b) - 2v(b): its window N(b) - (1 - a.lead)v(b)
        # is the bound's second term
        binv = ps_div(PuiseuxSeries.const(ONE, nb - vb, b.grid), b)
        acc = acc + _horner([at(-k) if k else ZERO for k in range(1 - a.lead)], binv, stop)
    return acc


def first_mismatch(a: PuiseuxSeries, b: PuiseuxSeries, below=None):
    """First exponent where the two series disagree, or None.

    Compares every exponent < min(orders, below); raises if that window is
    empty while a bound was requested.
    """
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    stop = min(a.order, b.order)
    if below is not None:
        want = _exp_to_grid_floorplus(QQ(below), g)
        if stop < want:
            raise ValueError(
                f"series only known below {QQ(stop, g)}, cannot compare below {below}"
            )
        stop = min(stop, want)
    start = min(a.lead if a.coeffs else stop, b.lead if b.coeffs else stop)
    for k in range(start, stop):
        ca = a.coeffs[k - a.lead] if 0 <= k - a.lead < len(a.coeffs) else ZERO
        cb = b.coeffs[k - b.lead] if 0 <= k - b.lead < len(b.coeffs) else ZERO
        if ca != cb:
            return QQ(k, g), ca, cb
    return None
