"""Truncated Puiseux series over exact scalars.

A series lives on an exponent grid 1/D: it is determined by integers
``lead <= order`` (both in units of 1/D) and one integer vector
``vec = (re, im, d)`` of ``darboux.kernel`` for the exponents lead/D,
(lead+1)/D, ..., (order-1)/D: the coefficient of (lead+i)/D is
(re[i] + im[i]*w)/d, with im None when the series is rational.  The series
is known *exactly* for every exponent below order/D and unknown beyond;
every operation propagates the tightest provable bound, so a claimed
coefficient is never an artifact of silent precision loss.

Canonical form: len(re) == order - lead; the vector is reduced (d > 0 and
the gcd of d and every numerator is 1); slot 0 is nonzero (re[0] or
im[0]), except for the zero series, whose vec is ([], None, 1) with
lead == order.  Equal values on one grid and window have one vector.
Scalars are built only where a coefficient is read (``coefficient``,
``terms``, ``coeffs``, a mismatch's values); ``make`` takes scalars.

Every product of coefficient vectors (``ps_mul``, the Newton inverse behind
``ps_div`` and ``_horner``) and every power (``ps_pow``) runs on the exact
integer kernel in ``darboux.kernel``.  ``_horner`` is the one evaluator of
a coefficient vector at a series: ``ps_compose`` and
``polyalg.UniPoly.eval_series`` both go through it.  It takes baby steps
and giant steps (Paterson & Stockmeyer 1973; Brent & Kung 1978): for K
steps that reach the window and k = isqrt(K), the baby powers b^0 ... b^k,
blocks of k terms summed as integer vectors, and Horner in b^k over the
blocks, each block kept below the window it still has to reach.  That is
about 2*sqrt(K) full-size products instead of K.
"""

from __future__ import annotations

from math import isqrt, lcm

from .kernel import (_UNIT, _kdot, _kmul, _kpow, _reduced, _scalar, _scalars, _spread,
                     _unit_inverse, _vec)
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
    """Composition of a series that is not Taylor (integer grid, lead >= 0),
    or at an argument without strictly positive valuation."""


def _ceil_div(n, d):
    return -((-n) // d)


class PuiseuxSeries:
    __slots__ = ("grid", "lead", "vec", "order")

    def __init__(self, grid: int, lead: int, vec, order: int):
        # trusts its inputs; use make() or _of() to canonicalize
        self.grid = grid
        self.lead = lead
        self.vec = vec
        self.order = order

    @staticmethod
    def make(grid: int, lead: int, coeffs, order: int) -> "PuiseuxSeries":
        if grid < 1:
            raise ValueError("grid must be a positive integer")
        coeffs = list(coeffs)
        if len(coeffs) != order - lead:
            raise ValueError("coefficient count does not match lead/order")
        return PuiseuxSeries._of(grid, lead, _vec(coeffs), order)

    @staticmethod
    def _of(grid: int, lead: int, v, order: int) -> "PuiseuxSeries":
        """The series of an integer vector on grid indices lead .. order-1,
        without its leading zero slots (those whose re and im are both 0)
        and reduced."""
        re, im, d = v
        i = 0
        while i < len(re) and not re[i] and (im is None or not im[i]):
            i += 1
        if i == len(re):
            return _zero(grid, order)
        if i:
            re, im = re[i:], None if im is None else im[i:]
        return PuiseuxSeries(grid, lead + i, _reduced(re, im, d), order)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(order_exp, grid: int = 1) -> "PuiseuxSeries":
        return _zero(grid, _exp_to_grid_floorplus(order_exp, grid))

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
        grid = e.denominator
        lead = e.numerator
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
            grid = lcm(grid, e.denominator)
        n = _exp_to_grid_floorplus(order_exp, grid)
        if not pairs:
            return _zero(grid, n)
        idx = [e.numerator * (grid // e.denominator) for e, _ in pairs]
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

    @property
    def coeffs(self):
        """The coefficient tuple, built from the vector at each read."""
        return tuple(_scalars(self.vec))

    def is_zero(self) -> bool:
        return not self.vec[0]

    def coefficient(self, exp):
        e = QQ(exp)
        num = e.numerator * self.grid
        if num % e.denominator:
            return ZERO
        k = num // e.denominator
        if k >= self.order:
            raise ValueError(f"coefficient of exponent {e} is beyond the known order")
        return self._at(k)

    def _at(self, k):
        """The coefficient at grid index k, ZERO outside the slots."""
        i = k - self.lead
        return _scalar(self.vec, i) if 0 <= i < len(self.vec[0]) else ZERO

    def terms(self):
        for i, c in enumerate(_scalars(self.vec)):
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
        re, im, d = self.vec
        n = len(re) * f
        return PuiseuxSeries(grid, self.lead * f,
                             (_spread(re, f, n), im and _spread(im, f, n), d), self.order * f)

    def shift(self, exp) -> "PuiseuxSeries":
        """The series times z^exp: its vector on the grid lcm(grid, den exp)."""
        e = QQ(exp)
        g = lcm(self.grid, e.denominator)
        s = self.to_grid(g)
        k = e.numerator * (g // e.denominator)
        return PuiseuxSeries(g, s.lead + k, s.vec, s.order + k)

    # -- arithmetic -------------------------------------------------------
    def __neg__(self):
        re, im, d = self.vec
        return PuiseuxSeries(self.grid, self.lead,
                             ([-c for c in re], im and [-c for c in im], d), self.order)

    def __add__(self, other):
        """The sum, one ``_kdot``; its coefficients are Omega when either
        operand has a w part, as with the kernel's products."""
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        g = lcm(self.grid, other.grid)
        a, b = self.to_grid(g), other.to_grid(g)
        order = min(a.order, b.order)
        lead = min(a.lead, b.lead, order)
        acc = _kdot([(_UNIT, a.vec, a.lead - lead), (_UNIT, b.vec, b.lead - lead)], order - lead)
        return PuiseuxSeries._of(g, lead, acc, order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PuiseuxSeries":
        acc = _kdot([(_vec([c]), self.vec, 0)], len(self.vec[0]))
        return PuiseuxSeries._of(self.grid, self.lead, acc, self.order)

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
        re, im, d = self.vec
        k = m - self.lead
        return PuiseuxSeries._of(self.grid, self.lead, (re[:k], im and im[:k], d), m)

    def _times_exponent(self):
        """The vector of the coefficients times their exponents."""
        re, im, d = self.vec
        lead = self.lead
        return ([(lead + i) * c for i, c in enumerate(re)],
                im and [(lead + i) * c for i, c in enumerate(im)], d * self.grid)

    def derivative(self) -> "PuiseuxSeries":
        g = self.grid
        return PuiseuxSeries._of(g, self.lead - g, self._times_exponent(), self.order - g)

    def zderivative(self) -> "PuiseuxSeries":
        """Apply z*d/dz (multiplies each coefficient by its exponent)."""
        return PuiseuxSeries._of(self.grid, self.lead, self._times_exponent(), self.order)


def _zero(grid: int, n: int) -> PuiseuxSeries:
    """The zero series known below grid index n."""
    return PuiseuxSeries(grid, n, ([], None, 1), n)


def _exp_to_grid_floorplus(exp, grid: int) -> int:
    """Smallest grid index n with {exponents < exp} == {indices < n}."""
    e = QQ(exp)
    return _ceil_div(e.numerator * grid, e.denominator)


# -- series operations -------------------------------------------------------

def ps_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Exact product; order = min(Na + lead_b, Nb + lead_a)."""
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    order = min(a.order + b.lead, b.order + a.lead)
    if a.is_zero() or b.is_zero():
        return _zero(g, order)
    lead = a.lead + b.lead
    return PuiseuxSeries._of(g, lead, _kmul(a.vec, b.vec, order - lead), order)


def ps_div(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Exact quotient a/b; b must not be the zero series.

    Same result and window as ps_mul(a, 1/b), where 1/b is known to as
    many terms as b.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero series")
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    order = min(a.order - b.lead, b.order - 2 * b.lead + a.lead)
    if a.is_zero():
        return _zero(g, order)
    lead = a.lead - b.lead
    n = order - lead
    return PuiseuxSeries._of(g, lead, _kmul(a.vec, _unit_inverse(b.vec, n), n), order)


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
    re, im, d = a.vec
    if re[0] != d or im and im[0]:
        raise PowBaseError(
            f"series power requires unit coefficient 1, got {_scalar(a.vec, 0)!r}"
        )
    if r == 1:
        return a
    new_lead = a.lead_exponent * r
    g = lcm(a.grid, new_lead.denominator)
    rel = a.order - a.lead
    lead = new_lead.numerator * (g // new_lead.denominator)
    f = g // a.grid
    yr, yi, dy = _kpow(a.vec, r.numerator, r.denominator, rel)
    n = rel * f
    return PuiseuxSeries(g, lead, (_spread(yr, f, n), yi and _spread(yi, f, n), dy), lead + n)


def _horner(c, b: PuiseuxSeries, stop: int) -> PuiseuxSeries:
    """sum of c[j] b^j for a coefficient vector c and a nonzero series b of
    any valuation v, exact below grid index stop of b's grid.

    Every evaluation of a coefficient vector at a series runs here, by baby
    steps and giant steps (Paterson & Stockmeyer 1973).  Only the terms
    with j*v < stop reach the window; let top be the last of them and
    k = isqrt(top + 1).  The integer vectors run on one anchor, grid index
    base = min(0, top*v), below every partial sum.  The baby powers b^0 ...
    b^k are built on the kernel, b^i cut at stop - max(0, i*v) - base.
    Block m is P_m = sum_i c[mk+i] b^i, and the giant steps run Horner in
    b^k over the blocks: A_m = A_(m+1) b^k + P_m, one scalar-times-vector
    sum (kernel._kdot) per block; a coefficient brings a w part only when
    its own is nonzero.  A_m still gets multiplied by b^k m more times,
    which shifts it by m*k*v; so it is kept only below stop - m*k*v.  For
    top < 3, k = 1 and this is plain Horner.  The caller keeps stop where
    the known coefficients of b reach: below N(b) + (e-1)*v, with e the
    lowest power >= 1 present when v > 0 and the top power otherwise.
    """
    v = b.lead
    cr, ci, cd = c
    live = [j for j in range(len(cr)) if (cr[j] or ci and ci[j]) and j * v < stop]
    if not live:
        return _zero(b.grid, stop)
    top = live[-1]
    base = min(0, top * v)
    k = isqrt(top + 1)
    powers = [_UNIT, b.vec]
    for i in range(2, k + 1):
        powers.append(_kmul(powers[-1], powers[1], stop - max(0, i * v) - base))
    acc = None
    for m in range(top // k, -1, -1):
        terms = [(([cr[j]], [ci[j]] if ci and ci[j] else None, cd), powers[j - m * k],
                  (j - m * k) * v - base)
                 for j in live if m * k <= j < (m + 1) * k]
        if acc is not None:
            # the product starts at base + k*v: lift it by k*v, or drop -k*v slots
            terms.append((_UNIT, _kmul(acc, powers[k], len(acc[0])), k * v))
        if terms:
            acc = _reduced(*_kdot(terms, stop - m * k * v - base))
    return PuiseuxSeries._of(b.grid, base, acc, stop)


def ps_compose(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """a(b) for a Taylor series a (integer grid, lead >= 0) and a
    positive-valuation b: a polynomial in b, run through _horner."""
    if a.grid != 1 or a.lead < 0:
        raise ValuationError("composition requires an outer series on the integer grid "
                             "with lead >= 0")
    if b.is_zero() or b.lead <= 0:
        raise ValuationError("composition argument must have positive valuation")
    vb = b.lead_exponent
    bound = QQ(a.order) * vb
    re, im, d = a.vec
    support = [a.lead + i for i in range(len(re)) if (re[i] or im and im[i]) and a.lead + i]
    if support:
        bound = min(bound, b.order_exponent + (min(support) - 1) * vb)
    stop = _exp_to_grid_floorplus(bound, b.grid)
    pad = [0] * a.lead
    return _horner((pad + re, im and pad + im, d), b, stop)


def first_mismatch(a: PuiseuxSeries, b: PuiseuxSeries, below=None):
    """First exponent where the two series disagree, or None.

    Compares every exponent < min(orders, below); raises if that window is
    empty while a bound was requested.  Slot values are compared as
    numerators cross-multiplied by the other side's denominator.
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
    start = min(a.lead, b.lead, stop)
    da, db = a.vec[2], b.vec[2]
    ra, ia = _window(a, start, stop, db)
    rb, ib = _window(b, start, stop, da)
    if ra == rb and ia == ib:
        return None
    k = next(i for i, (x, y, u, v) in enumerate(zip(ra, rb, ia, ib)) if x != y or u != v)
    return QQ(start + k, g), a._at(start + k), b._at(start + k)


def _window(s: PuiseuxSeries, start: int, stop: int, m: int):
    """re and im of s on grid indices start .. stop-1, s.lead >= start, each
    numerator times m, 0 outside s's slots and im all 0 when s has none."""
    re, im, _ = s.vec
    front = [0] * min(s.lead - start, stop - start)
    k = max(0, stop - s.lead)
    r = front + [x * m for x in re[:k]]
    return r, [0] * len(r) if im is None else front + [y * m for y in im[:k]]
