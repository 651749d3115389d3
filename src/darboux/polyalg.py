"""Exact univariate and sparse multivariate polynomial algebra.

Coefficients are exact scalars (rationals or Q(w) elements).  Univariate
polynomials are dense integer vectors of ``darboux.kernel``, and every
``UniPoly`` ring op, ``divmod`` (and so ``%`` and ``divexact``) and ``gcd``
runs on them.  Multivariate ones, over Q, are sparse maps from exponent
tuples to integer numerators over one common denominator, and their ring
ops and ``reduce_mod`` run on the integers.
Only what the verification needs is here: ring ops, division, gcd,
squarefree splitting, resultants, series evaluation, and reduction modulo
a single multivariate divisor.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import add, ge, sub

from .kernel import (_UNIT, _canonical, _kdivmod, _kdot, _kmul, _pack, _scalar, _scalars, _unpack,
                     _vec)
from .scalars import QQ, ZERO, ONE, power, scalar_inv
from .series import PuiseuxSeries, _horner, ps_div, ps_mul

__all__ = [
    "UniPoly",
    "RationalMap",
    "MultiPoly",
    "squarefree_multiplicities",
    "resultant",
    "rational_roots",
]


class UniPoly:
    """One integer vector (re, im, d) of ``kernel``, coefficient k being
    (re[k] + im[k] w)/d with im None over Q, kept ``_canonical``; scalars
    are built where a coefficient is read.  A divisor keeps its inverse."""

    __slots__ = ("vec", "_inv")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:        # so that a trailing Omega 0 adds no w part
            cs.pop()
        self.vec, self._inv = _canonical(*_vec(cs)), None

    @classmethod
    def _of(cls, v):
        """The polynomial of an integer vector."""
        p = cls.__new__(cls)
        p.vec, p._inv = _canonical(*v), None
        return p

    # -- basics ---------------------------------------------------------
    @property
    def coeffs(self):
        """The coefficient tuple, built from the vector at each read."""
        return tuple(_scalars(self.vec))

    @property
    def degree(self) -> int:
        return len(self.vec[0]) - 1

    def is_zero(self) -> bool:
        return not self.vec[0]

    def __bool__(self):
        return bool(self.vec[0])

    def __getitem__(self, k):
        if not 0 <= k < len(self.vec[0]):
            return ZERO
        return _scalar(self.vec, k)

    @property
    def lc(self):
        if not self.vec[0]:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def _key(self):
        """The vector, with no w part where every im is 0: equal values,
        equal keys."""
        re, im, d = self.vec
        return tuple(re), tuple(im) if im and any(im) else None, d

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if not self.vec[0]:
            return "poly(0)"
        return "poly(" + " + ".join(f"{c}*u^{k}" for k, c in enumerate(self.coeffs) if c) + ")"

    # -- ring ops ---------------------------------------------------------
    def _plus(self, other, s):
        """self + s * other for s = 1 or -1, one ``_kdot``."""
        a, b = self.vec, _as_poly(other).vec
        return UniPoly._of(_kdot([(_UNIT, a, 0), (([s], None, 1), b, 0)],
                                 max(len(a[0]), len(b[0]))))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        re, im, d = self.vec
        return UniPoly._of(([-c for c in re], im and [-c for c in im], d))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            a, b = self.vec, other.vec
            if not a[0] or not b[0]:
                return UniPoly()
            return UniPoly._of(_kmul(a, b, len(a[0]) + len(b[0]) - 1))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return UniPoly()
        return UniPoly._of(_kdot([(_vec([c]), self.vec, 0)], len(self.vec[0])))

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, UniPoly([ONE]))

    def shift_mul_x(self, k: int) -> "UniPoly":
        re, im, d = self.vec
        if not re:
            return self
        return UniPoly._of(([0] * k + re, im and [0] * k + im, d))

    # -- division ---------------------------------------------------------
    def divmod(self, other: "UniPoly"):
        """A constant divisor is a scaling; any other keeps the Newton
        inverse of ``kernel._kdivmod`` for the next division by it."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly(), self
        if not other.degree:
            return self.scale(scalar_inv(other.lc)), UniPoly()
        q, r, other._inv = _kdivmod(self.vec, other.vec, other._inv)
        return UniPoly._of(q), UniPoly._of(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(scalar_inv(self.lc))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd.  Two nonzero rational operands go by one integer gcd
        first (``_heuristic_gcd``); Q(w) operands, and rational ones on
        which that fails, by Euclid on their integer vectors, each remainder
        cut to its primitive part (Knuth, TAOCP vol. 2, 4.6.1)."""
        a, b = self.vec, other.vec
        if a[1] is None and b[1] is None:
            if a[0] and b[0]:
                g = _heuristic_gcd(_primitive(a[0]), _primitive(b[0]))
                if g is not None:
                    return UniPoly._of((g, None, 1)).monic()
        else:
            # both in Q(w), so that the gcd is too
            a, b = [(re, [0] * len(re) if im is None else im, d) for re, im, d in (a, b)]
        if len(a[0]) < len(b[0]):
            a, b = b, a
        while b[0]:
            re, im, _ = _kdivmod(a, b)[1]
            g = gcd(*re, *(im or ())) or 1
            a, b = b, ([c // g for c in re], im and [c // g for c in im], 1)
        return UniPoly._of(a).monic()

    # -- calculus / evaluation ---------------------------------------------
    def derivative(self) -> "UniPoly":
        re, im, d = self.vec
        return UniPoly._of(([k * c for k, c in enumerate(re)][1:],
                            im and [k * c for k, c in enumerate(im)][1:], d))

    def __call__(self, x):
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def eval_series(self, s: PuiseuxSeries) -> PuiseuxSeries:
        """The polynomial at a nonzero series s, by ``series._horner``.

        The window is N(s) + (e-1)*v(s), with e the lowest power >= 1
        present when v(s) > 0 and the degree otherwise: the coefficients of
        s that are known reach that far.  A constant is known |v(s)| beyond
        N(s), the zero polynomial to N(s).
        """
        re, im, _ = self.vec
        if not re:
            return PuiseuxSeries.zero(s.order_exponent, s.grid)
        v = s.lead
        if v > 0:
            e = next((k for k in range(1, len(re)) if re[k] or im and im[k]), 2)
        else:
            e = self.degree
        return _horner(self.vec, s, s.order + (e - 1) * v)


def _primitive(v):
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return [c // g for c in v]


def _heuristic_gcd(a, b):
    """The primitive gcd of two primitive integer vectors whose last slots
    are nonzero, or None.

    GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989): with
    xi = 2**(8*w) > 2*max|c| + 29, the symmetric xi-adic digits of
    gcd(a(xi), b(xi)) are, cut to their primitive part, the gcd of a and b
    whenever they divide both.  A failed try widens xi; after four the
    caller runs Euclid.
    """
    w = -(-(2 * max(map(abs, a + b)) + 29).bit_length() // 8)
    for _ in range(4):
        h = gcd(_pack(a, w), _pack(b, w))
        g = _unpack(h, w, h.bit_length() // (8 * w) + 2)
        while not g[-1]:
            g.pop()
        if len(g) <= min(len(a), len(b)):
            g = _primitive(g)
            if len(g) == 1:             # a unit divides both
                return g
            # the two exact divisions share one inverse of g
            _, r, inv = _kdivmod((a, None, 1), (g, None, 1))
            if not (r[0] or _kdivmod((b, None, 1), (g, None, 1), inv)[1][0]):
                return g
        w += 1
    return None


def _as_poly(x) -> UniPoly:
    if isinstance(x, UniPoly):
        return x
    return UniPoly([x])


def poly(*coeffs) -> UniPoly:
    """Polynomial from ascending coefficients given as ints/rationals."""
    return UniPoly([QQ(c) if isinstance(c, (int, str)) else c for c in coeffs])


def squarefree_multiplicities(p: UniPoly):
    """Yun splitting: [(monic squarefree factor, multiplicity)], pairwise coprime."""
    if p.is_zero():
        raise ValueError("squarefree split of the zero polynomial")
    if p.degree == 0:
        return []
    p = p.monic()
    d = p.derivative()
    a = p.gcd(d)
    b = p.divexact(a)
    c = d.divexact(a)
    out = []
    i = 1
    while b.degree > 0:
        d2 = c - b.derivative()
        f = b.gcd(d2)
        if f.degree > 0:
            out.append((f, i))
        b = b.divexact(f)
        c = d2.divexact(f)
        i += 1
    return out


def resultant(p: UniPoly, q: UniPoly):
    """Resultant by Euclid's remainder sequence (Knuth, TAOCP vol. 2, 4.6.1):
    res(p, q) = (-1)**(m n) lc(q)**(m - deg r) res(q, r) with r = p mod q,
    m and n the degrees of p and q, and res(p, c) = c**m for a constant c."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    out = ONE
    while q.degree > 0:
        m, n, r = p.degree, q.degree, p % q
        if not r:
            return ZERO
        out = out * (-1) ** (m * n) * q.lc ** (m - r.degree)
        p, q = q, r
    return out * q.lc ** p.degree


def rational_roots(p: UniPoly):
    """All rational roots of a rational-coefficient polynomial."""
    if p.is_zero():
        raise ValueError("every rational is a root of 0")
    den = lcm(*(QQ(c).denominator for c in p.coeffs))
    ic = [int(QQ(c) * den) for c in p.coeffs]
    k = 0
    while ic[k] == 0:
        k += 1
    roots = [] if k == 0 else [QQ(0)]
    a0, an = abs(ic[k]), abs(ic[-1])
    for r in _divisors(a0):
        for s in _divisors(an):
            for cand in (QQ(r, s), QQ(-r, s)):
                if cand not in roots and not p(cand):
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def homogeneous(fs, d: int, a: UniPoly, b: UniPoly, q: UniPoly, rhs: UniPoly):
    """For each f in fs, of degree at most d, the pair (A, B) of
    polynomials with A + B v = sum_k f_k (a + b v)**k q**(d-k) and
    v**2 = rhs, by Horner on the pairs; all the f share one power list of q."""
    qs = [UniPoly([ONE])]
    for _ in range(d):
        qs.append(qs[-1] * q)
    brhs = b * rhs
    out = []
    for f in fs:
        A, B = UniPoly([f[d]]), UniPoly()
        for k in range(d - 1, -1, -1):
            A, B = A * a + B * brhs + qs[d - k].scale(f[k]), A * b + B * a
        out.append((A, B))
    return out


class RationalMap:
    """Quotient num/den of exact polynomials, always coprime with monic den
    (den 1 for the zero map)."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = None):
        den = UniPoly([ONE]) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("rational map with zero denominator")
        if not num:
            den = UniPoly([ONE])
        elif den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num.divexact(g), den.divexact(g)
        if den.lc != ONE:
            inv = scalar_inv(den.lc)
            num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"

    def eval_series(self, s: PuiseuxSeries) -> PuiseuxSeries:
        return ps_div(self.num.eval_series(s), self.den.eval_series(s))

    def compose_rational(self, other: "RationalMap") -> "RationalMap":
        """self(p/q) with q**d cancelled, d the larger degree of self: num
        and den each as sum_k f_k p**k q**(d-k), by ``homogeneous``."""
        d = max(self.num.degree, self.den.degree)
        (num, _), (den, _) = homogeneous((self.num, self.den), d, other.num, UniPoly(),
                                         other.den, UniPoly())
        return RationalMap(num, den)


class MultiPoly:
    """Sparse multivariate polynomial over Q: a nonzero integer numerator
    per exponent tuple (``num``) over one denominator ``den`` > 0, in lowest
    terms; ``terms``, exponent tuple -> coefficient, is built at each read."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        items = [(tuple(m), c) for m, c in (terms or {}).items() if c]
        re, im, d = _vec([c for _, c in items])
        if im is not None:
            raise TypeError("MultiPoly coefficients must be rational")
        p = MultiPoly._of(dict(zip([m for m, _ in items], re)), d)
        self.num, self.den = p.num, p.den

    @classmethod
    def _of(cls, num, den):
        """The polynomial of integer numerators over den > 0, without the
        zero ones and in lowest terms."""
        p = cls.__new__(cls)
        num = {m: c for m, c in num.items() if c}
        g = gcd(den, *num.values())
        p.num, p.den = ({m: c // g for m, c in num.items()}, den // g) if g > 1 else (num, den)
        return p

    @property
    def terms(self):
        """The coefficient map, built from the numerators at each read."""
        return {m: QQ(c, self.den) for m, c in self.num.items()}

    @staticmethod
    def variable(i: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly({tuple(e): ONE})

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        d = lcm(self.den, other.den)
        a, b = d // self.den, d // other.den
        out = {m: a * c for m, c in self.num.items()}
        for m, c in other.num.items():
            out[m] = out.get(m, 0) + b * c
        return MultiPoly._of(out, d)

    def __neg__(self):
        return MultiPoly._of({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        out = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly._of(out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c):
        c = QQ(c)
        return MultiPoly._of({m: c.numerator * x for m, x in self.num.items()},
                             c.denominator * self.den)

    def __pow__(self, n: int):
        nv = self.nvars
        return power(self, int(n), MultiPoly._of({(0,) * (nv or 0): 1}, 1))

    @property
    def nvars(self):
        for m in self.num:
            return len(m)
        return None

    def total_degree(self) -> int:
        return max((sum(m) for m in self.num), default=-1)

    def diff(self, i: int) -> "MultiPoly":
        return MultiPoly._of({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                              for m, c in self.num.items() if m[i]}, self.den)

    def eval_series(self, values) -> PuiseuxSeries:
        """Substitute a PuiseuxSeries per variable; exact with order tracking."""
        acc = None
        for m, c in sorted(self.terms.items()):
            term = None
            for i, e in enumerate(m):
                for _ in range(e):
                    term = values[i] if term is None else ps_mul(term, values[i])
            if term is None:
                term = PuiseuxSeries.const(ONE, min(v.order_exponent for v in values))
            term = term.scale(c)
            acc = term if acc is None else acc + term
        if acc is None:
            return PuiseuxSeries.zero(min(v.order_exponent for v in values))
        return acc

    def reduce_mod(self, q: "MultiPoly") -> "MultiPoly":
        """Remainder of long division by the single divisor q.

        Monomials are ordered lexicographically; the leading monomial of q
        is cancelled wherever it divides a monomial of the dividend.  For a
        single divisor the remainder is 0 exactly when q divides the
        dividend.

        It runs on numerators over self's denominator, all scaled by
        lc/gcd(c, lc) where q's leading numerator lc does not divide the
        numerator c to cancel: never when lc is 1 or -1, as in R4.
        """
        if q.is_zero():
            raise ZeroDivisionError("reduction modulo the zero polynomial")
        lt = max(q.num)
        lc = q.num[lt]
        rest = [(m, c) for m, c in q.num.items() if m != lt]
        work, den = dict(self.num), self.den
        heap = [_negkey(m) for m in work]
        heapq.heapify(heap)
        remainder = {}
        while heap:
            m = _negkey(heapq.heappop(heap))
            if m not in work:
                continue
            c = work.pop(m)
            if all(map(ge, m, lt)):
                g = gcd(c, lc)
                f, s = (c // g, lc // g) if lc > 0 else (-c // g, -lc // g)
                if s != 1:
                    work = {k: s * v for k, v in work.items()}
                    remainder = {k: s * v for k, v in remainder.items()}
                    den *= s
                shift = tuple(map(sub, m, lt))
                for m2, c2 in rest:
                    mm = tuple(map(add, m2, shift))
                    v = work.get(mm, 0) - f * c2
                    if v:
                        if mm not in work:
                            heapq.heappush(heap, _negkey(mm))
                        work[mm] = v
                    else:
                        work.pop(mm, None)
            else:
                remainder[m] = c
        return MultiPoly._of(remainder, den)


def _negkey(k):
    return tuple(-x for x in k)

