"""Function fields, local expansions, norms and divisors on the two
genus-1 curves v^2 = u(1-11u+32u^2) and w^2 = p(1+22p-7p^2).

A curve function is (a(u) + b(u) v)/den(u) with polynomial components;
v^2 is always eliminated through the curve equation.  Divisors are exact:
orders at rational points come from local Puiseux expansions, orders along
a conjugate cluster of places from the multiplicity of the cluster's
minimal polynomial in the norm plus a residue-algebra unit test that pins
the v-branch, and the pole at infinity from degree bookkeeping (the
infinite place has odd/even valuations -3/-2 on v/u, so the two candidates
never tie).
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyalg import RationalMap, UniPoly, homogeneous, poly, rational_roots, resultant
from .report import Mismatch, VerificationReport, failed, passed
from .scalars import QQ, ONE, power, rat, scalar_inv
from .series import PuiseuxSeries, ps_div, ps_pow
from .verifier import built_once, memo

__all__ = [
    "Curve",
    "CurveFunction",
    "AffinePoint",
    "INFINITY",
    "PlaceCluster",
    "E7",
    "E4",
    "local_expansion",
    "verify_divisor",
    "isogeny_pullback",
    "involution_apply",
    "ISOGENY_P",
    "ISOGENY_W",
    "INVOLUTION_U",
    "INVOLUTION_V",
    "torsion_audit",
    "ec_add",
    "ec_mul",
    "UnsupportedPointError",
    "ClusterSplitError",
    "U_CLUSTER",
    "V_CLUSTER",
    "S_CLUSTER",
    "T_CLUSTER",
    "TABLE1",
    "TABLE2",
    "PHI7_DIVISOR",
    "PHI4_DIVISOR",
    "phi7",
    "phi4_on_e4",
    "e7_to_e4_x",
]


class UnsupportedPointError(ValueError):
    pass


class ClusterSplitError(ValueError):
    """Both branches vanish on a cluster: the table never needs this."""


@dataclass(frozen=True)
class Curve:
    name: str
    c: UniPoly                    # quadratic factor; equation sq = var*c(var)

    def __post_init__(self):
        rhs = self.rhs
        disc = resultant(rhs, rhs.derivative())
        if not disc:
            raise ValueError("singular curve")

    @property
    def rhs(self) -> UniPoly:
        return self.c.shift_mul_x(1)

    def contains(self, u0, v0) -> bool:
        return QQ(v0) ** 2 == self.rhs(QQ(u0))


E7 = Curve("E7", poly(1, -11, 32))
E4 = Curve("E4", poly(1, 22, -7))


@dataclass(frozen=True)
class AffinePoint:
    u: object
    v: object

    def __repr__(self):
        return f"({self.u},{self.v})"


class _Infinity:
    def __repr__(self):
        return "O"


INFINITY = _Infinity()


@dataclass(frozen=True)
class PlaceCluster:
    name: str
    minpoly: UniPoly              # monic-normalizable in Q[u]
    vsel: UniPoly                 # v on the stated branch, reduced mod minpoly

    @property
    def size(self) -> int:
        return self.minpoly.degree

    def __repr__(self):
        return self.name


def _cluster(name: str, curve: Curve, minpoly: UniPoly, defining_a: UniPoly,
             defining_b: UniPoly) -> PlaceCluster:
    """Cluster from its minimal polynomial and a table function vanishing on
    the stated branch: a + b*v = 0 there, so v = -a/b mod minpoly."""
    binv = _invert_mod(defining_b, minpoly)
    vsel = (-defining_a * binv) % minpoly
    if (vsel * vsel - curve.rhs) % minpoly:
        raise ValueError(f"cluster {name}: branch selector not on the curve")
    return PlaceCluster(name, minpoly.monic(), vsel)


def _invert_mod(p: UniPoly, m: UniPoly) -> UniPoly:
    """Inverse of p modulo m via extended Euclid."""
    r0, r1 = m, p % m
    s0, s1 = UniPoly(), UniPoly([ONE])
    while r1.degree > 0:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1.is_zero():
        raise ZeroDivisionError("element not invertible in the residue algebra")
    return (s1.scale(scalar_inv(r1[0]))) % m


# the four clusters, built from their defining equations
U_CLUSTER = _cluster(
    "U", E7,
    poly(0, 4) * poly(-1, 4) * poly(-5, 4) - poly(1),       # 4u(4u-1)(4u-5) = 1
    poly(1, -10, 16), poly(2))                              # G3 = (1-10u+16u^2) + 2v
V_CLUSTER = _cluster(
    "V", E7,
    poly(0, 16) * poly(-1, 4) * poly(-3, 8) - poly(1),      # 16u(4u-1)(8u-3) = 1
    poly(1, -20, 64), poly(-4))                             # G4 = (1-20u+64u^2) - 4v
S_CLUSTER = _cluster(
    "S", E4,
    poly(0, 7) * poly(5, -21, 7) - poly(1),                 # 7p(7p^2-21p+5) = 1
    poly(1, -16, 7), poly(-2))                              # F5 = (1-16p+7p^2) - 2w
T_CLUSTER = _cluster(
    "T", E4,
    poly(0, 7) * (poly(-29, 0, 49) * poly(-10, -188, 98, 49) + poly(0, 435)) - poly(1),
    poly(1, 89, 91, -245), poly(47, -14, -49))              # G5 = a + b*w


class CurveFunction:
    """(a(u) + b(u) v)/den(u) on a fixed curve, v^2 reduced away."""

    __slots__ = ("curve", "a", "b", "den")

    def __init__(self, curve: Curve, a: UniPoly, b: UniPoly = None, den: UniPoly = None):
        self.curve = curve
        self.a = a if isinstance(a, UniPoly) else UniPoly([QQ(a)])
        self.b = b if isinstance(b, UniPoly) else (UniPoly() if b is None else UniPoly([QQ(b)]))
        self.den = den if isinstance(den, UniPoly) else (UniPoly([ONE]) if den is None else UniPoly([QQ(den)]))
        if self.den.is_zero():
            raise ZeroDivisionError("curve function with zero denominator")

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __repr__(self):
        return f"[({self.a!r}) + ({self.b!r})*v] / ({self.den!r})"

    def _same_curve(self, other):
        if self.curve.name != other.curve.name:
            raise ValueError("mixing curves")

    def __add__(self, other):
        other = self._lift(other)
        self._same_curve(other)
        return CurveFunction(
            self.curve,
            self.a * other.den + other.a * self.den,
            self.b * other.den + other.b * self.den,
            self.den * other.den,
        )

    def _lift(self, x):
        if isinstance(x, CurveFunction):
            return x
        return CurveFunction(self.curve, UniPoly([QQ(x)]))

    __radd__ = __add__

    def __neg__(self):
        return CurveFunction(self.curve, -self.a, -self.b, self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        self._same_curve(other)
        rhs = self.curve.rhs
        return CurveFunction(
            self.curve,
            self.a * other.a + self.b * other.b * rhs,
            self.a * other.b + self.b * other.a,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def norm_map(self) -> RationalMap:
        return RationalMap(self.a * self.a - self.b * self.b * self.curve.rhs,
                           self.den * self.den)

    def inverse(self) -> "CurveFunction":
        """den/a when there is no v part, else through the conjugate."""
        if self.b.is_zero():
            return CurveFunction(self.curve, self.den, UniPoly(), self.a)
        n = self.a * self.a - self.b * self.b * self.curve.rhs
        return CurveFunction(self.curve, self.a * self.den, -self.b * self.den, n)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, int(n), CurveFunction(self.curve, UniPoly([ONE])))

    def __eq__(self, other):
        other = self._lift(other)
        return ((self.a * other.den - other.a * self.den).is_zero()
                and (self.b * other.den - other.b * self.den).is_zero())

    def homogeneous(self, ps, d: int) -> list:
        """p(self) * den**d for each polynomial p in ps of degree at most d,
        with denominator 1: sum_k p_k (a + b v)**k den**(d-k)."""
        return [CurveFunction(self.curve, A, B)
                for A, B in homogeneous(ps, d, self.a, self.b, self.den, self.curve.rhs)]

    def subst(self, U: "CurveFunction", V: "CurveFunction") -> "CurveFunction":
        """f(U, V) in the function field of U and V: a, b and den are each
        homogeneous of one degree d in U, so U.den**d cancels in the quotient."""
        d = max(self.a.degree, self.b.degree, self.den.degree)
        a, b, den = U.homogeneous((self.a, self.b, self.den), d)
        return (a + b * V) / den

    def expand_at(self, pt: AffinePoint, n: int) -> PuiseuxSeries:
        """Local expansion; deepens automatically past high-order cancellation
        in the numerator or denominator (zero functions excluded)."""
        if self.is_zero():
            raise ZeroDivisionError("expansion of the zero function")
        depth = max(n, 4)
        for _ in range(10):
            useries, vseries = local_expansion(self.curve, pt, depth)
            num = self.a.eval_series(useries) + self.b.eval_series(useries) * vseries
            den = self.den.eval_series(useries)
            if not num.is_zero() and not den.is_zero():
                return ps_div(num, den)
            depth *= 2
        raise ValueError(f"no nonzero coefficient found at {pt} within depth {depth}")

    def order_at_infinity(self) -> int:
        """Valuation at the place at infinity (poles are negative)."""
        cands = []
        if not self.a.is_zero():
            cands.append(-2 * self.a.degree)
        if not self.b.is_zero():
            cands.append(-3 - 2 * self.b.degree)
        if not cands:
            raise ValueError("valuation of the zero function")
        return min(cands) + 2 * self.den.degree


def cf(curve: Curve, a_coeffs, b_coeffs=(), den_coeffs=(1,)) -> CurveFunction:
    return CurveFunction(curve, poly(*a_coeffs), poly(*b_coeffs), poly(*den_coeffs))


# ---------------------------------------------------------------------------
# local expansions
# ---------------------------------------------------------------------------

def local_expansion(curve: Curve, pt, n: int):
    """(u(t), v(t)) at a rational point, exact below t-order n.

    Memoized per (curve, point, depth) in the one memo: the divisor
    checks and the curve charts expand at the same few points again and
    again.

    At a 2-torsion point the parameter is t = v, and u(t) comes from Newton
    steps on u*c(u) = t^2, each of which doubles the depth; at a generic
    affine point t = u - u0 and v(t) is one series square root.  The place
    at infinity carries no rational Puiseux chart on this model (the
    leading coefficient 32 resp. -7 is not a sixth power), so only its
    valuations are used, never a series.
    """
    return memo((curve, pt, n), lambda: _expand_at_point(curve, pt, n))


def _expand_at_point(curve: Curve, pt, n: int):
    if pt is INFINITY:
        raise UnsupportedPointError(
            "no exact expansion at infinity; pole orders use the degree formula")
    u0, v0 = QQ(pt.u), QQ(pt.v)
    if not curve.contains(u0, v0):
        raise UnsupportedPointError(f"({u0},{v0}) is not on {curve.name}")
    if v0 == 0:
        if u0 != 0:
            raise UnsupportedPointError("only the rational 2-torsion at the origin is charted")
        # Newton lift on rhs(u) = t^2 (Brent & Kung 1978): u = t^2/c(0) holds
        # below t^4, and u known below t^m, read as a polynomial, gives
        # u - (rhs(u) - t^2)/rhs'(u) below t^2m
        v = PuiseuxSeries.monomial(QQ(1), n)
        u = PuiseuxSeries.monomial(QQ(2), 4, scalar_inv(curve.c(0)))
        while u.order < n:
            m = min(2 * u.order, n)
            u = PuiseuxSeries(1, u.lead, (u.vec[0] + [0] * (m - u.order), None, u.vec[2]), m)
            f = curve.rhs.eval_series(u) - PuiseuxSeries.monomial(QQ(2), m)
            u = u - ps_div(f, curve.rhs.derivative().eval_series(u))
        return u.truncate(n), v
    # generic point, t = u - u0
    useries = PuiseuxSeries.monomial(QQ(1), n) + PuiseuxSeries.const(u0, n)
    unit = curve.rhs.eval_series(useries).scale(1 / (v0 * v0))
    vseries = ps_pow(unit, rat(1, 2)).scale(v0)
    return useries, vseries


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def _mult_in(p: UniPoly, m: UniPoly) -> int:
    k = 0
    while True:
        q, r = p.divmod(m)
        if not r.is_zero():
            return k
        p = q
        k += 1
        if p.is_zero():
            raise ValueError("zero polynomial has infinite multiplicity")


def _cluster_split(curve: Curve, a: UniPoly, b: UniPoly, cl: PlaceCluster):
    """(order on the stated branch, order on the conjugate branch) of a + b*v
    along the cluster, via norm multiplicity plus the residue unit test."""
    if a.is_zero() and b.is_zero():
        raise ValueError("cluster order of the zero function")
    m = cl.minpoly
    e = 0
    while True:
        da, ra = a.divmod(m)
        db, rb = b.divmod(m)
        if ra.is_zero() and rb.is_zero():
            a, b = da, db
            e += 1
        else:
            break
    norm = a * a - b * b * curve.rhs
    total = _mult_in(norm, m)
    if total == 0:
        return e, e
    r_stated = (a + b * cl.vsel) % m
    r_conj = (a - b * cl.vsel) % m
    if r_conj and r_conj.gcd(m).degree == 0:
        return e + total, e
    if r_stated and r_stated.gcd(m).degree == 0:
        return e, e + total
    raise ClusterSplitError(
        f"function vanishes on both branches over {cl.name}; refusing to split")


def divisor_degree(divisor) -> object:
    total = QQ(0)
    for place, coeff in divisor:
        size = place.size if isinstance(place, PlaceCluster) else 1
        total += QQ(coeff) * size
    return total


def divisor_norm(divisor):
    """(num, den), the product of m**c over the finite places of the
    divisor, m = u - u0 at a point and the minimal polynomial at a cluster:
    the norm of a function with that divisor, up to a constant.  Orders at
    (u0, v0) and (u0, -v0) add up; a 2-torsion point is one place."""
    num, den = UniPoly([ONE]), UniPoly([ONE])
    for place, c in divisor:
        if place is INFINITY:
            continue
        m = place.minpoly if isinstance(place, PlaceCluster) else poly(-QQ(place.u), 1)
        if c > 0:
            num = num * m ** c
        else:
            den = den * m ** -c
    return num, den


def verify_divisor(curve: Curve, f: CurveFunction, divisor) -> VerificationReport:
    """Exact check that div(f) equals the stated fractional divisor.

    Pass requires: degree 0; the stated order at the infinite place by the
    degree formula; the stated order at each rational point by local
    expansion; cluster orders by norm multiplicity with the conjugate-unit
    branch test; and the full norm factorization, so no zero or pole can
    hide at an unstated place.
    """
    if f.is_zero():
        return failed(detail="zero function has no divisor")
    deg = divisor_degree(divisor)
    if deg != 0:
        return failed(detail=f"divisor degree {deg}, expected 0")

    coeffs = {}
    for place, coeff in divisor:
        key = ("O",) if place is INFINITY else place
        coeffs[key] = coeffs.get(key, QQ(0)) + QQ(coeff)

    stated_o = coeffs.pop(("O",), QQ(0))
    got_o = f.order_at_infinity()
    if QQ(got_o) != stated_o:
        return failed(detail=f"order at infinity {got_o}, stated {stated_o}")

    points = [(p, c) for p, c in coeffs.items() if isinstance(p, AffinePoint)]
    clusters = [(p, c) for p, c in coeffs.items() if isinstance(p, PlaceCluster)]

    for p, c in points:
        if c.denominator != 1:
            return failed(detail=f"non-integral order {c} at {p}")
        depth = 2 * (abs(int(c)) + 3)
        s = f.expand_at(p, depth)
        if s.is_zero():
            return failed(detail=f"expansion at {p} vanished to depth {depth}")
        if s.lead_exponent != c:
            return failed(mismatch=Mismatch(s.lead_exponent, s.lead_exponent, c),
                          detail=f"order at {p}")

    for cl, c in clusters:
        if QQ(c).denominator != 1:
            return failed(detail=f"non-integral order {c} at {cl}")
        stated, conj = _cluster_split(curve, f.a, f.b, cl)
        pole = _mult_in(f.den, cl.minpoly)
        stated, conj = stated - pole, conj - pole
        if stated != int(c) or conj != 0:
            return failed(detail=f"cluster {cl}: got ({stated},{conj}), stated ({c},0)")

    # completeness: the norm of f must factor exactly as the divisor says
    expected_num, expected_den = divisor_norm(coeffs.items())
    norm = f.norm_map()
    lhs = norm.num * expected_den
    rhs = norm.den * expected_num
    if lhs.degree != rhs.degree:
        return failed(detail="norm degree mismatch: unstated places present")
    scale = lhs.lc / rhs.lc
    if not (lhs - rhs.scale(scale)).is_zero():
        return failed(detail="norm factorization mismatch: unstated places present")
    return passed()


# ---------------------------------------------------------------------------
# catalog: table functions, the degree-24 coverings, isogeny, involution
# ---------------------------------------------------------------------------

def _pt(u, v) -> AffinePoint:
    return AffinePoint(QQ(u), QQ(v))


def table1_functions():
    """Table of straightforward functions on E7 with their stated divisors."""
    O = INFINITY
    q = rat
    return [
        ("u", cf(E7, (0, 1)), [(_pt(0, 0), 2), (O, -2)]),
        ("1-4u", cf(E7, (1, -4)), [(_pt(q(1, 4), q(1, 4)), 1), (_pt(q(1, 4), q(-1, 4)), 1), (O, -2)]),
        ("1-8u", cf(E7, (1, -8)), [(_pt(q(1, 8), q(1, 8)), 1), (_pt(q(1, 8), q(-1, 8)), 1), (O, -2)]),
        ("v-u", cf(E7, (0, -1), (1,)), [(_pt(0, 0), 1), (_pt(q(1, 4), q(1, 4)), 1), (_pt(q(1, 8), q(1, 8)), 1), (O, -3)]),
        ("v+u", cf(E7, (0, 1), (1,)), [(_pt(0, 0), 1), (_pt(q(1, 4), q(-1, 4)), 1), (_pt(q(1, 8), q(-1, 8)), 1), (O, -3)]),
        ("F3", cf(E7, (1, -4), (-4,)), [(_pt(q(1, 8), q(1, 8)), 3), (O, -3)]),
        ("F3t", cf(E7, (1, -4), (4,)), [(_pt(q(1, 8), q(-1, 8)), 3), (O, -3)]),
        ("F4", cf(E7, (1, -6), (-2,)), [(_pt(q(1, 4), q(-1, 4)), 2), (_pt(q(1, 8), q(1, 8)), 1), (O, -3)]),
        ("F4t", cf(E7, (1, -6), (2,)), [(_pt(q(1, 4), q(1, 4)), 2), (_pt(q(1, 8), q(-1, 8)), 1), (O, -3)]),
        ("G3", cf(E7, (1, -10, 16), (2,)), [(U_CLUSTER, 1), (_pt(q(1, 4), q(1, 4)), 1), (O, -4)]),
        ("G4", cf(E7, (1, -20, 64), (-4,)), [(V_CLUSTER, 1), (_pt(q(1, 8), q(-1, 8)), 1), (O, -4)]),
        ("G3h", cf(E7, (0, 3, -20), (1, -4)), [(U_CLUSTER, 1), (_pt(0, 0), 1), (_pt(q(1, 8), q(-1, 8)), 1), (O, -5)]),
        ("G4h", cf(E7, (0, -5, 24), (1, -8)), [(V_CLUSTER, 1), (_pt(0, 0), 1), (_pt(q(1, 4), q(1, 4)), 1), (O, -5)]),
    ]


def table2_functions():
    """Table of straightforward functions on E4 with their stated divisors."""
    O = INFINITY
    q = rat
    return [
        ("p", cf(E4, (0, 1)), [(_pt(0, 0), 2), (O, -2)]),
        ("1-p", cf(E4, (1, -1)), [(_pt(1, 4), 1), (_pt(1, -4), 1), (O, -2)]),
        ("w-4p", cf(E4, (0, -4), (1,)), [(_pt(0, 0), 1), (_pt(1, 4), 1), (_pt(q(-1, 7), q(-4, 7)), 1), (O, -3)]),
        ("w+5p-p2", cf(E4, (0, 5, -1), (1,)), [(_pt(0, 0), 1), (_pt(1, -4), 3), (O, -4)]),
        ("1-w+3p", cf(E4, (1, 3), (-1,)), [(_pt(1, 4), 2), (_pt(q(-1, 7), q(4, 7)), 1), (O, -3)]),
        ("1+w+3p", cf(E4, (1, 3), (1,)), [(_pt(1, -4), 2), (_pt(q(-1, 7), q(-4, 7)), 1), (O, -3)]),
        ("1+7w+35p", cf(E4, (1, 35), (7,)), [(_pt(q(-1, 7), q(4, 7)), 3), (O, -3)]),
        ("1-7w+35p", cf(E4, (1, 35), (-7,)), [(_pt(q(-1, 7), q(-4, 7)), 3), (O, -3)]),
        ("F5", cf(E4, (1, -16, 7), (-2,)), [(_pt(1, -4), 1), (S_CLUSTER, 1), (O, -4)]),
        ("F6", cf(E4, (1, 47, -17, 1), (-10, 2)), [(_pt(1, 4), 6), (O, -6)]),
        ("F6t", cf(E4, (1, 47, -17, 1), (10, -2)), [(_pt(1, -4), 6), (O, -6)]),
        ("G5", cf(E4, (1, 89, 91, -245), (47, -14, -49)), [(_pt(1, -4), 1), (T_CLUSTER, 1), (O, -7)]),
    ]


TABLE1 = table1_functions()
TABLE2 = table2_functions()


@built_once
def phi7() -> CurveFunction:
    """The degree-24 covering on E7, as a single canonical function."""
    num = cf(E7, (1, -4)) * (cf(E7, (0, 3, -20), (1, -4)) ** 7)
    num = num * 128
    den = cf(E7, (0, 0, 0, 1)) * cf(E7, (1, -8)) * (cf(E7, (1, -20, 64), (-4,)) ** 7)
    return -(num / den)


PHI7_DIVISOR = [
    (_pt(0, 0), 1), (_pt(rat(1, 4), rat(1, 4)), 1), (_pt(rat(1, 4), rat(-1, 4)), 1),
    (U_CLUSTER, 7),
    (INFINITY, -1), (_pt(rat(1, 8), rat(1, 8)), -1), (_pt(rat(1, 8), rat(-1, 8)), -1),
    (V_CLUSTER, -7),
]


@built_once
def phi4_on_e4() -> CurveFunction:
    """The degree-24 covering on E4: 512 (w-4p) F5^7 / ((1+w+3p) G5^4)."""
    num = cf(E4, (0, -4), (1,)) * (cf(E4, (1, -16, 7), (-2,)) ** 7) * 512
    den = cf(E4, (1, 3), (1,)) * (cf(E4, (1, 89, 91, -245), (47, -14, -49)) ** 4)
    return num / den


PHI4_DIVISOR = [
    (_pt(0, 0), 1), (_pt(1, 4), 1), (_pt(1, -4), 1), (S_CLUSTER, 7),
    (T_CLUSTER, -4),
]


def e7_to_e4_x() -> CurveFunction:
    """Fiber-product projection to the degree-24 base coordinate:
    x = 4(u+v)^2 / ((4u-1)^2 (8u-1))."""
    num = (cf(E7, (0, 1), (1,)) ** 2) * 4
    den = cf(E7, (-1, 4)) ** 2 * cf(E7, (-1, 8))
    return num / den


# the 2-isogeny E7 -> E4: p = u/(1-11u+32u^2), w = v(1-32u^2)/(1-11u+32u^2)^2
ISOGENY_P = CurveFunction(E7, poly(0, 1), UniPoly(), poly(1, -11, 32))
ISOGENY_W = CurveFunction(E7, UniPoly(), poly(1, 0, -32), poly(1, -11, 32) ** 2)

# the involution of E7: u -> 1/(32u), v -> -v/(32u^2)
INVOLUTION_U = CurveFunction(E7, poly(1), UniPoly(), poly(0, 32))
INVOLUTION_V = CurveFunction(E7, UniPoly(), poly(-1), poly(0, 0, 32))


def isogeny_pullback(f_on_e4: CurveFunction) -> CurveFunction:
    """Pull a function on E4 back to E7 through (ISOGENY_P, ISOGENY_W)."""
    if f_on_e4.curve.name != "E4":
        raise ValueError("pullback expects a function on E4")
    return f_on_e4.subst(ISOGENY_P, ISOGENY_W)


def involution_apply(f: CurveFunction) -> CurveFunction:
    """f at (INVOLUTION_U, INVOLUTION_V) on E7."""
    if f.curve.name != "E7":
        raise ValueError("the involution lives on E7")
    return f.subst(INVOLUTION_U, INVOLUTION_V)


# ---------------------------------------------------------------------------
# group law and the torsion audit
# ---------------------------------------------------------------------------

def ec_add(curve: Curve, P, Q):
    """Chord-tangent addition on sq = var*c(var) with O at infinity."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    s = curve.rhs
    a3 = s[3]
    a2 = s[2]
    x1, y1, x2, y2 = QQ(P.u), QQ(P.v), QQ(Q.u), QQ(Q.v)
    if x1 == x2:
        if y1 + y2 == 0:
            return INFINITY
        lam = s.derivative()(x1) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = (lam * lam - a2) / a3 - x1 - x2
    y3 = -(y1 + lam * (x3 - x1))
    return AffinePoint(x3, y3)


def ec_mul(curve: Curve, k: int, P):
    out = INFINITY
    for _ in range(k):
        out = ec_add(curve, out, P)
    return out


def point_order(curve: Curve, P, bound: int = 16):
    acc = P
    for k in range(1, bound + 1):
        if acc is INFINITY:
            return k
        acc = ec_add(curve, acc, P)
    return None


def torsion_audit(curve: Curve = E4) -> dict:
    """Re-derive the rational torsion structure of the second Darboux curve:
    a point of order exactly 6, a single rational 2-torsion point, and no
    rational 4-torsion (tangent-line discriminant quartic has no rational
    roots), so the torsion is Z/6Z."""
    if curve.name != "E4":
        raise ValueError("the torsion audit is specific to the second curve")
    p6 = AffinePoint(QQ(1), QQ(4))
    order6 = point_order(curve, p6)
    doubles_to_o = ec_mul(curve, 2, AffinePoint(QQ(0), QQ(0))) is INFINITY
    two_torsion_roots = rational_roots(curve.c)
    # tangent lines w = alpha*p: substituting gives p*(7p^2+(alpha^2-22)p-1)=0,
    # tangency at a nonzero point means the quadratic has a double root:
    # (alpha^2-22)^2 + 28 = 0
    quartic = (poly(-22, 1) ** 2 + poly(28))(poly(0, 0, 1))
    four_torsion_roots = rational_roots(quartic)
    ok = (order6 == 6 and doubles_to_o and not two_torsion_roots
          and not four_torsion_roots and quartic == poly(512, 0, -44, 0, 1))
    return {
        "order_of_(1,4)": order6,
        "origin_is_2_torsion": doubles_to_o,
        "extra_rational_2_torsion": [str(r) for r in two_torsion_roots],
        "four_torsion_tangent_quartic": quartic,
        "rational_4_torsion_slopes": [str(r) for r in four_torsion_roots],
        "torsion_group": "Z/6Z" if ok else "unconfirmed",
        "ok": ok,
    }
