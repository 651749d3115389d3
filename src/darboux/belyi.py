"""Covering catalog, branching patterns, Riemann-Hurwitz accounting,
Belyi certification and the composition relations between the coverings.

Patterns are extracted from exact squarefree splittings; no root isolation
is ever needed.  The genus-1 coverings are handled through the divisor
machinery of the curve module plus degree accounting, never through
function-field factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ellcurve import (
    ISOGENY_P,
    ISOGENY_W,
    CurveFunction,
    e7_to_e4_x,
    involution_apply,
    isogeny_pullback,
    phi4_on_e4,
    phi7,
)
from .polyalg import RationalMap, UniPoly, poly, squarefree_multiplicities
from .report import VerificationReport, failed, passed
from .scalars import QQ, ONE, Omega, rat
from .verifier import built_once

__all__ = [
    "BranchingPattern",
    "branching_pattern",
    "rh_genus",
    "rh_genus_cover",
    "belyi_certify",
    "verify_cover_relation",
    "RELATION_IDS",
    "COVERINGS",
    "CoveringCatalogEntry",
    "phi2_map",
    "phi3_tetrahedral",
    "phi4_octahedral",
    "phi5_icosahedral",
    "Phi3_map",
    "phi3_star",
    "mobius_mu",
]


@dataclass(frozen=True)
class BranchingPattern:
    over0: tuple
    over1: tuple
    overinf: tuple

    @property
    def degree(self) -> int:
        return sum(self.over0)

    def fibers(self):
        return (self.over0, self.over1, self.overinf)

    def is_consistent(self) -> bool:
        return sum(self.over0) == sum(self.over1) == sum(self.overinf)

    def __repr__(self):
        def part(f):
            return "".join(f"{m}" for m in f)
        return f"[{part(self.over0)}/{part(self.over1)}/{part(self.overinf)}]"


def pattern(over0, over1, overinf) -> BranchingPattern:
    mk = lambda f: tuple(sorted(f, reverse=True))
    return BranchingPattern(mk(over0), mk(over1), mk(overinf))


def _root_multiplicities(p: UniPoly):
    out = []
    for f, m in squarefree_multiplicities(p):
        out.extend([m] * f.degree)
    return out


def branching_pattern(phi: RationalMap) -> BranchingPattern:
    """Multiplicities over 0, 1, infinity, including the point at infinity
    of the source line in whichever fiber contains it."""
    num, den = phi.num, phi.den
    deg = max(num.degree, den.degree)
    if deg <= 0:
        raise ValueError("constant map has no branching pattern")
    over0 = _root_multiplicities(num) if num.degree > 0 else []
    overinf = _root_multiplicities(den) if den.degree > 0 else []
    diff = num - den
    over1 = _root_multiplicities(diff) if diff.degree > 0 else []
    # where does the source point at infinity go?
    if num.degree > den.degree:
        overinf.append(num.degree - den.degree)
    elif num.degree < den.degree:
        over0.append(den.degree - num.degree)
    elif num.lc == den.lc:
        over1.append(deg - diff.degree)
    else:
        raise ValueError("the value at infinity is outside {0, 1, infinity}")
    return pattern(over0, over1, overinf)


def rh_genus(p: BranchingPattern) -> int:
    """2 - 2g = 2 deg - sum (e - 1) over the three fibers."""
    if not p.is_consistent():
        raise ValueError(f"inconsistent pattern {p}")
    return rh_genus_cover(p.degree, 0, [e for f in p.fibers() for e in f])


def rh_genus_cover(degree: int, base_genus: int, branch_orders) -> int:
    """Genus of a cover of a genus-g base from its ramification orders."""
    ram = sum(e - 1 for e in branch_orders)
    rhs = degree * (2 * base_genus - 2) + ram
    if rhs % 2:
        raise ValueError("odd Euler characteristic")
    return 1 + rhs // 2


def belyi_certify(phi: RationalMap) -> VerificationReport:
    """Pass iff every critical point lies over {0, 1, infinity}: the numerator
    of phi' must divide out exactly into the ramified factors of the three
    fibers (with the point at infinity handled by degree bookkeeping)."""
    num, den = phi.num, phi.den
    wronsk = num.derivative() * den - num * den.derivative()
    if wronsk.is_zero():
        return failed(detail="constant map")
    expected = UniPoly([ONE])
    for f in (num, num - den, den):
        if f.degree > 0:
            for factor, mult in squarefree_multiplicities(f):
                if mult > 1:
                    expected = expected * factor ** (mult - 1)
    q, r = wronsk.divmod(expected)
    if not r.is_zero():
        return failed(detail="ramified-factor division not exact")
    if q.degree > 0:
        return failed(detail=f"critical values outside {{0,1,inf}} (degree {q.degree} remains)")
    return passed()


# ---------------------------------------------------------------------------
# covering catalog
# ---------------------------------------------------------------------------

@built_once
def phi2_map() -> RationalMap:
    """27x(1-x)^2/(1+3x)^3, the degree-3 dihedral covering."""
    return RationalMap(poly(0, 27) * poly(1, -1) ** 2, poly(1, 3) ** 3)


@built_once
def phi3_tetrahedral() -> RationalMap:
    """x(x+4)^3/(4(2x-1)^3)."""
    return RationalMap(poly(0, 1) * poly(4, 1) ** 3, (poly(-1, 2) ** 3).scale(QQ(4)))


@built_once
def phi4_octahedral() -> RationalMap:
    """108x(x-1)^4/(x^2+14x+1)^3."""
    return RationalMap(poly(0, 108) * poly(-1, 1) ** 4, poly(1, 14, 1) ** 3)


@built_once
def phi5_icosahedral() -> RationalMap:
    """1728x(1-11x-x^2)^5/(1+228x+494x^2-228x^3+x^4)^3, the degree-12 covering."""
    return RationalMap(poly(0, 1728) * poly(1, -11, -1) ** 5,
                       poly(1, 228, 494, -228, 1) ** 3)


@built_once
def Phi3_map() -> RationalMap:
    """1728 x (x-1) F1^7 / (G0^3 G1^3), the degree-24 genus-0 covering."""
    f1 = poly(1, 5, -8, 1)
    g0 = poly(1, -1, 1)
    g1 = poly(1, -235, 1430, -1695, 270, 229, 1)
    return RationalMap(poly(0, 1728) * poly(-1, 1) * f1 ** 7, g0 ** 3 * g1 ** 3)


def _w(a, b=0):
    return Omega(QQ(a), QQ(b))


@built_once
def phi3_star() -> RationalMap:
    """(24w+8) x^3 G2^3 / ((1-x^3) F2^7) over Q(w)."""
    f2, g2 = phi3_star_parts()
    num = UniPoly([_w(0), _w(0), _w(0), _w(8, 24)]) * g2 ** 3
    den = UniPoly([_w(1), _w(0), _w(0), _w(-1)]) * f2 ** 7
    return RationalMap(num, den)


def phi3_star_parts():
    """(F2, G2) polynomial data of the starred covering."""
    f2 = UniPoly([_w(1), _w(0), _w(0), _w(rat(-16, 49), rat(39, 49))])
    g2 = UniPoly([_w(1), _w(0), _w(0), _w(rat(-745, 392), rat(-435, 392)),
                  _w(0), _w(0), _w(rat(14632, 16807), rat(18357, 16807))])
    return f2, g2


def mobius_mu() -> RationalMap:
    """mu(x) = (x + w + 1)/(w(1 - x))."""
    return RationalMap(UniPoly([_w(1, 1), _w(1)]), UniPoly([_w(0, 1), _w(0, -1)]))


@dataclass(frozen=True)
class CoveringCatalogEntry:
    name: str
    expected_pattern: BranchingPattern
    expected_genus: int


COVERINGS = {
    "phi2": CoveringCatalogEntry("phi2", pattern([1, 2], [2, 1], [3]), 0),
    "phi3": CoveringCatalogEntry("phi3", pattern([1, 3], [2, 2], [3, 1]), 0),
    "phi4": CoveringCatalogEntry("phi4", pattern([1, 4, 1], [2, 2, 2], [3, 3]), 0),
    "phi5": CoveringCatalogEntry("phi5", pattern([1, 5, 5, 1], [2] * 6, [3, 3, 3, 3]), 0),
    "Phi3": CoveringCatalogEntry("Phi3", pattern([7, 7, 7, 1, 1, 1], [2] * 12, [3] * 8), 0),
    "Phi7": CoveringCatalogEntry("Phi7", pattern([7, 7, 7, 1, 1, 1], [2] * 12,
                                                 [7, 7, 7, 1, 1, 1]), 1),
    "Phi4": CoveringCatalogEntry("Phi4", pattern([7, 7, 7, 1, 1, 1], [2] * 12, [4] * 6), 1),
}

P1_MAPS = {
    "phi2": phi2_map,
    "phi3": phi3_tetrahedral,
    "phi4": phi4_octahedral,
    "phi5": phi5_icosahedral,
    "Phi3": Phi3_map,
}


def genus1_fiber_one_square(phi: CurveFunction, pole_poly: UniPoly, half: int) -> bool:
    """Fiber of a curve covering over 1: the norm of phi - 1 must have
    exactly the known pole polynomial as denominator and a perfect square
    of a squarefree degree-`half` polynomial as numerator, which is the
    [2^half] fiber statement."""
    norm = (phi - 1).norm_map()
    if not (norm.den - pole_poly.monic()).is_zero():
        return False
    split = squarefree_multiplicities(norm.num)
    return len(split) == 1 and split[0][1] == 2 and split[0][0].degree == half


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def _relation_phi3_phi7() -> VerificationReport:
    """Phi3 composed with the fiber-product projection equals
    27 Phi7^2/(4 - Phi7)^3 in the function field of the first genus-1 curve."""
    x = e7_to_e4_x()
    p7 = phi7()
    phi3 = Phi3_map()
    # both sides of Phi3 homogeneous of one degree: x.den**d cancels
    d = max(phi3.num.degree, phi3.den.degree)
    lhs_num, lhs_den = x.homogeneous((phi3.num, phi3.den), d)
    rhs_num = 27 * p7 * p7
    rhs_den = (4 - p7) ** 3
    if lhs_num * rhs_den == rhs_num * lhs_den:
        return passed()
    return failed(detail="function-field mismatch")


def _relation_phi4_isogeny() -> VerificationReport:
    p7 = phi7()
    lhs = isogeny_pullback(phi4_on_e4())
    rhs_num = -4 * p7
    rhs_den = (p7 - 1) ** 2
    if lhs * rhs_den == rhs_num:
        return passed()
    return failed(detail="function-field mismatch")


def _relation_phi3_star() -> VerificationReport:
    """phi3*(x) * Phi3(mu(x)) == 1 as rational maps over Q(w), and the starred
    map is a rational function of x^3."""
    star = phi3_star()
    comp = Phi3_map().compose_rational(mobius_mu())
    lhs = star.num * comp.num
    rhs = star.den * comp.den
    if (lhs - rhs).is_zero():
        ok3 = all(not c or k % 3 == 0 for k, c in enumerate(star.num.coeffs)) and \
            all(not c or k % 3 == 0 for k, c in enumerate(star.den.coeffs))
        if not ok3:
            return failed(detail="not a function of x^3")
        return passed()
    return failed(detail="rational-map mismatch")


def _relation_involution_phi7() -> VerificationReport:
    p7 = phi7()
    if involution_apply(p7) == p7.inverse():
        return passed()
    return failed()


def _relation_isogeny_curve() -> VerificationReport:
    p, w = ISOGENY_P, ISOGENY_W
    if w * w == p * (1 + 22 * p - 7 * p * p):
        if involution_apply(p) == p and involution_apply(w) == w:
            return passed()
    return failed()


RELATIONS = {
    "rel-phi3-phi7": _relation_phi3_phi7,
    "rel-phi4-isogeny": _relation_phi4_isogeny,
    "rel-phi3-star": _relation_phi3_star,
    "rel-involution-phi7": _relation_involution_phi7,
    "rel-isogeny-curve": _relation_isogeny_curve,
}

RELATION_IDS = tuple(sorted(RELATIONS))


def verify_cover_relation(relation_id: str) -> VerificationReport:
    if relation_id not in RELATIONS:
        raise KeyError(f"unknown relation {relation_id!r}")
    return RELATIONS[relation_id]()
