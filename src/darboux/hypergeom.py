"""Generalized hypergeometric series, their ODE, local bases and contiguity.

Parameters are exact rationals.  3F2 gets the full treatment (companion
bases from the parameter matrix, the third-order operator, the second-order
contiguous shift, interlacing of the Galois conjugates); the same series
code serves 2F1 for the quadratic/cubic and dihedral transformation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .scalars import QQ, ONE
from .series import PuiseuxSeries

__all__ = [
    "HpgParams",
    "hpg_series",
    "hpg_coefficient",
    "ode_residual",
    "m_matrix",
    "companion_basis",
    "CompanionBasis",
    "LocalSolution",
    "shift_down",
    "interlacing_check",
    "galois_conjugates",
    "NonGenericError",
    "HpgClass",
    "CLASSES",
]


class NonGenericError(ValueError):
    """Resonant exponents / coincident fractional parts: refused, not resolved."""


@dataclass(frozen=True)
class HpgParams:
    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(QQ(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(QQ(b) for b in self.lower))
        if len(self.upper) != len(self.lower) + 1:
            raise ValueError("pFq series here always have one more upper parameter")
        for b in self.lower:
            if b.denominator == 1 and b <= 0:
                raise ValueError(f"lower parameter {b} is a nonpositive integer")

    def shifted(self, dupper=(), dlower=()) -> "HpgParams":
        du = dict(dupper)
        dl = dict(dlower)
        return HpgParams(
            tuple(a + du.get(i, 0) for i, a in enumerate(self.upper)),
            tuple(b + dl.get(i, 0) for i, b in enumerate(self.lower)),
        )

    def __repr__(self):
        up = ",".join(str(a) for a in self.upper)
        lo = ",".join(str(b) for b in self.lower)
        return f"F({up};{lo})"


def p3(a1, a2, a3, b1, b2) -> HpgParams:
    return HpgParams((QQ(a1), QQ(a2), QQ(a3)), (QQ(b1), QQ(b2)))


def hpg_series(p: HpgParams, n: int) -> PuiseuxSeries:
    """Taylor coefficients from the term ratio, exactly, to order n."""
    coeffs = [ONE]
    c = ONE
    for k in range(n - 1):
        for a in p.upper:
            c = c * (a + k)
        for b in p.lower:
            c = c / (b + k)
        c = c / (k + 1)
        coeffs.append(c)
    return PuiseuxSeries.make(1, 0, coeffs, n)


def hpg_coefficient(p: HpgParams, k: int):
    """Independent route: coefficient k as a quotient of Pochhammer products."""
    num, den = ONE, ONE
    for a in p.upper:
        for i in range(k):
            num = num * (a + i)
    for b in p.lower:
        for i in range(k):
            den = den * (b + i)
    for i in range(1, k + 1):
        den = den * i
    return num / den


def ode_residual(solution: PuiseuxSeries, p: HpgParams, at_infinity: bool = False) -> PuiseuxSeries:
    """Apply the hypergeometric operator; zero (to the provable order) iff
    the series solves the equation.

    At 0 the operator is (theta + a1)(theta + a2)(theta + a3) minus
    d/dz (theta + b1 - 1)(theta + b2 - 1), theta = z d/dz.  In the chart at
    infinity the solution is a series in w = 1/z, where theta = -w d/dw.
    With s = 1 at 0 and s = -1 at infinity, a term c*x^e sends
    c * prod(s*e + a_i) to x^e and -s * c * e * prod(s*e + b_j - 1) to
    x^(e - s); the sum runs over the nonzero terms only, and is known below
    N - 1 at 0 and below N at infinity.
    """
    if len(p.upper) != 3:
        raise ValueError("the differential operator is implemented for 3F2")
    s = -1 if at_infinity else 1
    below = solution.order_exponent - (1 if s > 0 else 0)
    pairs = []
    for e, c in solution.terms():
        pairs.append((e, c * prod(s * e + a for a in p.upper)))
        pairs.append((e - s, -s * c * e * prod(s * e + b - 1 for b in p.lower)))
    return PuiseuxSeries.from_pairs([t for t in pairs if t[0] < below], below, solution.grid)


def m_matrix(p: HpgParams):
    """3x3 parameter matrix: column j lists upper params shifted by the lower ones."""
    if len(p.upper) != 3:
        raise ValueError("parameter matrix requires 3F2")
    b1, b2 = p.lower
    return tuple(
        (a, a - b2 + 1, a - b1 + 1) for a in p.upper
    )


@dataclass(frozen=True)
class LocalSolution:
    exponent: object            # power prefactor exponent
    params: HpgParams
    at_infinity: bool


@dataclass(frozen=True)
class CompanionBasis:
    at_zero: tuple
    at_infinity: tuple

    def all(self):
        return self.at_zero + self.at_infinity


def companion_basis(p: HpgParams) -> CompanionBasis:
    """The six local solutions (three at 0, three at infinity).

    Refuses resonant parameter sets (integral exponent differences); the
    catalog never needs logarithmic solutions.
    """
    if len(p.upper) != 3:
        raise ValueError("companion basis requires 3F2")
    a1, a2, a3 = p.upper
    b1, b2 = p.lower
    for d in (b1, b2, b1 - b2):
        if QQ(d).denominator == 1:
            raise NonGenericError(f"integral exponent difference at 0 (via {d})")
    for d in (a1 - a2, a1 - a3, a2 - a3):
        if QQ(d).denominator == 1:
            raise NonGenericError(f"integral exponent difference at infinity (via {d})")
    m = m_matrix(p)
    at0 = (
        LocalSolution(QQ(0), p3(m[0][0], m[1][0], m[2][0], b1, b2), False),
        LocalSolution(1 - b2, p3(m[0][1], m[1][1], m[2][1], 2 - b2, b1 - b2 + 1), False),
        LocalSolution(1 - b1, p3(m[0][2], m[1][2], m[2][2], 2 - b1, b2 - b1 + 1), False),
    )
    ups = p.upper
    atinf = []
    for j in range(3):
        k, l = [i for i in range(3) if i != j]
        atinf.append(LocalSolution(
            -ups[j],
            p3(m[j][0], m[j][1], m[j][2], ups[j] - ups[k] + 1, ups[j] - ups[l] + 1),
            True,
        ))
    return CompanionBasis(at0, tuple(atinf))


def solution_series(sol: LocalSolution, n: int) -> PuiseuxSeries:
    """Series of a local solution in its own chart (z at 0, w = 1/z at infinity).

    The stored exponent is the z-exponent of the power prefactor, so at
    infinity the w-chart prefactor is w to the opposite exponent.
    """
    f = hpg_series(sol.params, n)
    e = QQ(sol.exponent) if not sol.at_infinity else -QQ(sol.exponent)
    if e == 0:
        return f
    mono = PuiseuxSeries.monomial(e, e + n)
    return f * mono


def shift_down(p: HpgParams, i: int, j: int, f: PuiseuxSeries) -> PuiseuxSeries:
    """The series of F with upper[i] and lower[j] lowered by one, from the
    series f of F by the second-order contiguity operator."""
    a1 = p.upper[i]
    a2, a3 = [a for k, a in enumerate(p.upper) if k != i]
    b1 = p.lower[j]
    (b2,) = [b for k, b in enumerate(p.lower) if k != j]
    if (b1 - 1) * (a1 - b2) == 0:
        raise ZeroDivisionError("vanishing denominator in second-order shift")
    z = PuiseuxSeries.monomial(QQ(1), f.order_exponent + 1)
    zf = f.zderivative()
    zzf = zf.zderivative()          # (z d/dz)^2 F
    d2 = zzf - zf                   # z^2 F'' = (delta^2 - delta) F
    term = f.scale((b1 - 1) * (a1 - b2)) + (z * f).scale(a2 * a3)
    term = term + zf.scale(a1 - b1 - b2) + (z * zf).scale(a2 + a3 + 1)
    term = term + (z * d2) - d2
    return term.scale(1 / ((b1 - 1) * (a1 - b2)))


def interlacing_check(p: HpgParams) -> bool:
    """Do the fractional parts of the upper and of the lower-with-0 parameter
    sets alternate around the unit circle?"""
    ups = [_frac(a) for a in p.upper]
    los = [_frac(b) for b in p.lower] + [QQ(0)]
    if set(ups) & set(los):
        raise NonGenericError("coincident fractional parts")
    marked = sorted([(v, "a") for v in ups] + [(v, "b") for v in los])
    tags = [t for _, t in marked]
    return all(tags[i] != tags[(i + 1) % len(tags)] for i in range(len(tags)))


def galois_conjugates(p: HpgParams):
    """(k, k*p) for every 0 < k <= D prime to the common denominator D of the
    parameters.  Finite monodromy needs every one of them to interlace
    (Beukers and Heckman, Invent. Math. 95, 1989)."""
    d = lcm(*(x.denominator for x in p.upper + p.lower))
    for k in range(1, d + 1):
        if gcd(k, d) == 1:
            yield k, HpgParams(tuple(k * a for a in p.upper), tuple(k * b for b in p.lower))


def _frac(x):
    x = QQ(x)
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class HpgClass:
    label: str
    representative: HpgParams   # the classification table entry
    members: tuple              # parameter sets appearing in shipped evaluations


CLASSES = {
    "3A": HpgClass("3A", p3("-3/14", "1/14", "9/14", "1/3", "2/3"), (
        p3("-1/42", "13/42", "9/14", "4/7", "6/7"),
        p3("5/42", "19/42", "11/14", "5/7", "8/7"),
        p3("17/42", "31/42", "15/14", "9/7", "10/7"),
        p3("1/14", "17/42", "31/42", "3/7", "9/7"),
        p3("-1/42", "5/42", "17/42", "1/3", "2/3"),
        p3("13/42", "19/42", "31/42", "2/3", "4/3"),
        p3("9/14", "11/14", "15/14", "4/3", "5/3"),
    )),
    "3B": HpgClass("3B", p3("-1/14", "3/14", "5/14", "1/3", "2/3"), (
        p3("-1/14", "11/42", "25/42", "4/7", "5/7"),
        p3("3/14", "23/42", "37/42", "6/7", "9/7"),
        p3("5/14", "29/42", "43/42", "8/7", "10/7"),
    )),
    "4A": HpgClass("4A", p3("-3/14", "1/14", "9/14", "1/4", "3/4"), (
        p3("-3/28", "11/28", "9/14", "4/7", "6/7"),
        p3("1/28", "15/28", "11/14", "5/7", "8/7"),
        p3("9/28", "23/28", "15/14", "9/7", "10/7"),
    )),
    "4B": HpgClass("4B", p3("-1/14", "3/14", "5/14", "1/4", "3/4"), (
        p3("-1/28", "3/14", "13/28", "2/7", "6/7"),
        p3("3/28", "5/14", "17/28", "3/7", "8/7"),
        p3("19/28", "13/14", "33/28", "11/7", "12/7"),
    )),
    "7A": HpgClass("7A", p3("-1/14", "1/14", "5/14", "1/7", "5/7"), (
        p3("-1/14", "1/14", "5/14", "1/7", "5/7"),
        p3("3/14", "5/14", "9/14", "3/7", "9/7"),
        p3("11/14", "13/14", "17/14", "11/7", "13/7"),
        p3("-1/14", "3/14", "11/14", "4/7", "6/7"),
        p3("1/14", "5/14", "13/14", "5/7", "8/7"),
        p3("5/14", "9/14", "17/14", "9/7", "10/7"),
    )),
    "7B": HpgClass("7B", p3("-1/14", "1/14", "9/14", "2/7", "6/7"), (
        p3("-1/14", "1/14", "9/14", "2/7", "6/7"),
        p3("1/14", "3/14", "11/14", "3/7", "8/7"),
        p3("9/14", "11/14", "19/14", "11/7", "12/7"),
        p3("-3/14", "1/14", "3/14", "1/7", "3/7"),
    )),
}
