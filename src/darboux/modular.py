"""q-series catalog and the Klein-quartic invariant checks.

Everything is an exact q-expansion on a Puiseux grid: eta products and
quotients, Eisenstein series and j, the Hauptmoduln of the small levels,
the Klein-curve forms and their level-7 friends, Rogers-Ramanujan and
Selberg-type sums, theta sums, and the quintuple-product specializations.

The builders are registered as the verifier's chart "q", so each series is
built on demand and memoized per (name, exact order) like every chart entry;
builders fetch the series they depend on through ``qseries`` (that is,
``chart_series("q", ...)``) too, so each (name, order) is built once.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .belyi import Phi3_map, phi5_icosahedral
from .polyalg import MultiPoly, poly
from .report import VerificationReport, failed, passed
from .scalars import QQ, ONE, rat
from .series import PuiseuxSeries, ps_div, ps_mul, ps_pow
from .verifier import chart_series, register_chart

__all__ = [
    "qseries",
    "eta_quotient",
    "klein_R4",
    "klein_R6",
    "klein_R14",
    "klein_R21",
    "klein_invariant_congruence",
    "verify_quotient_curve",
    "REMARK_COVERINGS",
]


# ---------------------------------------------------------------------------
# the q-product routine (grid units, index 0 = constant term)
# ---------------------------------------------------------------------------

def _product(n: int, factors, grid: int = 1) -> PuiseuxSeries:
    """Unit series prod (1 + sigma q^k)^e below exponent n; k in grid units.

    The factors are read once, into the log-derivative q f'/f = sum b_m q^m:
    (1 + sigma q^k)^e adds -e*k*(-sigma)^j to b at j*k.  The coefficients
    then follow from m*f_m = sum_{j=1..m} b_j f_{m-j} (Knuth, TAOCP vol. 2,
    4.7), one dot product of ints per slot and an exact division by m.  For
    N = n*grid slots that is about N^2/2 multiply-adds, whatever the
    exponents e.  Every factor has integer coefficients, so the product is a
    plain int list, which the series takes as its integer vector (c, None, 1).
    """
    size = n * grid
    b = [0] * size
    for k, sigma, e in factors:
        if k <= 0:
            raise ValueError("factor exponent must be positive")
        for j in range(1, (size - 1) // k + 1):
            b[j * k] -= e * k * (-sigma) ** j
    b, c = b[1:], [1]
    for m in range(1, size):
        f, r = divmod(sum(map(mul, b, reversed(c))), m)
        if r:
            raise ArithmeticError(f"q-product coefficient {m} is not an integer")
        c.append(f)
    return PuiseuxSeries(grid, 0, (c, None, 1), size)


def eta_quotient(pairs, n: int) -> PuiseuxSeries:
    """prod_m eta(m*tau)^{e_m} for pairs of (multiplier, exponent)."""
    lead = sum(QQ(m) * e for m, e in pairs) / 24
    factors = []
    for m, e in pairs:
        factors.extend((m * k, -1, e) for k in range(1, n // m + 1))
    unit = _product(n, factors)
    return unit.shift(lead)


def residue_product(n: int, modulus: int, residues, exponent: int) -> PuiseuxSeries:
    """prod over k >= 1, k mod modulus in residues, of (1 - q^k)^exponent."""
    rs = {r % modulus for r in residues}
    return _product(n, ((k, -1, exponent) for k in range(1, n) if k % modulus in rs))


def theta_sum(n: int, a: int, b: int, c=0) -> PuiseuxSeries:
    """sum over all integers k of (-1)^k q^{(a k^2 + b k)/2 + c}, below order n."""
    pairs = []
    bound = isqrt(max(8 * n // max(a, 1), 0)) + 3
    for k in range(-bound, bound + 1):
        e = QQ(a * k * k + b * k, 2) + c
        if 0 <= e < n:
            pairs.append((e, QQ(-1) ** abs(k)))
    return PuiseuxSeries.from_pairs(pairs, n)


# ---------------------------------------------------------------------------
# catalog builders
# ---------------------------------------------------------------------------

def _sigma_series(n: int, power: int, scale: int) -> PuiseuxSeries:
    """1 + scale * sum_{m>=1} sigma_power(m) q^m below q^n, on ints."""
    c = [0] * n
    for d in range(1, n):
        dd = scale * d ** power
        for m in range(d, n, d):
            c[m] += dd
    c[0] = 1
    return PuiseuxSeries(1, 0, (c, None, 1), n)


def _build_E4(n):
    return _sigma_series(n, 3, 240)


def _build_E6(n):
    return _sigma_series(n, 5, -504)


def _build_j(n):
    pad = n + 4
    e4 = qseries("E4", pad)
    e6 = qseries("E6", pad)
    cube = ps_mul(ps_mul(e4, e4), e4)
    disc = cube - ps_mul(e6, e6)
    return ps_div(cube.scale(QQ(1728)), disc).truncate(n)


def _build_inv_j_1728(n):
    j = qseries("j", n + 3)
    return ps_div(PuiseuxSeries.const(QQ(1728), n + 2), j).truncate(n)


def _klein_form(n, r1, r2):
    """q-product of the Klein-curve coordinate forms (sign stripped)."""
    factors = []
    for k in range(1, n + 1):
        factors.append((k, -1, 3))
        if k % 7 == 0:
            factors.append((k, -1, 1))
        if k % 7 in (r1 % 7, r2 % 7):
            factors.append((k, -1, 1))
    return _product(n, factors)


def _build_X_neg(n):
    return _klein_form(n, 1, -1).shift(rat(4, 7))


def _build_Y(n):
    return _klein_form(n, 2, -2).shift(rat(2, 7))


def _build_Z(n):
    return _klein_form(n, 3, -3).shift(rat(1, 7))


def _build_neg_x7(n):
    pad = n + 2
    a = qseries("X_neg", pad)
    out = ps_div(ps_mul(ps_mul(a, a), qseries("Y", pad)), ps_pow(qseries("Z", pad), 3))
    return out.truncate(n)


def _rr_sum(n, shift_exponent, quadratic):
    """sum_k q^{k^2 (+k)} / ((1-q)...(1-q^k)), times q^{shift_exponent}."""
    total = [1] + [0] * (n - 1)
    term = total
    k = 1
    while quadratic(k) < n:
        # term_k = term_{k-1} * q^{quadratic(k)-quadratic(k-1)} / (1-q^k)
        stepup = quadratic(k) - quadratic(k - 1)
        term = [0] * min(stepup, n) + term[: n - stepup]
        for i in range(k, n):
            term[i] += term[i - k]
        total = [a + b for a, b in zip(total, term)]
        k += 1
    return PuiseuxSeries(1, 0, (total, None, 1), n).shift(shift_exponent)


def _selberg_sum(n, lead_exponent, terms):
    """q^lead / (q;q)_inf * sum_k (-1)^k q^{e(k)} * extra(k), exact below n."""
    pairs = []
    k = 0
    while True:
        contributions = terms(k)
        if min(e for e, _ in contributions) >= n and k > 0:
            break
        for e, c in contributions:
            if e < n:
                pairs.append((QQ(e), c))
        k += 1
    s = PuiseuxSeries.from_pairs(pairs, n)
    inv_euler = _product(n, ((k2, -1, -1) for k2 in range(1, n)))
    return ps_mul(s, inv_euler).shift(lead_exponent)


def _build_k1_sum(n):
    def terms(k):
        sgn = ONE if k % 2 == 0 else -ONE
        base = (7 * k * k + k) // 2
        return [(base, sgn), (base + 6 * k + 3, -sgn)]
    return _selberg_sum(n + 1, rat(-1, 42), terms)


def _build_k3_sum(n):
    def terms(k):
        sgn = ONE if k % 2 == 0 else -ONE
        base = (7 * k * k + 7 * k) // 2
        # (1 - q^{k+1})(1 - q^{6k+6}) expanded
        return [(base, sgn), (base + k + 1, -sgn), (base + 6 * k + 6, -sgn),
                (base + 7 * k + 7, sgn)]
    return _selberg_sum(n + 1, rat(17, 42), terms)


def _quintuple_lhs(n, j):
    factors = []
    for k in range(1, n + 1):
        factors.extend(((7 * k, -1, 1), ))
        for e in (7 * k - 2 * j, 7 * k - 7 + 2 * j):
            if e > 0:
                factors.append((e, -1, 1))
        for e in (7 * k - j, 7 * k - 7 + j):
            if e > 0:
                factors.append((e, -1, -1))
    # the n=1 term of (1 - y^{-2} s^{n-1}) is (1 - q^{2j}); of (1 - y^{-1} s^{n-1}): (1 - q^j)
    return _product(n, factors)


def _builders():
    b = {}

    b["q"] = lambda n: PuiseuxSeries.monomial(QQ(1), n)
    b["eta"] = lambda n: eta_quotient([(1, 1)], n)
    b["eta_theta"] = lambda n: theta_sum(n, 3, 1, rat(1, 24))     # q^{(6k+1)^2/24}
    b["eta7_prod"] = lambda n: _product(n, ((7 * k, -1, 1) for k in range(1, n // 7 + 2)))
    b["E4"] = _build_E4
    b["E6"] = _build_E6
    b["j"] = _build_j
    b["x1728_over_j"] = _build_inv_j_1728

    # Hauptmoduln as eta quotients, and their explicit product forms
    b["h2"] = lambda n: eta_quotient([(1, 24), (2, -24)], n)
    b["h3"] = lambda n: eta_quotient([(1, 12), (3, -12)], n)
    b["h4"] = lambda n: eta_quotient([(1, 8), (4, -8)], n)
    b["h5"] = lambda n: eta_quotient([(1, 6), (5, -6)], n)
    b["h7"] = lambda n: eta_quotient([(1, 4), (7, -4)], n)
    b["h2_prod"] = lambda n: _product(n + 1, ((k, 1, -24) for k in range(1, n + 1))).shift(-1)
    b["h3_prod"] = lambda n: residue_product(n + 1, 3, (1, 2), 12).shift(-1)
    b["h4_prod"] = lambda n: _product(n + 1, ((k, 1, -8 if k % 2 else -16) for k in range(1, n + 1))).shift(-1)
    b["h5_prod"] = lambda n: _product(n + 1, _h_np(n, 5, 6)).shift(-1)
    b["h7_prod"] = lambda n: _product(n + 1, _h_np(n, 7, 4)).shift(-1)

    b["h2_plus_64"] = lambda n: qseries("h2", n) + PuiseuxSeries.const(QQ(64), n)
    b["h3_plus_27"] = lambda n: qseries("h3", n) + PuiseuxSeries.const(QQ(27), n)
    b["h4_plus_16"] = lambda n: qseries("h4", n) + PuiseuxSeries.const(QQ(16), n)
    b["h4_plus_16_eta"] = lambda n: eta_quotient([(2, 24), (4, -16), (1, -8)], n)
    b["h4_plus_16_prod"] = lambda n: _product(
        n + 1, ((k, 1, 8 if k % 2 else -8) for k in range(1, n + 1))).shift(-1)

    # j as a rational expression in each Hauptmodul (numerators, see specs)
    b["j_h2_num"] = lambda n: _poly_at(poly(256, 1) ** 3, "h2", n)
    b["j_h3_num"] = lambda n: _poly_at(poly(27, 1) * poly(243, 1) ** 3, "h3", n)
    b["j_h4_num"] = lambda n: _poly_at(poly(4096, 256, 1) ** 3, "h4", n)
    b["j_h7_num"] = lambda n: _poly_at(poly(49, 13, 1) * poly(2401, 245, 1) ** 3, "h7", n)

    # Legendre lambda / 16 and its product form
    # lambda/16 = q^{1/2} prod (1-q^{k/2})^8 (1-q^{2k})^{16} (1-q^k)^{-24}
    b["lam16"] = lambda n: _product(n + 1, [
        *((k, -1, 8) for k in range(1, 2 * n + 2)),
        *((2 * k, -1, -24) for k in range(1, n + 1)),
        *((4 * k, -1, 16) for k in range(1, n // 2 + 1))], grid=2).shift(rat(1, 2)).truncate(n)
    # q^{1/2} prod_{k>=1} (1+q^k)^8 / prod_{k>=0} (1+q^{k+1/2})^8
    b["lam16_prod"] = lambda n: _product(n + 1, [
        *((2 * k, 1, 8) for k in range(1, n + 1)),
        *((2 * k + 1, 1, -8) for k in range(n + 1))], grid=2).shift(rat(1, 2)).truncate(n)

    # level 5
    b["x5"] = lambda n: (residue_product(n + 1, 5, (1, 4), 5) *
                         residue_product(n + 1, 5, (2, 3), -5)).shift(1).truncate(n + 1)
    b["phi5_of_x5_over_1728"] = _over_1728(phi5_icosahedral, "x5", 3)
    b["one_minus_11x5_x5sq"] = lambda n: poly(1, -11, -1).eval_series(qseries("x5", n)).truncate(n)
    b["rr1_prod"] = lambda n: residue_product(n + 1, 5, (1, 4), -1).shift(rat(-1, 60))
    b["rr2_prod"] = lambda n: residue_product(n + 1, 5, (2, 3), -1).shift(rat(11, 60))
    b["rr1_sum"] = lambda n: _rr_sum(n + 1, rat(-1, 60), lambda k: k * k)
    b["rr2_sum"] = lambda n: _rr_sum(n + 1, rat(11, 60), lambda k: k * k + k)

    # level 7: Klein forms and friends
    b["X_neg"] = _build_X_neg
    b["Y"] = _build_Y
    b["Z"] = _build_Z
    b["neg_x7"] = _build_neg_x7
    b["x7"] = lambda n: qseries("neg_x7", n).scale(-ONE)
    b["one_minus_x7"] = lambda n: PuiseuxSeries.const(ONE, n) + qseries("neg_x7", n)
    b["F1_of_x7"] = lambda n: poly(1, -5, -8, -1).eval_series(qseries("neg_x7", n)).truncate(n)
    b["X2Y2Z2"] = lambda n: _klein_poly_series(n, _mp({(2, 2, 2): 1}))
    b["R6_XYZ"] = lambda n: _klein_poly_series(n, klein_R6())
    b["K1"] = lambda n: residue_product(n + 1, 7, (1, 2, 5, 6), -1).shift(rat(-1, 42))
    b["K2"] = lambda n: residue_product(n + 1, 7, (1, 3, 4, 6), -1).shift(rat(5, 42))
    b["K3"] = lambda n: residue_product(n + 1, 7, (2, 3, 4, 5), -1).shift(rat(17, 42))
    b["k1_sum_form"] = _build_k1_sum
    b["k3_sum_form"] = _build_k3_sum
    b["Phi3_of_x7_over_1728"] = _over_1728(Phi3_map, "x7", 6)

    # theta sums for the K-ratios (denominators are the two-sum combinations)
    b["theta7"] = lambda n: theta_sum(n, 21, 7)
    b["kden_32"] = lambda n: theta_sum(n, 21, 1) + theta_sum(n, 21, 13, 1)
    b["kden_21"] = lambda n: theta_sum(n, 21, -5) + theta_sum(n, 21, 19, 2)
    b["kden_13"] = lambda n: theta_sum(n, 21, -11) + theta_sum(n, 21, 25, 3)

    for jj in (1, 2, 3):
        b[f"quintuple_lhs_y{jj}"] = (lambda n, jj=jj: _quintuple_lhs(n, jj))
        b[f"quintuple_rhs_y{jj}"] = (lambda n, jj=jj: theta_sum(n, 21, -(7 + 6 * jj), jj)
                                     + theta_sum(n, 21, 6 * jj - 7))

    # octahedral eta quotients and products
    b["octa1_eta"] = lambda n: eta_quotient([(2, 5), (4, -2), (1, -3)], n)
    b["octa1_prod"] = lambda n: _product(
        n + 1, ((k, 1, 3 if k % 2 else 1) for k in range(1, n + 1))).shift(rat(-1, 24))
    b["octa2_eta"] = lambda n: eta_quotient([(4, 2), (2, -1), (1, -1)], n)
    b["octa2_prod"] = lambda n: _product(
        n + 1, ((k, 1, 1 if k % 2 else 3) for k in range(1, n + 1))).shift(rat(5, 24))
    return b


def _h_np(n, m, e):
    for k in range(1, n + 1):
        yield (k, -1, e)
        if k % m == 0:
            yield (k, -1, -e)


def _poly_at(p, base, n):
    """p(base) below n, from base at n + deg p + 2."""
    return p.eval_series(qseries(base, n + p.degree + 2)).truncate(n)


def _over_1728(make_map, base, pad):
    """Builder of phi(base)/1728 for a covering phi, from base at n + pad."""
    return lambda n: (make_map().eval_series(qseries(base, n + pad))
                      .scale(rat(1, 1728)).truncate(n))


def _klein_poly_series(n, mp: MultiPoly):
    # substitute X = -X_neg, Y, Z
    pad = n + 2
    values = [-qseries("X_neg", pad), qseries("Y", pad), qseries("Z", pad)]
    return mp.eval_series(values).truncate(n)


register_chart("q", _builders())


def qseries(name: str, n: int) -> PuiseuxSeries:
    """Exact q-expansion of a catalog entry, known below exponent n."""
    return chart_series("q", name, n)


# ---------------------------------------------------------------------------
# Klein quartic invariants
# ---------------------------------------------------------------------------

def _mp(spec) -> MultiPoly:
    return MultiPoly({mono: QQ(c) for mono, c in spec.items()})


def klein_R4() -> MultiPoly:
    return _mp({(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})


def klein_R6() -> MultiPoly:
    return _mp({(1, 5, 0): 1, (0, 1, 5): 1, (5, 0, 1): 1, (2, 2, 2): -5})


def klein_R14() -> MultiPoly:
    return _mp({
        (14, 0, 0): 1, (0, 14, 0): 1, (0, 0, 14): 1,
        (8, 4, 2): 375, (4, 2, 8): 375, (2, 8, 4): 375,
        (7, 7, 0): 18, (7, 0, 7): 18, (0, 7, 7): 18,
        (6, 3, 5): -126, (5, 6, 3): -126, (3, 5, 6): -126,
        (11, 2, 1): -34, (1, 11, 2): -34, (2, 1, 11): -34,
        (9, 1, 4): -250, (4, 9, 1): -250, (1, 4, 9): -250,
    })


def klein_R21() -> MultiPoly:
    """Jacobian determinant of (R4, R6, R14), divided by 14."""
    rows = [klein_R4(), klein_R6(), klein_R14()]
    grads = [[r.diff(i) for i in range(3)] for r in rows]
    det = MultiPoly()
    for sign, perm in (((1), (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
                       (-1, (0, 2, 1)), (-1, (1, 0, 2)), (-1, (2, 1, 0))):
        term = grads[0][perm[0]] * grads[1][perm[1]] * grads[2][perm[2]]
        det = det + (term if sign > 0 else -term)
    return det.scale(rat(1, 14))


def klein_invariant_congruence() -> VerificationReport:
    """R21^2 - R14^3 + 1728 R6^7 reduces to 0 mod R4, with the degree audit.
    Divided by R14^3 this is the Galois-covering identity
    1728 R6^7 / R14^3 = 1 - R21^2 / R14^3."""
    r4, r6, r14, r21 = klein_R4(), klein_R6(), klein_R14(), klein_R21()
    r21_sq = r21 * r21
    combo = r21_sq - r14 ** 3 + (r6 ** 7).scale(QQ(1728))
    if r21_sq.total_degree() != 42:
        return failed(detail="degree audit failed")
    rem = combo.reduce_mod(r4)
    if not rem.is_zero():
        return failed(detail=f"nonzero remainder with {len(rem.terms)} monomials")
    return passed()


def verify_quotient_curve() -> VerificationReport:
    """y^7 = x(x-1)^2 under x = -X^2 Y/Z^3, y = -Y/Z: polynomial reduction
    mod R4 after clearing Z powers.  The same substitution on the q-series
    is the catalog identity ``klein-quotient-q``."""
    X = MultiPoly.variable(0, 3)
    Y = MultiPoly.variable(1, 3)
    Z = MultiPoly.variable(2, 3)
    x2y = X * X * Y
    cleared = -(Y ** 7) * Z * Z + x2y * (x2y + Z ** 3) ** 2
    if not cleared.reduce_mod(klein_R4()).is_zero():
        return failed(detail="polynomial reduction nonzero")
    return passed()


# Galois coverings noted for the radical-function domains: recorded as data,
# with only a Riemann-Hurwitz genus audit (no covering machinery).
REMARK_COVERINGS = (
    {"curve": "z^12 = y (1 - 11 y^5 - y^10)", "degree": 12, "base_genus": 0,
     "branch_orders": [12] * 12, "genus": 55},
    {"curve": "W^6 = X Y^5 + Y Z^5 + Z X^5 - 5 X^2 Y^2 Z^2", "degree": 6, "base_genus": 3,
     "branch_orders": [6] * 24, "genus": 73},
)
