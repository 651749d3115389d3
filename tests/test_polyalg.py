"""Polynomial algebra tests with independent oracles.

``ref_divmod`` and ``ref_gcd`` are the former coefficient loops of
``UniPoly.divmod`` and ``UniPoly.gcd`` (long division and Euclid's algorithm
on exact scalars); the kernel versions must give the same polynomials.
``ref_compose`` is the former ``RationalMap.compose_rational``, a sum over
lists of the powers of both parts of the inner map.  ``ref_resultant`` is
the former ``resultant``, the Sylvester determinant by exact elimination.
``ref_poly_add``, ``ref_scale`` and ``ref_derivative`` are the former
``UniPoly`` operations on tuples of exact scalars, and ``ref_poly_mul`` (in
``test_kernel``) the schoolbook product; they give coefficient tuples for the
integer-vector operations to match.  ``ref_mp_*`` and ``ref_reduce_mod`` are
the former ``MultiPoly`` loops on dicts of exact scalars.
"""

import heapq
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from darboux.ellcurve import E7, CurveFunction
from darboux.scalars import QQ, ONE, ZERO, W, Omega, rat, scalar_inv
from darboux.polyalg import (
    MultiPoly,
    RationalMap,
    UniPoly,
    homogeneous,
    poly,
    rational_roots,
    resultant,
    squarefree_multiplicities,
)
from test_kernel import ref_poly_mul


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def ref_divmod(p, q):
    """Quotient and remainder by long division of the coefficients."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dq = len(rem) - len(q.coeffs)
    if dq < 0:
        return UniPoly(), p
    inv = scalar_inv(q.lc)
    quot = [ZERO] * (dq + 1)
    oc = q.coeffs
    for k in range(dq, -1, -1):
        c = rem[k + len(oc) - 1] * inv
        quot[k] = c
        if c:
            for j, b in enumerate(oc):
                rem[k + j] = rem[k + j] - c * b
    return UniPoly(quot), UniPoly(rem[: len(oc) - 1])


def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_poly_add(p, q, sign=1):
    """Coefficients of p + sign*q, summed slot by slot."""
    a, b = list(p.coeffs), [sign * c for c in q.coeffs]
    if len(a) < len(b):
        a, b = b, a
    return _strip([x + y for x, y in zip(a, b)] + a[len(b):])


def ref_scale(p, c):
    """Coefficients of c*p."""
    return _strip([c * x for x in p.coeffs])


def ref_derivative(p):
    return _strip([k * c for k, c in enumerate(p.coeffs)][1:])


def ref_gcd(p, q):
    """Monic gcd by Euclid's algorithm, each remainder made monic."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a


def ref_compose(f, g):
    """(num, den) of f(g), unreduced: each part of f as
    sum_k c_k p**k q**(d-k) from the power lists of p = g.num and q = g.den."""
    p, q = g.num, g.den
    d = max(f.num.degree, f.den.degree)
    powers_p, powers_q = [UniPoly([ONE])], [UniPoly([ONE])]
    for _ in range(d):
        powers_p.append(powers_p[-1] * p)
        powers_q.append(powers_q[-1] * q)

    def lift(h):
        out = UniPoly()
        for k in range(h.degree + 1):
            if h[k]:
                out = out + (powers_p[k] * powers_q[d - k]).scale(h[k])
        return out

    return lift(f.num), lift(f.den)


def ref_resultant(p: UniPoly, q: UniPoly):
    """Resultant via the Sylvester determinant (exact Gaussian elimination)."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    m, n = p.degree, q.degree
    if m == 0:
        return p.lc ** n
    if n == 0:
        return q.lc ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([ZERO] * i + pc + [ZERO] * (size - m - 1 - i))
    for i in range(m):
        rows.append([ZERO] * i + qc + [ZERO] * (size - n - 1 - i))
    det = ONE
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pivval = rows[col][col]
        det = det * pivval
        inv = scalar_inv(pivval)
        for r in range(col + 1, size):
            f = rows[r][col]
            if f:
                f = f * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def ref_homogeneous(f, d, a, b, q, rhs):
    """(A, B) with A + B v = sum_k f_k (a + b v)**k q**(d-k), summed from
    the powers of the pair (a, b), each reduced by v**2 = rhs."""
    A, B = UniPoly(), UniPoly()
    pa, pb = UniPoly([ONE]), UniPoly()
    for k in range(d + 1):
        qk = q ** (d - k)
        A, B = A + (pa * qk).scale(f[k]), B + (pb * qk).scale(f[k])
        pa, pb = pa * a + pb * b * rhs, pa * b + pb * a
    return A, B


def expand_product(factors):
    """Oracle: multiply out [(poly, mult), ...] naively."""
    out = poly(1)
    for f, m in factors:
        out = out * f ** m
    return out


# ---------------------------------------------------------------------------
# squarefree splitting
# ---------------------------------------------------------------------------

def test_squarefree_tetrahedral_fiber():
    # oracle: x(x+4)^3 - 4(2x-1)^3 expands to x^4 - 20x^3 + 96x^2 + 40x + 4
    lhs = poly(0, 1) * poly(4, 1) ** 3 - (poly(-1, 2) ** 3).scale(QQ(4))
    assert lhs == poly(4, 40, 96, -20, 1)
    # oracle: that quartic is (x^2 - 10x - 2)^2
    assert poly(-2, -10, 1) ** 2 == lhs
    assert squarefree_multiplicities(lhs) == [(poly(-2, -10, 1), 2)]


def test_squarefree_simple():
    p = poly(0, 1) * poly(-1, 1) ** 2
    assert squarefree_multiplicities(p) == [(poly(0, 1), 1), (poly(-1, 1), 2)]


def test_squarefree_phi3_numerator_shape():
    f1 = poly(1, 5, -8, 1)
    p = f1 ** 7 * poly(0, -1, 1)          # F1^7 * (x^2 - x)
    got = squarefree_multiplicities(p)
    assert (poly(0, -1, 1).monic(), 1) in got
    assert (f1, 7) in got


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(1, 3))
def test_squarefree_reconstruction(rootspec, extra_mult):
    # plant linear factors with multiplicities; reconstruction must be exact
    factors = {}
    for r, m in rootspec:
        factors[r] = max(factors.get(r, 0), m)
    p = poly(1)
    for r, m in factors.items():
        p = p * poly(-r, 1) ** m
    p = p * poly(7, 0, 1) ** extra_mult   # irreducible quadratic block
    split = squarefree_multiplicities(p)
    assert expand_product(split) == p.monic()
    assert sum(f.degree * m for f, m in split) == p.degree


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def test_resultant_linear_case():
    assert resultant(poly(-2, 1), poly(-3, 1)) == -1


def test_resultant_evaluation_oracle():
    # res(x^2, x+1) = f(-1)^1 with lc(g)=1: oracle (-1)^2 = 1
    assert resultant(poly(0, 0, 1), poly(1, 1)) == 1


def test_resultant_cluster_cubics_disjoint():
    # U-cluster 4u(4u-1)(4u-5)=1 and V-cluster 16u(4u-1)(8u-3)=1  (built, not typed)
    m_u = poly(0, 4) * poly(-1, 4) * poly(-5, 4) - poly(1)
    m_v = poly(0, 16) * poly(-1, 4) * poly(-3, 8) - poly(1)
    assert m_u == poly(-1, 20, -96, 64)
    assert m_v == poly(-1, 48, -320, 512)
    assert resultant(m_u, m_v) != 0


def test_resultant_sign_with_the_lower_degree_first():
    # oracle: res(f, g) = lc(f)**deg(g) * g(1) for f = x - 1, and
    # res(g, f) = (-1)**(deg f * deg g) * res(f, g)
    assert resultant(poly(-1, 1), poly(-2, 0, 0, 1)) == -1
    assert resultant(poly(-2, 0, 0, 1), poly(-1, 1)) == 1


@settings(max_examples=250, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_resultant_detects_common_factor(a, b, c, d):
    p = poly(a, 1) * poly(b, 1)
    q = poly(c, 1) * poly(d, 1)
    r = resultant(p, q)
    has_common = (a == c) or (a == d) or (b == c) or (b == d)
    assert (r == 0) == has_common
    assert (p.gcd(q).degree > 0) == has_common


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(10))
def test_powers_match_repeated_products(n):
    cases = [
        (poly(1, -2, QQ(1, 3)), poly(1)),
        (W + 2, Omega(1)),
        (MultiPoly({(1, 0): QQ(1), (0, 2): QQ(-3)}), MultiPoly({(0, 0): QQ(1)})),
        (CurveFunction(E7, poly(1, 2), poly(1), poly(3, 1)), CurveFunction(E7, poly(1))),
    ]
    for x, want in cases:
        for _ in range(n):
            want = want * x
        got = x ** n
        if isinstance(x, MultiPoly):        # no __eq__: compare the term dicts
            got, want = got.terms, want.terms
        assert got == want


def test_power_makes_no_spare_square(monkeypatch):
    products = []
    real = UniPoly.__mul__
    monkeypatch.setattr(UniPoly, "__mul__", lambda a, b: products.append(1) or real(a, b))
    poly(1, 2, 3) ** 13
    # 13 = 0b1101: three products into the result and three squarings
    assert len(products) == 6
    with pytest.raises(ValueError):
        poly(1, 2) ** -1


# ---------------------------------------------------------------------------
# division / gcd / rational maps
# ---------------------------------------------------------------------------

def test_divmod_roundtrip():
    p = poly(1, 0, -3, 2, 5)
    q = poly(2, 1, 1)
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


small = st.fractions(min_value=-9, max_value=9, max_denominator=7).map(QQ)
big = st.builds(lambda sign, n, d: QQ(sign * ((1 << 600) + n), d),
                st.sampled_from((1, -1)), st.integers(min_value=0, max_value=1 << 100),
                st.integers(min_value=1, max_value=1 << 70))
omega = st.builds(Omega, small, small)
scalar = {
    "rational": st.one_of(small, st.just(ZERO)),
    "omega": st.one_of(omega, st.just(ZERO)),
    "mixed": st.one_of(small, omega, st.just(ZERO)),
}
nonzero_small = st.builds(lambda sign, x: QQ(sign * x), st.sampled_from((1, -1)),
                          st.fractions(min_value=QQ(1, 7), max_value=9, max_denominator=7))
nonzero_omega = st.one_of(st.builds(Omega, nonzero_small, small),
                          st.builds(Omega, small, nonzero_small))
nonzero = {
    "rational": nonzero_small,
    "omega": nonzero_omega,
    "mixed": st.one_of(nonzero_small, nonzero_omega),
}
kinds = st.sampled_from(("rational", "omega", "mixed"))


def polys(kind, max_terms=9):
    return st.lists(scalar[kind], max_size=max_terms).map(UniPoly)


def factors(kind, max_terms=3):
    """A polynomial of degree at least 1."""
    return st.tuples(st.lists(scalar[kind], min_size=1, max_size=max_terms),
                     nonzero[kind]).map(lambda t: UniPoly(t[0] + [t[1]]))


def assert_omega_exactly(results, *operands):
    """Nonzero coefficients are Omega exactly when an operand holds an Omega."""
    omega = any(isinstance(c, Omega) for p in operands for c in p.coeffs)
    for r in results:
        for c in r.coeffs:
            if c:
                assert isinstance(c, Omega) == omega


def assert_divmod(p, q):
    got, want = p.divmod(q), ref_divmod(p, q)
    assert (got[0].coeffs, got[1].coeffs) == (want[0].coeffs, want[1].coeffs)
    if p.degree < q.degree:
        assert got[0].is_zero() and got[1] is p
    else:
        assert_omega_exactly(got, p, q)
        assert all(c or c is ZERO for r in got for c in r.coeffs)


def assert_gcd(p, q):
    got = p.gcd(q)
    assert got.coeffs == ref_gcd(p, q).coeffs
    assert_omega_exactly([got], p, q)


@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds)
def test_divmod_matches_long_division(data, ka, kb):
    p = data.draw(polys(ka, 14))
    assert_divmod(p, data.draw(polys(kb).filter(bool)))


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds)
def test_divmod_by_constants_and_zero(data, kind):
    p = data.draw(polys(kind).filter(bool))
    c = UniPoly([data.draw(scalar[kind].filter(bool))])
    zero = UniPoly()
    for a, b in ((p, c), (c, p), (c, c), (zero, p), (zero, c)):
        assert_divmod(a, b)
    for a in (p, c, zero):
        with pytest.raises(ZeroDivisionError):
            a.divmod(zero)


@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds, kinds)
def test_gcd_matches_euclid(data, ka, kb, kc):
    a, b = data.draw(polys(ka, 6)), data.draw(polys(kb, 6))
    c = data.draw(factors(kc))
    assert_gcd(a, b)
    assert_gcd(a * c, b * c)
    if a or b:
        assert (a * c).gcd(b * c).degree >= c.degree


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds)
def test_gcd_of_constants_and_zero(data, kind):
    p = data.draw(polys(kind))
    c = UniPoly([data.draw(scalar[kind].filter(bool))])
    zero = UniPoly()
    for a, b in ((p, c), (c, p), (p, zero), (zero, p), (c, zero), (zero, zero), (p, p)):
        assert_gcd(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(big, min_size=1, max_size=8), st.lists(big, min_size=1, max_size=8),
       st.lists(big, min_size=2, max_size=4))
def test_divmod_and_gcd_with_wide_numerators(xs, ys, zs):
    """Every coefficient has a numerator over 600 bits, and so do the
    unequal contents of the last two gcds."""
    p, q, c = UniPoly(xs), UniPoly(ys), UniPoly(zs)
    assert_divmod(p, q)
    assert_divmod(q, p)
    assert_divmod(p * c, c)
    assert_gcd(p, q)
    assert_gcd(p * c, q * c)
    assert_gcd((p * c).scale(xs[0]), c.scale(ys[0]))
    assert_gcd(c.scale(ys[0]), (c * c).scale(zs[0]))


def test_gcd_keeps_remainders_primitive(monkeypatch):
    """Each remainder after the first division is a primitive integer vector
    over the denominator 1, so coefficients grow with the degree, not
    exponentially with the number of steps.  The heuristic is switched off
    so that the rational operands take the Euclid path."""
    import darboux.polyalg as polyalg_module
    calls = []
    real = polyalg_module._kdivmod
    monkeypatch.setattr(polyalg_module, "_heuristic_gcd", lambda a, b: None)
    monkeypatch.setattr(polyalg_module, "_kdivmod", lambda a, b: calls.append(b) or real(a, b))
    c = poly(QQ(3, 7), 5, QQ(-2, 9), 1)
    a = c * poly(*(QQ(k * k - 11, k + 2) for k in range(14)))
    b = c * poly(*(QQ(3 * k - 19, 2 * k + 5) for k in range(11)))
    assert a.gcd(b) == c.monic()
    assert len(calls) > 5
    for re, im, d in calls[1:]:
        assert d == 1 and gcd(*re, *(im or ())) == 1


# ---------------------------------------------------------------------------
# ring operations on the integer vectors, against the tuple oracles
# ---------------------------------------------------------------------------

def assert_coeffs(got, want, *operands):
    """got has the coefficient tuple want; its nonzero coefficients are
    Omega exactly when an operand holds one, and its zero slots are ZERO."""
    assert got.coeffs == want
    assert_omega_exactly([got], *operands)
    assert all(c or c is ZERO for c in got.coeffs)


def assert_ring_ops(p, q, c):
    assert_coeffs(p + q, ref_poly_add(p, q), p, q)
    assert_coeffs(p - q, ref_poly_add(p, q, -1), p, q)
    assert_coeffs(q - p, ref_poly_add(q, p, -1), p, q)
    assert_coeffs(-p, ref_scale(p, -1), p)
    assert_coeffs(p * q, ref_poly_mul(p, q).coeffs, p, q)
    assert_coeffs(p.derivative(), ref_derivative(p), p)
    assert_coeffs(p.scale(c), ref_scale(p, c), p, UniPoly([c]))
    for x, y in ((p, q), (q, p), (p, UniPoly([c]))):
        if y:
            assert_divmod(x, y)


@settings(max_examples=200, deadline=None)
@given(st.data(), kinds, kinds, kinds)
def test_ring_ops_match_the_tuple_oracles(data, ka, kb, kc):
    p, q = data.draw(polys(ka)), data.draw(polys(kb))
    assert_ring_ops(p, q, data.draw(nonzero[kc]))


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds, nonzero_small)
def test_a_top_coefficient_with_a_zero_rational_part_is_kept(data, kind, y):
    """A Q(w) top slot with re 0 and im nonzero is no zero slot: neither
    when it is built nor when a sum cancels only its rational part."""
    low = data.draw(st.lists(scalar[kind], max_size=6))
    p = UniPoly(low + [Omega(0, y)])
    assert p.degree == len(low) and p.lc == Omega(0, y)
    x = data.draw(nonzero_small)
    n = len(low)
    q = UniPoly(data.draw(st.lists(scalar[kind], min_size=n, max_size=n)) + [Omega(x, -y)])
    r = UniPoly(low + [Omega(-x, 2 * y)])
    assert (q + r).degree == p.degree and (q + r).lc == Omega(0, y)
    assert_ring_ops(p, q + r, data.draw(nonzero[kind]))
    assert_ring_ops(q + r, p, Omega(0, y))


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds, kinds)
def test_sums_that_cancel(data, ka, kb):
    """p - p and p + (-p) are the zero polynomial; a sum whose top slots
    cancel loses them, down to the first slot that does not."""
    p, q = data.draw(polys(ka)), data.draw(polys(kb, 4))
    for zero in (p - p, p + (-p), p.scale(-1) + p):
        assert zero.is_zero() and zero.degree == -1 and zero.coeffs == ()
        assert zero == UniPoly() and hash(zero) == hash(UniPoly())
    top = UniPoly(list(q.coeffs) + list(p.coeffs[len(q.coeffs):]))
    assert_coeffs(top - p, ref_poly_add(top, p, -1), top, p)
    assert (top - p).degree < len(q.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data(), kinds, kinds, st.lists(st.integers(0, 16), min_size=3, max_size=6))
def test_one_divisor_for_quotients_of_changing_length(data, ka, kb, lengths):
    """One divisor object keeps its Newton inverse across divisions whose
    quotients grow, shrink and grow again; each division still matches
    long division, and the kept inverse covers the longest quotient."""
    b = data.draw(factors(kb, 4))
    longest = 0
    for k in lengths + [max(lengths) + 3, 1, max(lengths) + 7]:
        a = UniPoly(data.draw(st.lists(scalar[ka], min_size=k + b.degree, max_size=k + b.degree))
                    + [data.draw(nonzero[ka])])
        assert_divmod(a, b)
        longest = max(longest, k + 1)
        assert len(b._inv[0]) >= longest


def test_equal_values_are_equal_polys_whatever_their_type():
    """Equality and hash go by value: a Q(w) polynomial with rational
    values equals and hashes as the rational one."""
    p, q = UniPoly([Omega(1), ZERO, Omega(QQ(-2, 3))]), poly(1, 0, QQ(-2, 3))
    assert p == q and hash(p) == hash(q) and p != poly(1, 0, QQ(2, 3))
    assert UniPoly([QQ(2, 4), 1, 0, ZERO]) == poly(QQ(1, 2), 1)


# ---------------------------------------------------------------------------
# the heuristic gcd of rational operands
# ---------------------------------------------------------------------------

contents = st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                        max_denominator=10 ** 6).filter(bool).map(QQ)


@settings(max_examples=200, deadline=None)
@given(polys("rational", 6), polys("rational", 6), factors("rational"), contents, contents)
def test_heuristic_gcd_matches_euclid(a, b, c, ka, kb):
    """Common factors, coprime pairs, one operand dividing the other,
    constants and unequal contents."""
    k = UniPoly([ka])
    pairs = [(a, b), (a * c, b * c), (a.scale(ka) * c, b.scale(kb) * c),
             (a * c, a * c + k), (c, a * c), (a * c * c, c.scale(kb)),
             (k, b * c), (c.scale(ka), c.scale(kb)), (k, UniPoly([kb]))]
    for p, q in pairs:
        assert_gcd(p, q)
        assert_gcd(q, p)


def gcd_example():
    """Rational operands with negative coefficients and the primitive
    integer vector of their gcd."""
    c = poly(QQ(3, 7), 5, QQ(-2, 9), 1)
    a = c * poly(*(QQ(k * k - 11, k + 2) for k in range(14)))
    b = c * poly(*(QQ(3 * k - 19, 2 * k + 5) for k in range(11)))
    return a, b, c, [27, 315, -14, 63]


def test_heuristic_gcd_answers_without_a_remainder_sequence(monkeypatch):
    """One integer gcd and two exact divisions, one per operand."""
    import darboux.polyalg as polyalg_module
    calls = []
    real = polyalg_module._kdivmod
    monkeypatch.setattr(polyalg_module, "_kdivmod",
                        lambda a, b, *inv: calls.append(b) or real(a, b, *inv))
    a, b, c, g = gcd_example()
    assert a.gcd(b) == c.monic()
    assert [v for v, _, _ in calls] == [g, g]


@pytest.mark.parametrize("a, b, width", [
    (poly(-113, 1) * poly(1, 1), poly(1, 1) * poly(2, 1), 1),       # 2*113 + 29 = 255
    (poly(-114, 1) * poly(1, 1), poly(1, 1) * poly(2, 1), 2),       # 2*114 + 29 = 257
    ((poly(-113, 1) * poly(1, 1)).scale(QQ(2 ** 100)),
     (poly(1, 1) * poly(2, 1)).scale(QQ(3 ** 70, 7)), 1),
])
def test_heuristic_slot_is_the_least_above_the_bound(monkeypatch, a, b, width):
    """xi = 2**(8*w) is the least such power above 2*max|c| + 29, with c
    the coefficients of the primitive parts: contents are divided out
    before the operands are evaluated."""
    import darboux.polyalg as polyalg_module
    widths = []
    real = polyalg_module._pack
    monkeypatch.setattr(polyalg_module, "_pack", lambda v, w: widths.append(w) or real(v, w))
    assert a.gcd(b) == poly(1, 1)
    assert widths == [width, width]


def test_gcd_of_omega_operands_takes_euclid(monkeypatch):
    import darboux.polyalg as polyalg_module
    calls = []
    monkeypatch.setattr(polyalg_module, "_heuristic_gcd", lambda a, b: calls.append(a) or None)
    c = UniPoly([Omega(1, 2), Omega(QQ(-1, 3)), ONE])
    a, b = c * poly(1, 2, 3), c * UniPoly([W, ONE])
    for p, q in ((a, b), (a, poly(3, 1) * c), (poly(3, 1) * c, b)):
        got = p.gcd(q)
        assert got.coeffs == ref_gcd(p, q).coeffs == c.monic().coeffs
    assert calls == []
    assert poly(1, 2).gcd(poly(3, 4)) == poly(1)
    assert len(calls) == 1


def test_gcd_falls_back_to_euclid_when_every_try_fails(monkeypatch):
    """Digits read back one off in slot 0 never divide both operands: every
    width is tried and Euclid gives the gcd."""
    import darboux.polyalg as polyalg_module
    from darboux.polyalg import _heuristic_gcd, _primitive
    from darboux.kernel import _vec
    reads, divisions = [], []
    unpack, kdivmod = polyalg_module._unpack, polyalg_module._kdivmod
    monkeypatch.setattr(polyalg_module, "_unpack",
                        lambda h, w, m: reads.append(w) or [x + (not i) for i, x in
                                                            enumerate(unpack(h, w, m))])
    monkeypatch.setattr(polyalg_module, "_kdivmod",
                        lambda a, b, *inv: divisions.append(b) or kdivmod(a, b, *inv))
    a, b, c, _ = gcd_example()
    assert _heuristic_gcd(_primitive(_vec(a.coeffs)[0]), _primitive(_vec(b.coeffs)[0])) is None
    assert len(reads) == 4 and reads == sorted(set(reads))
    reads.clear()
    divisions.clear()
    assert a.gcd(b).coeffs == ref_gcd(a, b).coeffs == c.monic().coeffs
    assert len(reads) == 4
    assert len(divisions) > 5


def test_rational_map_reduction_and_eval():
    r = RationalMap(poly(0, 1) * poly(1, 1), poly(1, 1) * poly(2, 1))
    assert r.num == poly(0, 1)
    assert r.den == poly(2, 1)
    assert r.num(QQ(2)) / r.den(QQ(2)) == rat(1, 2)


def test_rational_map_series_eval_matches_direct():
    from darboux.series import PuiseuxSeries, first_mismatch, ps_div
    r = RationalMap(poly(0, 1, 1), poly(1, -1))
    x = PuiseuxSeries.monomial(QQ(1), 12)
    got = r.eval_series(x)
    num = poly(0, 1, 1).eval_series(x)
    den = poly(1, -1).eval_series(x)
    assert first_mismatch(got, ps_div(num, den)) is None
    assert got.coefficient(3) == 2     # (x+x^2)(1+x+x^2+...) -> 2x^3 term


def test_rational_map_compose_rational():
    # (x/(1-x)) o (x^2) == x^2/(1-x^2)
    f = RationalMap(poly(0, 1), poly(1, -1))
    g = RationalMap(poly(0, 0, 1))
    h, want = f.compose_rational(g), RationalMap(poly(0, 0, 1), poly(1, 0, -1))
    assert (h.num, h.den) == (want.num, want.den)


def rational_maps(kind):
    """num/den with den nonzero, of degree 0-4 each."""
    return st.builds(lambda num, lead, den: RationalMap(num, UniPoly(den + [lead])),
                     polys(kind, 5), nonzero[kind], st.lists(scalar[kind], max_size=4))


@settings(max_examples=150, deadline=None)
@given(st.data(), kinds, kinds)
def test_compose_rational_matches_the_power_lists(data, kf, kg):
    """The same canonical map as the power-list sum, or ZeroDivisionError on
    both sides where the denominator of f(g) vanishes."""
    f, g = data.draw(rational_maps(kf)), data.draw(rational_maps(kg))
    num, den = ref_compose(f, g)
    if den.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.compose_rational(g)
        return
    got, want = f.compose_rational(g), RationalMap(num, den)
    assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
    assert got.den.lc == ONE and got.num.gcd(got.den).degree == 0


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds, kinds, st.integers(0, 2))
def test_homogeneous_matches_a_sum_of_pair_powers(data, kind, kb, extra):
    """Each pair is the power sum of ``ref_homogeneous`` with b nonzero,
    also for d above the degree of every f, and one call for three
    polynomials gives what one call for each gives."""
    fs = [data.draw(polys(kind, 4)) for _ in range(3)]
    a, q, rhs = (data.draw(polys(kind, 3)) for _ in range(3))
    b = data.draw(factors(kb))
    d = max(0, *(f.degree for f in fs)) + extra
    got = homogeneous(fs, d, a, b, q, rhs)
    for f, (A, B) in zip(fs, got):
        want = ref_homogeneous(f, d, a, b, q, rhs)
        assert (A.coeffs, B.coeffs) == (want[0].coeffs, want[1].coeffs)
        alone = homogeneous([f], d, a, b, q, rhs)[0]
        assert (alone[0].coeffs, alone[1].coeffs) == (A.coeffs, B.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds, kinds, kinds)
def test_resultant_matches_the_sylvester_determinant(data, ka, kb, kc):
    """Rational and Q(w) operands, constants and a shared factor, in both
    argument orders; a shared factor gives 0."""
    p, q = data.draw(polys(ka, 6).filter(bool)), data.draw(polys(kb, 6).filter(bool))
    c = data.draw(factors(kc))
    k = UniPoly([data.draw(nonzero[kc])])
    for x, y in ((p, q), (p, k), (k, k), (p * c, q * c), (p * c, c)):
        assert resultant(x, y) == ref_resultant(x, y)
        assert resultant(y, x) == ref_resultant(y, x)
    assert resultant(p * c, q * c) == 0


def test_rational_map_over_qw_comes_back_reduced():
    """A common factor of num and den over Q(w) is cancelled and den made
    monic, as for rational maps; the zero map gets den 1."""
    common = UniPoly([W, QQ(2)]) * UniPoly([QQ(1), QQ(-1), W.conjugate()])
    num, den = UniPoly([QQ(3), W]), UniPoly([W, QQ(0), Omega(2, 5)])
    c = Omega(-1, 3)
    r = RationalMap(num * common, (den * common).scale(c))
    assert r.den.coeffs == den.monic().coeffs
    assert r.num.coeffs == num.scale(scalar_inv(c * den.lc)).coeffs
    assert r.num.gcd(r.den).degree == 0
    zero = RationalMap(UniPoly(), den)
    assert zero.num.is_zero() and zero.den.coeffs == (ONE,)


def test_rational_roots():
    p = poly(-2, 1) * poly(3, 2) * poly(1, 0, 1)
    assert rational_roots(p) == [rat(-3, 2), QQ(2)]
    assert rational_roots(poly(512, 0, -44, 0, 1)) == []


def test_omega_coefficients_in_polys():
    p = UniPoly([W, QQ(1)])
    q = UniPoly([W.conjugate(), QQ(1)])
    prod = p * q
    assert prod == UniPoly([QQ(1), QQ(-1), QQ(1)])   # (x+w)(x+w^2) = x^2 - x + 1


# ---------------------------------------------------------------------------
# multivariate reduction
# ---------------------------------------------------------------------------

def R4():
    # X^3 Y + Y^3 Z + Z^3 X
    return MultiPoly({(3, 1, 0): QQ(1), (0, 3, 1): QQ(1), (1, 0, 3): QQ(1)})


def test_reduce_self_is_zero():
    assert R4().reduce_mod(R4()).is_zero()


def test_reduce_x_r4_plus_y():
    x = MultiPoly.variable(0, 3)
    y = MultiPoly.variable(1, 3)
    p = x * R4() + y
    assert p.reduce_mod(R4()).terms == y.terms


def test_reduce_leaves_reduced_input():
    y = MultiPoly.variable(1, 3)
    q = y * R4() + MultiPoly({(2, 0, 0): QQ(5)})
    assert q.reduce_mod(R4()).terms == {(2, 0, 0): QQ(5)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=0, max_size=5))
def test_reduce_divisibility_criterion(monos):
    c = MultiPoly({(a, b, d): QQ(v) for a, b, d, v in monos if v})
    prod = c * R4()
    assert prod.reduce_mod(R4()).is_zero()


# ---------------------------------------------------------------------------
# MultiPoly against the former dict loops
# ---------------------------------------------------------------------------
# ``ref_mp_*`` and ``ref_reduce_mod`` are the former MultiPoly operations on
# dicts of exact scalars (exponent tuple -> nonzero coefficient); the integer
# numerators over one denominator must give the same ``terms``.

def _nz(terms):
    return {tuple(m): c for m, c in terms.items() if c}


def ref_mp_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def ref_mp_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mp_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def ref_mp_scale(a, c):
    return {m: c * x for m, x in a.items()} if c else {}


def ref_mp_pow(a, n):
    out = {(0,) * len(next(iter(a))) if a else (): ONE}
    for _ in range(n):
        out = ref_mp_mul(out, a)
    return out


def ref_mp_diff(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            m2 = list(m)
            m2[i] -= 1
            out[tuple(m2)] = c * m[i]
    return out


def ref_reduce_mod(a, q):
    """Lex long division by q on the heap of the dividend's monomials."""
    lt = max(q)
    ltc = q[lt]
    rest = [(m, c) for m, c in q.items() if m != lt]
    work = dict(a)
    heap = [tuple(-x for x in m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = tuple(-x for x in heapq.heappop(heap))
        if m not in work:
            continue
        c = work.pop(m)
        if all(x >= y for x, y in zip(m, lt)):
            f = c * scalar_inv(ltc)
            shift = tuple(x - y for x, y in zip(m, lt))
            for m2, c2 in rest:
                mm = tuple(x + y for x, y in zip(m2, shift))
                s = work.get(mm, ZERO) - f * c2
                if s:
                    if mm not in work:
                        heapq.heappush(heap, tuple(-x for x in mm))
                    work[mm] = s
                else:
                    work.pop(mm, None)
        else:
            remainder[m] = c
    return remainder


mp_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7).map(QQ)


def mp_terms(nv, min_size=0):
    """Term dicts in nv variables, zero coefficients and the empty dict included."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nv), mp_coeff,
                           min_size=min_size, max_size=6)


@st.composite
def mp_pair(draw):
    nv = draw(st.sampled_from((2, 3)))
    return nv, draw(mp_terms(nv)), draw(mp_terms(nv))


@st.composite
def mp_divisor(draw, nv):
    """A nonzero term dict; a third of them integral with leading coefficient
    1 or -1, as R4 is, the others with any rational coefficients."""
    q = draw(mp_terms(nv, min_size=1).map(_nz).filter(bool))
    lc = draw(st.sampled_from((None, 1, -1)))
    if lc is not None:
        q = {m: QQ(int(c.numerator)) for m, c in q.items()}
        q[max(q)] = QQ(lc)
    return q


@settings(max_examples=150, deadline=None)
@given(mp_pair(), mp_coeff, st.integers(0, 2), st.integers(0, 4))
def test_multipoly_ring_ops_match_the_dict_loops(pair, c, i, n):
    nv, a, b = pair
    i %= nv
    p, q = MultiPoly(a), MultiPoly(b)
    a, b = _nz(a), _nz(b)
    assert p.terms == a
    assert (p * q).terms == ref_mp_mul(a, b)
    assert (p + q).terms == ref_mp_add(a, b)
    assert (p - q).terms == ref_mp_add(a, ref_mp_neg(b))
    assert (-p).terms == ref_mp_neg(a)
    assert p.scale(c).terms == ref_mp_scale(a, c)
    assert (p * c).terms == ref_mp_scale(a, c)
    assert p.diff(i).terms == ref_mp_diff(a, i)
    assert (p ** n).terms == ref_mp_pow(a, n)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_mod_matches_the_dict_loop(data):
    nv, a, b = data.draw(mp_pair())
    q = data.draw(mp_divisor(nv))
    # a multiple of q plus a part that need not reduce
    dividend = ref_mp_add(ref_mp_mul(_nz(a), q), _nz(b))
    assert MultiPoly(dividend).reduce_mod(MultiPoly(q)).terms == ref_reduce_mod(dividend, q)


def test_reduce_mod_by_a_leading_coefficient_of_two():
    # x^2 = (x/2 - y/4)(2x + y) + y^2/4
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    assert (x * x).reduce_mod(x.scale(2) + y).terms == {(0, 2): QQ(1, 4)}


def test_multipoly_is_over_the_rationals():
    with pytest.raises(TypeError):
        MultiPoly({(1, 0): W})
