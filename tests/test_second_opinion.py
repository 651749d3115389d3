"""Polynomial division, gcd, resultants and squarefree splitting, series
products, quotients and powers, and multivariate reduction, against sympy.

sympy is an independent implementation of the same exact algebra over Q;
the module is skipped where it is not installed.
"""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_mul, rs_pow, rs_series_inversion  # noqa: E402

from darboux.polyalg import MultiPoly, UniPoly, resultant, squarefree_multiplicities  # noqa: E402
from darboux.scalars import QQ  # noqa: E402
from darboux.series import PuiseuxSeries, ps_div, ps_mul, ps_pow  # noqa: E402
from test_polyalg import mp_divisor, mp_pair  # noqa: E402

X = sympy.Symbol("x")

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=9).map(QQ)
polys = st.lists(coeff, max_size=8).map(UniPoly)
nonzero = polys.filter(bool)


def to_sympy(p):
    """The sympy polynomial over QQ with the coefficients of p."""
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly.from_list(cs, X, domain=sympy.QQ)


def from_sympy(f):
    return UniPoly([QQ(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])


@settings(max_examples=100, deadline=None)
@given(polys, nonzero)
def test_divmod_matches_sympy_div(p, q):
    want_q, want_r = sympy.div(to_sympy(p), to_sympy(q))
    assert p.divmod(q) == (from_sympy(want_q), from_sympy(want_r))


@settings(max_examples=100, deadline=None)
@given(polys, polys, nonzero)
def test_gcd_matches_sympy_gcd(a, b, c):
    p, q = a * c, b * c
    want = to_sympy(p).gcd(to_sympy(q))
    if not want.is_zero:
        want = want.monic()
    assert p.gcd(q) == from_sympy(want)


@settings(max_examples=100, deadline=None)
@given(nonzero, nonzero)
def test_resultant_matches_sympy(p, q):
    # res(p, q) = (-1)**(deg p * deg q) * res(q, p).  sympy 1.14 gets the sign
    # of res(p, q) wrong for some deg p < deg q (for x - 1 and x**3 - 2 it
    # gives 1, its own Sylvester determinant -1), so it is asked with the
    # higher degree first.
    if p.degree < q.degree:
        want = (-1) ** (p.degree * q.degree) * to_sympy(q).resultant(to_sympy(p))
    else:
        want = to_sympy(p).resultant(to_sympy(q))
    assert resultant(p, q) == QQ(int(want.p), int(want.q))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(nonzero, st.integers(min_value=1, max_value=3)), min_size=1,
                max_size=3))
def test_squarefree_split_matches_sympy_sqf_list(parts):
    p = UniPoly([QQ(1)])
    for f, m in parts:
        p = p * f ** m
    _, want = to_sympy(p).sqf_list()
    want = sorted((from_sympy(f.monic()).coeffs, m) for f, m in want)
    assert sorted((f.coeffs, m) for f, m in squarefree_multiplicities(p)) == want


# ---------------------------------------------------------------------------
# series on the integer grid, against sympy.polys.ring_series
# ---------------------------------------------------------------------------

RING, T = sympy.polys.rings.ring("t", sympy.QQ)


def to_ring(a):
    """The polynomial in RING with the known coefficients of a (lead >= 0)."""
    return sum((sympy.Rational(c.numerator, c.denominator) * T ** int(e) for e, c in a.terms()),
               RING(0))


def coefficients(f, n):
    """The first n coefficients of a ring element, as QQ."""
    terms = dict(f.items())
    return [QQ(int(c.numerator), int(c.denominator))
            for c in (terms.get((k,), 0) for k in range(n))]


@st.composite
def series(draw, unit=False):
    """A series on grid 1 with lead >= 0; coefficient 0 is 1 when unit."""
    cs = draw(st.lists(coeff, min_size=1, max_size=10))
    if unit:
        cs[0] = QQ(1)
    return PuiseuxSeries.make(1, 0, cs, len(cs))


def known(a, n):
    return [a.coefficient(k) for k in range(n)]


@settings(max_examples=100, deadline=None)
@given(series(), series())
def test_ps_mul_matches_sympy_rs_mul(a, b):
    got = ps_mul(a, b)
    assert known(got, got.order) == coefficients(rs_mul(to_ring(a), to_ring(b), T, got.order),
                                                 got.order)


@settings(max_examples=100, deadline=None)
@given(series(), series().filter(lambda b: b.lead == 0))
def test_ps_div_matches_sympy_rs_series_inversion(a, b):
    got = ps_div(a, b)
    n = got.order
    want = rs_mul(to_ring(a), rs_series_inversion(to_ring(b), T, n), T, n)
    assert known(got, n) == coefficients(want, n)


exponent = st.one_of(
    st.integers(min_value=-4, max_value=7),
    st.builds(lambda p, q: sympy.Rational(p, q), st.integers(min_value=-90, max_value=90),
              st.sampled_from((2, 6, 7, 14, 42, 84))))


@settings(max_examples=100, deadline=None)
@given(series(unit=True), exponent)
def test_ps_pow_matches_sympy_rs_pow(a, r):
    n = a.order
    got = ps_pow(a, QQ(int(sympy.numer(r)), int(sympy.denom(r))))
    assert (got.grid, got.lead, got.order) == (1, 0, n)
    assert known(got, n) == coefficients(rs_pow(to_ring(a), r, T, n), n)


# ---------------------------------------------------------------------------
# multivariate reduction, against sympy.reduced
# ---------------------------------------------------------------------------

def to_expr(terms, gens):
    """The sympy expression of a MultiPoly term dict in the given generators."""
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[g ** e for g, e in zip(gens, m)])
                       for m, c in terms.items()])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reduce_mod_matches_sympy_reduced(data):
    # one divisor is a Groebner basis of its ideal, so the remainder whose
    # monomials the leading one does not divide is unique
    nv, a, b = data.draw(mp_pair())
    q = data.draw(mp_divisor(nv))
    # a multiple of q plus a product that need not reduce to 0
    p = MultiPoly(a) * MultiPoly(q) + MultiPoly(a) * MultiPoly(b)
    gens = sympy.symbols(f"x0:{nv}")
    f = sympy.expand(to_expr(a, gens) * (to_expr(q, gens) + to_expr(b, gens)))
    _, r = sympy.reduced(f, [to_expr(q, gens)], *gens, order="lex", domain=sympy.QQ)
    want = {m: QQ(int(c.p), int(c.q))
            for m, c in sympy.Poly(r, *gens, domain=sympy.QQ).terms() if c}
    assert p.reduce_mod(MultiPoly(q)).terms == want
