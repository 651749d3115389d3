"""Series kernel tests.

Expected values for the DERIVED cases are produced by independent oracles
defined in this file (generalized binomial products, linear recurrences,
naive convolution) and frozen by the assertions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from darboux.scalars import QQ, Omega, W, rat
from darboux.series import (
    PuiseuxSeries,
    PowBaseError,
    ValuationError,
    first_mismatch,
    ps_compose,
    ps_div,
    ps_mul,
    ps_pow,
)
from test_kernel import assert_same


def S(pairs, order, grid=1):
    return PuiseuxSeries.from_pairs([(rat(*e) if isinstance(e, tuple) else e, rat(c) if not isinstance(c, Omega) else c) for e, c in pairs], rat(*order) if isinstance(order, tuple) else order)


def conjugate(s):
    """The series with w replaced by its conjugate w^2 in every coefficient."""
    return PuiseuxSeries.make(s.grid, s.lead, [c.conjugate() if isinstance(c, Omega) else c
                                               for c in s.coeffs], s.order)


def binomial_coeff(r, k):
    """Oracle: generalized binomial coefficient C(r, k) as a product."""
    out = QQ(1)
    for i in range(k):
        out = out * (QQ(r) - i) / (i + 1)
    return out


def binomial_series(r, c, n):
    """Oracle: (1 + c*x)**r to n terms by the product formula."""
    return [binomial_coeff(r, k) * QQ(c) ** k for k in range(n)]


def convolve(a, b):
    """Oracle: plain list convolution, truncated to min length."""
    n = min(len(a), len(b))
    out = [QQ(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


# ---------------------------------------------------------------------------
# ps_mul
# ---------------------------------------------------------------------------

def test_mul_difference_of_squares():
    a = S([(0, 1), (1, 1)], 10)
    b = S([(0, 1), (1, -1)], 10)
    assert list(ps_mul(a, b).terms()) == [(QQ(0), QQ(1)), (QQ(2), QQ(-1))]


def test_mul_fractional_lead_exponents():
    a = S([((-1, 42), 1), ((41, 42), 1)], (3, 1))
    b = S([((5, 42), 1), ((47, 42), 1)], (3, 1))
    p = ps_mul(a, b)
    assert p.lead_exponent == rat(4, 42)
    assert p.coefficient(rat(4, 42)) == 1
    assert p.coefficient(rat(46, 42)) == 2
    assert p.coefficient(rat(88, 42)) == 1


def test_mul_seventh_root_factors_against_convolution_oracle():
    n = 24
    ca = binomial_series(rat(1, 7), -1, n)
    cb = binomial_series(rat(6, 7), -1, n)
    expected = convolve(ca, cb)
    # oracle sanity: (1-x)^(1/7) * (1-x)^(6/7) = 1 - x
    assert expected[0] == 1 and expected[1] == -1
    assert all(c == 0 for c in expected[2:])
    base = S([(0, 1), (1, -1)], n)
    got = ps_mul(ps_pow(base, rat(1, 7)), ps_pow(base, rat(6, 7)))
    assert list(got.terms()) == [(QQ(0), QQ(1)), (QQ(1), QQ(-1))]
    assert got.order_exponent == n


def test_mul_tracks_joint_truncation():
    a = S([(2, 1)], 9)      # x^2 + O(x^9)
    b = S([(3, 5)], 7)      # 5x^3 + O(x^7)
    p = ps_mul(a, b)
    assert p.order_exponent == min(9 + 3, 7 + 2)
    assert p.lead_exponent == 5


# ---------------------------------------------------------------------------
# ps_div
# ---------------------------------------------------------------------------

def test_div_basic():
    num = S([(0, 1), (2, -1)], 12)
    den = S([(0, 1), (1, -1)], 12)
    q = ps_div(num, den)
    assert list(q.terms()) == [(QQ(0), QQ(1)), (QQ(1), QQ(1))]


def test_div_geometric_oracle():
    # oracle: 1/(1 - 11u + 32u^2) satisfies a_k = 11 a_{k-1} - 32 a_{k-2}
    n = 16
    a = [QQ(1), QQ(11)]
    for _ in range(2, n):
        a.append(11 * a[-1] - 32 * a[-2])
    assert a[2] == 89
    one = S([(0, 1)], n)
    den = S([(0, 1), (1, -11), (2, 32)], n)
    inv = ps_div(one, den)
    assert [inv.coefficient(k) for k in range(n)] == a


def test_div_by_zero_series():
    with pytest.raises(ZeroDivisionError):
        ps_div(S([(0, 1)], 5), PuiseuxSeries.zero(5))


def test_div_roundtrip_with_poles():
    a = S([(-2, 3), (0, 1), (1, 7)], 8)
    b = S([(1, 1), (2, -4), (3, 2)], 9)
    q = ps_div(a, b)
    assert first_mismatch(ps_mul(q, b), a) is None


# ---------------------------------------------------------------------------
# ps_pow
# ---------------------------------------------------------------------------

def test_pow_binomial_oracle():
    n = 12
    expected = binomial_series(rat(1, 7), -1, n)
    assert expected[1] == rat(-1, 7)
    assert expected[2] == rat(-3, 49)
    got = ps_pow(S([(0, 1), (1, -1)], n), rat(1, 7))
    assert [got.coefficient(k) for k in range(n)] == expected


def test_pow_zero_exponent():
    a = S([(0, 1), (1, 5), (2, -2)], 9)
    p = ps_pow(a, 0)
    assert list(p.terms()) == [(QQ(0), QQ(1))]


def test_pow_inverse_roundtrip():
    a = S([(0, 1), (1, 1)], 14)
    assert first_mismatch(ps_pow(ps_pow(a, rat(1, 3)), 3), a) is None


def test_pow_scales_lead_and_grid():
    a = S([(2, 1), (3, 4)], 11)
    p = ps_pow(a, rat(-1, 2))
    assert p.lead_exponent == -1
    q = ps_pow(a, rat(1, 7))
    assert q.lead_exponent == rat(2, 7)
    assert q.grid == 7


def test_pow_rejects_non_unit_constant():
    with pytest.raises(PowBaseError):
        ps_pow(S([(0, 2), (1, 1)], 6), rat(1, 2))
    with pytest.raises(PowBaseError):
        ps_pow(S([(1, -1)], 6), rat(1, 2))
    with pytest.raises(PowBaseError):
        ps_pow(S([(0, Omega(1, 1)), (1, 1)], 6), 2)
    with pytest.raises(PowBaseError):
        ps_pow(PuiseuxSeries.zero(4), rat(1, 2))


# ---------------------------------------------------------------------------
# ps_compose
# ---------------------------------------------------------------------------

def test_compose_identity():
    a = S([(0, 1), (1, 2), (3, 7)], 9)
    x = S([(1, 1)], 12)
    assert first_mismatch(ps_compose(a, x), a, below=8) is None


def test_compose_geometric_with_square():
    a = ps_div(S([(0, 1)], 8), S([(0, 1), (1, -1)], 8))
    got = ps_compose(a, S([(2, 1)], 20))
    assert list(got.terms()) == [(QQ(0), QQ(1)), (QQ(2), QQ(1)), (QQ(4), QQ(1)),
                                 (QQ(6), QQ(1)), (QQ(8), QQ(1)), (QQ(10), QQ(1)),
                                 (QQ(12), QQ(1)), (QQ(14), QQ(1))]
    assert got.order_exponent == 16


def test_compose_requires_positive_valuation():
    a = S([(0, 1), (1, 1)], 6)
    with pytest.raises(ValuationError):
        ps_compose(a, S([(0, 1), (1, 1)], 6))


def test_compose_negative_exponents():
    # z^-1 + z has a negative lead, z^(1/2) a fractional grid
    b = ps_div(S([(2, 1)], 12), S([(0, 1), (1, -1)], 12))
    for a in (S([(-1, 1), (1, 1)], 6), S([((1, 2), 1)], 6)):
        with pytest.raises(ValuationError):
            ps_compose(a, b)


# ---------------------------------------------------------------------------
# Omega coefficients
# ---------------------------------------------------------------------------

def test_omega_reduction_in_series():
    w = W
    assert w * w == -1 - w
    assert w ** 3 == 1
    a = S([(0, 1), (1, w)], 8)
    sq = ps_mul(a, a)
    assert sq.coefficient(1) == 2 * w
    assert sq.coefficient(2) == -1 - w
    conj = conjugate(a)
    tr = a + conj
    assert all(not isinstance(c, Omega) or not c.b for _, c in tr.terms())


def test_omega_division():
    assert 1 / (1 - 2 * W) == (1 - 2 * W.conjugate()) / 7


def test_omega_values_are_immutable():
    with pytest.raises(AttributeError):
        W.a = 1
    with pytest.raises(AttributeError):
        del W.a
    assert (W.a, W.b) == (0, 1)


def test_omega_hash_agrees_with_equal_rationals():
    for x in (QQ(0), QQ(3), QQ(-5, 7)):
        assert Omega(x) == x and hash(Omega(x)) == hash(x)
    assert {QQ(2): "two"}[Omega(2)] == "two"


# ---------------------------------------------------------------------------
# Property suites (>= 200 randomized cases each)
# ---------------------------------------------------------------------------

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def series_strategy(draw, min_lead=-4, unit=False, grid_choices=(1, 2, 3)):
    grid = draw(st.sampled_from(grid_choices))
    lead = 0 if unit else draw(st.integers(min_value=min_lead, max_value=3))
    n = draw(st.integers(min_value=4, max_value=9))
    coeffs = [QQ(draw(small_rationals)) for _ in range(n)]
    if unit:
        coeffs[0] = QQ(1)
    return PuiseuxSeries.make(grid, lead, coeffs, lead + n)


@settings(max_examples=220, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_laws(a, b, c):
    assert_same(a + b, b + a)
    assert_same(ps_mul(a, b), ps_mul(b, a))
    assert_same((a + b) + c, a + (b + c))
    assert first_mismatch(ps_mul(ps_mul(a, b), c), ps_mul(a, ps_mul(b, c))) is None
    assert first_mismatch(ps_mul(a, b + c), ps_mul(a, b) + ps_mul(a, c)) is None


@settings(max_examples=220, deadline=None)
@given(series_strategy(unit=True),
       st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_pow_additivity(a, r, s):
    lhs = ps_mul(ps_pow(a, QQ(r)), ps_pow(a, QQ(s)))
    rhs = ps_pow(a, QQ(r) + QQ(s))
    assert first_mismatch(lhs, rhs) is None


@st.composite
def inner_series(draw):
    lead = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=4, max_value=8))
    coeffs = [QQ(draw(small_rationals)) for _ in range(n)]
    coeffs[0] = QQ(draw(st.sampled_from([1, -1, 2])))
    return PuiseuxSeries.make(1, lead, coeffs, lead + n)


@settings(max_examples=220, deadline=None)
@given(series_strategy(min_lead=0, grid_choices=(1,)), inner_series(), inner_series())
def test_compose_associativity(a, b, c):
    lhs = ps_compose(ps_compose(a, b), c)
    rhs = ps_compose(a, ps_compose(b, c))
    assert first_mismatch(lhs, rhs) is None


@st.composite
def extended_inputs(draw):
    """Pairs (truncated, extended) of the same underlying series."""
    pad = 10
    out = []
    for unit in (False, True, True):
        lead = 0 if unit else draw(st.integers(min_value=-2, max_value=2))
        n = draw(st.integers(min_value=4, max_value=7))
        coeffs = [QQ(draw(small_rationals)) for _ in range(n + pad)]
        if unit:
            coeffs[0] = QQ(1)
        full = PuiseuxSeries.make(1, lead, coeffs, lead + n + pad)
        out.append((PuiseuxSeries.make(1, lead, coeffs[:n], lead + n), full))
    return out


@settings(max_examples=220, deadline=None)
@given(extended_inputs(), st.fractions(min_value=-2, max_value=2, max_denominator=4))
def test_truncation_soundness(inputs, r):
    """Recomputing a pipeline with deeper inputs must reproduce every claimed
    coefficient of the shallow run, coefficient for coefficient."""
    (a, a10), (b, b10), (c, c10) = inputs

    def pipeline(x, y, z):
        t = ps_mul(x, y) + ps_div(y, z)
        return ps_mul(t, ps_pow(z, QQ(r)))

    shallow = pipeline(a, b, c)
    deep = pipeline(a10, b10, c10)
    assert deep.order_exponent >= shallow.order_exponent
    assert first_mismatch(deep.truncate(shallow.order_exponent), shallow) is None


@settings(max_examples=200, deadline=None)
@given(series_strategy(), series_strategy())
def test_grid_lcm_after_binary_ops(a, b):
    import math
    g = a.grid // math.gcd(a.grid, b.grid) * b.grid
    assert (a + b).grid == g
    assert ps_mul(a, b).grid == g


def test_a_lead_with_a_zero_rational_part_is_kept():
    a = PuiseuxSeries.make(1, 0, [W, QQ(1), QQ(2)], 3)
    assert (a.lead, a.coefficient(0)) == (0, W)
    s = a + S([(0, 1), (1, -1)], 3)           # (1 + w) + 0*z + 2z^2
    assert (s.lead, s.coefficient(0), s.coefficient(1)) == (0, 1 + W, 0)
    d = s - S([(0, 1)], 3)
    assert (d.lead, d.coefficient(0)) == (0, W)


def test_first_mismatch_cross_multiplies_the_denominators():
    # equal values over the denominators 6 and 10, then different ones
    a = S([(0, rat(1, 2)), (1, rat(1, 3))], 4)
    b = S([(0, rat(1, 2)), (1, rat(1, 5))], 4)
    assert first_mismatch(a, b) == (QQ(1), QQ(1, 3), QQ(1, 5))
    # the numerators 1 and 2 agree over the denominators 2 and 1
    assert first_mismatch(S([(0, rat(1, 2)), (1, 1)], 4), S([(0, 1), (1, 2)], 4)) == \
        (QQ(0), QQ(1, 2), QQ(1))


def test_first_mismatch_reports_exponent_and_values():
    a = S([(0, 1), (1, 2)], 6)
    b = S([(0, 1), (1, 3)], 6)
    hit = first_mismatch(a, b)
    assert hit == (QQ(1), QQ(2), QQ(3))
    with pytest.raises(ValueError):
        first_mismatch(a, b, below=7)


@settings(max_examples=200, deadline=None)
@given(series_strategy().filter(lambda s: not s.is_zero()),
       st.fractions(min_value=-3, max_value=3, max_denominator=12), st.booleans())
def test_shift_is_the_product_by_the_monomial(a, e, omega):
    """The former shift: a times z^e known as far as a's window reaches (a
    zero series has an empty window, on which the monomial cannot be made)."""
    if omega:
        a = a.scale(W + 2)
    got = a.shift(e)
    want = ps_mul(a, PuiseuxSeries.monomial(e, e + a.order_exponent - a.lead_exponent))
    assert_same(got, want)
    assert got.vec == want.vec


def test_shift_moves_the_order_of_a_zero_series():
    z = PuiseuxSeries.zero(rat(5, 2), 2)
    got = z.shift(rat(1, 3))
    assert (got.grid, got.is_zero(), got.order_exponent) == (6, True, rat(17, 6))
