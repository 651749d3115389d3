"""q-series catalog tests: pinned leading coefficients, independent
counting oracles, eta-product cross-checks, Klein invariant congruences."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from darboux import modular
from darboux.catalog import run_check
from darboux.scalars import QQ, rat
from darboux.series import PuiseuxSeries, first_mismatch, ps_mul
from darboux.modular import (
    REMARK_COVERINGS,
    klein_R4,
    klein_R6,
    klein_R14,
    klein_R21,
    klein_invariant_congruence,
    qseries,
    verify_quotient_curve,
)


def partitions_into(parts, n):
    """Oracle: number of partitions of n with parts from the given set."""
    table = [1] + [0] * n
    for p in sorted(parts):
        for v in range(p, n + 1):
            table[v] += table[v - p]
    return table[n]


def ref_product(n, factors, grid=1):
    """Oracle: the product factor by factor, one pass over the list for each
    unit of |e| of each factor (1 + sigma q^k)^e."""
    c = [1] + [0] * (n * grid - 1)
    for k, sigma, e in factors:
        if k <= 0:
            raise ValueError("factor exponent must be positive")
        for _ in range(max(e, 0)):
            for i in range(len(c) - 1, k - 1, -1):
                c[i] += sigma * c[i - k]
        for _ in range(max(-e, 0)):
            for i in range(k, len(c)):
                c[i] -= sigma * c[i - k]
    return PuiseuxSeries(grid, 0, (c, None, 1), n * grid)


def divisor_sum_series(n, power, scale):
    """Oracle: 1 + scale * sum sigma_power(m) q^m from Fraction divisor sums."""
    coeffs = [Fraction(1)] + [
        scale * sum(Fraction(d) ** power for d in range(1, m + 1) if m % d == 0)
        for m in range(1, n)]
    return PuiseuxSeries.make(1, 0, coeffs, n)


# ---------------------------------------------------------------------------
# the q-product routine
# ---------------------------------------------------------------------------

@st.composite
def product_args(draw):
    n = draw(st.integers(1, 60))
    grid = draw(st.sampled_from([1, 2]))
    ks = st.integers(1, 3) | st.integers(1, n * grid + 3)
    factors = draw(st.lists(st.tuples(ks, st.sampled_from([1, -1]), st.integers(-30, 30)),
                            max_size=10))
    return n, factors, grid


@settings(deadline=None)
@given(product_args())
def test_product_matches_the_factor_loop(args):
    n, factors, grid = args
    got, want = modular._product(n, factors, grid), ref_product(n, factors, grid)
    assert (got.vec, got.lead, got.order, got.grid) == (want.vec, want.lead, want.order,
                                                        want.grid)


@pytest.mark.parametrize("k", [0, -3])
def test_product_rejects_a_factor_exponent_below_one(k):
    with pytest.raises(ValueError, match="factor exponent"):
        modular._product(5, [(2, -1, 1), (k, 1, 0)])


def test_product_raises_on_a_coefficient_that_is_not_an_integer():
    # (1 - q)^(1/2) = 1 - q/2 - ...: the recurrence must not round it
    with pytest.raises(ArithmeticError, match="coefficient 1"):
        modular._product(4, [(1, -1, Fraction(1, 2))])


@pytest.mark.parametrize("name,power,scale", [("E4", 3, 240), ("E6", 5, -504)])
def test_eisenstein_series_match_the_divisor_sums(name, power, scale):
    n = 40
    got, want = qseries(name, n), divisor_sum_series(n, power, scale)
    assert (got.vec, got.lead, got.order, got.grid) == (want.vec, want.lead, want.order,
                                                        want.grid)


@pytest.mark.parametrize("name,k", [("h2", 1), ("h2", 9), ("h7", 1), ("h7", 5), ("h7", 14)])
def test_a_raised_factor_exponent_breaks_the_product_form(monkeypatch, name, k):
    # the catalog's own factor list with the first factor at q^k raised by
    # one: the product gains a factor 1 + sigma q^k, so it first differs
    # from the eta quotient at q^k, that is q^(k-1) after the shift by -1
    product = modular._product

    def raised(n, factors, grid=1):
        listed = list(factors)
        i = next(i for i, f in enumerate(listed) if f[0] == k)
        kk, sigma, e = listed[i]
        listed[i] = (kk, sigma, e + 1)
        return product(n, listed, grid)

    n = 20
    build = modular._builders()[name + "_prod"]
    eta = qseries(name, n)
    assert first_mismatch(build(n), eta) is None
    monkeypatch.setattr(modular, "_product", raised)
    mismatch = first_mismatch(build(n), eta)
    assert mismatch is not None and mismatch[0] == k - 1


# ---------------------------------------------------------------------------
# j and friends
# ---------------------------------------------------------------------------

def test_j_leading_coefficients():
    j = qseries("j", 3)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760


def test_inverse_j_series():
    s = qseries("x1728_over_j", 4)
    assert s.coefficient(1) == 1728
    assert s.coefficient(2) == -1285632            # -744 * 1728
    j = qseries("j", 6)
    assert first_mismatch(ps_mul(s, j), PuiseuxSeries.const(QQ(1728), 4)) is None


def test_discriminant_is_eta_to_24():
    # (E4^3 - E6^2)/1728 == eta(tau)^24: two fully independent routes
    assert run_check("disc-eta24", 30).ok


def test_eta_product_equals_theta_sum():
    n = 60
    assert first_mismatch(qseries("eta", n), qseries("eta_theta", n)) is None


# ---------------------------------------------------------------------------
# Hauptmodul product forms vs eta quotients (catalog checks)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["h2", "h3", "h4", "h5", "h7"])
def test_hauptmodul_products(name):
    assert run_check(name + "-prod", 30).ok


def test_h4_plus_16_routes():
    assert run_check("h4-plus-16-eta", 30).ok
    assert run_check("h4-plus-16-prod", 30).ok


def test_lambda_product_form():
    n = 24
    assert first_mismatch(qseries("lam16", n), qseries("lam16_prod", n)) is None
    lam = qseries("lam16", 6).scale(QQ(16))
    assert lam.lead_exponent == rat(1, 2)
    assert lam.coefficient(rat(1, 2)) == 16


def test_octahedral_quotient_products():
    assert run_check("octa1-prod", 30).ok
    assert run_check("octa2-prod", 30).ok


# ---------------------------------------------------------------------------
# integrality audit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,lead", [
    ("j", -1), ("h2", -1), ("h3", -1), ("h4", -1), ("h5", -1), ("h7", -1),
    ("x5", 1), ("neg_x7", 1),
])
def test_integer_coefficients(name, lead):
    s = qseries(name, 25)
    assert s.lead_exponent == lead
    for _, c in s.terms():
        assert QQ(c).denominator == 1, (name, c)


@pytest.mark.parametrize("name,lead", [
    ("K1", rat(-1, 42)), ("K2", rat(5, 42)), ("K3", rat(17, 42)),
])
def test_k_products_integral_after_lead(name, lead):
    s = qseries(name, 20)
    assert s.lead_exponent == lead
    for e, c in s.terms():
        assert (e - lead).denominator == 1
        assert QQ(c).denominator == 1


# ---------------------------------------------------------------------------
# level 7 objects
# ---------------------------------------------------------------------------

def test_x7_leading_coefficients():
    m = qseries("neg_x7", 6)
    # x7 = -q + 2q^2 - 5q^4 + 4q^5 + O(q^6), stored negated
    assert [-m.coefficient(k) for k in range(1, 6)] == [-1, 2, 0, -5, 4]


def test_klein_forms_satisfy_r4():
    assert run_check("r4-xyz-zero", 30).ok


def test_k_products_vs_partition_oracle():
    n = 25
    k1 = qseries("K1", n)
    for v in range(n - 1):
        want = partitions_into([m for m in range(1, v + 1) if m % 7 in (1, 2, 5, 6)], v)
        assert k1.coefficient(QQ(v) + rat(-1, 42)) == want


def test_theta_numerator_is_eta7_product():
    n = 60
    assert first_mismatch(qseries("theta7", n), qseries("eta7_prod", n)) is None


# ---------------------------------------------------------------------------
# level 5 objects
# ---------------------------------------------------------------------------

def test_rr_product_partition_oracle():
    n = 20
    rr1 = qseries("rr1_prod", n)
    assert rr1.coefficient(QQ(4) + rat(-1, 60)) == 2     # 4, 1+1+1+1
    for v in range(n - 1):
        want = partitions_into([m for m in range(1, v + 1) if m % 5 in (1, 4)], v)
        assert rr1.coefficient(QQ(v) + rat(-1, 60)) == want


def test_rr_sum_equals_product_small():
    n = 40
    assert first_mismatch(qseries("rr1_prod", n), qseries("rr1_sum", n)) is None
    assert first_mismatch(qseries("rr2_prod", n), qseries("rr2_sum", n)) is None


# ---------------------------------------------------------------------------
# Klein invariants
# ---------------------------------------------------------------------------

def test_invariant_degrees():
    assert klein_R4().total_degree() == 4
    assert klein_R6().total_degree() == 6
    assert klein_R14().total_degree() == 14
    assert klein_R21().total_degree() == 21
    assert (klein_R21() * klein_R21()).total_degree() == 42


def test_klein_congruence():
    assert klein_invariant_congruence().ok


def test_quotient_curve():
    assert verify_quotient_curve().ok
    assert run_check("klein-quotient-q", 30).ok


def test_remark_covering_genus_audit(monkeypatch):
    assert run_check("remark-coverings", 8).ok
    wrong = dict(REMARK_COVERINGS[1], genus=72)
    monkeypatch.setattr(modular, "REMARK_COVERINGS", (REMARK_COVERINGS[0], wrong))
    rep = run_check("remark-coverings", 8)
    assert rep.status == "fail" and "genus 73, stated 72" in rep.detail
