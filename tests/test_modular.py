"""q-series catalog tests: pinned leading coefficients, independent
counting oracles, eta-product cross-checks, Klein invariant congruences."""

import pytest

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
