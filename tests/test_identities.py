"""Verification-engine tests: the shipped catalog at moderate order,
perturbation negative controls, unit-lead audits, chart rearrangement
guards, and the candidate-separation re-enactment."""

import sys

import pytest

from darboux.polyalg import RationalMap, poly
from darboux.scalars import QQ, Omega, rat
from darboux.series import PuiseuxSeries, first_mismatch
from darboux.catalog import CHECKS, IDENTITIES, IDENTITY_BY_ID, SUITES, run_check
from darboux.report import INSUFFICIENT
from darboux.verifier import (
    Pw,
    chart_series,
    expand_terms,
    exponent_slots,
    perturb,
    verify_identity,
    verify_radical_candidate_separation,
)
from test_series import conjugate


@pytest.mark.parametrize("spec", IDENTITIES, ids=[s.id for s in IDENTITIES])
def test_identity_passes_at_moderate_order(spec):
    rep = verify_identity(spec, 20)
    assert rep.ok, rep


def test_all_suite_ids_resolve():
    for suite, ids in SUITES.items():
        for cid in ids:
            assert cid in CHECKS, (suite, cid)
    assert set(CHECKS) <= set(SUITES["all"]), set(CHECKS) - set(SUITES["all"])


def test_every_identity_has_a_perturbable_slot():
    for spec in IDENTITIES:
        assert exponent_slots(spec), spec.id


def test_recipe_bases_are_unit_leaded():
    """Every power base must have lead coefficient exactly 1, so any rational
    exponent (including perturbed ones) stays well defined."""
    seen = set()
    for spec in IDENTITIES:
        for side in (spec.left, spec.right):
            for term in side:
                for f in term.factors:
                    if isinstance(f, Pw) and (spec.chart, f.name) not in seen:
                        seen.add((spec.chart, f.name))
                        s = chart_series(spec.chart, f.name, 12)
                        assert not s.is_zero(), (spec.chart, f.name)
                        assert s.coeffs[0] == 1, (spec.chart, f.name, s.coeffs[0])


@pytest.mark.parametrize("spec_id", [
    "thm-3A-1", "thm-7A-3", "thm-4A-3", "thm-omega-2", "K1-product",
    "quintuple-y2", "dihedral-4", "rewritten-3A-2", "sqrt-h2-64",
])
def test_perturbation_fails_with_diagnostic(spec_id):
    spec = IDENTITY_BY_ID[spec_id]
    for slot in exponent_slots(spec):
        bad = perturb(spec, slot)
        rep = verify_identity(bad, 20)
        assert rep.status == "fail", (spec_id, slot)
        assert rep.first_mismatch is not None, (spec_id, slot)


def test_insufficient_order_status():
    rep = verify_identity(IDENTITY_BY_ID["thm-3A-1"], 4)
    assert rep.status == INSUFFICIENT


def test_truncation_stability_of_a_pass():
    # passing at N implies passing at every smaller N
    spec = IDENTITY_BY_ID["thm-3A-1"]
    assert verify_identity(spec, 32).ok
    for n in (8, 12, 24):
        assert verify_identity(spec, n).ok


def test_weight_one_terms_are_not_scaled(monkeypatch):
    # every term of h7-x7 has weight 1, so expand_terms has nothing to scale
    weights = []
    real = PuiseuxSeries.scale

    def spy(self, c):
        if sys._getframe(1).f_code.co_name == "expand_terms":
            weights.append(c)
        return real(self, c)

    monkeypatch.setattr(PuiseuxSeries, "scale", spy)
    assert verify_identity(IDENTITY_BY_ID["h7-x7"], 20).ok
    assert [c for c in weights if c == 1] == []


# ---------------------------------------------------------------------------
# rearrangement guards: the split-off monomial really divides the covering
# ---------------------------------------------------------------------------

def test_unit_rearrangements_are_exact():
    from darboux.belyi import P1_MAPS
    x = poly(0, 1)
    cases = [
        ("phi2", RationalMap(x, poly(64)), RationalMap(poly(1, -1) ** 2, poly(1, 3) ** 3)),
        ("phi3", RationalMap(-x, poly(108)), RationalMap(poly(4, 1) ** 3,
                                                         (poly(1, -2) ** 3).scale(QQ(64)))),
        ("phi4", RationalMap(x, poly(16)), RationalMap(poly(-1, 1) ** 4, poly(1, 14, 1) ** 3)),
        ("phi5", RationalMap(x), RationalMap(poly(1, -11, -1) ** 5,
                                             poly(1, 228, 494, -228, 1) ** 3)),
    ]
    for name, mono, unit in cases:
        p = P1_MAPS[name]()
        full = RationalMap(p.num, p.den * poly(1728))
        split = RationalMap(mono.num * unit.num, mono.den * unit.den)
        assert (full.num, full.den) == (split.num, split.den), name


# ---------------------------------------------------------------------------
# the conjugate-sum sides: rotation support and Galois stability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,residue", [(1, 0), (2, 1), (3, 2)])
def test_omega_rhs_rotation_support(k, residue):
    spec = IDENTITY_BY_ID[f"thm-omega-{k}"]
    s = expand_terms(spec.right, spec.chart, 24)
    for e, c in s.terms():
        assert e.denominator == 1 and int(e) % 3 == residue, (e, c)


def test_omega_rhs_trace_is_rational():
    spec = IDENTITY_BY_ID["thm-omega-1"]
    s = expand_terms(spec.right, spec.chart, 24)
    tr = s + conjugate(s)
    for _, c in tr.terms():
        assert not isinstance(c, Omega) or not c.b, c


def test_omega_candidate_product_is_rational():
    # the product of the three conjugate radical terms is (1 - x^3)^(1/2)
    from darboux.series import ps_mul, ps_pow
    n = 24
    parts = []
    for exps in ((rat(-1, 42), rat(5, 42), rat(17, 42)),
                 (rat(5, 42), rat(17, 42), rat(-1, 42)),
                 (rat(17, 42), rat(-1, 42), rat(5, 42))):
        t = None
        for name, e in zip(("one_minus_x", "one_minus_wx", "one_minus_w2x"), exps):
            f = ps_pow(chart_series("xw", name, n), e)
            t = f if t is None else ps_mul(t, f)
        parts.append(t)
    prod = ps_mul(ps_mul(parts[0], parts[1]), parts[2])
    cube = poly(1, 0, 0, -1).eval_series(chart_series("xw", "x", n))
    assert first_mismatch(prod, ps_pow(cube, rat(1, 2))) is None


def test_conjugated_identity_also_passes():
    # applying the Galois automorphism to every ingredient of an omega spec
    # yields the conjugate identity, which must pass as well
    spec = IDENTITY_BY_ID["thm-omega-2"]
    lhs = conjugate(expand_terms(spec.left, spec.chart, 20))
    rhs = conjugate(expand_terms(spec.right, spec.chart, 20))
    assert first_mismatch(lhs, rhs) is None


# ---------------------------------------------------------------------------
# candidate separation
# ---------------------------------------------------------------------------

def test_separation_3a():
    rep = verify_radical_candidate_separation("3A")
    assert rep.ok, rep


def test_separation_3b():
    rep = verify_radical_candidate_separation("3B")
    assert rep.ok, rep
    assert "(1-3x)" in rep.detail


def test_separation_unknown_family():
    with pytest.raises(KeyError):
        verify_radical_candidate_separation("5X")


# ---------------------------------------------------------------------------
# assorted non-series checks through the shared runner
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cid", sorted(set(CHECKS) - set(IDENTITY_BY_ID)))
def test_callable_checks_pass(cid):
    rep = run_check(cid, 16)
    assert rep.ok, rep
