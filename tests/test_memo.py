"""The one memo: a chart entry, a recipe factor and a covering have the
same value whatever was built before them, so no builder mutates what it got
from the memo, and every key carries what the value depends on."""

import pytest

from darboux import belyi, catalog, ellcurve, verifier
from darboux.catalog import IDENTITY_BY_ID, run_check
from darboux.cli import run_suite
from darboux.modular import qseries
from darboux.polyalg import RationalMap
from darboux.series import PuiseuxSeries, first_mismatch, ps_pow
from darboux.verifier import (
    Hpg,
    Pw,
    Term,
    chart_series,
    expand_terms,
    exponent_slots,
    perturb,
    verify_identity,
)

N = 24


def _build(entries):
    """Each entry as built, copied before a later builder could mutate it."""
    out = {}
    for key in entries:
        s = chart_series(*key, N)
        re, im, d = s.vec
        out[key] = PuiseuxSeries(s.grid, s.lead, (list(re), im and list(im), d), s.order)
    return out


def test_chart_entries_agree_across_build_orders():
    entries = [(chart, name) for chart, builders in verifier._CHARTS.items()
               for name in builders]
    verifier._MEMO.clear()
    first = _build(entries)
    verifier._MEMO.clear()
    assert run_suite("all", 20)["status"] == "pass"
    second = _build(reversed(entries))
    for key in entries:
        assert first[key].order_exponent == second[key].order_exponent, key
        assert first_mismatch(first[key], second[key]) is None, key


def test_q_series_has_one_entry():
    verifier._MEMO.clear()
    s = chart_series("q", "neg_x7", 30)
    assert qseries("neg_x7", 30) is s
    assert qseries("one_minus_x7", 30) is chart_series("q", "one_minus_x7", 30)
    assert [k for k in verifier._MEMO if k[:2] == ("q", "neg_x7")] == [("q", "neg_x7", 30)]


# one spec per chart; dihedral-2 and the specs on s, xw, t7 and t4 carry a
# hypergeometric factor
CONTROL_SPECS = ("dihedral-2", "rewritten-3A-1", "thm-omega-1", "thm-7A-1", "thm-4B-1",
                 "h7-prod")
COVERINGS = (belyi.phi2_map, belyi.phi3_tetrahedral, belyi.phi4_octahedral,
             belyi.phi5_icosahedral, belyi.Phi3_map, belyi.phi3_star, ellcurve.phi7,
             ellcurve.phi4_on_e4)


def _atoms(spec):
    return [f for side in (spec.left, spec.right) for term in side for f in term.factors]


def test_control_specs_cover_every_chart_and_a_hypergeometric_factor():
    specs = [IDENTITY_BY_ID[sid] for sid in CONTROL_SPECS]
    assert {s.chart for s in specs} == set(verifier._CHARTS)
    assert any(isinstance(f, Hpg) for f in _atoms(specs[0]))


@pytest.mark.parametrize("spec_id", CONTROL_SPECS)
def test_control_report_is_the_same_on_a_cold_and_a_warm_memo(spec_id):
    spec = IDENTITY_BY_ID[spec_id]
    for slot in exponent_slots(spec):
        control = perturb(spec, slot)
        verifier._MEMO.clear()
        cold = verify_identity(control, 20).as_dict()
        verifier._MEMO.clear()
        assert verify_identity(spec, 20).ok
        warm = verify_identity(control, 20).as_dict()
        assert cold["status"] == "fail" and cold["first_mismatch"], (slot, cold)
        assert warm == cold, slot


@pytest.mark.parametrize("build", COVERINGS, ids=[b.__name__ for b in COVERINGS])
def test_covering_is_built_once(build):
    first = build()
    assert build() is first
    verifier._MEMO.clear()
    again = build()
    assert again is not first
    if isinstance(first, RationalMap):      # canonical, with no __eq__
        assert (again.num, again.den) == (first.num, first.den)
    else:
        assert again == first
    assert build() is again


def test_factor_keys_end_in_their_target():
    spec = IDENTITY_BY_ID["thm-7A-1"]
    verifier._MEMO.clear()
    for target in (28, 32):
        expand_terms(spec.left, spec.chart, target)
    atoms = [f for term in spec.left for f in term.factors]
    assert {k for k in verifier._MEMO if k[0] == "factor"} == {
        ("factor", f, spec.chart, t) for f in atoms for t in (28, 32)}


def test_a_factor_is_expanded_to_the_target_asked_for():
    spec = IDENTITY_BY_ID["thm-7A-1"]
    verifier._MEMO.clear()
    cold = expand_terms(spec.left, spec.chart, 32)
    verifier._MEMO.clear()
    expand_terms(spec.left, spec.chart, 28)
    warm = expand_terms(spec.left, spec.chart, 32)
    assert warm.order_exponent == cold.order_exponent
    assert first_mismatch(warm, cold) is None


def test_a_factor_is_expanded_in_the_chart_asked_for():
    """The line and the negated line both name 1 - x; x = -s on the second."""
    side = (Term(1, (Pw("one_minus_x", 3),)),)
    verifier._MEMO.clear()
    on_x = expand_terms(side, "x", 24)
    on_s = expand_terms(side, "s", 24)
    assert first_mismatch(on_x, ps_pow(chart_series("x", "one_minus_x", 24), 3)) is None
    assert first_mismatch(on_s, ps_pow(chart_series("s", "one_minus_x", 24), 3)) is None
    assert first_mismatch(on_x, on_s) is not None


# each degree-24 covering on a genus-1 curve, with its divisor row
GENUS1 = (("Phi7", "div-e7-Phi7"), ("Phi4", "div-e4-Phi4"))


def _divisor_calls(monkeypatch):
    """The functions the catalog's verify_divisor is entered with, in order."""
    calls = []
    real = catalog.verify_divisor
    monkeypatch.setattr(catalog, "verify_divisor",
                        lambda curve, f, divisor: calls.append(f) or real(curve, f, divisor))
    return calls


@pytest.mark.parametrize("which, row", GENUS1)
def test_a_covering_divisor_has_one_verdict_in_either_order(monkeypatch, which, row):
    calls = _divisor_calls(monkeypatch)
    pattern = f"pattern-{which}"
    verifier._MEMO.clear()
    forward = {cid: run_check(cid, 20) for cid in (pattern, row)}
    verifier._MEMO.clear()
    backward = {cid: run_check(cid, 20) for cid in (row, pattern)}
    assert forward == backward
    assert forward[pattern].ok and forward[row].ok
    assert len(calls) == 2                  # once on each cleared memo


def test_each_covering_divisor_is_proved_once(monkeypatch):
    calls = _divisor_calls(monkeypatch)
    verifier._MEMO.clear()
    for which, row in GENUS1 + GENUS1:
        assert run_check(f"pattern-{which}", 20).ok
        assert run_check(row, 20).ok
    assert calls == [ellcurve.phi7(), ellcurve.phi4_on_e4()]
    # verify_divisor itself keeps no memo: another statement is proved anew
    wrong = [(place, -c) for place, c in ellcurve.PHI7_DIVISOR]
    assert not ellcurve.verify_divisor(ellcurve.E7, ellcurve.phi7(), wrong).ok
