"""The series memo: a chart entry has the same value and order whatever
was built before it, so no builder mutates a series it got from the memo."""

from darboux import verifier
from darboux.cli import run_suite
from darboux.modular import qseries
from darboux.series import PuiseuxSeries, first_mismatch
from darboux.verifier import chart_series

N = 24


def _build(entries):
    """Each entry as built, copied before a later builder could mutate it."""
    out = {}
    for key in entries:
        s = chart_series(*key, N)
        out[key] = PuiseuxSeries(s.grid, s.lead, s.coeffs, s.order)
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
