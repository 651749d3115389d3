"""Acceptance gate: every exit criterion at its stated order.

All comparisons are exact (tolerance 0); "order N" means every Puiseux
exponent below N on the relevant grid.  Each criterion prints a single
pass line when it holds; a failure surfaces as an ordinary assertion.
"""

import random
import time

from darboux.scalars import QQ
from darboux.series import PuiseuxSeries, first_mismatch, ps_compose, ps_div, ps_mul, ps_pow
from darboux.belyi import Phi3_map, branching_pattern, pattern, rh_genus
from darboux.catalog import IDENTITIES, run_check
from darboux.ellcurve import E4, E7, cf, torsion_audit
from darboux.verifier import exponent_slots, perturb, verify_identity
from test_belyi import passport


def _announce(k, label):
    print(f"[acceptance] criterion {k}: PASS ({label})")


def _run_all(ids, order):
    for cid in ids:
        rep = run_check(cid, order)
        assert rep.ok, (cid, rep)


def test_criterion_01_branching():
    t0 = time.monotonic()
    p = branching_pattern(Phi3_map())
    assert passport(p) == ((7, 7, 7, 1, 1, 1), (3,) * 8, (2,) * 12)
    assert p.over0 == (7, 7, 7, 1, 1, 1)
    assert rh_genus(p) == 0
    assert rh_genus(pattern([7, 7, 7, 1, 1, 1], [2] * 12, [4] * 6)) == 1
    assert rh_genus(pattern([7, 7, 7, 1, 1, 1], [2] * 12, [7, 7, 7, 1, 1, 1])) == 1
    dt = time.monotonic() - t0
    assert dt < 1.0, f"{dt:.2f}s"
    _announce(1, f"branching patterns and genera, {dt:.2f}s")


def test_criterion_02_covering_relations():
    t0 = time.monotonic()
    _run_all(["rel-phi3-phi7", "rel-phi4-isogeny"], 64)
    dt = time.monotonic() - t0
    assert dt < 5.0, f"{dt:.2f}s"
    _announce(2, f"exact function-field covering relations, {dt:.2f}s")


def test_criterion_03_divisor_tables():
    t0 = time.monotonic()
    ids = [f"div-e7-{n}" for n in ("u", "1-4u", "1-8u", "v-u", "v+u", "F3", "F3t",
                                   "F4", "F4t", "G3", "G4", "G3h", "G4h")]
    ids += [f"div-e4-{n}" for n in ("p", "1-p", "w-4p", "w+5p-p2", "1-w+3p", "1+w+3p",
                                    "1+7w+35p", "1-7w+35p", "F5", "F6", "F6t", "G5")]
    ids += ["div-e7-Phi7", "div-e4-Phi4"]
    assert len(ids) == 13 + 12 + 2
    _run_all(ids, 64)
    dt = time.monotonic() - t0
    assert dt < 10.0, f"{dt:.2f}s"
    _announce(3, f"all 27 divisor statements, {dt:.2f}s")


def test_criterion_04_genus0_evaluations():
    t0 = time.monotonic()
    _run_all(["thm-3A-1", "thm-3A-2", "thm-3A-3",
              "thm-3B-1", "thm-3B-2", "thm-3B-3"], 64)
    _run_all(["thm-omega-1", "thm-omega-2", "thm-omega-3"], 48)
    dt = time.monotonic() - t0
    assert dt < 30.0, f"{dt:.2f}s"
    _announce(4, f"six line evaluations at 64 and three Q(w) sums at 48, {dt:.2f}s")


def test_criterion_05_genus1_evaluations():
    t0 = time.monotonic()
    nine = ["thm-7A-1", "thm-7A-2", "thm-7A-3",
            "thm-7Ainf-1", "thm-7Ainf-2", "thm-7Ainf-3",
            "thm-7B-1", "thm-7B-2", "thm-7B-3"]
    six = ["thm-4B-1", "thm-4B-2", "thm-4B-3", "thm-4A-1", "thm-4A-2", "thm-4A-3"]
    _run_all(nine + six, 64)
    dt = time.monotonic() - t0
    assert dt < 60.0, f"{dt:.2f}s"
    _announce(5, f"fifteen curve evaluations at 64 local steps, {dt:.2f}s")


def test_criterion_06_transformations():
    t0 = time.monotonic()
    _run_all(["t32a-quadratic", "t32b-cubic", "t32c-cubic",
              "dihedral-1", "dihedral-2", "dihedral-3", "dihedral-4",
              "tetra-2", "tetra-3", "icosa-1", "icosa-2"], 64)
    dt = time.monotonic() - t0
    _announce(6, f"transformations and radical pairs at 64, {dt:.2f}s")


def test_criterion_07_klein_invariants():
    t0 = time.monotonic()
    _run_all(["klein-congruence", "klein-quotient", "klein-quotient-q"], 40)
    dt = time.monotonic() - t0
    assert dt < 30.0, f"{dt:.2f}s"
    _announce(7, f"invariant congruence and cyclic quotient, {dt:.2f}s")


def test_criterion_08_level7_chain():
    t0 = time.monotonic()
    _run_all(["r4-xyz-zero", "x7-coefficients", "h7-x7", "j-h7", "j-phi3-x7",
              "h7-R6", "K1-product", "K2-product", "K3-product"], 50)
    dt = time.monotonic() - t0
    _announce(8, f"level-7 modular chain at 50, {dt:.2f}s")


def test_criterion_09_level5_chain():
    t0 = time.monotonic()
    _run_all(["h5-x5", "j-phi5-x5", "rr1-product", "rr2-product",
              "rr1-prodsum", "rr2-prodsum"], 60)
    dt = time.monotonic() - t0
    _announce(9, f"level-5 chain and Rogers-Ramanujan forms at 60, {dt:.2f}s")


def test_criterion_10_low_levels():
    t0 = time.monotonic()
    _run_all(["dihb-1", "dihb-2", "tetr-1", "tetr-2", "octa-1", "octa-2",
              "j-h2", "h2-lambda", "sqrt-h2-64", "level2-eval-1", "level2-eval-2",
              "j-h3", "level3-eval-1", "level3-eval-2",
              "j-h4", "h4-plus-16-eta", "level4-eval-1", "level4-eval-2",
              "e4-classical-1", "e4-classical-2", "lambda-eta-product"], 50)
    dt = time.monotonic() - t0
    _announce(10, f"levels 2/3/4 displays at 50, {dt:.2f}s")


def test_criterion_11_selberg_theta():
    t0 = time.monotonic()
    _run_all(["k1-sum", "k3-sum", "kratio-32", "kratio-21", "kratio-13",
              "quintuple-y1", "quintuple-y2", "quintuple-y3"], 60)
    dt = time.monotonic() - t0
    _announce(11, f"Selberg sums, theta quotients and quintuple products at 60, {dt:.2f}s")


def test_criterion_12_torsion():
    rep = torsion_audit(E4)
    assert rep["ok"] and rep["torsion_group"] == "Z/6Z"
    assert rep["order_of_(1,4)"] == 6
    assert rep["rational_4_torsion_slopes"] == []
    _announce(12, "rational torsion of the second curve is exactly Z/6Z")


def test_criterion_13_negative_controls():
    t0 = time.monotonic()
    total = 0
    for spec in IDENTITIES:
        for slot in exponent_slots(spec):
            total += 1
            rep = verify_identity(perturb(spec, slot), 20)
            assert rep.status == "fail", (spec.id, slot, rep)
            assert rep.first_mismatch is not None, (spec.id, slot)
    assert total >= len(IDENTITIES)
    dt = time.monotonic() - t0
    _announce(13, f"{total} single-exponent perturbations all fail with diagnostics, {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 14: randomized property suites, >= 200 cases each
# ---------------------------------------------------------------------------

def _rand_series(rng, unit=False, min_lead=-3, grid_max=3):
    grid = rng.randint(1, grid_max)
    lead = 0 if unit else rng.randint(min_lead, 3)
    n = rng.randint(4, 9)
    coeffs = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    if unit:
        coeffs[0] = QQ(1)
    return PuiseuxSeries.make(grid, lead, coeffs, lead + n)


def test_criterion_14_property_suites():
    rng = random.Random(20260811)
    cases = 200

    for _ in range(cases):
        a, b, c = (_rand_series(rng) for _ in range(3))
        assert a + b == b + a
        assert ps_mul(a, b) == ps_mul(b, a)
        assert (a + b) + c == a + (b + c)
        assert first_mismatch(ps_mul(ps_mul(a, b), c), ps_mul(a, ps_mul(b, c))) is None
        assert first_mismatch(ps_mul(a, b + c), ps_mul(a, b) + ps_mul(a, c)) is None

    for _ in range(cases):
        a = _rand_series(rng, unit=True)
        r = QQ(rng.randint(-6, 6), rng.randint(1, 5))
        s = QQ(rng.randint(-6, 6), rng.randint(1, 5))
        assert first_mismatch(ps_mul(ps_pow(a, r), ps_pow(a, s)), ps_pow(a, r + s)) is None

    for _ in range(cases):
        a = _rand_series(rng, min_lead=0, grid_max=1)
        bs = []
        for _ in range(2):
            lead = rng.randint(1, 2)
            n = rng.randint(4, 8)
            coeffs = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            coeffs[0] = QQ(rng.choice([1, -1, 2]))
            bs.append(PuiseuxSeries.make(1, lead, coeffs, lead + n))
        b, c = bs
        lhs = ps_compose(ps_compose(a, b), c)
        rhs = ps_compose(a, ps_compose(b, c))
        assert first_mismatch(lhs, rhs) is None

    for _ in range(cases):
        f = cf(E7, tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))),
               (rng.randint(-3, 3),))
        g = cf(E7, tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))),
               (rng.randint(-3, 3),))
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).norm_map() == f.norm_map() * g.norm_map()

    pad = 10
    for _ in range(cases):
        data = []
        for unit in (False, True, True):
            lead = 0 if unit else rng.randint(-2, 2)
            n = rng.randint(4, 7)
            coeffs = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n + pad)]
            if unit:
                coeffs[0] = QQ(1)
            data.append((PuiseuxSeries.make(1, lead, coeffs[:n], lead + n),
                         PuiseuxSeries.make(1, lead, coeffs, lead + n + pad)))
        (a, a10), (b, b10), (c, c10) = data
        r = QQ(rng.randint(-2, 2), rng.randint(1, 4))

        def pipe(x, y, z):
            return ps_mul(ps_mul(x, y) + ps_div(y, z), ps_pow(z, r))

        shallow = pipe(a, b, c)
        deep = pipe(a10, b10, c10)
        assert deep.order_exponent >= shallow.order_exponent
        assert first_mismatch(deep.truncate(shallow.order_exponent), shallow) is None

    _announce(14, f"five property suites, {cases} randomized cases each")


def test_end_to_end_full_suite_under_budget():
    from darboux.cli import run_suite
    t0 = time.monotonic()
    doc = run_suite("all", 64)
    dt = time.monotonic() - t0
    assert doc["status"] == "pass", [r for r in doc["results"] if r["status"] != "pass"]
    assert dt < 300.0, f"{dt:.1f}s"
    print(f"[acceptance] end-to-end: PASS (all {len(doc['results'])} checks at order 64 "
          f"in {dt:.1f}s)")
