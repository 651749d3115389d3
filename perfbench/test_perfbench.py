"""Tests of the benchmark's own code: the oracles reject corrupted program
outputs, the speed probe scales work as documented, the tracer's counts
repeat exactly, its derived counters match a direct count, and the command
refuses a directory without the program.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from darboux import belyi, modular  # noqa: E402
from darboux.hypergeom import HpgParams, hpg_series  # noqa: E402
from darboux.series import PuiseuxSeries, first_mismatch, ps_mul  # noqa: E402


def _corrupt(values, k):
    out = list(values)
    out[k] = str(Fraction(out[k]) + 1)
    return out


def test_hpg_oracle_accepts_program_and_rejects_corruption():
    upper, lower = ("-1/42", "13/42", "9/14"), ("4/7", "6/7")
    s = hpg_series(HpgParams(tuple(map(Fraction, upper)), tuple(map(Fraction, lower))), 30)
    out = {"upper": list(upper), "lower": list(lower),
           "coeffs": [str(s.coefficient(k)) for k in range(30)]}
    assert oracles.check_hpg(out) is None
    bad = dict(out, coeffs=_corrupt(out["coeffs"], 17))
    assert "coefficient 17" in oracles.check_hpg(bad)


def test_j_oracle_accepts_program_and_rejects_corruption():
    s = modular.qseries("j", 20)
    coeffs = [str(s.coefficient(e)) for e in range(-1, 20)]
    assert oracles.check_j(coeffs) is None
    assert "q^11" in oracles.check_j(_corrupt(coeffs, 12))


def test_passport_oracle_accepts_program_and_rejects_corruption():
    phi = belyi.Phi3_map()
    p = belyi.branching_pattern(phi)
    out = {"num": [str(phi.num[k]) for k in range(phi.num.degree + 1)],
           "den": [str(phi.den[k]) for k in range(phi.den.degree + 1)],
           "program": [list(p.over0), list(p.over1), list(p.overinf)]}
    assert oracles.check_passport(out) is None
    assert "sympy fibers" in oracles.check_passport(dict(out, num=_corrupt(out["num"], 5)))
    wrong = [list(p.over0), list(p.overinf), list(p.over1)]
    assert "program fibers" in oracles.check_passport(dict(out, program=wrong))


def test_speed_probe_scales_work_by_the_reference_over_the_probe(monkeypatch):
    # a machine on which the probe takes half its reference time
    monkeypatch.setattr(worker, "probe", lambda: worker.PROBE_REF_S / 2)
    with worker.SpeedProbe(timer=True) as sp:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.35:
            pass
    assert sp.probes >= 2                       # the timer fired inside the work
    assert sp.raw_s == pytest.approx(0.35, abs=0.05)
    assert sp.scaled_s == pytest.approx(2 * sp.raw_s)


def _series(rng, grid):
    lead = rng.randint(-2, 3)
    n = rng.randint(0, 9)
    coeffs = [Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3)) for _ in range(n)]
    return PuiseuxSeries.make(grid, lead, coeffs, lead + n)


def test_term_products_matches_a_direct_count():
    rng = random.Random(7)
    for _ in range(300):
        a, b = _series(rng, rng.choice([1, 2, 3])), _series(rng, rng.choice([1, 2, 6]))
        g = tracer._lcm(a.grid, b.grid)
        ra, rb = a.to_grid(g), b.to_grid(g)
        want = 0
        if ra.coeffs and rb.coeffs:
            n = ps_mul(a, b).order - (ra.lead + rb.lead)
            for i, ca in enumerate(ra.coeffs):
                for j, cb in enumerate(rb.coeffs):
                    want += bool(ca and cb and i + j < n)
        assert tracer.term_products(a, b) == want


def test_coeffs_compared_counts_the_window_up_to_the_first_mismatch():
    a = PuiseuxSeries.make(1, 0, [Fraction(1)] * 10, 10)
    b = PuiseuxSeries.make(2, 0, [Fraction(1), 0] * 4 + [Fraction(5), 0], 10)
    hit = first_mismatch(a, b)
    assert hit is not None and hit[0] == 4
    assert tracer.coeffs_compared(a, b, None, hit) == 9      # grid-2 indices 0..8
    assert tracer.coeffs_compared(a, a, 7, first_mismatch(a, a, below=7)) == 7


_TRACED_PASS = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import darboux.catalog
from tracer import Tracer
t = Tracer()
t.install(darboux)
for i, cid in enumerate(["thm-omega-2", "j-h2", "rel-phi3-star", "div-e7-F3"]):
    tok = t.begin_op(i, cid)
    assert darboux.catalog.run_check(cid, 16).ok
    t.end_op(tok)
t.uninstall()
print(json.dumps({{k: v for k, v in t.metrics().items() if not k.endswith("_s")}}))
"""


def test_traced_counts_repeat_exactly():
    code = _TRACED_PASS.format(here=HERE, src=os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONHASHSEED="0")
    runs = [json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      stdout=subprocess.PIPE, text=True).stdout)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["scalars.ops"] > 0
    assert runs[0]["verifier.verify_identity.calls"] == 2
    assert runs[0]["belyi.verify_cover_relation.calls"] == 1
    assert runs[0]["ellcurve.verify_divisor.calls"] == 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    import workloads
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "verify_s", "peak_rss_mb"]
    names = list(tracer.Tracer().metrics()) + ["catalog.import_s"]
    assert [m["name"] for m in bench["per_layer"]] == names
    assert all(m["unit"] == tracer.unit(m["name"]) for m in bench["per_layer"])
