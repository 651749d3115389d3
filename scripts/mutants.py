#!/usr/bin/env python3
"""Plant known faults in a copy of the checkout and run the tests that must
catch them.

Usage: python scripts/mutants.py

Each entry of ``MUTANTS`` names a file, the exact old text, the new text and
the pytest node ids that must fail once the new text replaces the old.  The
runner copies the checkout to a temporary directory.  It checks that every
old text occurs exactly once in its file, and that every named node passes
on the unchanged copy.  Then it plants one mutant at a time, runs each of
its nodes alone in a pytest process cut after ``LIMIT`` seconds, and puts
the file back.  The children run the hypothesis profile ``PROFILE``, which
``tests/conftest.py`` registers without the shrink phase: a failing example
is reported as found, not shrunk for minutes.  A node cut by the limit
counts as failed, as a loop a fault keeps going can run for ever.  A
mutant is killed when all of its nodes fail.

It prints one line per mutant.  The exit code is 0 when every mutant is
killed, and 1 when a mutant survives, an old text does not occur exactly
once, or a node fails on the unchanged copy.  The script is not part of
tier-1, since it runs each node in a process of its own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 120                 # seconds per node
PROFILE = "mutants"         # the hypothesis profile of every child pytest
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")

_MEMO_KEY = 'memo(("factor", f, chart, target)'
_CONTROLS = "tests/test_memo.py::test_control_report_is_the_same_on_a_cold_and_a_warm_memo"
_TRACE = "tests/test_src_callers.py::test_every_function_is_entered_or_allowed"
_RESULTANT = ["tests/test_polyalg.py::test_resultant_matches_the_sylvester_determinant",
              "tests/test_second_opinion.py::test_resultant_matches_sympy"]
_CROSSOVER = ["tests/test_kernel.py::test_mul_on_both_sides_of_the_crossover",
              "tests/test_kernel.py::test_poly_mul_on_both_sides_of_the_crossover"]
_PRODUCT = "tests/test_modular.py::test_product_matches_the_factor_loop"
_TWO_TORSION = "tests/test_ellcurve.py::test_two_torsion_expansion_matches_the_fixed_point_loop"
_HOMOGENEOUS = ["tests/test_polyalg.py::test_homogeneous_matches_a_sum_of_pair_powers",
                "tests/test_ellcurve.py::test_subst_matches_the_horner_oracle",
                "tests/test_belyi.py::test_cover_relation_phi3_phi7"]

MUTANTS = [
    {"name": "factor memo key without the exponent",
     "file": "src/darboux/verifier.py",
     "old": _MEMO_KEY,
     "new": 'memo(("factor", getattr(f, "name", f), chart, target)',
     "nodes": [f"{_CONTROLS}[{sid}]" for sid in ("dihedral-2", "rewritten-3A-1", "thm-omega-1",
                                                 "thm-7A-1", "thm-4B-1", "h7-prod")]
     + ["tests/test_memo.py::test_chart_entries_agree_across_build_orders"]},
    {"name": "factor memo key without the target",
     "file": "src/darboux/verifier.py",
     "old": _MEMO_KEY,
     "new": 'memo(("factor", f, chart)',
     "nodes": ["tests/test_memo.py::test_factor_keys_end_in_their_target",
               "tests/test_memo.py::test_a_factor_is_expanded_to_the_target_asked_for"]},
    {"name": "factor memo key without the chart",
     "file": "src/darboux/verifier.py",
     "old": _MEMO_KEY,
     "new": 'memo(("factor", f, target)',
     "nodes": ["tests/test_memo.py::test_factor_keys_end_in_their_target",
               "tests/test_memo.py::test_a_factor_is_expanded_in_the_chart_asked_for",
               "tests/test_memo.py::test_chart_entries_agree_across_build_orders"]},
    # a method whose name other classes also define: a scan by name counts it as called
    {"name": "RationalMap.conjugate that nothing calls",
     "file": "src/darboux/polyalg.py",
     "old": "    def eval_series(self, s: PuiseuxSeries) -> PuiseuxSeries:\n"
            "        return ps_div(",
     "new": "    def conjugate(self):\n        return self\n\n"
            "    def eval_series(self, s: PuiseuxSeries) -> PuiseuxSeries:\n"
            "        return ps_div(",
     "nodes": [_TRACE]},
    {"name": "trace without the --spec entry point, which alone enters run_single",
     "file": "tests/test_src_callers.py",
     "old": '    ["--spec", "thm-7A-1", "--order", "8", "--format", "json"],\n',
     "new": "",
     "nodes": [_TRACE]},
    {"name": "resultant without the sign factor",
     "file": "src/darboux/polyalg.py",
     "old": "out = out * (-1) ** (m * n) * q.lc",
     "new": "out = out * q.lc",
     "nodes": _RESULTANT + ["tests/test_polyalg.py::test_resultant_sign_with_the_lower_degree_first"]},
    {"name": "resultant with the power of lc(q) one too high",
     "file": "src/darboux/polyalg.py",
     "old": "q.lc ** (m - r.degree)",
     "new": "q.lc ** (m - r.degree + 1)",
     "nodes": _RESULTANT},
    {"name": "homogeneous Horner one power of q short",
     "file": "src/darboux/polyalg.py",
     "old": "qs[d - k].scale(f[k])",
     "new": "qs[d - k - 1].scale(f[k])",
     "nodes": _HOMOGENEOUS
     + ["tests/test_polyalg.py::test_compose_rational_matches_the_power_lists"]},
    {"name": "homogeneous Horner without v**2 = rhs",
     "file": "src/darboux/polyalg.py",
     "old": "brhs = b * rhs",
     "new": "brhs = b",
     "nodes": _HOMOGENEOUS},
    {"name": "divisor_norm with each pole one order too high",
     "file": "src/darboux/ellcurve.py",
     "old": "den = den * m ** -c",
     "new": "den = den * m ** (1 - c)",
     "nodes": ["tests/test_ellcurve.py::test_divisor_norm_of_the_covering_divisors",
               "tests/test_ellcurve.py::test_phi7_divisor",
               "tests/test_ellcurve.py::test_phi4_divisor"]},
    {"name": "zero-slot cut that reads only re",
     "file": "src/darboux/kernel.py",
     "old": "while n and not re[n - 1] and (im is None or not im[n - 1]):",
     "new": "while n and not re[n - 1]:",
     "nodes": ["tests/test_polyalg.py::test_a_top_coefficient_with_a_zero_rational_part_is_kept"]},
    {"name": "Newton inverse extended as if one more term were known",
     "file": "src/darboux/kernel.py",
     "old": "have = len(y[0])\n",
     "new": "have = len(y[0]) + 1\n",
     "nodes": ["tests/test_polyalg.py::test_one_divisor_for_quotients_of_changing_length",
               "tests/test_polyalg.py::test_divmod_matches_long_division",
               "tests/test_kernel.py::test_div_matches_recurrence"]},
    {"name": "constant divisor that scales by its lc, not by its inverse",
     "file": "src/darboux/polyalg.py",
     "old": "return self.scale(scalar_inv(other.lc)), UniPoly()",
     "new": "return self.scale(other.lc), UniPoly()",
     "nodes": ["tests/test_polyalg.py::test_divmod_by_constants_and_zero",
               "tests/test_polyalg.py::test_ring_ops_match_the_tuple_oracles"]},
    {"name": "first_mismatch comparing numerators over different denominators",
     "file": "src/darboux/series.py",
     "old": "    da, db = a.vec[2], b.vec[2]\n",
     "new": "    da = db = 1\n",
     "nodes": ["tests/test_series.py::test_first_mismatch_cross_multiplies_the_denominators",
               "tests/test_kernel.py::test_first_mismatch_matches_the_tuple_loop"]},
    {"name": "leading-zero strip that reads only re",
     "file": "src/darboux/series.py",
     "old": "while i < len(re) and not re[i] and (im is None or not im[i]):",
     "new": "while i < len(re) and not re[i]:",
     "nodes": ["tests/test_series.py::test_a_lead_with_a_zero_rational_part_is_kept",
               "tests/test_kernel.py::test_add_matches_the_tuple_loop"]},
    {"name": "power denominator one k*q*d factor short",
     "file": "src/darboux/kernel.py",
     "old": "for k in range(len(yr) - 1, 0, -1):",
     "new": "for k in range(len(yr) - 1, 1, -1):",
     "nodes": ["tests/test_series.py::test_pow_binomial_oracle",
               "tests/test_kernel.py::test_pow_matches_recurrence"]},
    {"name": "term-by-term product one slot short in the shorter factor",
     "file": "src/darboux/kernel.py",
     "old": "for i, a in enumerate(x):",
     "new": "for i, a in enumerate(x[:-1]):",
     "nodes": _CROSSOVER + ["tests/test_kernel.py::test_poly_mul_matches_schoolbook"]},
    {"name": "term-by-term Q(w) cross term one im*im short",
     "file": "src/darboux/kernel.py",
     "old": "c - r - 2 * t for",
     "new": "c - r - t for",
     "nodes": _CROSSOVER + ["tests/test_kernel.py::test_mul_matches_convolution"]},
    {"name": "read-back lift that leaves the last slot out",
     "file": "src/darboux/kernel.py",
     "old": "_feet(w, m) << (8 * w - 1)",
     "new": "_feet(w, m - 1) << (8 * w - 1)",
     "nodes": ["tests/test_kernel.py::test_pack_roundtrip_at_slot_limits",
               "tests/test_kernel.py::test_full_slots_near_the_sign_bit",
               "tests/test_kernel.py::test_mul_matches_convolution"]},
    {"name": "multivariate product over one factor's denominator",
     "file": "src/darboux/polyalg.py",
     "old": "MultiPoly._of(out, self.den * other.den)",
     "new": "MultiPoly._of(out, self.den)",
     "nodes": ["tests/test_polyalg.py::test_multipoly_ring_ops_match_the_dict_loops",
               "tests/test_second_opinion.py::test_reduce_mod_matches_sympy_reduced"]},
    {"name": "multivariate reduction without the leading-coefficient scaling",
     "file": "src/darboux/polyalg.py",
     "old": "                if s != 1:\n",
     "new": "                if False:\n",
     "nodes": ["tests/test_polyalg.py::test_reduce_mod_matches_the_dict_loop",
               "tests/test_polyalg.py::test_reduce_mod_by_a_leading_coefficient_of_two",
               "tests/test_second_opinion.py::test_reduce_mod_matches_sympy_reduced"]},
    # both pattern checks would pass on the first covering's report: only
    # the count of verify_divisor calls sees the shared key
    {"name": "covering divisor memo key without the covering",
     "file": "src/darboux/catalog.py",
     "old": 'memo(("divisor", which)',
     "new": 'memo(("divisor",)',
     "nodes": ["tests/test_memo.py::test_each_covering_divisor_is_proved_once"]},
    # (-sigma)^j is -sigma whenever sigma = -1: only a product with a factor
    # 1 + q^k sees the sign that should alternate
    {"name": "q-product log-derivative without the alternating sign",
     "file": "src/darboux/modular.py",
     "old": "(-sigma) ** j",
     "new": "-sigma",
     "nodes": [_PRODUCT, "tests/test_modular.py::test_hauptmodul_products[h2]",
               "tests/test_modular.py::test_lambda_product_form",
               "tests/test_modular.py::test_octahedral_quotient_products"]},
    {"name": "q-product log-derivative without the factor k",
     "file": "src/darboux/modular.py",
     "old": "e * k * (-sigma) ** j",
     "new": "e * (-sigma) ** j",
     "nodes": [_PRODUCT, "tests/test_modular.py::test_eta_product_equals_theta_sum",
               "tests/test_modular.py::test_hauptmodul_products[h7]"]},
    {"name": "2-torsion Newton step that claims two orders more than it doubles to",
     "file": "src/darboux/ellcurve.py",
     "old": "m = min(2 * u.order, n)",
     "new": "m = min(2 * u.order + 2, n)",
     "nodes": [f"{_TWO_TORSION}[E7]", f"{_TWO_TORSION}[E4]"]},
    {"name": "hpg_series suffix product read one slot off",
     "file": "src/darboux/hypergeom.py",
     "old": "slots[k] * dens[k - 1]",
     "new": "slots[k] * dens[k]",
     "nodes": ["tests/test_hypergeom.py::test_hpg_series_matches_the_term_ratio_loop",
               "tests/test_hypergeom.py::test_hpg_series_of_the_catalog_sets_matches_the_loop"]},
    {"name": "composition that lets an outer lead of -1 through",
     "file": "src/darboux/series.py",
     "old": "if a.grid != 1 or a.lead < 0:",
     "new": "if a.grid != 1 or a.lead < -1:",
     "nodes": ["tests/test_series.py::test_compose_negative_exponents"]},
]


def run_nodes(root: Path, nodes, limit) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run of the nodes in
    root, importing the package from root/src and writing no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in [str(root / "src"), os.environ.get("PYTHONPATH", "")] if p))
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               f"--hypothesis-profile={PROFILE}", *nodes],
                              cwd=root, env=env, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def run(root: Path, mutants, limit=LIMIT):
    """One line per problem and per mutant, and whether all were killed."""
    lines, ok = [], True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=IGNORE)
        live = []
        for m in mutants:
            n = (copy / m["file"]).read_text().count(m["old"])
            if n != 1:
                lines.append(f"stale: {m['name']}: old text found {n} times in {m['file']}")
                ok = False
            else:
                live.append(m)
        nodes = sorted({node for m in live for node in m["nodes"]})
        if nodes and run_nodes(copy, nodes, limit * len(nodes)) != "passed":
            lines.append("unmutated: the named nodes do not all pass on the unchanged copy")
            return lines, False
        for m in live:
            path = copy / m["file"]
            text = path.read_text()
            path.write_text(text.replace(m["old"], m["new"]))
            try:
                outcomes = {node: run_nodes(copy, [node], limit) for node in m["nodes"]}
            finally:
                path.write_text(text)
            passed = [node for node, o in outcomes.items() if o == "passed"]
            if passed:
                lines.append(f"survived: {m['name']}: passes {', '.join(passed)}")
                ok = False
            else:
                cut = sum(o == "timeout" for o in outcomes.values())
                lines.append(f"killed: {m['name']}: all {len(outcomes)} nodes fail"
                             + (f", {cut} cut after {limit} s" if cut else ""))
    return lines, ok


def main() -> int:
    lines, ok = run(ROOT, MUTANTS)
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
