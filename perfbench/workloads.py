"""The four workloads: which checks a pass runs, in what order, and which
program outputs the independent oracles compare after the timed section.

Check ids are listed here rather than read from ``catalog.SUITES``, so that
moving claims between suites or into the catalog does not change the work
a workload measures.  This module imports nothing from ``darboux`` at module
level; the pass worker hands it the imported modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("evaluations", "qseries", "algebra", "controls")

# 3F2 Darboux evaluations on three code paths: the line (a 3F2 composed
# with the degree-24 covering), the Q(w) chart (Omega scalars) and the first
# genus-1 curve's local parameter (curve local expansions, rational-map
# evaluation).  Series kernel: ps_mul and ps_compose.  The negated line chart
# and the second curve run the same code as the line and the first curve.
# Order 40 rather than the criterion orders 64 and 48 keeps a pass near
# 3 CPU seconds, so that a 30-second run holds six or more passes.
EVALUATIONS = (
    ("thm-3A-1", 40),
    ("thm-omega-2", 40),
    ("thm-7Ainf-1", 40),
)

# Modular evaluations at levels 2-7, none with a hypergeometric factor:
# q-products, sparse grid-42/grid-60 powers (ps_pow), Selberg and theta sums,
# Rogers-Ramanujan and quintuple products.  Order 32 rather than the gate
# orders 50-60 keeps a pass near 3 CPU seconds.
QSERIES = tuple((cid, 32) for cid in (
    "j-h7", "h7-x7", "x-xyz-1", "h5-x5", "rr1-prodsum", "j-h2", "j-h3", "j-h4",
    "k1-sum", "quintuple-y1", "eta-pentagonal"))

# Every check that is not a series identity: branching patterns and Belyi
# certificates, covering relations, the 27 divisor statements and the six
# bridges, the torsion audit and the two Klein checks.  The covering relation
# rel-phi3-phi7 (about 3.3 CPU seconds alone) is left out to keep a pass
# near 4 CPU seconds; the other four relations run the same code.
_DIVISOR_ROWS_E7 = ("u", "1-4u", "1-8u", "v-u", "v+u", "F3", "F3t",
                    "F4", "F4t", "G3", "G4", "G3h", "G4h", "Phi7")
_DIVISOR_ROWS_E4 = ("p", "1-p", "w-4p", "w+5p-p2", "1-w+3p", "1+w+3p",
                    "1+7w+35p", "1-7w+35p", "F5", "F6", "F6t", "G5", "Phi4")
ALGEBRA = (
    tuple((f"pattern-{n}", 64) for n in ("phi2", "phi3", "phi4", "phi5", "Phi3",
                                          "Phi7", "Phi4"))
    + tuple((r, 64) for r in ("rel-involution-phi7", "rel-isogeny-curve",
                              "rel-phi3-star", "rel-phi4-isogeny"))
    + tuple((f"div-e7-{n}", 64) for n in _DIVISOR_ROWS_E7)
    + tuple((f"div-e4-{n}", 64) for n in _DIVISOR_ROWS_E4)
    + tuple((f"bridge-{k}", 64) for k in range(1, 7))
    + (("torsion-e4", 64), ("klein-congruence", 40), ("klein-quotient", 40))
)

# Series identities whose single-exponent perturbations make up a controls
# pass: two on the line, the negated line, the first curve and q, one on Q(w)
# and on the second curve, so that specs share chart series the way the full
# 324-control sweep does.  The seed picks which exponent of each spec is
# shifted.
CONTROL_SPECS = (
    "thm-3A-2", "dihedral-2",
    "rewritten-3A-1", "rewritten-3A-2",
    "thm-omega-1",
    "thm-7A-2", "thm-7B-1",
    "thm-4B-2",
    "h7-x7", "level3-eval-1",
)
CONTROL_ORDER = 20
CONTROL_DELTA = (1, 42)

HPG_TERMS = 74          # 3F2/2F1 coefficients compared per parameter set
J_ORDER = 60            # j-expansion compared below q^60


@dataclass
class Op:
    """One operation: a check or a control.  ``run`` returns (ok, detail)."""
    id: str
    run: object
    oracle_keys: tuple = ()


def _atoms(spec):
    for side in (spec.left, spec.right):
        for term in side:
            yield from term.factors


def hpg_key(upper, lower) -> str:
    return "hpg:" + ",".join(str(a) for a in upper) + ";" + ",".join(str(b) for b in lower)


def _check_op(catalog, verifier, cid, order):
    def run():
        rep = catalog.run_check(cid, order)
        return rep.status == "pass", rep.status + (f" {rep.detail}" if rep.detail else "")

    keys = []
    spec = catalog.IDENTITY_BY_ID.get(cid)
    if spec is not None:
        for f in _atoms(spec):
            if isinstance(f, verifier.Hpg):
                keys.append(hpg_key(f.upper, f.lower))
            elif f.name == "j":
                keys.append("j")
    if cid == "pattern-Phi3":
        keys.append("passport")
    return Op(f"{cid}@{order}", run, tuple(sorted(set(keys))))


def _control_op(catalog, verifier, spec, slot):
    def run():
        base = catalog.run_check(spec.id, CONTROL_ORDER)
        if base.status != "pass":
            return False, f"unperturbed spec: {base.status}"
        rep = verifier.verify_identity(verifier.perturb(spec, slot, Fraction(*CONTROL_DELTA)),
                                       CONTROL_ORDER)
        if rep.status != "fail" or rep.first_mismatch is None:
            return False, f"perturbed spec: {rep.status} without a first mismatch"
        if not Fraction(str(rep.first_mismatch.exponent)) < CONTROL_ORDER:
            return False, f"first mismatch at {rep.first_mismatch.exponent}"
        return True, f"first mismatch at {rep.first_mismatch.exponent}"

    side, i, k = slot
    return Op(f"{spec.id}~{side}{i}.{k}@{CONTROL_ORDER}", run)


def build_ops(workload: str, seed: int, catalog, verifier):
    """The operations of one pass, in the seeded order.  Every pass of a run
    gets the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "controls":
        ops = []
        for sid in CONTROL_SPECS:
            spec = catalog.IDENTITY_BY_ID[sid]
            ops.append(_control_op(catalog, verifier, spec,
                                   rng.choice(verifier.exponent_slots(spec))))
    else:
        table = {"evaluations": EVALUATIONS, "qseries": QSERIES, "algebra": ALGEBRA}[workload]
        ops = [_check_op(catalog, verifier, cid, order) for cid, order in table]
    rng.shuffle(ops)
    return ops


def program_outputs(workload: str, darboux):
    """The program outputs the oracles check, as JSON-ready strings.  Called
    after the timed section."""
    if workload == "evaluations":
        out = {}
        for cid, _ in EVALUATIONS:
            for f in _atoms(darboux.catalog.IDENTITY_BY_ID[cid]):
                if isinstance(f, darboux.verifier.Hpg):
                    s = darboux.hypergeom.hpg_series(f.params(), HPG_TERMS)
                    out[hpg_key(f.upper, f.lower)] = {
                        "upper": [str(a) for a in f.upper],
                        "lower": [str(b) for b in f.lower],
                        "coeffs": [str(s.coefficient(k)) for k in range(HPG_TERMS)],
                    }
        return out
    if workload == "qseries":
        s = darboux.modular.qseries("j", J_ORDER)
        return {"j": [str(s.coefficient(e)) for e in range(-1, J_ORDER)]}
    if workload == "algebra":
        phi = darboux.belyi.Phi3_map()
        p = darboux.belyi.branching_pattern(phi)
        return {"passport": {
            "num": [str(phi.num[k]) for k in range(phi.num.degree + 1)],
            "den": [str(phi.den[k]) for k in range(phi.den.degree + 1)],
            "program": [list(p.over0), list(p.over1), list(p.overinf)],
        }}
    return {}
