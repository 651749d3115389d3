"""Charts, the shipped identity catalog, the check registry, and the suite map.

``CHECKS`` is the one registry of claims: each check, series identity or
not, is registered once with its citation anchor, so a failing run names the
exact display it contradicts; check bodies return unlabelled reports.
Chart entries are exact series builders; recipe bases are arranged to have
unit lead coefficient (scalar radical prefactors cancel between the two
sides by construction), so any rational exponent, including a perturbed
one, stays well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modular
from .belyi import (
    COVERINGS,
    P1_MAPS,
    Phi3_map,
    belyi_certify,
    branching_pattern,
    genus1_fiber_one_square,
    pattern,
    phi2_map,
    phi3_star,
    phi3_star_parts,
    phi3_tetrahedral,
    phi4_octahedral,
    phi5_icosahedral,
    rh_genus,
    rh_genus_cover,
    verify_cover_relation,
    RELATION_IDS,
)
from .ellcurve import (
    E4,
    E7,
    PHI4_DIVISOR,
    PHI7_DIVISOR,
    TABLE1,
    TABLE2,
    CurveFunction,
    PlaceCluster,
    cf,
    divisor_norm,
    phi4_on_e4,
    phi7,
    torsion_audit,
    verify_divisor,
    AffinePoint,
)
from .hypergeom import (
    CLASSES,
    companion_basis,
    galois_conjugates,
    hpg_coefficient,
    hpg_series,
    interlacing_check,
    ode_residual,
    shift_down,
    solution_series,
)
from .polyalg import RationalMap, poly
from .report import Mismatch, failed, passed
from .scalars import QQ, ONE, Omega, W, rat
from .series import PuiseuxSeries, first_mismatch
from .verifier import Hpg, IdentitySpec, Pw, Term, memo, register_chart, verify_identity
from .verifier import _hpg_side_dlog, _product_dlog

q = rat


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def _mono(n, sign=ONE):
    return PuiseuxSeries.monomial(QQ(1), n, sign)


def _poly_entry(*coeffs, sign=ONE):
    """Builder of p(sign*x) for the polynomial p with these coefficients."""
    p = poly(*coeffs)
    return lambda n: p.eval_series(_mono(n, sign))


def _map_entry(make_map, sign=ONE):
    """Builder of phi(sign*x), from sign*x known below x^(n+4)."""
    return lambda n: make_map().eval_series(_mono(n + 4, sign)).truncate(n)


def _x_chart():
    b = {
        "x": _mono,
        "one_minus_x": _poly_entry(1, -1),
        "one_plus_x": _poly_entry(1, 1),
        "one_minus_2x": _poly_entry(1, -2),
        "one_plus_2x": _poly_entry(1, 2),
        "one_minus_4x": _poly_entry(1, -4),
        "one_minus_x_over_4": _poly_entry(1, q(-1, 4)),
        "one_plus_x_over_4": _poly_entry(1, q(1, 4)),
        "one_minus_11x_x2": _poly_entry(1, -11, -1),
        "F1": _poly_entry(1, 5, -8, 1),
        "G0": _poly_entry(1, -1, 1),
        "G1": _poly_entry(1, -235, 1430, -1695, 270, 229, 1),
        "pre_3B_1": _poly_entry(1, -3),
        "pre_3B_2": _poly_entry(1, q(-2, 3)),
        "pre_3B_3": _poly_entry(1, q(1, 2)),
        "pre_contig": _poly_entry(1, q(-52, 9), q(43, 3), q(-16, 3), q(1, 9)),
        "x_squared": lambda n: PuiseuxSeries.monomial(QQ(2), n),
        "Phi3": _map_entry(Phi3_map),
        "phi5": _map_entry(phi5_icosahedral),
        "phi2": _map_entry(phi2_map),
        "phi3t": _map_entry(phi3_tetrahedral),
        "phi4o": _map_entry(phi4_octahedral),
        "arg_tetra3": _map_entry(lambda: RationalMap(poly(0, 1) * poly(2, 1) ** 3,
                                                     poly(1, 2) ** 3)),
        "arg_t32a": _map_entry(lambda: RationalMap(poly(0, -4), poly(-1, 1) ** 2)),
        "arg_t32b": _map_entry(lambda: RationalMap(poly(0, 27), poly(-1, 4) ** 3)),
        "arg_t32c": _map_entry(lambda: RationalMap(poly(0, 0, 27), poly(4, -1) ** 3)),
        "arg_dihe": _map_entry(lambda: RationalMap(poly(0, 0, 1), poly(-1, 0, 1))),
        # unit parts of phi/1728 after the monomial lead is split off
        "icosa_unit": _map_entry(lambda: RationalMap(poly(1, -11, -1) ** 5,
                                                     poly(1, 228, 494, -228, 1) ** 3)),
        "dihb_unit": _map_entry(lambda: RationalMap(poly(1, -1) ** 2, poly(1, 3) ** 3)),
        "tetr_unit": _map_entry(lambda: RationalMap(poly(4, 1) ** 3,
                                                    (poly(1, -2) ** 3).scale(QQ(64)))),
        "octa_unit": _map_entry(lambda: RationalMap(poly(-1, 1) ** 4, poly(1, 14, 1) ** 3)),
    }
    return b


def _s_chart():
    """The negated chart x = -s; names keep their x-meaning."""
    phi3 = _map_entry(Phi3_map, -ONE)
    return {
        "s": _mono,
        "one_minus_x": _poly_entry(1, -1, sign=-ONE),
        "F1": _poly_entry(1, 5, -8, 1, sign=-ONE),
        "Phi3": phi3,
        "Phi3_over_1728": lambda n: phi3(n).scale(q(1, 1728)),
    }


def _xw_chart():
    one = Omega(1)
    f2, g2 = phi3_star_parts()
    return {
        "x": _mono,
        "one_minus_x": _poly_entry(one, -one),
        "one_minus_wx": _poly_entry(one, -W),
        "one_minus_w2x": _poly_entry(one, -W.conjugate()),
        "F2": _poly_entry(*f2.coeffs),
        "G2": _poly_entry(*g2.coeffs),
        "Phi3_star": _map_entry(phi3_star),
    }


def _curve_chart(curve, functions):
    def entry(f: CurveFunction):
        def build(n):
            return f.expand_at(AffinePoint(QQ(0), QQ(0)), int(n)).truncate(n)
        return build

    out = {}
    for name, f in functions.items():
        out[name] = entry(f)
    return out


def _t7_chart():
    fns = {name: f for name, f, _ in TABLE1}
    fns["v"] = cf(E7, (), (1,))
    fns["one_minus_4u"] = fns.pop("1-4u")
    fns["one_minus_8u"] = fns.pop("1-8u")
    fns["v_minus_u"] = fns.pop("v-u")
    fns["v_plus_u"] = fns.pop("v+u")
    fns["H7B"] = cf(E7, (1, -2), (2, 32))          # 1 + 2v - 2u + 32uv
    fns["Phi7"] = phi7()
    return _curve_chart(E7, fns)


def _t4_chart():
    fns = {name: f for name, f, _ in TABLE2}
    fns["one_minus_p"] = fns.pop("1-p")
    fns["w_minus_4p"] = fns.pop("w-4p")
    fns["pre_4A_1"] = cf(E4, (1, -21), (-7,))      # 1 - 7w - 21p
    fns["pre_4A_1d"] = fns.pop("1-w+3p")
    fns["pre_4A_2"] = cf(E4, (1, q(-7, 3)))
    fns["pre_4A_3"] = cf(E4, (1, -21), (7,))       # 1 + 7w - 21p
    fns["Phi4"] = phi4_on_e4()
    return _curve_chart(E4, fns)


register_chart("x", _x_chart())
register_chart("s", _s_chart())
register_chart("xw", _xw_chart())
register_chart("t7", _t7_chart())
register_chart("t4", _t4_chart())


# ---------------------------------------------------------------------------
# identity specs
# ---------------------------------------------------------------------------

def T(*factors, w=1):
    return Term(w, tuple(factors))


def ident(id_, anchor, chart, left, right):
    return IdentitySpec(id_, anchor, chart, tuple(left), tuple(right))


def _hpg3(u1, u2, u3, l1, l2, arg):
    return Hpg((QQ(u1), QQ(u2), QQ(u3)), (QQ(l1), QQ(l2)), arg)


def _hpg2(u1, u2, l1, arg):
    return Hpg((QQ(u1), QQ(u2)), (QQ(l1),), arg)


def _p(name, e=1):
    return Pw(name, QQ(e))


IDENTITIES: list = []


def _add(spec):
    IDENTITIES.append(spec)
    return spec


# -- genus 0, first family (degree-24 covering of the line) -----------------

_add(ident("thm-3A-1", "first evaluation of the 3A family on the line",
           "x",
           [T(_hpg3("-1/42", "13/42", "9/14", "4/7", "6/7", "Phi3"))],
           [T(_p("one_minus_x", q(1, 7)), _p("G0", q(-1, 14)), _p("G1", q(-1, 14)))]))
_add(ident("thm-3A-2", "second evaluation of the 3A family on the line",
           "x",
           [T(_hpg3("5/42", "19/42", "11/14", "5/7", "8/7", "Phi3"))],
           [T(_p("one_minus_x", q(2, 7)), _p("F1", -1), _p("G0", q(5, 14)), _p("G1", q(5, 14)))]))
_add(ident("thm-3A-3", "third evaluation of the 3A family on the line",
           "x",
           [T(_hpg3("17/42", "31/42", "15/14", "9/7", "10/7", "Phi3"))],
           [T(_p("one_minus_x", q(-3, 7)), _p("F1", -3), _p("G0", q(17, 14)), _p("G1", q(17, 14)))]))

_add(ident("thm-3B-1", "first evaluation of the 3B family on the line",
           "x",
           [T(_hpg3("-1/14", "11/42", "25/42", "4/7", "5/7", "Phi3"))],
           [T(_p("pre_3B_1"), _p("one_minus_x", q(3, 7)), _p("G0", q(-3, 14)), _p("G1", q(-3, 14)))]))
_add(ident("thm-3B-2", "second evaluation of the 3B family on the line",
           "x",
           [T(_hpg3("3/14", "23/42", "37/42", "6/7", "9/7", "Phi3"))],
           [T(_p("pre_3B_2"), _p("one_minus_x", q(-2, 7)), _p("F1", -2),
              _p("G0", q(9, 14)), _p("G1", q(9, 14)))]))
_add(ident("thm-3B-3", "third evaluation of the 3B family on the line",
           "x",
           [T(_hpg3("5/14", "29/42", "43/42", "8/7", "10/7", "Phi3"))],
           [T(_p("pre_3B_3"), _p("one_minus_x", q(-1, 7)), _p("F1", -3),
              _p("G0", q(15, 14)), _p("G1", q(15, 14)))]))

_add(ident("contig-3A-extra", "contiguous 3A evaluation with a quartic zero locus",
           "x",
           [T(_hpg3("1/14", "17/42", "31/42", "3/7", "9/7", "Phi3"))],
           [T(_p("one_minus_x", q(4, 7)), _p("G0", q(3, 14)), _p("G1", q(3, 14)),
              _p("F1", -2), _p("pre_contig"))]))

for k, (e1, e2, e3, up) in enumerate((
        (q(-1, 42), q(5, 42), q(-1, 6), ("-1/42", "13/42", "9/14", "4/7", "6/7")),
        (q(5, 42), q(17, 42), q(-1, 6), ("5/42", "19/42", "11/14", "5/7", "8/7")),
        (q(17, 42), q(-1, 42), q(-1, 6), ("17/42", "31/42", "15/14", "9/7", "10/7"))), 1):
    _add(ident(f"rewritten-3A-{k}", "rewritten 3A evaluation in the negated chart",
               "s",
               [T(_p("Phi3_over_1728", e1),
                  _hpg3(up[0], up[1], up[2], up[3], up[4], "Phi3"))],
               [T(_p("s", e1), _p("one_minus_x", e2), _p("F1", e3))]))

# -- genus 0 over Q(w) --------------------------------------------------------

_OMEGA_TRIPLES = {
    1: ((q(-1, 42), q(5, 42), q(17, 42)), ("-1/42", "5/42", "17/42", "1/3", "2/3"),
        (ONE, ONE, ONE)),
    2: ((q(13, 42), q(19, 42), q(31, 42)), ("13/42", "19/42", "31/42", "2/3", "4/3"),
        (ONE, W, W * W)),
    3: ((q(9, 14), q(11, 14), q(15, 14)), ("9/14", "11/14", "15/14", "4/3", "5/3"),
        (ONE, W * W, W)),
}


def _omega_rhs(exps, weights):
    e1, e2, e3 = exps
    cyc = [(e1, e2, e3), (e2, e3, e1), (e3, e1, e2)]
    terms = []
    third = Omega(q(1, 3))
    for (a, b, c), wgt in zip(cyc, weights):
        terms.append(T(_p("one_minus_x", a), _p("one_minus_wx", b), _p("one_minus_w2x", c),
                       w=third * wgt))
    return terms


_add(ident("thm-omega-1", "first conjugate-sum evaluation over Q(w)",
           "xw",
           [T(_p("F2", q(1, 6)),
              _hpg3(*_OMEGA_TRIPLES[1][1], "Phi3_star"))],
           _omega_rhs(_OMEGA_TRIPLES[1][0], _OMEGA_TRIPLES[1][2])))
_add(ident("thm-omega-2", "second conjugate-sum evaluation over Q(w)",
           "xw",
           [T(_p("x"), _p("G2"), _p("F2", q(-13, 6)),
              _hpg3(*_OMEGA_TRIPLES[2][1], "Phi3_star"),
              w=(1 - 2 * W).inverse())],
           _omega_rhs(_OMEGA_TRIPLES[2][0], _OMEGA_TRIPLES[2][2])))
_add(ident("thm-omega-3", "third conjugate-sum evaluation over Q(w)",
           "xw",
           [T(_p("x", 2), _p("G2", 2), _p("F2", q(-9, 2)),
              _hpg3(*_OMEGA_TRIPLES[3][1], "Phi3_star"),
              w=(Omega(21) + 7 * W).inverse() * 3)],
           _omega_rhs(_OMEGA_TRIPLES[3][0], _OMEGA_TRIPLES[3][2])))

# -- genus 1, first curve -----------------------------------------------------

_E7_EVALS = [
    ("thm-7A-1", ("-1/14", "1/14", "5/14", "1/7", "5/7"),
     [("F3", q(1, 14)), ("F4", q(1, 7)), ("F4t", q(3, 7)), ("G4", q(-1, 2))]),
    ("thm-7A-2", ("3/14", "5/14", "9/14", "3/7", "9/7"),
     [("one_minus_4u", q(4, 7)), ("F3", q(1, 14)), ("F4t", q(4, 7)), ("G4", q(3, 2)),
      ("F3t", q(-4, 7)), ("G3", -2)]),
    ("thm-7A-3", ("11/14", "13/14", "17/14", "11/7", "13/7"),
     [("one_minus_8u", 1), ("F3t", q(5, 14)), ("G4h", q(11, 2)),
      ("u", q(-16, 7)), ("v_minus_u", q(-1, 14)), ("v_plus_u", q(-6, 7)), ("G3", -6)]),
    ("thm-7Ainf-1", ("-1/14", "3/14", "11/14", "4/7", "6/7"),
     [("one_minus_4u", q(1, 7)), ("F3t", q(3, 14)), ("F4t", q(1, 7)),
      ("one_minus_8u", q(-1, 14)), ("G4", q(-1, 2))]),
    ("thm-7Ainf-2", ("1/14", "5/14", "13/14", "5/7", "8/7"),
     [("one_minus_4u", q(2, 7)), ("one_minus_8u", q(1, 7)), ("F3", q(1, 14)),
      ("F4t", q(2, 7)), ("G4", q(1, 2)), ("G3", -1)]),
    ("thm-7Ainf-3", ("5/14", "9/14", "17/14", "9/7", "10/7"),
     [("one_minus_8u", 1), ("v_minus_u", q(3, 14)), ("G4h", q(5, 2)),
      ("u", q(-8, 7)), ("v_plus_u", q(-3, 7)), ("F3t", q(-1, 14)), ("G3", -3)]),
    ("thm-7B-1", ("-1/14", "1/14", "9/14", "2/7", "6/7"),
     [("one_minus_4u", q(1, 7)), ("one_minus_8u", q(4, 7)), ("F4", q(2, 7)),
      ("F3", q(-1, 14)), ("G4", q(-1, 2))]),
    ("thm-7B-2", ("1/14", "3/14", "11/14", "3/7", "8/7"),
     [("one_minus_8u", q(1, 14)), ("F4t", q(6, 7)), ("G4", q(1, 2)),
      ("one_minus_4u", q(-1, 7)), ("F3t", q(-3, 14)), ("G3", -1)]),
    ("thm-7B-3", ("9/14", "11/14", "19/14", "11/7", "12/7"),
     [("one_minus_8u", 1), ("F3t", q(1, 14)), ("G4h", q(9, 2)),
      ("u", q(-13, 7)), ("v_minus_u", q(-3, 14)), ("v_plus_u", q(-4, 7)), ("G3", -5)]),
    ("thm-7B-extra", ("-3/14", "1/14", "3/14", "1/7", "3/7"),
     [("one_minus_4u", q(4, 7)), ("F4", q(1, 7)), ("H7B", 1),
      ("one_minus_8u", q(-1, 14)), ("F3t", q(-3, 14)), ("G4", q(-3, 2))]),
]

for id_, params, rhs in _E7_EVALS:
    _add(ident(id_, "evaluation on the first genus-1 curve at the origin",
               "t7",
               [T(_hpg3(*params, "Phi7"))],
               [T(*[_p(nm, e) for nm, e in rhs])]))

# -- genus 1, second curve ----------------------------------------------------

_E4_EVALS = [
    ("thm-4B-1", ("-1/28", "3/14", "13/28", "2/7", "6/7"),
     [("one_minus_p", q(2, 7)), ("F6", q(1, 14)), ("G5", q(-1, 7))]),
    # the (1-p)-exponent is forced by the stated fractional divisor: the
    # coefficient of (1,4) is -1/7, and 5/7 would not balance at infinity
    ("thm-4B-2", ("3/28", "5/14", "17/28", "3/7", "8/7"),
     [("F6t", q(3, 14)), ("G5", q(3, 7)), ("one_minus_p", q(-1, 7)), ("F5", -1)]),
    ("thm-4B-3", ("19/28", "13/14", "33/28", "11/7", "12/7"),
     [("F6t", q(5, 14)), ("G5", q(19, 7)), ("one_minus_p", q(-4, 7)), ("F5", -5)]),
    ("thm-4A-1", ("-3/28", "11/28", "9/14", "4/7", "6/7"),
     [("pre_4A_1", 1), ("one_minus_p", q(6, 7)), ("F6", q(3, 14)),
      ("pre_4A_1d", -1), ("G5", q(-3, 7))]),
    ("thm-4A-2", ("1/28", "15/28", "11/14", "5/7", "8/7"),
     [("pre_4A_2", 1), ("one_minus_p", q(2, 7)), ("F6t", q(1, 14)),
      ("G5", q(1, 7)), ("F5", -1)]),
    ("thm-4A-3", ("9/28", "23/28", "15/14", "9/7", "10/7"),
     [("pre_4A_3", 1), ("p", q(1, 2)), ("one_minus_p", q(4, 7)), ("F6t", q(1, 7)),
      ("G5", q(9, 7)), ("w_minus_4p", -1), ("F5", -3)]),
]

for id_, params, rhs in _E4_EVALS:
    _add(ident(id_, "evaluation on the second genus-1 curve at the origin",
               "t4",
               [T(_hpg3(*params, "Phi4"))],
               [T(*[_p(nm, e) for nm, e in rhs])]))

# -- transformations ----------------------------------------------------------

_A, _B = q(-1, 28), q(1, 28)
_add(ident("t32a-quadratic", "quadratic transformation, specialized parameters",
           "x",
           [T(_hpg3(_A, _A + q(1, 4), _A + q(1, 2), _B + q(1, 4), 3 * _A - _B + 1, "arg_t32a"))],
           [T(_p("one_minus_x", 2 * _A),
              _hpg3(2 * _A, 2 * _A - _B + q(3, 4), _B - _A, _B + q(1, 4), 3 * _A - _B + 1, "x"))]))
_A, _B = q(-1, 42), q(1, 14)
_add(ident("t32b-cubic", "first cubic transformation, specialized parameters",
           "x",
           [T(_hpg3(_A, _A + q(1, 3), _A + q(2, 3), _B + q(1, 2), 3 * _A - _B + 1, "arg_t32b"))],
           [T(_p("one_minus_4x", 3 * _A),
              _hpg3(3 * _A, 2 * _B - 3 * _A, 3 * _A - 2 * _B + 1, _B + q(1, 2),
                    3 * _A - _B + 1, "x"))]))
_add(ident("t32c-cubic", "second cubic transformation, specialized parameters",
           "x",
           [T(_hpg3(_A, _A + q(1, 3), _A + q(2, 3), _B + q(1, 2), 3 * _A - _B + 1, "arg_t32c"))],
           [T(_p("one_minus_x_over_4", 3 * _A),
              _hpg3(3 * _A, _B, 3 * _A - _B + q(1, 2), 2 * _B, 6 * _A - 2 * _B + 1, "x"))]))

_a = q(1, 6)
_add(ident("dihedral-1", "square-argument dihedral evaluation",
           "x",
           [T(_hpg2(_a, _a + q(1, 2), q(1, 2), "x_squared"))],
           [T(_p("one_minus_x", -2 * _a), w=q(1, 2)), T(_p("one_plus_x", -2 * _a), w=q(1, 2))]))
_a = q(1, 5)
_add(ident("dihedral-2", "first dihedral variation",
           "x",
           [T(_hpg2(_a, -_a, q(1, 2), "arg_dihe"))],
           [T(_p("one_plus_x", _a), _p("one_minus_x", -_a), w=q(1, 2)),
            T(_p("one_minus_x", _a), _p("one_plus_x", -_a), w=q(1, 2))]))
_add(ident("dihedral-3", "second dihedral variation",
           "x",
           [T(_hpg2(q(1, 2) + _a, q(1, 2) - _a, q(1, 2), "arg_dihe"))],
           [T(_p("one_plus_x", _a + q(1, 2)), _p("one_minus_x", q(1, 2) - _a), w=q(1, 2)),
            T(_p("one_plus_x", q(1, 2) - _a), _p("one_minus_x", _a + q(1, 2)), w=q(1, 2))]))
_add(ident("dihedral-4", "third dihedral variation",
           "x",
           [T(_hpg2(q(1, 2) + _a, q(1, 2) - _a, q(3, 2), "arg_dihe"))],
           [T(_p("x", -1), _p("one_plus_x", _a + q(1, 2)), _p("one_minus_x", q(1, 2) - _a),
              w=1 / (4 * _a)),
            T(_p("x", -1), _p("one_plus_x", q(1, 2) - _a), _p("one_minus_x", _a + q(1, 2)),
              w=-1 / (4 * _a))]))

_add(ident("tetra-2", "first tetrahedral radical evaluation",
           "x",
           [T(_hpg2(q(1, 4), q(7, 12), q(4, 3), "phi3t"))],
           [T(_p("one_plus_x_over_4", -1), _p("one_minus_2x", q(3, 4)))]))
_add(ident("tetra-3", "second tetrahedral radical evaluation",
           "x",
           [T(_hpg2(q(1, 2), q(5, 6), q(2, 3), "arg_tetra3"))],
           [T(_p("one_minus_x", -2), _p("one_plus_2x", q(3, 2)))]))

_add(ident("icosa-1", "first icosahedral radical evaluation",
           "x",
           [T(_p("icosa_unit", q(-1, 60)), _hpg2(q(-1, 60), q(19, 60), q(4, 5), "phi5"))],
           [T(_p("one_minus_11x_x2", q(-1, 12)))]))
_add(ident("icosa-2", "second icosahedral radical evaluation",
           "x",
           [T(_p("icosa_unit", q(11, 60)), _hpg2(q(11, 60), q(31, 60), q(6, 5), "phi5"))],
           [T(_p("one_minus_11x_x2", q(-1, 12)))]))

# -- modular: level 7 chain -----------------------------------------------------

_add(ident("r4-xyz-zero", "the parametrizing forms satisfy the quartic relation",
           "q",
           [T(_p("X_neg", 3), _p("Y"), w=-1), T(_p("Y", 3), _p("Z")),
            T(_p("Z", 3), _p("X_neg"), w=-1)],
           []))
_add(ident("x-xyz-1", "the level-7 Hauptmodul as a form quotient",
           "q",
           [T(_p("neg_x7"))],
           [T(_p("X_neg", 2), _p("Y"), _p("Z", -3))]))
_add(ident("x-xyz-2", "the complementary form quotient",
           "q",
           [T(_p("one_minus_x7"))],
           [T(_p("Y", 3), _p("X_neg", -1), _p("Z", -2))]))
_add(ident("h7-x7", "level-7 Hauptmodul relation",
           "q",
           [T(_p("h7"), _p("neg_x7"), _p("one_minus_x7"))],
           [T(_p("F1_of_x7"))]))
_add(ident("F1-substitution", "the cubic factor through the Hauptmodul pair",
           "q",
           [T(_p("F1_of_x7"))],
           [T(_p("neg_x7"), _p("one_minus_x7"), _p("h7"))]))
_add(ident("j-h7", "j as a rational function of the level-7 Hauptmodul",
           "q",
           [T(_p("j"), _p("h7", 7))],
           [T(_p("j_h7_num"))]))
_add(ident("j-phi3-x7", "j through the degree-24 covering at the Hauptmodul",
           "q",
           [T(_p("j"), _p("Phi3_of_x7_over_1728"))],
           [T()]))
_add(ident("h7-R6", "the Hauptmodul as invariant over squared forms",
           "q",
           [T(_p("h7"), _p("X2Y2Z2"))],
           [T(_p("R6_XYZ"))]))
_add(ident("klein-quotient-q", "the degree-7 cyclic quotient as q-series",
           "q",
           [T(_p("Y", 7), _p("Z", -7), w=-1)],
           [T(_p("neg_x7"), _p("one_minus_x7", 2), w=-1)]))

for kk, (jexp, up) in enumerate((
        (q(1, 42), ("-1/42", "13/42", "9/14", "4/7", "6/7")),
        (q(-5, 42), ("5/42", "19/42", "11/14", "5/7", "8/7")),
        (q(-17, 42), ("17/42", "31/42", "15/14", "9/7", "10/7"))), 1):
    _add(ident(f"K{kk}-product", f"level-7 product evaluation K{kk}",
               "q",
               [T(_p("j", jexp), _hpg3(*up, "x1728_over_j"))],
               [T(_p(f"K{kk}"))]))

_add(ident("k1-sum", "alternating sum form of the first level-7 product",
           "q",
           [T(_p("K1"))], [T(_p("k1_sum_form"))]))
_add(ident("k3-sum", "alternating sum form of the third level-7 product",
           "q",
           [T(_p("K3"))], [T(_p("k3_sum_form"))]))
_add(ident("kratio-32", "first theta quotient of the level-7 products",
           "q",
           [T(_p("K3"), _p("kden_32"))],
           [T(_p("q", q(2, 7)), _p("theta7"), _p("K2"))]))
_add(ident("kratio-21", "second theta quotient of the level-7 products",
           "q",
           [T(_p("K2"), _p("kden_21"))],
           [T(_p("q", q(1, 7)), _p("theta7"), _p("K1"))]))
_add(ident("kratio-13", "third theta quotient of the level-7 products",
           "q",
           [T(_p("K1"), _p("kden_13"))],
           [T(_p("q", q(-3, 7)), _p("theta7"), _p("K3"))]))
_add(ident("theta-numerator", "the common theta numerator as a product",
           "q",
           [T(_p("theta7"))], [T(_p("eta7_prod"))]))
for kk in (1, 2, 3):
    _add(ident(f"quintuple-y{kk}", f"quintuple-product specialization {kk}",
               "q",
               [T(_p(f"quintuple_lhs_y{kk}"))],
               [T(_p(f"quintuple_rhs_y{kk}"))]))

# -- modular: level 5 chain ----------------------------------------------------

_add(ident("h5-x5", "level-5 Hauptmodul relation",
           "q",
           [T(_p("h5"))],
           [T(_p("x5", -1)), T(w=-11), T(_p("x5"), w=-1)]))
_add(ident("j-phi5-x5", "j through the degree-12 covering at the Hauptmodul",
           "q",
           [T(_p("j"), _p("phi5_of_x5_over_1728"))],
           [T()]))
_add(ident("x5-h5-substitution", "the quadratic factor through the Hauptmodul pair",
           "q",
           [T(_p("one_minus_11x5_x5sq"))],
           [T(_p("x5"), _p("h5"))]))
for kk, (jexp, up, lo) in enumerate((
        (q(1, 60), (q(-1, 60), q(19, 60)), q(4, 5)),
        (q(-11, 60), (q(11, 60), q(31, 60)), q(6, 5))), 1):
    _add(ident(f"rr{kk}-product", f"Rogers-Ramanujan product evaluation {kk}",
               "q",
               [T(_p("j", jexp), _hpg2(up[0], up[1], lo, "x1728_over_j"))],
               [T(_p(f"rr{kk}_prod"))]))
    _add(ident(f"rr{kk}-prodsum", f"Rogers-Ramanujan sum form {kk}",
               "q",
               [T(_p(f"rr{kk}_prod"))],
               [T(_p(f"rr{kk}_sum"))]))

# -- modular: levels 2, 3, 4 -----------------------------------------------------

_add(ident("dihb-1", "first dihedral covering evaluation",
           "x",
           [T(_p("dihb_unit", q(-1, 6)), _hpg2(q(-1, 6), q(1, 6), q(1, 2), "phi2"))],
           [T(_p("one_minus_x", q(-1, 3)))]))
_add(ident("dihb-2", "second dihedral covering evaluation",
           "x",
           [T(_p("dihb_unit", q(1, 3)), _hpg2(q(1, 3), q(2, 3), q(3, 2), "phi2"))],
           [T(_p("one_minus_x", q(-1, 3)))]))
_add(ident("tetr-1", "first tetrahedral covering evaluation",
           "x",
           [T(_p("tetr_unit", q(-1, 12)), _hpg2(q(-1, 12), q(1, 4), q(2, 3), "phi3t"))],
           [T(_p("one_plus_x_over_4", q(-1, 4)))]))
_add(ident("tetr-2", "second tetrahedral covering evaluation",
           "x",
           [T(_p("tetr_unit", q(1, 4)), _hpg2(q(1, 4), q(7, 12), q(4, 3), "phi3t"))],
           [T(_p("one_plus_x_over_4", q(-1, 4)))]))
_add(ident("octa-1", "first octahedral covering evaluation",
           "x",
           [T(_p("octa_unit", q(-1, 24)), _hpg2(q(-1, 24), q(7, 24), q(3, 4), "phi4o"))],
           [T(_p("one_minus_x", q(-1, 6)))]))
_add(ident("octa-2", "second octahedral covering evaluation",
           "x",
           [T(_p("octa_unit", q(5, 24)), _hpg2(q(5, 24), q(13, 24), q(5, 4), "phi4o"))],
           [T(_p("one_minus_x", q(-1, 6)))]))

_add(ident("j-h2", "j as a rational function of the level-2 Hauptmodul",
           "q",
           [T(_p("j"), _p("h2", 2))], [T(_p("j_h2_num"))]))
_add(ident("h2-lambda", "level-2 Hauptmodul through the modular lambda",
           "q",
           [T(_p("h2"), _p("lam16", 2))],
           [T(), T(_p("lam16"), w=-16)]))
_add(ident("sqrt-h2-64", "the shifted Hauptmodul square root through lambda",
           "q",
           [T(_p("h2_plus_64", q(1, 2)))],
           [T(_p("lam16", -1)), T(w=-8)]))
_add(ident("level2-eval-1", "first level-2 modular evaluation",
           "q",
           [T(_p("j", q(1, 6)), _hpg2(q(-1, 6), q(1, 6), q(1, 2), "x1728_over_j"))],
           [T(_p("h2", q(-1, 3)), _p("h2_plus_64", q(1, 2)))]))
_add(ident("level2-eval-2", "second level-2 modular evaluation",
           "q",
           [T(_p("j", q(-1, 3)), _hpg2(q(1, 3), q(2, 3), q(3, 2), "x1728_over_j"))],
           [T(_p("h2", q(-1, 3)))]))
_add(ident("j-h3", "j as a rational function of the level-3 Hauptmodul",
           "q",
           [T(_p("j"), _p("h3", 3))], [T(_p("j_h3_num"))]))
_add(ident("level3-eval-1", "first level-3 modular evaluation",
           "q",
           [T(_p("j", q(1, 12)), _hpg2(q(-1, 12), q(1, 4), q(2, 3), "x1728_over_j"))],
           [T(_p("h3", q(-1, 4)), _p("h3_plus_27", q(1, 3)))]))
_add(ident("level3-eval-2", "second level-3 modular evaluation",
           "q",
           [T(_p("j", q(-1, 4)), _hpg2(q(1, 4), q(7, 12), q(4, 3), "x1728_over_j"))],
           [T(_p("h3", q(-1, 4)))]))
_add(ident("j-h4", "j as a rational function of the level-4 Hauptmodul",
           "q",
           [T(_p("j"), _p("h4", 4), _p("h4_plus_16"))], [T(_p("j_h4_num"))]))
_add(ident("h4-plus-16-eta", "the shifted level-4 Hauptmodul as an eta quotient",
           "q",
           [T(_p("h4_plus_16"))], [T(_p("h4_plus_16_eta"))]))
_add(ident("level4-eval-1", "first octahedral modular evaluation",
           "q",
           [T(_p("j", q(1, 24)), _hpg2(q(-1, 24), q(7, 24), q(3, 4), "x1728_over_j"))],
           [T(_p("octa1_eta"))]))
_add(ident("level4-eval-2", "second octahedral modular evaluation",
           "q",
           [T(_p("j", q(-5, 24)), _hpg2(q(5, 24), q(13, 24), q(5, 4), "x1728_over_j"))],
           [T(_p("octa2_eta"))]))
_add(ident("e4-classical-1", "weight-4 Eisenstein root as a hypergeometric value",
           "q",
           [T(_hpg2(q(1, 12), q(5, 12), QQ(1), "x1728_over_j"))],
           [T(_p("E4", q(1, 4)))]))
_add(ident("e4-classical-2", "weight-4 Eisenstein root through j and eta",
           "q",
           [T(_p("E4", q(1, 4)))],
           [T(_p("j", q(1, 12)), _p("eta", 2))]))
_add(ident("lambda-eta-product", "modular lambda as an explicit half-integer product",
           "q",
           [T(_p("lam16"))], [T(_p("lam16_prod"))]))
_add(ident("eta-pentagonal", "eta product equals the theta sum",
           "q",
           [T(_p("eta"))], [T(_p("eta_theta"))]))
_add(ident("disc-eta24", "the discriminant (E4^3 - E6^2)/1728 as the 24th power of eta",
           "q",
           [T(_p("E4", 3)), T(_p("E6", 2), w=-1)],
           [T(_p("eta", 24), w=1728)]))

# -- modular: product forms against their eta-quotient routes --------------------

for id_, anchor, eta, prod in (
        ("h2-prod", "the level-2 Hauptmodul as an explicit product", "h2", "h2_prod"),
        ("h3-prod", "the level-3 Hauptmodul as an explicit product", "h3", "h3_prod"),
        ("h4-prod", "the level-4 Hauptmodul as an explicit product", "h4", "h4_prod"),
        ("h5-prod", "the level-5 Hauptmodul as an explicit product", "h5", "h5_prod"),
        ("h7-prod", "the level-7 Hauptmodul as an explicit product", "h7", "h7_prod"),
        ("h4-plus-16-prod", "the shifted level-4 Hauptmodul as an explicit product",
         "h4_plus_16_eta", "h4_plus_16_prod"),
        ("octa1-prod", "the first octahedral eta quotient as an explicit product",
         "octa1_eta", "octa1_prod"),
        ("octa2-prod", "the second octahedral eta quotient as an explicit product",
         "octa2_eta", "octa2_prod")):
    _add(ident(id_, anchor, "q", [T(_p(eta))], [T(_p(prod))]))

IDENTITY_BY_ID = {s.id: s for s in IDENTITIES}


# ---------------------------------------------------------------------------
# the check registry: every claim by id, with the anchor its results cite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    run: object                  # callable(order) -> VerificationReport


CHECKS: dict = {}


def _register(id_, anchor, run):
    assert id_ not in CHECKS, f"duplicate check id {id_!r}"
    CHECKS[id_] = Check(id_, anchor, run)


for _spec in IDENTITIES:
    _register(_spec.id, _spec.anchor, lambda order, spec=_spec: verify_identity(spec, order))


def _pattern_check(name):
    def run(order):
        entry = COVERINGS[name]
        p = branching_pattern(P1_MAPS[name]())
        if p != entry.expected_pattern:
            return failed(detail=f"got {p}")
        if rh_genus(p) != entry.expected_genus:
            return failed(detail="genus mismatch")
        return belyi_certify(P1_MAPS[name]())
    return run


_GENUS1_COVERINGS = {"Phi7": (E7, phi7, PHI7_DIVISOR), "Phi4": (E4, phi4_on_e4, PHI4_DIVISOR)}


def _covering_divisor(which):
    """The divisor report of a degree-24 covering (curve, builder and divisor
    in ``_GENUS1_COVERINGS``), proved once per process in the memo: its
    pattern check and its divisor row both read it."""
    curve, build, divisor = _GENUS1_COVERINGS[which]
    return memo(("divisor", which), lambda: verify_divisor(curve, build(), divisor))


def _genus1_pattern_check(which):
    def run(order):
        rep = _covering_divisor(which)
        if not rep.ok:
            return rep
        _, build, divisor = _GENUS1_COVERINGS[which]
        stated = COVERINGS[which].expected_pattern
        # each place of the divisor is |order| sheets, once per point it stands for
        fibers = {True: [], False: []}
        for place, c in divisor:
            fibers[c > 0] += [abs(c)] * (place.size if isinstance(place, PlaceCluster) else 1)
        half = len(stated.over1)
        got = pattern(fibers[True], [2] * half, fibers[False])
        for where, want, have in zip(("0", "1", "infinity"), stated.fibers(), got.fibers()):
            if want != have:
                return failed(detail=f"stated fiber over {where} is {want}, not {have}")
        if not genus1_fiber_one_square(build(), divisor_norm(divisor)[1], half):
            return failed(detail=f"fiber over 1 is not [2^{half}]")
        if rh_genus(stated) != COVERINGS[which].expected_genus:
            return failed(detail="genus mismatch")
        return passed()
    return run


def _remark_coverings_check(order):
    for rec in modular.REMARK_COVERINGS:
        g = rh_genus_cover(rec["degree"], rec["base_genus"], rec["branch_orders"])
        if g != rec["genus"]:
            return failed(detail=f"{rec['curve']}: genus {g}, stated {rec['genus']}")
    return passed()


def _torsion_check(order):
    rep = torsion_audit(E4)
    return passed() if rep["ok"] else failed(detail=str(rep))


def _coeff_check(name, expected):
    def run(order):
        need = max(e for e, _ in expected) + 1
        s = modular.qseries(name, need)
        for e, c in expected:
            got = s.coefficient(QQ(e))
            if got != c:
                return failed(detail=f"coefficient of q^{e}: got {got}, expected {c}")
        return passed()
    return run


_HPG_DEPTH = 8                   # series depth of the 3F2 class checks, whatever the order


# the evaluations of each class of ``hypergeom.CLASSES``, by identity id
CLASS_MEMBERS = {
    "3A": ("thm-3A-1", "thm-3A-2", "thm-3A-3", "contig-3A-extra",
           "thm-omega-1", "thm-omega-2", "thm-omega-3"),
    "3B": ("thm-3B-1", "thm-3B-2", "thm-3B-3"),
    "4A": ("thm-4A-1", "thm-4A-2", "thm-4A-3"),
    "4B": ("thm-4B-1", "thm-4B-2", "thm-4B-3"),
    "7A": ("thm-7A-1", "thm-7A-2", "thm-7A-3", "thm-7Ainf-1", "thm-7Ainf-2", "thm-7Ainf-3"),
    "7B": ("thm-7B-1", "thm-7B-2", "thm-7B-3", "thm-7B-extra"),
}


def _hpg_atom(spec_id):
    spec = IDENTITY_BY_ID[spec_id]
    (f,) = [f for t in spec.left + spec.right for f in t.factors if isinstance(f, Hpg)]
    return f.params()


def _class_params():
    for label, representative in CLASSES.items():
        yield label, representative
        for spec_id in CLASS_MEMBERS[label]:
            yield label, _hpg_atom(spec_id)


def _hpg_ode_check(order):
    for label, p in _class_params():
        for sol in companion_basis(p).all():
            r = ode_residual(solution_series(sol, _HPG_DEPTH), p, at_infinity=sol.at_infinity)
            if not r.is_zero():
                where = "infinity" if sol.at_infinity else "0"
                return failed(_HPG_DEPTH, detail=f"{label} {p}: the local solution with exponent "
                                                f"{sol.exponent} at {where} leaves a residual")
    return passed(_HPG_DEPTH)


def _hpg_coefficients_check(order):
    for label, p in _class_params():
        s = hpg_series(p, _HPG_DEPTH)
        for k in range(_HPG_DEPTH):
            if s.coefficient(k) != hpg_coefficient(p, k):
                return failed(_HPG_DEPTH, detail=f"{label} {p}: coefficient {k} of the series "
                                                f"is not the Pochhammer quotient")
    return passed(_HPG_DEPTH)


def _hpg_interlacing_check(order):
    for label, p in _class_params():
        for k, conjugate in galois_conjugates(p):
            if not interlacing_check(conjugate):
                return failed(detail=f"{label} {p}: the conjugate at k={k} does not interlace")
    return passed()


# (source, target): the target's 3F2 is the source's with upper[2] and
# lower[1] lowered by one, in the source spec's own parameter order
_CONTIGUOUS = (("thm-3A-3", "contig-3A-extra"), ("thm-7Ainf-2", "thm-7A-1"),
               ("thm-7Ainf-3", "thm-7A-2"), ("thm-7B-2", "thm-7B-extra"))


def _hpg_contiguity_check(order):
    for src, dst in _CONTIGUOUS:
        p, target = _hpg_atom(src), _hpg_atom(dst)
        want = p.shifted({2: -1}, {1: -1})
        if (sorted(want.upper), sorted(want.lower)) != (sorted(target.upper), sorted(target.lower)):
            return failed(detail=f"{src} -> {dst}: lowering upper[2] and lower[1] of {p} "
                                 f"gives {want}, not {target}")
        hit = first_mismatch(shift_down(p, 2, 1, hpg_series(p, order)), hpg_series(want, order),
                             below=order)
        if hit is not None:
            return failed(order, Mismatch(*hit), detail=f"{src} -> {dst}")
    return passed(order)


# slot exponent, the evaluation whose 3F2 the slot pulls back, then the true
# candidate and the decoy as (factor, exponent) lists
CANDIDATE_SETS = {
    "3A": [
        (QQ(0), "thm-3A-1",
         [("one_minus_x", QQ(1, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))],
         [("one_minus_x", QQ(3, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))]),
        (QQ(1, 7), "thm-3A-2",
         [("x", QQ(1, 7)), ("one_minus_x", QQ(3, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))],
         [("x", QQ(1, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))]),
        (QQ(3, 7), "thm-3A-3",
         [("x", QQ(3, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))],
         [("x", QQ(3, 7)), ("one_minus_x", QQ(1, 7)), ("G0", QQ(-1, 14)), ("G1", QQ(-1, 14))]),
    ],
}


def verify_radical_candidate_separation(class_id: str, n: int = 10) -> VerificationReport:
    """Re-enact the selection of the true radical solution among candidates.

    For the first family the two candidates differ by a power of (1-x) and
    are separated by comparing logarithmic derivatives against the
    hypergeometric side.  For the second family each candidate carries an
    undetermined linear prefactor (1 - c x); c is solved from the first
    series coefficient and the later coefficients must then agree, which
    singles out one family and pins c.
    """
    if class_id == "3A":
        for slot, spec_id, true_f, decoy_f in CANDIDATE_SETS["3A"]:
            target = _hpg_side_dlog("x", slot, _hpg_atom(spec_id), n)
            good = _product_dlog("x", true_f, n + 2)
            bad = _product_dlog("x", decoy_f, n + 2)
            lim = min(target.order_exponent, good.order_exponent, bad.order_exponent)
            if first_mismatch(target, good, below=lim) is not None:
                return failed(n, detail=f"true candidate rejected at slot {slot}")
            if first_mismatch(target, bad, below=lim) is None:
                return failed(n, detail=f"both candidates match at slot {slot}: engine bug")
        return passed(n)
    if class_id == "3B":
        target = _hpg_side_dlog("x", QQ(0), _hpg_atom("thm-3B-1"), n)
        outcomes = {}
        for label, e1 in (("A", QQ(2, 7)), ("B", QQ(3, 7))):
            fixed = _product_dlog("x", [("one_minus_x", e1), ("G0", QQ(-3, 14)),
                                        ("G1", QQ(-3, 14))], n + 2)
            g = target - fixed
            # remaining part must be dlog(1 - c x) = -c - c^2 x - c^3 x^2 - ...
            c = -g.coefficient(0)
            consistent = bool(c) or g.is_zero()
            for k in range(1, 5):
                if g.coefficient(k) != -(c ** (k + 1)):
                    consistent = False
                    break
            outcomes[label] = (consistent, c)
        okb, cb = outcomes["B"]
        oka, _ = outcomes["A"]
        if okb and not oka and cb == 3:
            return passed(n, detail="prefactor (1-3x) variant matches")
        if okb and oka:
            return failed(n, detail="both families admit a prefactor: engine bug")
        return failed(n, detail=f"selection failed: {outcomes}")
    raise KeyError(f"no candidate family {class_id!r}")


_RELATION_ANCHORS = {
    "rel-phi3-phi7": "cubic-transformation relation between the degree-24 coverings",
    "rel-phi4-isogeny": "quadratic-transformation relation through the 2-isogeny",
    "rel-phi3-star": "Moebius-conjugated reciprocal covering over Q(w)",
    "rel-involution-phi7": "hyperelliptic involution swaps the covering with its reciprocal",
    "rel-isogeny-curve": "the invariant pair descends to the second curve",
}

for _name in sorted(P1_MAPS):
    _register(f"pattern-{_name}", f"branching pattern and genus of {_name}", _pattern_check(_name))
for _name in ("Phi7", "Phi4"):
    _register(f"pattern-{_name}",
              f"branching pattern {COVERINGS[_name].expected_pattern} via divisors and degree accounting",
              _genus1_pattern_check(_name))
for _rid in RELATION_IDS:
    _register(_rid, _RELATION_ANCHORS[_rid], lambda order, rid=_rid: verify_cover_relation(rid))
_register("remark-coverings", "Riemann-Hurwitz genus of the remark coverings",
          _remark_coverings_check)

for _table, _curve, _which, _row in ((TABLE1, E7, "e7", "first"), (TABLE2, E4, "e4", "second")):
    for _name, _f, _divisor in _table:
        _register(f"div-{_which}-{_name}", f"{_row} divisor table row {_name}",
                  lambda order, c=_curve, f=_f, d=_divisor: verify_divisor(c, f, d))
_register("div-e7-Phi7", "divisor of the degree-24 covering on the first curve",
          lambda order: _covering_divisor("Phi7"))
_register("div-e4-Phi4", "divisor of the degree-24 covering on the second curve",
          lambda order: _covering_divisor("Phi4"))

_t1 = {name: f for name, f, _ in TABLE1}
for _id, _pred in (
        ("bridge-1", lambda t: t["v-u"] * t["G4"] == t["1-8u"] * t["G4h"]),
        ("bridge-2", lambda t: t["1-4u"] * t["v-u"] * t["F3t"] == t["1-8u"] * t["v+u"] * t["F4t"]),
        ("bridge-3", lambda t: t["v+u"] * t["G3"] == t["1-4u"] * t["G3h"]),
        ("bridge-4", lambda t: t["1-4u"] * t["v+u"] * t["F3"] == t["1-8u"] * t["v-u"] * t["F4"]),
        ("bridge-5", lambda t: t["F4"] * t["F4t"] == t["1-4u"] * t["1-4u"] * t["1-8u"]),
        ("bridge-6", lambda t: t["v-u"] * t["v+u"] == t["u"] * t["1-4u"] * t["1-8u"])):
    _register(_id, "bridging identity between table functions",
              lambda order, pred=_pred: passed() if pred(_t1) else failed())

_register("torsion-e4", "rational torsion of the second curve is Z/6Z", _torsion_check)
_register("klein-congruence", "Klein invariant congruence",
          lambda order: modular.klein_invariant_congruence())
_register("klein-quotient", "degree-7 cyclic quotient of the Klein quartic",
          lambda order: modular.verify_quotient_curve())
for _family in ("3A", "3B"):
    _register(f"sep-{_family}", f"radical-solution selection, family {_family}",
              lambda order, family=_family: verify_radical_candidate_separation(family))
_register("j-coefficients", "the leading j-expansion coefficients",
          _coeff_check("j", [(-1, QQ(1)), (0, QQ(744)), (1, QQ(196884)), (2, QQ(21493760))]))
_register("x7-coefficients", "initial coefficients of the level-7 Hauptmodul",
          _coeff_check("x7", [(1, QQ(-1)), (2, QQ(2)), (3, QQ(0)), (4, QQ(-5)), (5, QQ(4))]))
_register("hpg-ode", "every local solution of each 3F2 class parameter set solves its equation",
          _hpg_ode_check)
_register("hpg-coefficients", "each 3F2 class parameter set's series has the Pochhammer coefficients",
          _hpg_coefficients_check)
_register("hpg-interlacing", "each 3F2 class parameter set and its Galois conjugates interlace, "
          "as finite monodromy requires", _hpg_interlacing_check)
_register("hpg-contiguity", "contiguous 3F2 evaluations by the second-order contiguity relation",
          _hpg_contiguity_check)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "genus0": [
        "thm-3A-1", "thm-3A-2", "thm-3A-3", "thm-3B-1", "thm-3B-2", "thm-3B-3",
        "contig-3A-extra", "rewritten-3A-1", "rewritten-3A-2", "rewritten-3A-3",
        "sep-3A", "sep-3B",
    ],
    "genus0-omega": ["thm-omega-1", "thm-omega-2", "thm-omega-3"],
    "genus1-e7": [s.id for s in IDENTITIES if s.chart == "t7"],
    "genus1-e4": [s.id for s in IDENTITIES if s.chart == "t4"] + ["torsion-e4"],
    "divisors": [cid for cid in CHECKS if cid.startswith(("div-", "bridge-"))],
    "belyi": [f"pattern-{n}" for n in sorted(P1_MAPS)] + ["pattern-Phi7", "pattern-Phi4"]
             + list(RELATION_IDS) + ["remark-coverings"],
    "transformations": [
        "t32a-quadratic", "t32b-cubic", "t32c-cubic",
        "dihedral-1", "dihedral-2", "dihedral-3", "dihedral-4",
        "tetra-2", "tetra-3", "icosa-1", "icosa-2",
        "hpg-ode", "hpg-coefficients", "hpg-interlacing", "hpg-contiguity",
    ],
    "klein-invariants": ["klein-congruence", "klein-quotient", "klein-quotient-q"],
    "modular-level5": ["h5-x5", "h5-prod", "j-phi5-x5", "x5-h5-substitution",
                       "rr1-product", "rr2-product", "rr1-prodsum", "rr2-prodsum"],
    "modular-level7": [
        "j-coefficients", "x7-coefficients", "r4-xyz-zero", "x-xyz-1", "x-xyz-2",
        "h7-x7", "h7-prod", "F1-substitution", "j-h7", "j-phi3-x7", "h7-R6", "klein-quotient-q",
        "K1-product", "K2-product", "K3-product",
        "k1-sum", "k3-sum", "kratio-32", "kratio-21", "kratio-13", "theta-numerator",
        "quintuple-y1", "quintuple-y2", "quintuple-y3",
    ],
    "modular-low-levels": [
        "dihb-1", "dihb-2", "tetr-1", "tetr-2", "octa-1", "octa-2",
        "j-h2", "h2-prod", "h2-lambda", "sqrt-h2-64", "level2-eval-1", "level2-eval-2",
        "j-h3", "h3-prod", "level3-eval-1", "level3-eval-2",
        "j-h4", "h4-prod", "h4-plus-16-eta", "h4-plus-16-prod",
        "octa1-prod", "octa2-prod", "level4-eval-1", "level4-eval-2",
        "e4-classical-1", "e4-classical-2", "lambda-eta-product", "eta-pentagonal",
        "disc-eta24",
    ],
}

SUITES["all"] = sorted({cid for ids in SUITES.values() for cid in ids})


def _lookup(check_id: str) -> Check:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    return CHECKS[check_id]


def run_check(check_id: str, order: int) -> VerificationReport:
    return _lookup(check_id).run(order)


def check_anchor(check_id: str) -> str:
    return _lookup(check_id).anchor
