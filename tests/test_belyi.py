"""Branching patterns, Riemann-Hurwitz accounting, Belyi certification,
and the composition relations among the coverings."""

import pytest

from darboux import belyi, ellcurve
from darboux.catalog import run_check
from darboux.polyalg import RationalMap, UniPoly, poly
from darboux.scalars import ONE, QQ, ZERO, rat
from darboux.belyi import (
    COVERINGS,
    P1_MAPS,
    Phi3_map,
    belyi_certify,
    branching_pattern,
    genus1_fiber_one_square,
    mobius_mu,
    pattern,
    phi3_star,
    rh_genus,
    rh_genus_cover,
    verify_cover_relation,
)
from darboux.ellcurve import (
    INVOLUTION_U,
    ISOGENY_P,
    ISOGENY_W,
    T_CLUSTER,
    V_CLUSTER,
    CurveFunction,
    phi4_on_e4,
    phi7,
)


def passport(p):
    """The fibers of a branching pattern as a multiset (which fiber lies over
    which point forgotten)."""
    return tuple(sorted(p.fibers(), reverse=True))


def test_identity_map_pattern():
    p = branching_pattern(RationalMap(poly(0, 1)))
    assert p == pattern([1], [1], [1])
    assert p.degree == 1


def test_tetrahedral_pattern():
    p = branching_pattern(P1_MAPS["phi3"]())
    assert p == pattern([3, 1], [2, 2], [3, 1])
    assert rh_genus(p) == 0


def test_phi3_pattern_and_genus():
    p = branching_pattern(Phi3_map())
    assert p.over0 == (7, 7, 7, 1, 1, 1)
    assert p.over1 == (2,) * 12
    assert p.overinf == (3,) * 8
    # passport in the partition-sorted convention
    assert passport(p) == ((7, 7, 7, 1, 1, 1), (3,) * 8, (2,) * 12)
    assert rh_genus(p) == 0


@pytest.mark.parametrize("name", sorted(P1_MAPS))
def test_catalog_patterns_and_genera(name):
    entry = COVERINGS[name]
    p = branching_pattern(P1_MAPS[name]())
    assert p == entry.expected_pattern, (p, entry.expected_pattern)
    assert rh_genus(p) == entry.expected_genus
    assert p.degree == max(P1_MAPS[name]().num.degree, P1_MAPS[name]().den.degree)


def test_rh_genus_of_passports():
    assert rh_genus(pattern([7, 7, 7, 1, 1, 1], [2] * 12, [3] * 8)) == 0
    assert rh_genus(pattern([7, 7, 7, 1, 1, 1], [2] * 12, [4] * 6)) == 1
    assert rh_genus(pattern([7, 7, 7, 1, 1, 1], [2] * 12, [7, 7, 7, 1, 1, 1])) == 1


def test_rh_genus_rejects_inconsistent():
    with pytest.raises(ValueError):
        rh_genus(pattern([2, 1], [2], [2, 1]))


def test_rh_genus_of_every_covering_and_an_odd_euler_characteristic():
    for name, entry in COVERINGS.items():
        assert rh_genus(entry.expected_pattern) == entry.expected_genus, name
    with pytest.raises(ValueError, match="odd Euler characteristic"):
        rh_genus(pattern([2], [1, 1], [1, 1]))


def test_rh_genus_cover_remarks():
    assert rh_genus_cover(12, 0, [12] * 12) == 55
    assert rh_genus_cover(6, 3, [6] * 24) == 73


def test_belyi_certify_catalog():
    for name, make in sorted(P1_MAPS.items()):
        assert belyi_certify(make()).ok, name


def test_belyi_certify_square():
    assert belyi_certify(RationalMap(poly(0, 0, 1))).ok


def test_belyi_certify_rejects_bad_critical_values():
    # oracle: critical points of x^3 - 3x are x = +-1 with values -+2
    assert not belyi_certify(RationalMap(poly(0, -3, 0, 1))).ok


def test_genus1_fiber_over_one():
    # fiber over 1 is [2^12] for both genus-1 coverings
    pole7 = (poly(rat(-1, 8), 1) ** 2) * V_CLUSTER.minpoly ** 7
    assert genus1_fiber_one_square(phi7(), pole7, 12)
    pole4 = T_CLUSTER.minpoly ** 4
    assert genus1_fiber_one_square(phi4_on_e4(), pole4, 12)


_SEVENS = [7, 7, 7, 1, 1, 1]


@pytest.mark.parametrize("name, stated, detail", [
    ("Phi7", pattern([7, 7, 7, 2, 1], [2] * 12, _SEVENS),
     "stated fiber over 0 is (7, 7, 7, 2, 1), not (7, 7, 7, 1, 1, 1)"),
    ("Phi7", pattern(_SEVENS, [2] * 11 + [1, 1], _SEVENS),
     f"stated fiber over 1 is {(2,) * 11 + (1, 1)}, not {(2,) * 13}"),
    ("Phi4", pattern(_SEVENS, [2] * 12, [4] * 5 + [2, 2]),
     "stated fiber over infinity is (4, 4, 4, 4, 4, 2, 2), not (4, 4, 4, 4, 4, 4)"),
], ids=["over0", "over1", "overinf"])
def test_genus1_pattern_check_names_a_wrong_stated_fiber(monkeypatch, name, stated, detail):
    monkeypatch.setitem(COVERINGS, name, belyi.CoveringCatalogEntry(name, stated, 1))
    rep = run_check(f"pattern-{name}", 16)
    assert (rep.status, rep.detail) == ("fail", detail)


def test_genus1_pattern_check_compares_the_stated_genus(monkeypatch):
    entry = COVERINGS["Phi4"]
    monkeypatch.setitem(COVERINGS, "Phi4",
                        belyi.CoveringCatalogEntry("Phi4", entry.expected_pattern, 0))
    rep = run_check("pattern-Phi4", 16)
    assert (rep.status, rep.detail) == ("fail", "genus mismatch")


def test_cover_relation_phi3_phi7():
    assert verify_cover_relation("rel-phi3-phi7").ok


def test_cover_relation_phi4_isogeny():
    assert verify_cover_relation("rel-phi4-isogeny").ok


def test_cover_relation_phi3_star():
    assert verify_cover_relation("rel-phi3-star").ok


def test_cover_relation_involution():
    assert verify_cover_relation("rel-involution-phi7").ok


def test_cover_relation_isogeny_curve():
    assert verify_cover_relation("rel-isogeny-curve").ok


def bumped(p, k):
    """p with 1 added to its coefficient of u^k."""
    cs = list(p.coeffs) + [ZERO] * (k + 1 - len(p.coeffs))
    cs[k] = cs[k] + ONE
    return UniPoly(cs)


def curve_function_bumps(f):
    """f with one coefficient of a, b or den raised by 1, for every power
    up to one above the part's degree."""
    for name in ("a", "b", "den"):
        for k in range(getattr(f, name).degree + 2):
            parts = {"a": f.a, "b": f.b, "den": f.den}
            parts[name] = bumped(parts[name], k)
            yield CurveFunction(f.curve, parts["a"], parts["b"], parts["den"])


def map_bumps(r, powers):
    """r with one coefficient of num or den raised by 1, at each power in
    powers."""
    for k in powers:
        yield RationalMap(bumped(r.num, k), r.den)
        yield RationalMap(r.num, bumped(r.den, k))


def assert_relation_fails(relation_id, monkeypatch, module, name, values):
    """Each value in place of module.name makes the relation fail."""
    values = list(values)
    assert values
    for value in values:
        monkeypatch.setattr(module, name, value)
        assert verify_cover_relation(relation_id).status == "fail", (name, value)
    monkeypatch.undo()
    assert verify_cover_relation(relation_id).ok


def test_involution_relation_fails_with_a_changed_u(monkeypatch):
    assert_relation_fails("rel-involution-phi7", monkeypatch, ellcurve, "INVOLUTION_U",
                          curve_function_bumps(INVOLUTION_U))


def test_isogeny_curve_relation_fails_with_a_changed_p_or_w(monkeypatch):
    assert_relation_fails("rel-isogeny-curve", monkeypatch, belyi, "ISOGENY_W",
                          curve_function_bumps(ISOGENY_W))
    assert_relation_fails("rel-isogeny-curve", monkeypatch, belyi, "ISOGENY_P",
                          curve_function_bumps(ISOGENY_P))


def test_phi3_star_relation_fails_with_a_changed_mu(monkeypatch):
    maps = map_bumps(mobius_mu(), (0, 1))
    assert_relation_fails("rel-phi3-star", monkeypatch, belyi, "mobius_mu",
                          [lambda r=r: r for r in maps])


def test_phi3_star_relation_fails_with_a_changed_phi3_star(monkeypatch):
    maps = map_bumps(phi3_star(), (0, 1, 3, 21, 24))
    assert_relation_fails("rel-phi3-star", monkeypatch, belyi, "phi3_star",
                          [lambda r=r: r for r in maps])


def test_unknown_relation():
    with pytest.raises(KeyError):
        verify_cover_relation("nope")


def test_phi3_star_degrees():
    star = phi3_star()
    assert star.num.degree == 21
    assert star.den.degree == 24


def test_mu_moves_origin_to_g0_root():
    # mu maps 0 onto a root of G0 = 1 - x + x^2
    g0 = poly(1, -1, 1)
    mu = mobius_mu()
    val = mu.num(QQ(0)) / mu.den(QQ(0))
    image = g0[0] + g0[1] * val + g0[2] * val * val
    assert not image
