"""Curve function fields: local expansions, norms, divisor verification
for both divisor tables, the degree-24 coverings, isogeny, involution,
and the torsion audit."""

import pytest
from hypothesis import given, settings, strategies as st

from darboux.scalars import QQ, rat
from darboux.series import first_mismatch
from darboux.polyalg import UniPoly, poly
from darboux.ellcurve import (
    E4,
    E7,
    INFINITY,
    AffinePoint,
    ClusterSplitError,
    CurveFunction,
    PHI4_DIVISOR,
    PHI7_DIVISOR,
    S_CLUSTER,
    T_CLUSTER,
    TABLE1,
    TABLE2,
    U_CLUSTER,
    V_CLUSTER,
    UnsupportedPointError,
    cf,
    ec_mul,
    involution_apply,
    local_expansion,
    phi4_on_e4,
    phi7,
    torsion_audit,
    verify_divisor,
)


# ---------------------------------------------------------------------------
# local expansions
# ---------------------------------------------------------------------------

def test_expansion_at_origin_e7():
    u, v = local_expansion(E7, AffinePoint(0, 0), 8)
    # oracle: fixed point of u = t^2/(1-11u+32u^2): u = t^2 + 11 t^4 + ...
    assert u.coefficient(2) == 1
    assert u.coefficient(4) == 11
    assert u.coefficient(3) == 0
    assert list(v.terms()) == [(QQ(1), QQ(1))]
    # the expansion satisfies the curve equation identically
    rhs = E7.rhs.eval_series(u)
    assert first_mismatch(v * v, rhs, below=7) is None


def test_expansion_at_quarter_point():
    u, v = local_expansion(E7, AffinePoint(rat(1, 4), rat(1, 4)), 8)
    # oracle (implicit differentiation): v'(u0) = (u c(u))'(1/4) / (2 v0) = 3
    assert v.coefficient(0) == rat(1, 4)
    assert v.coefficient(1) == 3
    rhs = E7.rhs.eval_series(u)
    assert first_mismatch(v * v, rhs, below=7) is None


def test_expansion_constants_on_curve():
    for curve, pts in ((E7, [(0, 0), (rat(1, 4), rat(1, 4)), (rat(1, 8), rat(-1, 8))]),
                       (E4, [(0, 0), (1, 4), (rat(-1, 7), rat(4, 7))])):
        for u0, v0 in pts:
            u, v = local_expansion(curve, AffinePoint(u0, v0), 4)
            assert u.coefficient(0) == u0 if v0 else u.is_zero() or True
            assert curve.contains(u0, v0)


def test_expansion_unsupported_points():
    with pytest.raises(UnsupportedPointError):
        local_expansion(E7, INFINITY, 5)
    with pytest.raises(UnsupportedPointError):
        local_expansion(E7, AffinePoint(1, 1), 5)   # not on the curve


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_of_v_minus_u():
    f = cf(E7, (0, -1), (1,))          # v - u
    n = f.norm_map()
    # oracle: u(1-11u+32u^2) - u^2 = u*(32u^2 - 12u + 1) = 32u(u-1/4)(u-1/8)
    expect = poly(0, 1) * poly(1, -12, 32)
    assert n.num * expect.lc == expect.scale(n.num.lc) and n.den.degree == 0
    assert poly(1, -12, 32)(rat(1, 4)) == 0
    assert poly(1, -12, 32)(rat(1, 8)) == 0


def test_norm_of_pure_polynomial():
    f = cf(E7, (3, 0, 2))
    assert f.norm_map().num == (poly(3, 0, 2) ** 2)


def test_norm_of_g4_contains_v_cluster_once():
    f = cf(E7, (1, -20, 64), (-4,))
    n = f.norm_map().num
    q, r = n.divmod(V_CLUSTER.minpoly)
    assert r.is_zero()
    assert not q.divmod(V_CLUSTER.minpoly)[1].is_zero()
    # and (u - 1/8) exactly once
    q2, r2 = n.divmod(poly(rat(-1, 8), 1))
    assert r2.is_zero() and not q2.divmod(poly(rat(-1, 8), 1))[1].is_zero()


@settings(max_examples=220, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_norm_multiplicativity(a0, a1, b0, c0, c1, d0):
    f = cf(E7, (a0, a1), (b0,))
    g = cf(E7, (c0, c1), (d0,))
    if f.is_zero() or g.is_zero():
        return
    lhs = (f * g).norm_map()
    rhs = f.norm_map() * g.norm_map()
    assert lhs == rhs


# ---------------------------------------------------------------------------
# divisor tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,f,divisor", TABLE1, ids=[r[0] for r in TABLE1])
def test_table1_divisors(name, f, divisor):
    rep = verify_divisor(E7, f, divisor)
    assert rep.ok, rep


@pytest.mark.parametrize("name,f,divisor", TABLE2, ids=[r[0] for r in TABLE2])
def test_table2_divisors(name, f, divisor):
    rep = verify_divisor(E4, f, divisor)
    assert rep.ok, rep


def test_phi7_divisor():
    rep = verify_divisor(E7, phi7(), PHI7_DIVISOR)
    assert rep.ok, rep


def test_phi4_divisor():
    rep = verify_divisor(E4, phi4_on_e4(), PHI4_DIVISOR)
    assert rep.ok, rep


def test_divisor_rejects_wrong_statement():
    f = cf(E7, (0, 1))                     # u, divisor 2(0,0) - 2O
    bad = [(AffinePoint(QQ(0), QQ(0)), 1), (INFINITY, -1)]
    assert not verify_divisor(E7, f, bad).ok
    bad2 = [(AffinePoint(QQ(0), QQ(0)), 2), (INFINITY, -2),
            (AffinePoint(rat(1, 4), rat(1, 4)), 1), (AffinePoint(rat(1, 4), rat(-1, 4)), -1)]
    assert not verify_divisor(E7, f, bad2).ok


def test_divisor_cluster_branch_sensitivity():
    # G3's divisor with the conjugate branch stated must fail the unit test
    name, f, divisor = TABLE1[9]
    assert name == "G3"
    conj = f.conjugate()
    assert not verify_divisor(E7, conj, divisor).ok


def test_cluster_content_handles_norms():
    # G3 * conj(G3) = m_U * h: the shared minimal-polynomial content gives
    # order 1 on both branches, no split needed
    from darboux.ellcurve import _cluster_split
    f = cf(E7, (1, -10, 16), (2,))
    both = f * f.conjugate()
    assert _cluster_split(E7, both.a, both.b, U_CLUSTER) == (1, 1)


def test_cluster_split_error_when_branches_mix():
    # a synthetic two-point cluster through (1/4,1/4) and (1/8,1/8); the
    # function 1+2v-6u vanishes at (1/4,1/4) but at the conjugate of the
    # second point, so neither residue is a unit: refuse loudly
    from darboux.ellcurve import PlaceCluster, _cluster_split
    m = poly(rat(-1, 4), 1) * poly(rat(-1, 8), 1)
    fake = PlaceCluster("fake", m, poly(0, 1))
    assert ((fake.vsel * fake.vsel - E7.rhs) % fake.minpoly).is_zero()
    with pytest.raises(ClusterSplitError):
        _cluster_split(E7, poly(1, -6), poly(2), fake)


def test_cluster_data_consistency():
    # branch selectors square to the curve rhs modulo the minimal polynomial
    for curve, cl in ((E7, U_CLUSTER), (E7, V_CLUSTER), (E4, S_CLUSTER), (E4, T_CLUSTER)):
        assert ((cl.vsel * cl.vsel - curve.rhs) % cl.minpoly).is_zero()
    assert U_CLUSTER.size == 3 and V_CLUSTER.size == 3
    assert S_CLUSTER.size == 3 and T_CLUSTER.size == 6
    # G3h vanishes on the same branch of U as G3
    a, b = poly(0, 3, -20), poly(1, -4)
    assert ((a + b * U_CLUSTER.vsel) % U_CLUSTER.minpoly).is_zero()


# ---------------------------------------------------------------------------
# bridging identities between table functions
# ---------------------------------------------------------------------------

def table_fn(table, name):
    for n, f, _ in table:
        if n == name:
            return f
    raise KeyError(name)


def test_bridging_identities():
    t = lambda n: table_fn(TABLE1, n)
    v_m_u, v_p_u = t("v-u"), t("v+u")
    one_m_4u, one_m_8u, u = t("1-4u"), t("1-8u"), t("u")
    assert v_m_u * t("G4") == one_m_8u * t("G4h")
    assert one_m_4u * v_m_u * t("F3t") == one_m_8u * v_p_u * t("F4t")
    assert v_p_u * t("G3") == one_m_4u * t("G3h")
    assert one_m_4u * v_p_u * t("F3") == one_m_8u * v_m_u * t("F4")
    assert t("F4") * t("F4t") == one_m_4u * one_m_4u * one_m_8u
    assert v_m_u * v_p_u == u * one_m_4u * one_m_8u


# ---------------------------------------------------------------------------
# isogeny and involution
# ---------------------------------------------------------------------------

def test_isogeny_image_satisfies_target_curve():
    # w^2 == p (1 + 22 p - 7 p^2) holds identically in the E7 function field
    p = CurveFunction(E7, poly(0, 1), UniPoly(), poly(1, -11, 32))
    w = CurveFunction(E7, UniPoly(), poly(1, 0, -32), poly(1, -11, 32) ** 2)
    rhs = p * (1 + 22 * p - 7 * p * p)
    assert w * w == rhs


def isogeny_point_image(pt: AffinePoint) -> AffinePoint:
    """Image on E4 of a rational point of E7."""
    c = poly(1, -11, 32)
    u0, v0 = QQ(pt.u), QQ(pt.v)
    cp = c(u0)
    return AffinePoint(u0 / cp, v0 * (1 - 32 * u0 * u0) / (cp * cp))


def test_isogeny_point_images():
    assert isogeny_point_image(AffinePoint(QQ(0), QQ(0))) == AffinePoint(QQ(0), QQ(0))
    img = isogeny_point_image(AffinePoint(rat(1, 4), rat(1, 4)))
    assert E4.contains(img.u, img.v)


def test_involution_is_an_involution():
    f = cf(E7, (1, 2, -3), (0, 5), (2, 7))
    assert involution_apply(involution_apply(f)) == f


def test_involution_fixes_isogeny_components():
    p = CurveFunction(E7, poly(0, 1), UniPoly(), poly(1, -11, 32))
    w = CurveFunction(E7, UniPoly(), poly(1, 0, -32), poly(1, -11, 32) ** 2)
    assert involution_apply(p) == p
    assert involution_apply(w) == w


def test_involution_inverts_phi7():
    f = phi7()
    assert involution_apply(f) == f.inverse()


# ---------------------------------------------------------------------------
# torsion audit
# ---------------------------------------------------------------------------

def test_group_law_basics():
    p = AffinePoint(QQ(1), QQ(4))
    assert ec_mul(E4, 2, AffinePoint(QQ(0), QQ(0))) is INFINITY
    assert ec_mul(E4, 6, p) is INFINITY
    for k in range(1, 6):
        assert ec_mul(E4, k, p) is not INFINITY


def test_torsion_audit_reports_z6():
    rep = torsion_audit(E4)
    assert rep["ok"]
    assert rep["torsion_group"] == "Z/6Z"
    assert rep["order_of_(1,4)"] == 6
    assert rep["four_torsion_tangent_quartic"] == poly(512, 0, -44, 0, 1)
    assert rep["rational_4_torsion_slopes"] == []
    assert rep["extra_rational_2_torsion"] == []
