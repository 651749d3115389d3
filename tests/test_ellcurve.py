"""Curve function fields: local expansions, norms, divisor verification
for both divisor tables, the degree-24 coverings, isogeny, involution,
and the torsion audit."""

import pytest
from hypothesis import given, settings, strategies as st

from darboux import ellcurve, verifier
from darboux.cli import dump_series
from darboux.scalars import QQ, rat
from darboux.series import PuiseuxSeries, first_mismatch, ps_div
from darboux.polyalg import RationalMap, UniPoly, poly
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
    divisor_norm,
    ec_mul,
    involution_apply,
    isogeny_pullback,
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


def ref_two_torsion_u(curve, n):
    """Oracle: u(t) at the 2-torsion point (0, 0) by the fixed-point loop
    u = t^2/c(u) from u = t^2, which gains two orders per pass."""
    t2 = PuiseuxSeries.monomial(QQ(2), n + 2)
    u = t2
    for _ in range(n // 2 + 2):
        u = ps_div(t2, curve.c.eval_series(u).truncate(n))
    return u.truncate(n)


def _fields(s):
    return s.grid, s.lead, s.vec, s.order


@pytest.mark.parametrize("curve", [E7, E4], ids=["E7", "E4"])
def test_two_torsion_expansion_matches_the_fixed_point_loop(curve):
    for n in range(2, 81):
        u, v = local_expansion(curve, AffinePoint(0, 0), n)
        assert _fields(u) == _fields(ref_two_torsion_u(curve, n)), n
        assert _fields(v) == _fields(PuiseuxSeries.monomial(QQ(1), n))
    # at depth 1 t itself has no window, as before
    with pytest.raises(ValueError):
        local_expansion(curve, AffinePoint(0, 0), 1)


@pytest.mark.parametrize("curve", [E7, E4], ids=["E7", "E4"])
def test_two_torsion_expansion_at_small_depths(curve):
    origin = AffinePoint(0, 0)
    for n in (-1, 0, 1):
        with pytest.raises(ValueError):
            local_expansion(curve, origin, n)
    u, _ = local_expansion(curve, origin, 2)
    assert u.is_zero() and _fields(u) == (1, 2, ([], None, 1), 2)
    assert _fields(local_expansion(curve, origin, 3)[0]) == (1, 2, ([1], None, 1), 3)
    assert _fields(local_expansion(curve, origin, 4)[0]) == (1, 2, ([1, 0], None, 1), 4)


@pytest.mark.parametrize("name", ["t7:Phi7", "t4:Phi4"])
def test_chart_dumps_match_the_fixed_point_loop(monkeypatch, name):
    """`darboux --dump` of the Phi charts at orders 1 to 8, with u(t) from
    the Newton lift and from the oracle loop."""
    real, used = ellcurve._expand_at_point, []

    def oracle(curve, pt, n):
        if pt != AffinePoint(0, 0):
            return real(curve, pt, n)
        used.append(n)
        return ref_two_torsion_u(curve, n), PuiseuxSeries.monomial(QQ(1), n)

    monkeypatch.setattr(verifier, "_MEMO", {})
    new = [dump_series(name, order) for order in range(1, 9)]
    monkeypatch.setattr(verifier, "_MEMO", {})
    monkeypatch.setattr(ellcurve, "_expand_at_point", oracle)
    assert [dump_series(name, order) for order in range(1, 9)] == new
    assert used and all(new[1:])


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
    m, n, fg = f.norm_map(), g.norm_map(), (f * g).norm_map()
    prod = RationalMap(m.num * n.num, m.den * n.den)
    assert (fg.num, fg.den) == (prod.num, prod.den)


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


def test_divisor_norm_of_the_covering_divisors():
    """The pole polynomials that tests/test_belyi.py::test_genus1_fiber_over_one
    states by hand, and the zero polynomials: the 2-torsion point (0, 0)
    counts once, the two points over u = 1/4 (or 1) once each."""
    num7, den7 = divisor_norm(PHI7_DIVISOR)
    assert den7 == (poly(rat(-1, 8), 1) ** 2) * V_CLUSTER.minpoly ** 7
    assert num7 == poly(0, 1) * poly(rat(-1, 4), 1) ** 2 * U_CLUSTER.minpoly ** 7
    num4, den4 = divisor_norm(PHI4_DIVISOR)
    assert den4 == T_CLUSTER.minpoly ** 4
    assert num4 == poly(0, 1) * poly(-1, 1) ** 2 * S_CLUSTER.minpoly ** 7


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
    conj = CurveFunction(f.curve, f.a, -f.b, f.den)
    assert not verify_divisor(E7, conj, divisor).ok


def test_cluster_content_handles_norms():
    # G3 * conj(G3) = m_U * h: the shared minimal-polynomial content gives
    # order 1 on both branches, no split needed
    from darboux.ellcurve import _cluster_split
    f = cf(E7, (1, -10, 16), (2,))
    both = f * CurveFunction(E7, f.a, -f.b, f.den)
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
# substitution and inverses
# ---------------------------------------------------------------------------

def ref_subst(f, U, V):
    """Oracle: each part of f evaluated at U by a Horner loop in curve
    function arithmetic, then (a(U) + b(U)*V)/den(U)."""
    return (f.a(U) + f.b(U) * V) / f.den(U)


def ref_inverse(f):
    """Oracle: 1/f through the conjugate, (a - b v) den / (a^2 - b^2 rhs)."""
    n = f.a * f.a - f.b * f.b * f.curve.rhs
    return CurveFunction(f.curve, f.a * f.den, -f.b * f.den, n)


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(QQ)
part = st.lists(coeff, max_size=4).map(UniPoly)
nonzero_part = part.filter(bool)
curves = st.sampled_from((E7, E4))


def curve_functions(curve, v_part=True):
    return st.builds(CurveFunction, st.just(curve), part,
                     part if v_part else st.just(UniPoly()), nonzero_part)


def ref_involution(f):
    """Oracle: (u, v) -> (1/(32u), -v/(32u^2)) by reversing each part,
    p(1/(32u)) = sum_j p_{d-j} (32u)^j / (32u)^d, and combining the three
    quotients in curve-function arithmetic."""
    def at_inv_u(p):
        d = p.degree
        return (UniPoly([p[d - j] * QQ(32) ** j for j in range(d + 1)]),
                poly(0, 32) ** max(d, 0))

    (an, ad), (bn, bd), (dn, dd) = (at_inv_u(p) for p in (f.a, f.b, f.den))
    num = (CurveFunction(E7, an, UniPoly(), ad)
           + CurveFunction(E7, UniPoly(), -bn, bd * poly(0, 0, 32)))
    return num * CurveFunction(E7, dd, UniPoly(), dn)


nonzero_coeff = st.builds(lambda sign, x: QQ(sign * x), st.sampled_from((1, -1)),
                          st.fractions(min_value=rat(1, 4), max_value=5, max_denominator=4))
proper_part = st.builds(lambda low, top: UniPoly(low + [top]),
                        st.lists(coeff, min_size=1, max_size=3), nonzero_coeff)


@settings(max_examples=100, deadline=None)
@given(part, proper_part, proper_part)
def test_involution_matches_the_reversal_oracle(a, b, den):
    """On E7 functions with a v part and a denominator of degree 1-3."""
    f = CurveFunction(E7, a, b, den)
    got = involution_apply(f)
    assert got.curve is E7
    assert got == ref_involution(f)
    assert involution_apply(got) == f


@settings(max_examples=120, deadline=None)
@given(st.data(), curves, curves, st.booleans())
def test_subst_matches_the_horner_oracle(data, source, target, v_part):
    """For U with and without a v part; den(U) = 0 raises on both sides."""
    f = data.draw(curve_functions(source))
    U = data.draw(curve_functions(target, v_part))
    V = data.draw(curve_functions(target))
    try:
        want = ref_subst(f, U, V)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.subst(U, V)
        return
    got = f.subst(U, V)
    assert got.curve is target
    assert got == want


def test_subst_of_the_table_functions_through_the_isogeny():
    p = CurveFunction(E7, poly(0, 1), UniPoly(), poly(1, -11, 32))
    w = CurveFunction(E7, UniPoly(), poly(1, 0, -32), poly(1, -11, 32) ** 2)
    for _, f, _ in TABLE2:
        assert f.subst(p, w) == ref_subst(f, p, w)


def test_isogeny_pullback_of_phi4_keeps_low_degrees():
    """The parts of Phi4 have degree at most 31 in p.  Through p = u/c(u),
    c quadratic, and w = v(1-32u^2)/c(u)^2 they need degree at most 66 in u."""
    f = isogeny_pullback(phi4_on_e4())
    assert max(f.a.degree, f.b.degree, f.den.degree) <= 66


@settings(max_examples=80, deadline=None)
@given(st.data(), curves, st.booleans())
def test_inverse_matches_the_conjugate_form(data, curve, v_part):
    f = data.draw(curve_functions(curve, v_part))
    if f.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.inverse()
        return
    g = f.inverse()
    assert g == ref_inverse(f)
    assert f * g == 1
    if not v_part:
        assert (g.a, g.b, g.den) == (f.den, UniPoly(), f.a)


def test_inverse_of_zero_raises():
    for f in (cf(E7, ()), cf(E4, (), (), (3, 1))):
        with pytest.raises(ZeroDivisionError):
            f.inverse()


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
