"""Hypergeometric layer: series oracle values, operator residuals,
companion bases against the printed parameter matrices, contiguity,
interlacing, and the 3F2 parameter sets the catalog states."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from darboux.scalars import QQ, rat
from darboux.series import PuiseuxSeries, first_mismatch
from darboux import catalog
from darboux.catalog import IDENTITIES, run_check
from darboux.hypergeom import (
    CLASSES,
    HpgClass,
    NonGenericError,
    companion_basis,
    hpg_coefficient,
    hpg_series,
    interlacing_check,
    m_matrix,
    ode_residual,
    shift_down,
    solution_series,
)
from darboux.hypergeom import p3


# ---------------------------------------------------------------------------
# series values
# ---------------------------------------------------------------------------

def test_terminating_when_upper_contains_zero():
    s = hpg_series(p3(0, "1/2", "1/3", "1/5", "2/5"), 8)
    assert list(s.terms()) == [(QQ(0), QQ(1))]


def test_first_coefficient_term_ratio_oracle():
    # oracle: single term ratio a1*a2*a3/(b1*b2*1) for the class-3A member
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    expect = rat(-1, 42) * rat(13, 42) * rat(9, 14) / (rat(4, 7) * rat(6, 7))
    assert expect == rat(-13, 1344)
    assert hpg_series(p, 3).coefficient(1) == expect


def test_2f1_embedding_collapses():
    # upper (a, b, c2) over lower (c, c2): k=1 coefficient is ab/c
    p = p3("1/3", "1/5", "9/11", "4/7", "9/11")
    assert hpg_series(p, 2).coefficient(1) == rat(1, 3) * rat(1, 5) / rat(4, 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10))
def test_coefficients_match_pochhammer_product_route(k):
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    s = hpg_series(p, k + 1)
    assert s.coefficient(k) == hpg_coefficient(p, k)


def test_catalog_classes_have_pochhammer_coefficients():
    assert run_check("hpg-coefficients", 16).ok


def test_coefficients_check_names_a_wrong_member(monkeypatch):
    """A member whose series is that of a contiguous neighbour must fail."""
    wrong = CLASSES["3B"].members[2]

    def series(p, n):
        return hpg_series(p.shifted(dupper={1: 1}) if p == wrong else p, n)

    monkeypatch.setattr(catalog, "hpg_series", series)
    rep = run_check("hpg-coefficients", 16)
    assert rep.status == "fail"
    assert rep.detail.startswith(f"3B {wrong}: coefficient 1 "), rep.detail


# ---------------------------------------------------------------------------
# differential operator
# ---------------------------------------------------------------------------

def test_residual_of_solution_vanishes():
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    r = ode_residual(hpg_series(p, 12), p)
    assert r.is_zero()
    assert r.order_exponent >= 11


def test_residual_of_companion_members_vanishes():
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    basis = companion_basis(p)
    for sol in basis.at_zero:
        r = ode_residual(solution_series(sol, 10), p)
        assert r.is_zero(), sol
    for sol in basis.at_infinity:
        r = ode_residual(solution_series(sol, 10), p, at_infinity=True)
        assert r.is_zero(), sol


def test_residual_detects_non_solution():
    p = p3("1/5", "1/3", "1/2", "3/7", "5/7")
    bad = PuiseuxSeries.from_pairs([(QQ(0), QQ(1)), (QQ(1), QQ(1))], 8)
    assert not ode_residual(bad, p).is_zero()


def ref_ode_residual(y, p, at_infinity=False):
    """The former residual: delta chains of zderivative and scale over every
    grid slot, then a derivative (times -w^2 at infinity)."""
    a1, a2, a3 = p.upper
    b1, b2 = p.lower
    if not at_infinity:
        def chain(out, shifts):
            for s in reversed(shifts):
                out = out.zderivative() + out.scale(s)
            return out
        return chain(y, (a1, a2, a3)) - chain(y, (b1 - 1, b2 - 1)).derivative()

    def mdelta(s, shift):
        return s.scale(shift) - s.zderivative()

    left = mdelta(mdelta(mdelta(y, a3), a2), a1)
    inner = mdelta(mdelta(y, b2 - 1), b1 - 1)
    w2 = PuiseuxSeries.monomial(QQ(2), inner.order_exponent + 2, QQ(1))
    return left - (inner.derivative() * w2).scale(QQ(-1))


def assert_same_series(got, want):
    assert (got.grid, got.lead, got.order) == (want.grid, want.lead, want.order)
    assert list(got.coeffs) == list(want.coeffs)


def _catalog_solutions():
    for cls in CLASSES.values():
        for p in (cls.representative,) + cls.members:
            for sol in companion_basis(p).all():
                yield p, sol


def test_residual_matches_delta_chains_on_catalog_solutions():
    # every local solution the hpg-ode check runs, and four perturbations of
    # each: one coefficient changed, one dropped, the window cut, the
    # exponent shifted by 1/42
    for p, sol in _catalog_solutions():
        y = solution_series(sol, 6)
        bumped = list(y.coeffs)
        bumped[-1] += 1
        ys = [y,
              PuiseuxSeries.make(y.grid, y.lead, bumped, y.order),
              PuiseuxSeries.make(y.grid, y.lead, [0] + list(y.coeffs[1:]), y.order),
              y.truncate(y.order_exponent - 2),
              y * PuiseuxSeries.monomial(QQ(1, 42), QQ(1, 42) + y.order_exponent)]
        for z in ys:
            want = ref_ode_residual(z, p, sol.at_infinity)
            assert_same_series(ode_residual(z, p, sol.at_infinity), want)
        assert ode_residual(y, p, sol.at_infinity).is_zero()


coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(QQ)


@settings(max_examples=150, deadline=None)
@given(coefficient.filter(bool), st.lists(coefficient, max_size=8),
       st.sampled_from((1, 2, 14, 42)), st.integers(-3 * 42, 3 * 42), st.booleans())
def test_residual_matches_delta_chains_on_any_series(c0, cs, grid, lead, at_infinity):
    # at infinity the former window stopped short of N when the lead was
    # below -1; the values agree below it, and the new window is not lower
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    lead = lead * grid // 42
    y = PuiseuxSeries.make(grid, lead, [c0] + cs, lead + 1 + len(cs))
    assume(y.order > 0 or not at_infinity)     # where the former code raised
    want = ref_ode_residual(y, p, at_infinity)
    got = ode_residual(y, p, at_infinity)
    assert first_mismatch(got, want) is None
    assert got.order_exponent >= want.order_exponent
    if y.lead_exponent >= -1:
        assert_same_series(got, want)


def test_catalog_classes_all_solve_their_equations():
    rep = run_check("hpg-ode", 16)
    assert rep.ok, rep


def test_ode_check_names_a_wrong_member(monkeypatch):
    """A member whose basis is that of a contiguous neighbour must fail."""
    wrong = CLASSES["4A"].members[1]

    def basis(p):
        return companion_basis(p.shifted(dupper={0: 1}) if p == wrong else p)

    monkeypatch.setattr(catalog, "companion_basis", basis)
    rep = run_check("hpg-ode", 16)
    assert rep.status == "fail"
    assert rep.detail.startswith(f"4A {wrong}:"), rep.detail


# ---------------------------------------------------------------------------
# parameter matrix and companion bases
# ---------------------------------------------------------------------------

def test_m_matrix_printed_values():
    # the three classification-table matrices as printed
    m3b = m_matrix(CLASSES["3B"].representative)
    assert m3b == (
        (rat(-1, 14), rat(11, 42), rat(25, 42)),
        (rat(3, 14), rat(23, 42), rat(37, 42)),
        (rat(5, 14), rat(29, 42), rat(43, 42)),
    )
    m4b = m_matrix(CLASSES["4B"].representative)
    assert m4b == (
        (rat(-1, 14), rat(5, 28), rat(19, 28)),
        (rat(3, 14), rat(13, 28), rat(27, 28)),
        (rat(5, 14), rat(17, 28), rat(31, 28)),
    )
    m7b = m_matrix(CLASSES["7B"].representative)
    assert m7b == (
        (rat(-1, 14), rat(1, 14), rat(9, 14)),
        (rat(1, 14), rat(3, 14), rat(11, 14)),
        (rat(9, 14), rat(11, 14), rat(19, 14)),
    )
    # symmetry of the 7B matrix
    for i in range(3):
        for j in range(3):
            assert m7b[i][j] == m7b[j][i]


def test_companion_exponents_7b():
    basis = companion_basis(CLASSES["7B"].representative)
    assert sorted(s.exponent for s in basis.at_zero) == [0, rat(1, 7), rat(5, 7)]


def test_companion_exponents_3a_theorem_member():
    basis = companion_basis(p3("-1/42", "13/42", "9/14", "4/7", "6/7"))
    assert sorted(s.exponent for s in basis.at_zero) == [0, rat(1, 7), rat(3, 7)]
    # printed local basis: the three parameter sets of the degree-24 theorem
    # (parameter tuples compared as sets; pFq is symmetric within each row)
    def key(p):
        return (tuple(sorted(p.upper)), tuple(sorted(p.lower)))

    got = {key(s.params) for s in basis.at_zero}
    assert got == {
        key(p3("-1/42", "13/42", "9/14", "4/7", "6/7")),
        key(p3("5/42", "19/42", "11/14", "5/7", "8/7")),
        key(p3("17/42", "31/42", "15/14", "9/7", "10/7")),
    }


def test_symmetric_matrix_gives_same_triples_at_infinity():
    basis = companion_basis(CLASSES["7B"].representative)
    at0 = {s.params.upper for s in basis.at_zero}
    atinf = {s.params.upper for s in basis.at_infinity}
    assert at0 == atinf


def test_companion_basis_refuses_resonance():
    with pytest.raises(NonGenericError):
        companion_basis(p3("1/2", "1/3", "1/5", "1/4", "5/4"))


# ---------------------------------------------------------------------------
# contiguity
# ---------------------------------------------------------------------------

def _exponents(f: PuiseuxSeries):
    return [QQ(f.lead + i, f.grid) for i in range(len(f.coeffs))]


def contiguous_apply(kind, p, f: PuiseuxSeries) -> PuiseuxSeries:
    """Reference contiguous shifts, as differential operators on a solution
    series.  kind is one of
      ("identity",)
      ("derivative",)            d/dz F = (prod upper / prod lower) F(all+1)
      ("upper+1", j)             F with upper[j] raised by one
      ("upper+1-inv", j)         exact inverse of ("upper+1", j)
      ("lower-1", j)             F with lower[j] lowered by one
    """
    tag = kind[0]
    if tag == "identity":
        return f
    if tag == "derivative":
        return f.derivative()
    if tag == "upper+1":
        a = p.upper[kind[1]]
        if not a:
            raise ZeroDivisionError("upper parameter 0 cannot be raised this way")
        return f + f.zderivative().scale(1 / QQ(a))
    if tag == "upper+1-inv":
        a = p.upper[kind[1]]
        out = []
        for e, c in zip(_exponents(f), f.coeffs):
            if a + e == 0:
                raise ZeroDivisionError("vanishing denominator in inverse shift")
            out.append(c * a / (a + e))
        return PuiseuxSeries.make(f.grid, f.lead, out, f.order)
    if tag == "lower-1":
        b = p.lower[kind[1]]
        if b == 1:
            raise ZeroDivisionError("lower parameter 1 cannot be lowered this way")
        return f + f.zderivative().scale(1 / QQ(b - 1))
    raise ValueError(f"unknown contiguous shift {kind!r}")


def test_derivative_relation():
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    n = 14
    lhs = contiguous_apply(("derivative",), p, hpg_series(p, n))
    factor = rat(-1, 42) * rat(13, 42) * rat(9, 14) / (rat(4, 7) * rat(6, 7))
    rhs = hpg_series(p.shifted({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}), n - 1).scale(factor)
    assert first_mismatch(lhs, rhs) is None


def test_upper_shift_matches_direct_series():
    p = p3("-1/42", "13/42", "9/14", "4/7", "6/7")
    got = contiguous_apply(("upper+1", 0), p, hpg_series(p, 12))
    assert first_mismatch(got, hpg_series(p.shifted({0: 1}), 12)) is None


def test_lower_shift_matches_direct_series():
    p = p3("1/5", "2/5", "4/5", "5/7", "8/7")
    got = contiguous_apply(("lower-1", 1), p, hpg_series(p, 12))
    assert first_mismatch(got, hpg_series(p.shifted((), {1: -1}), 12)) is None


def test_upper_shift_roundtrip():
    p = p3("1/5", "2/5", "4/5", "5/7", "8/7")
    f = hpg_series(p, 12)
    g = contiguous_apply(("upper+1", 2), p, f)
    back = contiguous_apply(("upper+1-inv", 2), p, g)
    assert first_mismatch(back, f) is None


def test_second_order_shift_matches_direct_series():
    p = p3("5/14", "2/5", "4/5", "5/7", "9/7")
    got = shift_down(p, 0, 0, hpg_series(p, 12))
    want = hpg_series(p.shifted({0: -1}, {0: -1}), 10)
    assert first_mismatch(got, want, below=9) is None


def test_identity_shift():
    p = p3("1/5", "2/5", "4/5", "5/7", "8/7")
    f = hpg_series(p, 9)
    assert contiguous_apply(("identity",), p, f) is f


def test_contiguous_catalog_evaluations():
    assert run_check("hpg-contiguity", 24).ok


def test_contiguity_check_names_a_wrong_pair(monkeypatch):
    pairs = list(catalog._CONTIGUOUS)
    pairs[2] = ("thm-7Ainf-3", "thm-7B-extra")
    monkeypatch.setattr(catalog, "_CONTIGUOUS", tuple(pairs))
    rep = run_check("hpg-contiguity", 24)
    assert rep.status == "fail"
    assert rep.detail.startswith("thm-7Ainf-3 -> thm-7B-extra: "), rep.detail


def test_contiguity_check_names_the_pair_a_wrong_shift_breaks(monkeypatch):
    """With the operator's result cut to its constant term, the first
    relation fails at its first coefficient."""
    def constant_term(p, i, j, f):
        s = shift_down(p, i, j, f)
        return PuiseuxSeries.const(s.coefficient(0), s.order_exponent)

    monkeypatch.setattr(catalog, "shift_down", constant_term)
    rep = run_check("hpg-contiguity", 24)
    assert rep.status == "fail"
    assert rep.detail == "thm-3A-3 -> contig-3A-extra"
    assert rep.first_mismatch.exponent == 1


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------

def test_interlacing_on_catalog_classes():
    assert run_check("hpg-interlacing", 16).ok


def test_interlacing_check_names_a_wrong_member(monkeypatch):
    wrong = p3("1/2", "1/2", "1/2", "1/3", "2/3")
    cls = CLASSES["7B"]
    monkeypatch.setitem(CLASSES, "7B", HpgClass(cls.label, cls.representative,
                                                cls.members + (wrong,)))
    rep = run_check("hpg-interlacing", 16)
    assert rep.status == "fail"
    assert rep.detail == f"7B {wrong}: the conjugate at k=1 does not interlace"


def test_interlacing_check_names_a_wrong_conjugate(monkeypatch):
    # this set interlaces, but its conjugate at k=2 does not
    wrong = p3("1/7", "3/7", "5/7", "2/7", "4/7")
    assert interlacing_check(wrong)
    cls = CLASSES["3A"]
    monkeypatch.setitem(CLASSES, "3A", HpgClass(cls.label, cls.representative,
                                                cls.members + (wrong,)))
    rep = run_check("hpg-interlacing", 16)
    assert rep.status == "fail"
    assert rep.detail == f"3A {wrong}: the conjugate at k=2 does not interlace"


def test_interlacing_false_for_non_algebraic_pick():
    assert not interlacing_check(p3("1/2", "1/2", "1/2", "1/3", "2/3"))


def test_interlacing_non_generic_error():
    with pytest.raises(NonGenericError):
        interlacing_check(p3("1/3", "1/2", "3/4", "1/3", "2/3"))


# ---------------------------------------------------------------------------
# the 3F2 parameter sets, as the catalog states them
# ---------------------------------------------------------------------------

def _as_multisets(p):
    return tuple(sorted(p.upper)), tuple(sorted(p.lower))


def test_class_members_are_the_catalog_3f2_atoms():
    """Each class member is the 3F2 of some identity, and each 3F2 of an
    identity is a member, parameters compared as multisets (the right side
    of t32a-quadratic states thm-7B-1's set in another order)."""
    atoms = {_as_multisets(f.params())
             for spec in IDENTITIES for term in spec.left + spec.right for f in term.factors
             if isinstance(f, catalog.Hpg) and len(f.upper) == 3}
    members = {_as_multisets(p) for cls in CLASSES.values() for p in cls.members}
    assert len(members) == 26
    assert atoms == members
