"""The integer product kernel against the coefficient loops it replaced.

The reference functions below are the former implementations of ps_mul
(a direct convolution of rationals), of the unit inverse behind ps_div (the
linear recurrence), of ps_compose (Horner with every step kept to the
full bound), of UniPoly.eval_series
(Horner with a series product and an added constant per step), of
series._horner (Horner with one kernel product per step, where the
evaluator now takes baby steps and giant steps; the slot types must match
too), of ps_pow
(the Miller recurrence over every grid slot), of UniPoly.__mul__ (the
schoolbook convolution) and of the series sum, scaling, grid refinement,
truncation, derivatives and first_mismatch over coefficient tuples (before
a series became one integer vector).  The kernel must reproduce their
results exactly: the same grid, lead, order and coefficients, or the same
polynomial.  The one exception is a polynomial at an argument of negative
valuation, whose window may only be higher.  Slot types follow the
kernel's rule: nonzero coefficients are Omega exactly when an operand has
a w part, for sums too, and zero slots are the rational 0.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

import darboux.kernel as kernel_module
from darboux.kernel import (_TERMWISE, _kdot, _kmul, _pack, _packed, _reduced, _scalars, _stride,
                            _unpack, _vec)
from darboux.polyalg import UniPoly
from darboux.scalars import QQ, ZERO, ONE, Omega, scalar_inv
from darboux.series import PuiseuxSeries, _horner, first_mismatch, ps_compose, ps_div, ps_mul, ps_pow


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def zero_at(grid, order):
    """The zero series known below grid index order."""
    return PuiseuxSeries.make(grid, order, (), order)


def ref_mul(a, b):
    """Product by direct convolution of the coefficient lists."""
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    la = a.lead if a.coeffs else a.order
    lb = b.lead if b.coeffs else b.order
    order = min(a.order + lb, b.order + la)
    if a.is_zero() or b.is_zero():
        return zero_at(g, order)
    lead = a.lead + b.lead
    n = order - lead
    out = [ZERO] * n
    bc = b.coeffs
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        if i >= n:
            break
        for j in range(min(len(bc), n - i)):
            cb = bc[j]
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return PuiseuxSeries.make(g, lead, out, order)


def ref_unit_inverse(coeffs, n):
    """Inverse of a unit power series (c0 != 0) to n terms, by recurrence."""
    c0inv = scalar_inv(coeffs[0])
    out = [c0inv] + [ZERO] * (n - 1)
    for k in range(1, n):
        s = ZERO
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            if coeffs[j] and out[k - j]:
                s = s + coeffs[j] * out[k - j]
        out[k] = -c0inv * s
    return out


def ref_div(a, b):
    g = lcm(a.grid, b.grid)
    a, b = a.to_grid(g), b.to_grid(g)
    rel = b.order - b.lead
    inv = PuiseuxSeries.make(g, -b.lead, ref_unit_inverse(b.coeffs, rel), -b.lead + rel)
    return ref_mul(a, inv)


def ref_compose(a, b):
    """a(b) for a Taylor series a, by Horner, every step truncated at the
    full bound."""
    vb = b.lead_exponent
    nb = b.order_exponent
    bound = QQ(a.order) * vb
    support = [a.lead + i for i, c in enumerate(a.coeffs) if c and (a.lead + i)]
    if support:
        bound = min(bound, nb + (min(support) - 1) * vb)
    acc = PuiseuxSeries.zero(bound, b.grid)
    if a.is_zero():
        return acc
    for k in range(a.order - 1, -1, -1):
        acc = ref_mul(acc, b).truncate(bound)
        idx = k - a.lead
        c = a.coeffs[idx] if 0 <= idx < len(a.coeffs) else ZERO
        if c:
            acc = acc + PuiseuxSeries.const(c, bound, b.grid)
    return acc.truncate(bound)


def ref_eval_series(p, s):
    """p(s) by Horner with a series product and an added constant at every
    step; it raises ValueError where a constant's window falls to 0 or below."""
    out = PuiseuxSeries.zero(s.order_exponent, s.grid)
    for c in reversed(p.coeffs):
        out = ref_mul(out, s)
        if c:
            out = out + PuiseuxSeries.const(c, out.order_exponent, out.grid)
    return out


def ref_horner(c, b, stop):
    """sum of c[k] b^k below grid index stop, by Horner with one kernel
    product per step: the integer accumulator is anchored at grid index
    base = min(0, top*v), kept below stop - k*v after step k, and c[k] is
    added when its slot lies inside that window."""
    v, top = b.lead, len(c) - 1
    base = min(0, top * v)
    steps = range(min(top, (stop - 1) // v) if v > 0 else top, -1, -1)
    if stop <= base or not steps:
        return zero_at(b.grid, stop)
    bvec = _vec(b.coeffs)
    re, im, d = [], None, 1
    for k in steps:
        cut = stop - k * v - base
        if any(re) or (im is not None and any(im)):
            # the product starts at base + v: lift it by v, or drop -v slots
            re, im, d = _kmul((re, im, d), bvec, cut - v)
            re = [0] * v + re if v > 0 else re[-v:]
            im = None if im is None else ([0] * v + im if v > 0 else im[-v:])
        else:
            re, im = [0] * cut, None if im is None else [0] * cut
        if c[k] and -base < cut:
            cr, ci, cd = _vec([c[k]])
            if ci is not None and not ci[0]:
                ci = None           # a zero w part brings none
            dn = lcm(d, cd)
            if dn != d:
                re = [x * (dn // d) for x in re]
                im = None if im is None else [x * (dn // d) for x in im]
            if ci is not None and im is None:
                im = [0] * cut
            re[-base] += cr[0] * (dn // cd)
            if ci is not None:
                im[-base] += ci[0] * (dn // cd)
            d = dn
        re, im, d = _reduced(re, im, d)
    return PuiseuxSeries.make(b.grid, base, _scalars((re, im, d)), stop)


def ref_pow(a, r):
    """a**r, for a with unit coefficient 1, by the Miller recurrence
    k*y_k = sum_j ((r+1)*j - k) * u_j * y_(k-j) on every grid slot, in
    rationals."""
    r = QQ(r)
    new_lead = a.lead_exponent * r
    g = lcm(a.grid, int(new_lead.denominator))
    rel = a.order - a.lead
    u = a.coeffs
    out = [ONE] + [ZERO] * (rel - 1)
    for k in range(1, rel):
        s = ZERO
        for j in range(1, min(k, len(u) - 1) + 1):
            if u[j] and out[k - j]:
                s = s + ((r + 1) * j - k) * u[j] * out[k - j]
        out[k] = s / k
    lead = int(new_lead.numerator) * (g // int(new_lead.denominator))
    f = g // a.grid
    coeffs = [ZERO] * (rel * f)
    for i, c in enumerate(out):
        coeffs[i * f] = c
    return PuiseuxSeries.make(g, lead, coeffs, lead + rel * f)


def ref_poly_mul(p, q):
    """Polynomial product by schoolbook convolution of the coefficients."""
    if not p.coeffs or not q.coeffs:
        return UniPoly()
    out = [ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                out[i + j] = out[i + j] + a * b
    return UniPoly(out)


def ref_series(grid, lead, coeffs, order):
    """The series of a scalar list, its leading zeros stripped on the
    scalars, built without ``make``."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        lead += 1
    return PuiseuxSeries(grid, lead, _vec(coeffs), order) if coeffs else zero_at(grid, order)


def ref_to_grid(a, grid):
    """The coefficient tuple spread onto a finer grid."""
    if grid == a.grid:
        return a
    f = grid // a.grid
    coeffs = [ZERO] * (len(a.coeffs) * f)
    for i, c in enumerate(a.coeffs):
        coeffs[i * f] = c
    return ref_series(grid, a.lead * f, coeffs, a.order * f)


def ref_add(a, b):
    """Sum by adding the coefficients slot by slot."""
    g = lcm(a.grid, b.grid)
    a, b = ref_to_grid(a, g), ref_to_grid(b, g)
    order = min(a.order, b.order)
    if a.is_zero() and b.is_zero():
        return zero_at(g, order)
    lead = min(a.lead if a.coeffs else order, b.lead if b.coeffs else order)
    out = [ZERO] * (order - lead)
    for s in (a, b):
        for i, c in enumerate(s.coeffs):
            k = s.lead + i - lead
            if 0 <= k < len(out):
                out[k] = out[k] + c
    return ref_series(g, lead, out, order)


def ref_scale(a, c):
    if not c:
        return zero_at(a.grid, a.order)
    return ref_series(a.grid, a.lead, [c * x for x in a.coeffs], a.order)


def ref_truncate(a, order_exp):
    n = -(-QQ(order_exp).numerator * a.grid // QQ(order_exp).denominator)
    if n >= a.order:
        return a
    m = max(n, a.lead)
    return ref_series(a.grid, a.lead, a.coeffs[: m - a.lead], m)


def ref_derivative(a, z=False):
    """d/dz, or z*d/dz when z is set, coefficient by coefficient."""
    g = a.grid
    coeffs = [c * QQ(a.lead + i, g) for i, c in enumerate(a.coeffs)]
    shift = 0 if z else g
    return ref_series(g, a.lead - shift, coeffs, a.order - shift)


def ref_first_mismatch(a, b, below=None):
    """The first exponent below min(orders, below) whose coefficients
    differ as scalars, with both of them."""
    g = lcm(a.grid, b.grid)
    a, b = ref_to_grid(a, g), ref_to_grid(b, g)
    stop = min(a.order, b.order)
    if below is not None:
        want = -(-QQ(below).numerator * g // QQ(below).denominator)
        if stop < want:
            raise ValueError(f"series only known below {QQ(stop, g)}, cannot compare below {below}")
        stop = min(stop, want)
    start = min(a.lead if a.coeffs else stop, b.lead if b.coeffs else stop)
    for k in range(start, stop):
        ca = a.coeffs[k - a.lead] if 0 <= k - a.lead < len(a.coeffs) else ZERO
        cb = b.coeffs[k - b.lead] if 0 <= k - b.lead < len(b.coeffs) else ZERO
        if ca != cb:
            return QQ(k, g), ca, cb
    return None


def ref_kdot(terms, n):
    """The scalars of slots 0 .. n-1 of sum s * x * z**at, slot by slot."""
    out = [ZERO] * n
    for s, x, at in terms:
        for i, c in enumerate(x):
            if 0 <= i + at < n:
                out[i + at] = out[i + at] + s * c
    return out


def assert_same(got, want):
    assert (got.grid, got.lead, got.order) == (want.grid, want.lead, want.order)
    assert list(got.coeffs) == list(want.coeffs)


def assert_types(got, *inputs):
    """Nonzero coefficients are Omega exactly when an input holds an Omega."""
    omega = any(isinstance(c, Omega) for s in inputs for c in s.coeffs)
    for c in got.coeffs:
        if c:
            assert isinstance(c, Omega) == omega
        else:
            assert c is ZERO


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=7).map(QQ)
big = st.builds(lambda sign, n, d: QQ(sign * ((1 << 600) + n), d),
                st.sampled_from((1, -1)), st.integers(min_value=0, max_value=1 << 100),
                st.integers(min_value=1, max_value=1 << 70))
rational = st.one_of(small, big, st.just(ZERO))
omega = st.builds(Omega, small, small)
scalar = {
    "rational": rational,
    "omega": st.one_of(omega, st.just(ZERO)),
    "mixed": st.one_of(rational, omega),
}
# without the 600-bit numerators, for arguments raised to powers up to 40
modest = {
    "rational": st.one_of(small, st.just(ZERO)),
    "omega": scalar["omega"],
    "mixed": st.one_of(small, omega),
}
# nonzero leads and constants, drawn from strategies that cannot yield 0
# (a filter on a just(ZERO) branch can abort the whole test)
nonzero_small = st.builds(lambda sign, x: QQ(sign * x), st.sampled_from((1, -1)),
                          st.fractions(min_value=QQ(1, 7), max_value=9, max_denominator=7))
nonzero_omega = st.one_of(st.builds(Omega, nonzero_small, small),
                          st.builds(Omega, small, nonzero_small))
nonzero = {
    "rational": st.one_of(nonzero_small, big),
    "omega": nonzero_omega,
    "mixed": st.one_of(nonzero_small, big, nonzero_omega),
}
nonzero_modest = {
    "rational": nonzero_small,
    "omega": nonzero_omega,
    "mixed": st.one_of(nonzero_small, nonzero_omega),
}


@st.composite
def series(draw, kind="rational", step=None, lead=None, grid=None, max_terms=12,
           min_terms=1, modest_values=False):
    """A canonical series whose nonzero offsets are multiples of `step`
    (grid-1 support spread onto grid 42 or 60 when step > 1), with
    min_terms to max_terms strides before the cut."""
    values, leads = (modest, nonzero_modest) if modest_values else (scalar, nonzero)
    step = draw(st.sampled_from((1, 42, 60))) if step is None else step
    if grid is None:
        grid = step if step > 1 else draw(st.sampled_from((1, 2)))
    if lead is None:
        lead = draw(st.integers(min_value=-2, max_value=3)) * step
    terms = draw(st.integers(min_value=min_terms, max_value=max_terms))
    coeffs = [ZERO] * (terms * step)
    for i in range(1, terms):
        coeffs[i * step] = draw(values[kind])
    coeffs[0] = draw(leads[kind])
    # cut the window anywhere inside the last stride
    cut = draw(st.integers(min_value=0, max_value=step - 1))
    coeffs = coeffs[:len(coeffs) - cut] or coeffs[:1]
    return PuiseuxSeries.make(grid, lead, coeffs, lead + len(coeffs))


def zero_series(step):
    return st.builds(lambda o: PuiseuxSeries.zero(o), st.integers(min_value=-2, max_value=6)) \
        if step == 1 else st.just(zero_at(step, 5 * step))


kinds = st.sampled_from(("rational", "omega", "mixed"))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds, st.sampled_from((1, 42, 60, None)))
def test_mul_matches_convolution(data, ka, kb, step):
    a = data.draw(series(ka, step))
    b = data.draw(series(kb, step))
    got = ps_mul(a, b)
    assert_same(got, ref_mul(a, b))
    assert_types(got, a, b)


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds, st.sampled_from((1, 42, 60)))
def test_mul_with_zero_series(data, kind, step):
    a = data.draw(series(kind, step))
    z = data.draw(zero_series(step))
    assert_same(ps_mul(a, z), ref_mul(a, z))
    assert_same(ps_mul(z, a), ref_mul(z, a))
    assert_same(ps_mul(z, z), ref_mul(z, z))


@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds, st.sampled_from((1, 42, 60, None)))
def test_div_matches_recurrence(data, ka, kb, step):
    a = data.draw(series(ka, step))
    b = data.draw(series(kb, step))
    got = ps_div(a, b)
    assert_same(got, ref_div(a, b))
    assert_types(got, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data(), kinds, st.sampled_from((1, 42, 60)))
def test_div_of_zero_series(data, kind, step):
    b = data.draw(series(kind, step))
    z = data.draw(zero_series(step))
    assert_same(ps_div(z, b), ref_div(z, b))


@settings(max_examples=250, deadline=None)
@given(st.data(), kinds, kinds, st.sampled_from((1, 42, 60)))
def test_compose_matches_full_precision_horner(data, ka, kb, step):
    a = data.draw(series(ka, 1, lead=data.draw(st.integers(min_value=0, max_value=3)), grid=1,
                         max_terms=10))
    lead = data.draw(st.integers(min_value=1, max_value=3)) * step
    b = data.draw(series(kb, step, lead=lead, grid=step, max_terms=8))
    assert_same(ps_compose(a, b), ref_compose(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((1, 42)))
def test_compose_of_zero_and_constant(data, step):
    b = data.draw(series("mixed", step, lead=step, grid=step))
    for a in (PuiseuxSeries.zero(data.draw(st.integers(min_value=1, max_value=6))),
              PuiseuxSeries.const(data.draw(nonzero["rational"]), 4)):
        assert_same(ps_compose(a, b), ref_compose(a, b))


def test_compose_skips_steps_beyond_the_bound():
    # a has 40 known terms, but b is known only below x^7, which bounds the
    # result there: Horner starts at step 2, not at step 39
    a = PuiseuxSeries.make(1, 0, [QQ(k + 1, k + 2) for k in range(40)], 40)
    b = PuiseuxSeries.make(1, 3, [QQ(1), QQ(-2), QQ(1, 3), QQ(5)], 7)
    assert_same(ps_compose(a, b), ref_compose(a, b))


# ---------------------------------------------------------------------------
# sums, scaling, grids, windows, derivatives and comparison on the vectors
# ---------------------------------------------------------------------------

@st.composite
def any_series(draw, kind):
    """A series on grid 1, 2, 3 or 42 (support step 1, 3 or 42), or now
    and then a zero series on grid 1, 2 or 42."""
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        o = draw(st.integers(min_value=-6, max_value=12))
        return zero_at(draw(st.sampled_from((1, 2, 42))), o)
    return draw(series(kind, draw(st.sampled_from((1, 3, 42))), max_terms=8))


def assert_slot_types(got, want):
    assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]


@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds)
def test_add_matches_the_tuple_loop(data, ka, kb):
    """Values, lead and order as the slot loop gives them; the slots are
    Omega when either operand has a w part, as for products."""
    a = data.draw(any_series(ka))
    if a.is_zero() or data.draw(st.booleans()):
        b = data.draw(any_series(kb))
    else:
        # b cancels the rational part of a's lead: the sum's lead is a w
        # part alone, or it moves up
        c = a.coeffs[0]
        b = PuiseuxSeries.monomial(a.lead_exponent, a.order_exponent,
                                   -c.a if isinstance(c, Omega) else -c)
    got = a + b
    assert_same(got, ref_add(a, b))
    assert_types(got, a, b)
    got = a - b
    assert_same(got, ref_add(a, ref_scale(b, -ONE)))
    assert_types(got, a, b)


@settings(max_examples=200, deadline=None)
@given(st.data(), kinds, kinds)
def test_scale_matches_the_tuple_loop(data, ka, kc):
    a, c = data.draw(any_series(ka)), data.draw(scalar[kc])
    got = a.scale(c)
    assert_same(got, ref_scale(a, c))
    assert_types(got, a, PuiseuxSeries.const(c, 1))


@settings(max_examples=200, deadline=None)
@given(st.data(), kinds, st.sampled_from((1, 2, 7)),
       st.fractions(min_value=-8, max_value=14, max_denominator=6))
def test_grid_and_window_match_the_tuple_loops(data, kind, f, e):
    """to_grid and truncate keep every slot's type; the derivatives follow
    the type rule."""
    a = data.draw(any_series(kind))
    for got, want in ((a.to_grid(a.grid * f), ref_to_grid(a, a.grid * f)),
                      (a.truncate(QQ(e)), ref_truncate(a, QQ(e)))):
        assert_same(got, want)
        assert_slot_types(got, want)
    for got, want in ((a.derivative(), ref_derivative(a)),
                      (a.zderivative(), ref_derivative(a, z=True))):
        assert_same(got, want)
        assert_types(got, a)


def mismatch_outcome(find, a, b, below):
    """The exponent and both values with their types, or the error."""
    try:
        hit = find(a, b, below)
    except ValueError as e:
        return str(e)
    return hit and (hit[0], type(hit[1]), hit[1], type(hit[2]), hit[2])


@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds)
def test_first_mismatch_matches_the_tuple_loop(data, ka, kb):
    """Against another series, against the same values on a finer grid and
    against one slot bumped, whose denominator may differ."""
    a = data.draw(any_series(ka))
    how = data.draw(st.sampled_from(("other", "finer", "bumped")))
    if how == "other":
        b = data.draw(any_series(kb))
    elif how == "finer":
        b = a.to_grid(a.grid * data.draw(st.sampled_from((2, 3))))
    else:
        k = data.draw(st.integers(min_value=-4, max_value=12))
        b = a + PuiseuxSeries.monomial(QQ(k, a.grid), a.order_exponent + 1,
                                       data.draw(nonzero[kb])) if k < a.order else a
    below = data.draw(st.one_of(st.none(), st.integers(min_value=-4, max_value=14)))
    for x, y in ((a, b), (b, a)):
        assert mismatch_outcome(first_mismatch, x, y, below) == \
            mismatch_outcome(ref_first_mismatch, x, y, below)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=6), kinds)
def test_kdot_matches_a_plain_loop(data, n, kind):
    """Offsets from -n-2 to n+2: a term at or past n adds nothing, one below
    0 drops its first slots."""
    terms = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        s = data.draw(nonzero[kind])
        x = data.draw(st.lists(scalar[kind], min_size=1, max_size=8))
        terms.append((s, x, data.draw(st.integers(min_value=-n - 2, max_value=n + 2))))
    got = _kdot([(_vec([s]), _vec(x), at) for s, x, at in terms], n)
    assert _scalars(got) == ref_kdot(terms, n)


def test_kdot_skips_a_term_past_the_window():
    assert _kdot([(([1], None, 1), ([1, 2, 3], None, 1), 5)], 3) == ([0, 0, 0], None, 1)


# ---------------------------------------------------------------------------
# the evaluator, by baby steps and giant steps, against one step per term
# ---------------------------------------------------------------------------

def assert_horner(c, b, stop):
    """Values, lead, order and the type of every slot as the loop gives them."""
    got = _horner(_vec(c), b, stop)
    want = ref_horner(c, b, stop)
    assert_same(got, want)
    assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]
    return got


@st.composite
def horner_args(draw, kc, kb):
    """Up to 42 coefficients and a nonzero argument with lead -3..3 in units
    of its support step, on grid 1, 2, 7 or 42 and with modest numerators;
    the window runs from below the anchor to past the last step, so that
    blocks of k > 1 and partial last blocks occur."""
    grid = draw(st.sampled_from((1, 2, 7, 42)))
    step = draw(st.sampled_from((1, grid)))
    lead = draw(st.integers(min_value=-3, max_value=3)) * step
    b = draw(series(kb, step, lead=lead, grid=grid, max_terms=6, modest_values=True))
    size = draw(st.integers(min_value=0, max_value=42))
    c = draw(st.lists(scalar[kc], min_size=size, max_size=size))
    return c, b, lead + step * draw(st.integers(min_value=-5, max_value=45))


@settings(max_examples=150, deadline=None)
@given(st.data(), kinds, kinds)
def test_horner_matches_one_step_loop(data, kc, kb):
    assert_horner(*data.draw(horner_args(kc, kb)))


def make(grid, lead, coeffs):
    return PuiseuxSeries.make(grid, lead, coeffs, lead + len(coeffs))


def test_horner_at_block_boundaries():
    """K = k*k - 1, k*k and k*k + 1 steps reach the window (k = 4, 5, 5),
    at rational and Q(w) arguments of valuation 1, 2 and -1."""
    args = [make(1, 1, [QQ(2), QQ(-1, 3), QQ(5, 7), QQ(1)]),
            make(1, 1, [Omega(1, 2), QQ(-1, 3), Omega(0, 5)]),
            make(2, 2, [QQ(3), ZERO, QQ(1, 2), QQ(-4)]),
            make(1, -1, [QQ(1, 2), Omega(1, -1), QQ(3)])]
    for n in (24, 25, 26):
        c = [QQ(j + 1, j + 2) if j % 3 else Omega(j, 1) for j in range(n)]
        for b in args:
            # steps 0 .. n-1 reach the window; step n, when present, does not
            if b.lead > 0:
                assert_horner(c + [ONE], b, (n - 1) * b.lead + 1)
            else:
                assert_horner(c, b, 3)


def test_horner_window_that_ends_inside_a_block():
    # 40 coefficients, but only steps 0 .. 16 reach below 17: k = 4 and the
    # last block holds one step; at valuation 2 steps 0 .. 13, k = 3
    c = [QQ(k + 1, k + 2) for k in range(40)]
    b = make(1, 1, [QQ(1), QQ(-2), QQ(1, 3), QQ(5)])
    for stop in (17, 18, 19, 20):
        assert_horner(c, b, stop)
    b2 = make(1, 2, [QQ(1), QQ(-2), Omega(1, 3), QQ(5)])
    for stop in (27, 28):
        assert_horner(c, b2, stop)


def test_horner_omega_coefficient_outside_the_window():
    """An Omega coefficient whose step lies beyond the window leaves a
    rational result rational, at either sign of the valuation."""
    rat = [QQ(k + 1, k + 2) for k in range(12)]
    got = assert_horner(rat + [Omega(1, 1)], make(1, 1, [QQ(1), QQ(-2), QQ(1, 3)]), 12)
    assert got.coeffs and not any(isinstance(x, Omega) for x in got.coeffs)
    got = assert_horner([Omega(1, 1), Omega(0, 2)] + rat, make(1, -1, [QQ(2), QQ(1, 5)]), -1)
    assert got.coeffs and not any(isinstance(x, Omega) for x in got.coeffs)


# ---------------------------------------------------------------------------
# polynomials at a series
# ---------------------------------------------------------------------------

def eval_arg(p, kind, step, lead, grid):
    """A series at `lead`, a multiple of `step`, with 1-8 strides past those
    that ``ref_eval_series`` needs at p.  After j products its window ends at
    N(s) + j*v(s), and it adds a constant up to j = deg p + 1 - (the lowest
    power of p present), so a negative lead needs that many |v(s)| below N(s)."""
    need = 0
    if lead < 0:
        low = next(k for k, c in enumerate(p.coeffs) if c)
        need = (p.degree + 2 - low) * (-lead // step)
    return series(kind, step, lead=lead, grid=grid, min_terms=need + 1, max_terms=need + 8)


@st.composite
def eval_args(draw, kp, ks):
    """A polynomial of degree 0-8 and a nonzero argument with lead -3..3 in
    units of its support step, on grid 1, 2, 7 or 42."""
    coeffs = draw(st.lists(scalar[kp], min_size=0, max_size=8))
    p = UniPoly(coeffs + [draw(nonzero[kp])])
    grid = draw(st.sampled_from((1, 2, 7, 42)))
    step = draw(st.sampled_from((1, grid)))
    lead = draw(st.integers(min_value=-3, max_value=3)) * step
    return p, draw(eval_arg(p, ks, step, lead, grid))


def assert_eval(p, s):
    """Values as the Horner loop gives them; the same window when v(s) >= 0
    and a window never lower when v(s) < 0."""
    got = p.eval_series(s)
    want = ref_eval_series(p, s)
    assert got.grid == want.grid
    assert first_mismatch(got, want) is None
    if s.lead >= 0:
        assert_same(got, want)
    else:
        assert got.order >= want.order


@settings(max_examples=400, deadline=None)
@given(st.data(), kinds, kinds)
def test_eval_series_matches_horner_loop(data, kp, ks):
    assert_eval(*data.draw(eval_args(kp, ks)))


@settings(max_examples=150, deadline=None)
@given(st.data(), kinds, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2, 7, 42)))
def test_eval_series_of_sparse_polynomials(data, kind, lead, grid):
    """Gaps below the top and above the constant move the window when
    v(s) > 0 (its lowest power e >= 1 present) and when v(s) < 0 (its
    degree)."""
    p = data.draw(polys(kind, max_terms=4).filter(lambda p: 0 <= p.degree <= 8))
    s = data.draw(eval_arg(p, kind, 1, lead, grid))
    assert_eval(p, s)
    assert_eval(UniPoly([p.coeffs[-1]]), s)
    assert_eval(UniPoly(), s)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

@st.composite
def unit_series(draw, kind, stride, values=None, max_terms=10):
    """A series with unit coefficient 1 (Omega(1) on some Q(w) bases) whose
    nonzero offsets are multiples of `stride`, on grid stride or 2*stride."""
    values = scalar[kind] if values is None else values
    grid = stride * draw(st.sampled_from((1, 2)))
    lead = draw(st.integers(min_value=-2, max_value=3)) * stride
    terms = draw(st.integers(min_value=1, max_value=max_terms))
    coeffs = [ZERO] * (terms * stride)
    for i in range(1, terms):
        coeffs[i * stride] = draw(values)
    one = {"rational": (ONE,), "omega": (Omega(1),), "mixed": (ONE, Omega(1))}[kind]
    coeffs[0] = draw(st.sampled_from(one))
    cut = draw(st.integers(min_value=0, max_value=stride - 1))
    coeffs = coeffs[:len(coeffs) - cut] or coeffs[:1]
    return PuiseuxSeries.make(grid, lead, coeffs, lead + len(coeffs))


def fraction_with_denominator(q):
    return st.integers(min_value=-150, max_value=150).filter(lambda p: gcd(p, q) == 1) \
        .map(lambda p: QQ(p, q))


exponents = st.one_of(
    st.sampled_from((0, 1, -1, 2, -2, 7, -3)).map(QQ),
    st.sampled_from((2, 6, 7, 14, 42, 84)).flatmap(fraction_with_denominator))
strides = st.sampled_from((1, 2, 7, 24, 42))


def assert_pow(a, r):
    got = ps_pow(a, r)
    assert_same(got, ref_pow(a, r))
    if r == 1:
        assert got is a
    else:
        assert_types(got, a)


@settings(max_examples=400, deadline=None)
@given(st.data(), kinds, strides, exponents)
def test_pow_matches_recurrence(data, kind, stride, r):
    assert_pow(data.draw(unit_series(kind, stride)), r)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(("rational", "omega")), strides, exponents)
def test_pow_with_wide_numerators(data, kind, stride, r):
    """Every coefficient past the unit has a numerator over 600 bits."""
    values = big if kind == "rational" else st.builds(Omega, big, big)
    assert_pow(data.draw(unit_series(kind, stride, values, max_terms=6)), r)


# ---------------------------------------------------------------------------
# polynomial products
# ---------------------------------------------------------------------------

@st.composite
def polys(draw, kind="rational", max_terms=12):
    """A polynomial whose nonzero coefficients sit at multiples of a step
    above an offset, so that the sublattice compression sees strides."""
    step = draw(st.sampled_from((1, 2, 7)))
    offset = draw(st.integers(min_value=0, max_value=3))
    terms = draw(st.integers(min_value=0, max_value=max_terms))
    coeffs = [ZERO] * (offset + terms * step)
    for i in range(terms):
        coeffs[offset + i * step] = draw(scalar[kind])
    return UniPoly(coeffs)


def assert_poly_product(p, q):
    got = p * q
    assert got.coeffs == ref_poly_mul(p, q).coeffs
    omega = any(isinstance(c, Omega) for c in p.coeffs + q.coeffs)
    for c in got.coeffs:
        if c:
            assert isinstance(c, Omega) == omega
        else:
            assert c is ZERO


@settings(max_examples=300, deadline=None)
@given(st.data(), kinds, kinds)
def test_poly_mul_matches_schoolbook(data, ka, kb):
    assert_poly_product(data.draw(polys(ka)), data.draw(polys(kb)))


@settings(max_examples=100, deadline=None)
@given(st.data(), kinds)
def test_poly_mul_by_constants_and_zero(data, kind):
    p = data.draw(polys(kind))
    c = UniPoly([data.draw(nonzero[kind])])
    zero = UniPoly()
    for a, b in ((p, c), (c, p), (c, c), (p, zero), (zero, p), (zero, zero)):
        assert_poly_product(a, b)


@settings(max_examples=50, deadline=None)
@given(st.lists(big, min_size=1, max_size=10), st.lists(big, min_size=1, max_size=10))
def test_poly_mul_with_wide_numerators(xs, ys):
    """Every coefficient has a numerator over 600 bits."""
    assert_poly_product(UniPoly(xs), UniPoly(ys))


# ---------------------------------------------------------------------------
# both sides of the term-by-term crossover
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data(), kinds, kinds, st.sampled_from((42, 60)))
def test_mul_on_both_sides_of_the_crossover(data, ka, kb, step):
    """Each factor has _TERMWISE strides or one more, and its window ends
    inside its last stride: the shorter factor of the product has exactly
    _TERMWISE slots on the sublattice, where it runs term by term, or one
    more, where it packs."""
    a = data.draw(series(ka, step, min_terms=_TERMWISE, max_terms=_TERMWISE + 1))
    b = data.draw(series(kb, step, min_terms=_TERMWISE, max_terms=_TERMWISE + 1))
    for x, y in ((a, b), (b, a)):
        got = ps_mul(x, y)
        assert_same(got, ref_mul(x, y))
        assert_types(got, x, y)


@settings(max_examples=200, deadline=None)
@given(st.data(), kinds, kinds, st.sampled_from((1, 42, 60)),
       st.sampled_from((_TERMWISE, _TERMWISE + 1)))
def test_poly_mul_on_both_sides_of_the_crossover(data, ka, kb, step, short):
    """A polynomial of `short` terms at the multiples of `step` times one
    of `short` to three times _TERMWISE terms."""
    def poly(kind, terms):
        coeffs = [ZERO] * ((terms - 1) * step + 1)
        for i in range(terms - 1):
            coeffs[i * step] = data.draw(scalar[kind])
        coeffs[-1] = data.draw(nonzero[kind])
        return UniPoly(coeffs)
    p = poly(ka, short)
    q = poly(kb, data.draw(st.integers(min_value=short, max_value=3 * _TERMWISE)))
    assert_poly_product(p, q)
    assert_poly_product(q, p)


def _packs(x, y, n):
    """The lengths of the lists that _kmul(x, y, n) packs."""
    packed = []
    real = kernel_module._pack
    try:
        kernel_module._pack = lambda v, w: packed.append(len(v)) or real(v, w)
        _kmul(x, y, n)
    finally:
        kernel_module._pack = real
    return packed


def test_the_shorter_factor_picks_the_product():
    """Up to _TERMWISE slots in the shorter factor, after the window and the
    sublattice, a product runs term by term; one more, and it packs."""
    dense = ([3] * 40, [1] * 40, 5)
    t = _TERMWISE
    short = ([2] * t, None, 1)
    longer = ([2] * (t + 1), [7] * (t + 1), 1)
    assert _packs(short, dense, 60) == []
    assert _packs(dense, short, 60) == []
    assert _packs(longer, dense, 60) == [t + 1, 40, t + 1, 40]
    # a window of t slots cuts both factors to the term-by-term side
    assert _packs(longer, dense, t) == []
    # on stride 3, 3*t + 2 slots hold t + 1 nonzero ones, slot 3*t the last
    sparse = ([1, 0, 0] * t + [1, 0], None, 1)
    other = ([5, 0, 0] * 20, None, 1)
    assert _packs(sparse, other, 3 * t) == []
    assert _packs(sparse, other, 3 * t + 1) == [t + 1, t + 1]
    # a dense factor leaves the stride at 1
    assert _packs(sparse, dense, 60) == [3 * t + 2, 40, 40]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), max_size=30), min_size=1, max_size=4))
def test_stride_is_the_gcd_of_the_nonzero_offsets(parts):
    assert _stride(parts) == (gcd(*[i for v in parts for i, c in enumerate(v) if c]) or 1)


# ---------------------------------------------------------------------------
# packing at the edges of a slot
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_pack_roundtrip_at_slot_limits(w, data):
    half = 1 << (8 * w - 1)
    edge = st.sampled_from((-half, -half + 1, -1, 0, 1, half - 2, half - 1))
    v = data.draw(st.lists(st.one_of(edge, st.integers(-half, half - 1)), min_size=1, max_size=30))
    assert _unpack(_pack(v, w), w, len(v)) == v
    # slots above the first m do not disturb them
    extra = data.draw(st.lists(edge, min_size=1, max_size=5))
    assert _unpack(_pack(v + extra, w), w, len(v)) == v
    # more slots than the packed value needs read 0, as in GCDHEU's read-back
    more = data.draw(st.integers(min_value=1, max_value=4))
    for u in (v, [-1] * len(v), [-half] * len(v)):
        assert _unpack(_pack(u, w), w, len(u) + more) == u + [0] * more


def _extreme_width(j, p0, spare):
    """p such that n = 2**j - 1 terms of size 2**p - 1 need 2p + j + spare
    bits per slot, a whole number of bytes or one bit more."""
    return next(p for p in range(4 * p0 + 4, 4 * p0 + 8) if (2 * p + j + spare) % 8 in (0, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=12),
       st.sampled_from((1, -1)), st.sampled_from((1, -1)))
def test_full_slots_near_the_sign_bit(j, p0, sa, sb):
    """All-extreme rational factors, packed at any length: the last product
    slot comes within a factor 4 of the sign bit when the slot width has no spare bit, and one
    bit less would overflow when the width is one bit over a byte."""
    p = _extreme_width(j, p0, 1)
    n, m = (1 << j) - 1, (1 << p) - 1
    re, im = _packed([sa * m] * n, None, [sb * m] * n, None, n)
    assert im is None
    assert re == [sa * sb * (i + 1) * m * m for i in range(n)]
    if (2 * p + j + 1) % 8 == 0:
        assert abs(re[-1]) > 1 << (2 * p + j - 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=12),
       st.sampled_from((1, -1)))
def test_omega_slots_near_the_sign_bit(j, p0, sign):
    """(m - m w)(-m + m w) = 3 m^2 w, packed at any length: every pair puts
    3 m^2 into the w part, the most a pair of Q(w) values of this size can."""
    p = _extreme_width(j, p0, 3)
    n, m = (1 << j) - 1, (1 << p) - 1
    re, im = _packed([sign * m] * n, [-sign * m] * n, [-m] * n, [m] * n, n)
    assert re == [0] * n
    assert im == [sign * 3 * (i + 1) * m * m for i in range(n)]


def test_omega_products_near_slot_limit():
    m = (1 << 200) - 1
    a = PuiseuxSeries.make(1, 0, [Omega(m, -m), Omega(-m, m)] * 8, 16)
    b = PuiseuxSeries.make(1, 0, [Omega(-m, -m), Omega(m, m), Fraction(m)] * 5, 15)
    assert_same(ps_mul(a, b), ref_mul(a, b))
    assert_same(ps_div(a, b), ref_div(a, b))


def test_sublattice_keeps_packing_small():
    """A grid-42 series packs one slot per nonzero term, not per grid index."""
    base = PuiseuxSeries.make(1, 0, [QQ(k + 1, 3) for k in range(27)], 27).to_grid(42)
    x = _vec(base.coeffs)
    assert _packs(x, x, len(base.coeffs)) == [27, 27]
