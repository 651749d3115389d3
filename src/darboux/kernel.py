"""The exact integer product kernel under series and polynomial arithmetic.

``series.ps_mul``, the Newton inverse behind ``series.ps_div``,
``series._horner`` (the one evaluator of a coefficient vector at a
series, behind ``ps_compose`` and ``UniPoly.eval_series``) and
``polyalg.UniPoly.__mul__`` all multiply integer vectors here, and
``UniPoly`` and ``PuiseuxSeries``, which each hold one such vector, add
and scale them with ``_kdot``; ``series.ps_pow`` raises them to rational
powers here, by a fraction-free recurrence;
``UniPoly.divmod`` and ``UniPoly.gcd`` divide them here, by a Newton
inverse of the reversed divisor that a caller can keep and extend, and
``UniPoly.gcd`` evaluates rational ones at xi = 2**(8*w) with ``_pack`` and
reads the digits of one integer gcd back with ``_unpack``.

``_kmul`` multiplies term by term when the shorter factor has at most
``_TERMWISE`` = 8 slots, as most products of the check layer do: packing
has a fixed cost per product that so few terms do not repay, and on the
perfbench workloads 8 read faster than 4 and than 16.  Above 8 the packed
product (Kronecker substitution) is the only path.

``_horner`` takes baby steps and giant steps (Paterson & Stockmeyer 1973).
Its baby steps are ``_kmul`` products b^i = b^(i-1) * b for i <= k, each
cut to its own window.  Its blocks sum_i c[mk+i] b^i and its giant steps
A_m = A_(m+1) b^k + P_m are each one ``_kdot``: one-slot vectors times
integer vectors at slot offsets, over one common denominator.  The giant
step of block m is cut where the window, shifted by the m*k*v still to
come, ends.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from operator import add

from .scalars import QQ, ZERO, Omega

# A coefficient list is multiplied as an integer vector (re, im, d):
# coefficient i is (re[i] + im[i]*w) / d over one common denominator d, and
# im is None when every coefficient is rational.  Both factors are first cut
# to the window and compressed onto their support sublattice (the gcd s of
# the nonzero offsets), so that a sparse series on grid 42 or 60 packs
# densely.  When the shorter factor then has at most _TERMWISE slots, the
# product runs term by term on the integer lists.  Above it, each integer
# list is packed into one signed big integer with a slot of w bytes per
# coefficient (Kronecker substitution): the packed product is the product of
# the packed factors, one big multiplication, and its first slots are read
# back.  Either way Q(w) products take three integer products
# (w*w = -1 - w).  Results with an Omega factor come back as Omega, others
# as rationals.


def _vec(coeffs):
    """Integer vector (re, im, d) of a list of exact scalars."""
    if not any(isinstance(c, Omega) for c in coeffs):
        d = lcm(*{c.denominator for c in coeffs})
        return [c.numerator * (d // c.denominator) for c in coeffs], None, d
    parts = [(c.a, c.b) if isinstance(c, Omega) else (c, ZERO) for c in coeffs]
    d = lcm(*{x.denominator for p in parts for x in p})
    return ([x.numerator * (d // x.denominator) for x, _ in parts],
            [y.numerator * (d // y.denominator) for _, y in parts], d)


def _scalars(v):
    """Coefficient list of an integer vector; zero slots are ZERO."""
    re, im, d = v
    if im is None:
        return [QQ(x, d) if x else ZERO for x in re]
    return [Omega(QQ(x, d), QQ(y, d)) if x or y else ZERO for x, y in zip(re, im)]


def _scalar(v, k):
    """Slot k of an integer vector as a scalar."""
    re, im, d = v
    return _scalars(([re[k]], im and [im[k]], d))[0]


def _pack(v, w):
    """sum(v[i] * 2**(8*w*i)) for signed slot values v[i] of w bytes."""
    u = int.from_bytes(b"".join([c.to_bytes(w, "little", signed=True) for c in v]), "little")
    # each negative slot borrowed 2**(8*w) from the slot above it: its sign
    # bit, shifted to the foot of the slot, marks the borrow
    return u - (((u >> (8 * w - 1)) & _feet(w, len(v))) << (8 * w))


def _unpack(c, w, m):
    """The first m slot values of a packed integer; each must lie in
    [-2**(8*w-1), 2**(8*w-1))."""
    # half a slot added to each slot makes every digit of the first m
    # slots its value plus half, in [0, 2**(8*w)), with no carry between them
    half = 1 << (8 * w - 1)
    lifted = (c + (_feet(w, m) << (8 * w - 1))) & ((1 << (8 * w * m)) - 1)
    raw = lifted.to_bytes(w * m, "little")
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * m, w)]


def _feet(w, m):
    """The packed integer with a 1 at the foot of each of m slots of w bytes."""
    return int.from_bytes((b"\x01" + bytes(w - 1)) * m, "little")


# the most slots the shorter factor of a term-by-term product has
_TERMWISE = 8


def _kmul(x, y, n):
    """First n coefficients of the product of two integer vectors."""
    (xr, xi, dx), (yr, yi, dy) = x, y
    parts = [None if v is None else v[:n] for v in (xr, xi, yr, yi)]
    s = _stride([v for v in parts if v is not None])
    if s > 1:
        parts = [None if v is None else v[::s] for v in parts]
    m = -(-n // s)
    product = _termwise if min(len(parts[0]), len(parts[2])) <= _TERMWISE else _packed
    re, im = product(*parts, m)
    if s > 1:
        re = _spread(re, s, n)
        im = None if im is None else _spread(im, s, n)
    return re, im, dx * dy


def _stride(parts):
    """The gcd of the nonzero offsets of the integer lists, or 1 when there
    is none past 0; the scan stops at the first offset that brings it to 1."""
    s = 0
    for v in parts:
        for i in compress(range(len(v)), v):
            s = gcd(s, i)
            if s == 1:
                return 1
    return s or 1


def _termwise(xr, xi, yr, yi, m):
    """First m slots of the re and im parts of a product, term by term."""
    re = _conv(xr, yr, m)
    if xi is None:
        return re, None if yi is None else _conv(xr, yi, m)
    if yi is None:
        return re, _conv(xi, yr, m)
    # (xr + xi*w)(yr + yi*w) with w*w = -1 - w, in three products
    ii = _conv(xi, yi, m)
    cross = _conv(list(map(add, xr, xi)), list(map(add, yr, yi)), m)
    return [r - t for r, t in zip(re, ii)], [c - r - 2 * t for c, r, t in zip(cross, re, ii)]


def _conv(x, y, m):
    """First m slots of the product of two integer lists of at most m slots,
    one pass over the longer list per nonzero slot of the shorter."""
    if len(x) > len(y):
        x, y = y, x
    out = [0] * m
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y[:m - i], i):
                out[j] += a * b
    return out


def _packed(xr, xi, yr, yi, m):
    """First m slots of the re and im parts of a product, by Kronecker
    substitution: one big multiplication per integer product."""
    # a product slot sums at most `count` pairs, each contributing below
    # 2**(bx + by) in absolute value, or below 3 * 2**(bx + by) when both
    # sides are in Q(w) (im takes ar*bi + ai*br - ai*bi); one bit for the sign
    bx = max(map(int.bit_length, xr + (xi or [])))
    by = max(map(int.bit_length, yr + (yi or [])))
    count = min(len(xr), len(yr), m)
    bits = bx + by + count.bit_length() + 1
    if xi is not None and yi is not None:
        bits += 2
    w = -(-bits // 8)
    a, b = _pack(xr, w), _pack(yr, w)
    p = a * b
    if xi is None and yi is None:
        return _unpack(p, w, m), None
    if yi is None:
        return _unpack(p, w, m), _unpack(_pack(xi, w) * b, w, m)
    if xi is None:
        return _unpack(p, w, m), _unpack(a * _pack(yi, w), w, m)
    ai, bi = _pack(xi, w), _pack(yi, w)
    q = ai * bi
    return _unpack(p - q, w, m), _unpack((a + ai) * (b + bi) - p - 2 * q, w, m)


def _spread(v, s, n):
    out = [0] * n
    out[::s] = v
    return out


# the one-slot integer vector of 1: the s of each term of a plain sum
_UNIT = ([1], None, 1)


def _kdot(terms, n):
    """First n slots of the sum of s * x * z**at over terms (s, x, at): a
    one-slot integer vector s times an integer vector x whose slot 0 lands
    on slot at (a negative at drops the first -at slots of x, and a term
    with at >= n adds nothing), over one common denominator.  An Omega s
    times a Q(w) vector takes three products."""
    d = lcm(*(sd * dx for (_, _, sd), (_, _, dx), _ in terms))
    omega = any(si is not None or xi is not None for (_, si, _), (_, xi, _), _ in terms)
    re = [0] * n
    im = [0] * n if omega else None
    for (sr, si, sd), (xr, xi, dx), at in terms:
        if at >= n:
            continue
        f = d // (sd * dx)
        a, b = sr[0] * f, si[0] * f if si else 0
        lo = max(0, -at)
        at = max(0, at)
        hi = lo + n - at
        xr = xr[lo:hi]
        xi = None if xi is None else xi[lo:hi]
        if xi is None or not b:
            for j, x in enumerate(xr, at):
                re[j] += a * x
            if xi is not None:
                for j, y in enumerate(xi, at):
                    im[j] += a * y
            elif b:
                for j, x in enumerate(xr, at):
                    im[j] += b * x
        else:
            # (a + b*w)(x + y*w) with w*w = -1 - w, in three products
            for j, (x, y) in enumerate(zip(xr, xi), at):
                t0, t1 = a * x, b * y
                re[j] += t0 - t1
                im[j] += (a + b) * (x + y) - t0 - 2 * t1
    return re, im, d


def _reduced(re, im, d):
    """The vector with the common content of its numerators and d removed."""
    g = gcd(d, *re, *(im or ()))
    if g == 1:
        return re, im, d
    return ([c // g for c in re], None if im is None else [c // g for c in im], d // g)


def _unit_inverse(x, n, y=None):
    """First n coefficients of 1/x for an integer vector x with x[0] != 0,
    or more when y, a known leading part of 1/x, already holds more.

    Newton iteration y <- y - y*(x*y - 1) doubles the known terms per step:
    when x*y = 1 + O(z^m), the product is 1 + O(z^2m) once y absorbs the
    correction, and only the part of x*y - 1 from z^m on is multiplied.
    It starts from y when given, else from the inverse of x[0].
    """
    xr, xi, dx = x
    if y is None:
        r0 = xr[0]
        if xi is None:
            y = ([dx], None, r0) if r0 > 0 else ([-dx], None, -r0)
        else:
            # 1/(r + i*w) = (r - i - i*w) / (r*r - r*i + i*i), a positive norm
            i0 = xi[0]
            y = ([dx * (r0 - i0)], [-dx * i0], r0 * r0 - r0 * i0 + i0 * i0)
    have = len(y[0])
    while have < n:
        m2 = min(2 * have, n)
        er, ei, de = _kmul(x, y, m2)
        high = (er[have:], None if ei is None else ei[have:], de)
        tr, ti, _ = _kmul(y, high, m2 - have)
        # y, x*y and the correction all have a w part exactly when x has one
        yr, yi, dy = y
        re = [c * de for c in yr] + [-c for c in tr]
        im = None if yi is None else [c * de for c in yi] + [-c for c in ti]
        y = _reduced(re, im, dy * de)
        have = m2
    return y


def _kpow(x, p, q, n):
    """First n coefficients, as an integer vector, of x**(p/q) for an
    integer vector x whose slot 0 is 1 (x[0] == d), with q > 0.

    The Miller recurrence k*y_k = sum_j ((r+1)*j - k) * u_j * y_(k-j), r = p/q,
    run fraction-free on the support sublattice of x: with u_j = U_j/d it
    keeps Y_k = y_k * k! * (q*d)**k, so that
    Y_k = sum_j ((p+q)*j - q*k) * U_j * (q*d)**(j-1) * (k-1)!/(k-j)! * Y_(k-j)
    in integers (Z[w] products when x has a w part).  At the end, with K
    the last k, Y_k takes the factor K!/k! * (q*d)**(K-k) and all share the
    denominator K! * (q*d)**K (Knuth, TAOCP vol. 2, section 4.7).
    """
    xr, xi, d = x
    s = _stride([v[:n] for v in (xr, xi) if v is not None])
    ur = xr[:n:s]
    ui = [0] * len(ur) if xi is None else xi[:n:s]
    qd = q * d
    # (j, U_j * (q*d)**(j-1)) for the nonzero slots j >= 1, re and im parts
    terms = [(j, ur[j] * qd ** (j - 1), ui[j] * qd ** (j - 1))
             for j in range(1, len(ur)) if ur[j] or ui[j]]
    yr, yi = [1], [0]
    for k in range(1, len(ur)):
        sr = si = 0
        ff, at = 1, 1                  # ff = (k-1)!/(k-at)!
        for j, pr, pi in terms:
            if j > k:
                break
            while at < j:
                ff *= k - at
                at += 1
            c = ((p + q) * j - q * k) * ff
            ar, ai = yr[k - j], yi[k - j]
            if xi is None:
                sr += c * pr * ar
            elif ar or ai:
                # (pr + pi*w)(ar + ai*w) with w*w = -1 - w, in three products
                t0, t1 = pr * ar, pi * ai
                sr += c * (t0 - t1)
                si += c * ((pr + pi) * (ar + ai) - t0 - 2 * t1)
        yr.append(sr)
        yi.append(si)
    den = 1
    for k in range(len(yr) - 1, 0, -1):
        yr[k] *= den
        yi[k] *= den
        den *= k * qd
    yr[0] = den
    return _reduced(_spread(yr, s, n), None if xi is None else _spread(yi, s, n), den)


def _canonical(re, im, d):
    """The vector reduced and without its trailing zero slots, those whose
    re and im are both zero; the zero vector is ([], None, 1)."""
    n = len(re)
    while n and not re[n - 1] and (im is None or not im[n - 1]):
        n -= 1
    if not n:
        return [], None, 1
    return _reduced(re[:n], None if im is None else im[:n], d)


def _kdivmod(a, b, inv=None):
    """Quotient, remainder and the inverse of rev(b) used, for integer
    vectors a and b whose last slots are nonzero, with len(a) >= len(b).

    The quotient reversed is rev(a) / rev(b) to len(a) - len(b) + 1 terms
    (Brent & Kung 1978); the remainder is a - q*b on the low len(b) - 1 slots,
    made ``_canonical``.  Both carry a w part when a or b does, but for a
    zero remainder.
    inv, the inverse of an earlier division by b, is extended only as far
    as this quotient needs.
    """
    (ar, ai, da), (br, bi, db) = a, b
    k, m = len(ar) - len(br) + 1, len(br) - 1
    inv = _unit_inverse((br[::-1], bi and bi[::-1], db), k, inv)
    qr, qi, dq = _kmul((ar[::-1], ai and ai[::-1], da), inv, k)
    q = _reduced(qr[::-1], qi and qi[::-1], dq)
    pr, pi, dp = _kmul(q, b, m) if m else ([], q[1] and [], 1)
    re = [x * dp - y * da for x, y in zip(ar, pr)]
    im = None if pi is None else [x * dp - y * da for x, y in zip(ai or [0] * m, pi)]
    return q, _canonical(re, im, da * dp), inv
