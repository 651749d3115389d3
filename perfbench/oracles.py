"""Independent oracles for the program outputs a pass reports.

None of this imports ``darboux``: each oracle recomputes the value by a
route of its own and compares it with the strings the pass worker wrote.
Each ``check_*`` function returns None when the program output agrees and
a one-line description of the first disagreement otherwise.
"""

from __future__ import annotations

from fractions import Fraction

PHI3_FIBERS = ((7, 7, 7, 1, 1, 1), (2,) * 12, (3,) * 8)     # over 0, 1, infinity


def pochhammer_coefficients(upper, lower, n):
    """Taylor coefficients of pFq(upper; lower; z) below z^n as quotients of
    Pochhammer products, accumulated in integers."""
    upper = [Fraction(a) for a in upper]
    lower = [Fraction(b) for b in lower]
    num, den = 1, 1
    out = [Fraction(1)]
    for k in range(1, n):
        i = k - 1
        for a in upper:
            num *= a.numerator + i * a.denominator
            den *= a.denominator
        for b in lower:
            den *= b.numerator + i * b.denominator
            num *= b.denominator
        den *= k
        if den == 0:
            raise ValueError(f"non-generic lower parameter in {lower}")
        out.append(Fraction(num, den))
    return out


def check_hpg(output) -> str | None:
    want = pochhammer_coefficients(output["upper"], output["lower"], len(output["coeffs"]))
    for k, (got, exp) in enumerate(zip(output["coeffs"], want)):
        if Fraction(got) != exp:
            return f"coefficient {k}: program {got}, oracle {exp}"
    return None


def _mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def j_coefficients(n):
    """Coefficients of q^-1 .. q^(n-1) of j = E4^3 / Delta, with
    Delta = q prod (1 - q^k)^24, all in integers."""
    m = n + 1
    sigma3 = [0] * m
    for d in range(1, m):
        for k in range(d, m, d):
            sigma3[k] += d ** 3
    e4 = [1] + [240 * s for s in sigma3[1:]]
    e4cube = _mul(_mul(e4, e4, m), e4, m)
    eta24 = [1] + [0] * (m - 1)
    for k in range(1, m):
        for _ in range(24):
            for i in range(m - 1, k - 1, -1):
                eta24[i] -= eta24[i - k]
    inv = [1] + [0] * (m - 1)
    for i in range(1, m):
        inv[i] = -sum(eta24[j] * inv[i - j] for j in range(1, i + 1))
    return _mul(e4cube, inv, m)


def check_j(coeffs) -> str | None:
    want = j_coefficients(len(coeffs) - 1)
    for k, (got, exp) in enumerate(zip(coeffs, want)):
        if Fraction(got) != exp:
            return f"coefficient of q^{k - 1}: program {got}, oracle {exp}"
    return None


def fibers(num, den):
    """Ramification over 0, 1 and infinity of num/den (ascending coefficient
    strings), from sympy's factorisation over Q.  The source point at
    infinity lies in the fiber whose polynomial drops in degree."""
    import sympy

    x = sympy.Symbol("x")
    pn = sympy.Poly([sympy.Rational(c) for c in reversed(num)], x)
    pd = sympy.Poly([sympy.Rational(c) for c in reversed(den)], x)
    degree = max(pn.degree(), pd.degree())
    out = []
    for p in (pn, pn - pd, pd):
        parts = []
        for factor, mult in sympy.factor_list(p)[1]:
            parts += [mult] * factor.degree()
        if degree > p.degree():
            parts.append(degree - p.degree())
        out.append(tuple(sorted(parts, reverse=True)))
    return tuple(out)


def check_passport(output) -> str | None:
    got = fibers(output["num"], output["den"])
    if got != PHI3_FIBERS:
        return f"sympy fibers {got}, expected {PHI3_FIBERS}"
    program = tuple(tuple(f) for f in output["program"])
    if program != got:
        return f"program fibers {program}, sympy fibers {got}"
    return None


def check(key: str, output) -> str | None:
    """Dispatch on the output key the workload used."""
    if key.startswith("hpg:"):
        return check_hpg(output)
    if key == "j":
        return check_j(output)
    if key == "passport":
        return check_passport(output)
    raise KeyError(f"no oracle for {key!r}")
