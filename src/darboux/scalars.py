"""Exact coefficient arithmetic: rationals and the cube-root-of-unity extension.

Rationals are gmpy2.mpq when available (noticeably faster on the big
numerators that show up around series order 64), plain Fraction otherwise.
Both are exact, hash-compatible and interoperate through numbers.Rational.

Omega models a + b*w with w*w = -1 - w, i.e. w a primitive cube root of
unity.  Mixed arithmetic with ints / rationals coerces automatically.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

try:
    from gmpy2 import mpq as QQ
    BACKEND = "gmpy2"
except ImportError:  # gmpy2 is an optional speed-up; Fraction gives the same exact results
    QQ = Fraction
    BACKEND = "fractions"

ZERO = QQ(0)
ONE = QQ(1)


def rat(n, d=1):
    """Exact rational n/d."""
    return QQ(n, d)


class Omega:
    """Element a + b*w of Q(w), with w**2 = -1 - w."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", QQ(a))
        object.__setattr__(self, "b", QQ(b))

    def __setattr__(self, *_):
        raise AttributeError("Omega values are immutable")

    # -- coercion -------------------------------------------------------
    @staticmethod
    def _lift(x):
        if isinstance(x, Omega):
            return x
        if isinstance(x, numbers.Rational):
            return Omega(x)
        return NotImplemented

    # -- ring ops -------------------------------------------------------
    def __add__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Omega(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Omega(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Omega(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return Omega(-self.a, -self.b)

    def __mul__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        bb = self.b * o.b
        return Omega(self.a * o.a - bb, self.a * o.b + self.b * o.a - bb)

    __rmul__ = __mul__

    def conjugate(self) -> "Omega":
        """Image under w -> w^2 = -1 - w."""
        return Omega(self.a - self.b, -self.b)

    def norm(self):
        """self * self.conjugate(), a rational."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Omega":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conjugate()
        return Omega(c.a / n, c.b / n)

    def __truediv__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral) or n < 0:
            return NotImplemented
        return power(self, int(n), Omega(1))

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other):
        o = Omega._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        if not self.b:
            return f"{self.a}"
        if not self.a:
            return f"{self.b}*w"
        return f"({self.a} + {self.b}*w)"


W = Omega(0, 1)


def power(base, n: int, one):
    """base**n for an integer n >= 0 by square-and-multiply, starting from one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def scalar_inv(x):
    """1/x for any exact scalar."""
    if isinstance(x, Omega):
        return x.inverse()
    if not x:
        raise ZeroDivisionError("inverse of zero")
    return ONE / QQ(x)
