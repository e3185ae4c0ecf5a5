"""Exact arithmetic in the rank-2 ring Q(w), w^2 = c1 c2, with c1, c2
fixed rationals: elements a + d w.

w stands for y1 y2, where y1 and y2, y_i^2 = c_i, are the curve's square
roots at a point of the inversion chart.  The chart never leaves this
subring of Q(y1, y2): X and Y are rational, and every y1 y2 it meets is w
times a rational series (see ``inversion``), so two numerators per
element do what four would in the full algebra.

An element stores two integer numerators over one positive integer
denominator in canonical form (the gcd of the three integers is 1, zero is
0/1), so every operation runs on Python ints and equal values have equal
fields.  ``.a`` and ``.d`` read the parts as lowest-terms ``Fraction``s.

A ``QuadExtContext`` fixes (c1, c2); it holds the element arithmetic
only, and ``jets.Jet`` runs the inversion chart's jets over it."""

import math
from fractions import Fraction

from .rings import rat, rational_sqrt


class NonInvertibleError(ArithmeticError):
    """Element has zero norm in the quadratic extension ring."""


class QuadExtContext:
    def __init__(self, c1, c2):
        self.c1, self.c2 = rat(c1), rat(c2)
        k = self.c1 * self.c2
        # the product rule times den(c1 c2): 1 -> den, w^2 -> num
        self.rule = (k.denominator, k.numerator)
        self.zero = self.element()
        self.one = self.element(a=1)

    def __eq__(self, other):
        return (isinstance(other, QuadExtContext)
                and self.c1 == other.c1 and self.c2 == other.c2)

    def element(self, a=0, d=0):
        a, d = rat(a), rat(d)
        den = math.lcm(a.denominator, d.denominator)
        return QuadExtScalar(self, a.numerator * (den // a.denominator),
                             d.numerator * (den // d.denominator), den)

    def rational(self, q):
        return self.element(a=q)

    @property
    def w(self):
        return self.element(d=1)

    def _parts(self, x):
        """(na, nd, den) of an element of this ring, an int or a
        ``Fraction``."""
        if isinstance(x, QuadExtScalar):
            if x.ctx is not self and x.ctx != self:
                raise ValueError("mixed quadratic extension contexts")
            return x.na, x.nd, x.den
        return x.numerator, 0, x.denominator


class QuadExtScalar:
    """(na + nd w) / den in lowest terms."""

    __slots__ = ("ctx", "na", "nd", "den")

    def __init__(self, ctx, na, nd, den):
        """Integer numerators over ``den`` > 0; their gcd is divided out."""
        g = math.gcd(na, nd, den)
        if g != 1:
            na, nd, den = na // g, nd // g, den // g
        self.ctx, self.na, self.nd, self.den = ctx, na, nd, den

    a = property(lambda self: Fraction(self.na, self.den))
    d = property(lambda self: Fraction(self.nd, self.den))

    def _check_ctx(self, other):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("mixed quadratic extension contexts")

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return QuadExtScalar(self.ctx, -self.na, -self.nd, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the common denominator: the numerators
        of ``other`` enter with ``sign``, so no negation of it is built,
        and equal denominators are not cross-multiplied.  Any other
        operand than an element is left to its own ``__radd__``."""
        if not isinstance(other, QuadExtScalar):
            return NotImplemented
        self._check_ctx(other)
        e1, e2 = self.den, other.den
        f1, f2, den = (1, sign, e1) if e1 == e2 else (e2, sign * e1, e1 * e2)
        return QuadExtScalar(self.ctx, self.na * f1 + other.na * f2,
                             self.nd * f1 + other.nd * f2, den)

    def __mul__(self, other):
        """The product with an element; any other operand, such as a jet, is
        left to its ``__rmul__``."""
        if not isinstance(other, QuadExtScalar):
            return NotImplemented
        self._check_ctx(other)
        r, k = self.ctx.rule
        a1, d1, a2, d2 = self.na, self.nd, other.na, other.nd
        return QuadExtScalar(self.ctx, r * a1 * a2 + k * d1 * d2,
                             r * (a1 * d2 + d1 * a2),
                             r * self.den * other.den)

    def scale(self, q):
        """Multiply by an int or a ``Fraction``."""
        n = q.numerator
        return QuadExtScalar(self.ctx, self.na * n, self.nd * n,
                             self.den * q.denominator)

    def inv(self):
        """The conjugate a - d w over the norm a^2 - c1 c2 d^2."""
        r, k = self.ctx.rule
        # norm times den^2 r, an integer
        n = r * self.na * self.na - k * self.nd * self.nd
        if n == 0:
            raise NonInvertibleError("zero norm: %s" % (self,))
        s = self.den * r if n > 0 else -self.den * r
        return QuadExtScalar(self.ctx, self.na * s, -self.nd * s, abs(n))

    def is_zero(self):
        return self.na == 0 and self.nd == 0

    def __eq__(self, other):
        if isinstance(other, QuadExtScalar):
            return ((self.ctx is other.ctx or self.ctx == other.ctx)
                    and self.na == other.na and self.nd == other.nd
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.rational(other)
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the rational it equals
        if not self.nd:
            return hash(Fraction(self.na, self.den))
        return hash((self.na, self.nd, self.den))

    def rational_value(self):
        """Exact value with w -> sqrt(c1) sqrt(c2); both c_i must be
        perfect squares of rationals.  (Not sqrt(c1 c2): with both c_i
        negative, y1 y2 = -sqrt(c1 c2).)"""
        r1 = rational_sqrt(self.ctx.c1)
        r2 = rational_sqrt(self.ctx.c2)
        if r1 is None or r2 is None:
            raise ValueError("square roots are irrational")
        return self.a + self.d * r1 * r2

    def __str__(self):
        """The element as a point of Q(y1, y2), in the four-slot form the
        reports print: its y1 and y2 parts are always zero."""
        return "(%s + 0*y1 + 0*y2 + %s*y1y2)" % (self.a, self.d)

    __repr__ = __str__
