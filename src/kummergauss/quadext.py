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

A ``QuadExtContext`` fixes (c1, c2) and is also the coefficient ring of
the inversion-chart jets (see ``jets``).  A jet's data holds its
coefficients the way ``rings.Poly`` holds terms, as integer numerators
over one positive denominator per jet: ``(A, D, den)``, where A and D
carry the 1-part and the w-part of the coefficient of e1^i e2^j at
``graded_index(i, j)``, through the jet's order.  Every jet operation
runs on those integers.  As in ``Poly``, only products reduce: each
divides out the gcd of the whole jet once, and other results keep the
denominator they form.  An element is built only when a coefficient
leaves the jet (``get``, ``coeffs``), so every reader sees canonical
elements."""

import functools
import math
from fractions import Fraction

from .rings import rat


def rational_sqrt(q):
    """Exact square root of a rational, or None when irrational/negative."""
    if q < 0:
        return None
    n, d = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return rat(rn, rd)


class NonInvertibleError(ArithmeticError):
    """Element has zero norm in the quadratic extension ring."""


def graded_index(i, j):
    """Position of the coefficient of e1^i e2^j in a jet's numerator
    lists: by total degree, then by the power of e2, so a jet through
    order n fills the first (n + 1)(n + 2) / 2 slots and truncation keeps
    a prefix."""
    e = i + j
    return e * (e + 1) // 2 + j


@functools.lru_cache(maxsize=None)
def _keys(n):
    """The keys (i, j) through total degree n, in ``graded_index`` order."""
    return tuple((e - j, j) for e in range(n + 1) for j in range(e + 1))


@functools.lru_cache(maxsize=None)
def _product_rows(n):
    """For each slot s of a factor through order n, the pairs (t, out) of
    the other factor's slots t that s meets through order n and the slot
    of their product."""
    keys = _keys(n)
    return tuple((s, tuple((t, graded_index(i + k, j + l))
                           for t, (k, l) in enumerate(keys)
                           if i + j + k + l <= n))
                 for s, (i, j) in enumerate(keys))


@functools.lru_cache(maxsize=None)
def _diff_sources(n, which):
    """For each slot of the derivative through order n - 1 in slot
    ``which``, the slot it comes from and the exponent that multiplies
    it."""
    return tuple((graded_index(i + 1, j), i + 1) if which == 0
                 else (graded_index(i, j + 1), j + 1)
                 for i, j in _keys(n - 1))


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

    def inv(self, x):
        return x.inv()

    def _parts(self, x):
        """(na, nd, den) of an element of this ring, an int or a
        ``Fraction``."""
        if isinstance(x, QuadExtScalar):
            if x.ctx is not self and x.ctx != self:
                raise ValueError("mixed quadratic extension contexts")
            return x.na, x.nd, x.den
        return x.numerator, 0, x.denominator

    # -- jet data (A, D, den); see the module docstring -----------------

    def pack(self, coeffs, n):
        """The data of the jet through order n with coefficients
        ``coeffs``, {(i, j): element}; keys above order n are dropped."""
        parts = [(graded_index(i, j), self._parts(x))
                 for (i, j), x in coeffs.items() if i + j <= n]
        den = math.lcm(*[p[2] for _, p in parts])
        m = len(_keys(n))
        A, D = [0] * m, [0] * m
        for s, (a, d, e) in parts:
            A[s], D[s] = a * (den // e), d * (den // e)
        return A, D, den

    def coeffs(self, data, n):
        """The nonzero coefficients as {(i, j): element}."""
        A, D, den = data
        return {key: QuadExtScalar(self, a, d, den)
                for key, a, d in zip(_keys(n), A, D) if a or d}

    def get(self, data, i, j):
        A, D, den = data
        s = graded_index(i, j)
        return QuadExtScalar(self, A[s], D[s], den) if s < len(A) \
            else self.zero

    def through(self, data, n):
        A, D, den = data
        m = len(_keys(n))
        return A[:m], D[:m], den

    def combine(self, p, q, sign, n):
        """p + sign * q through order n, for p through that order, over the
        lcm of the two denominators; ``zip`` stops at the last slot of
        p."""
        A1, D1, e1 = p
        A2, D2, e2 = q
        den = e1 if e1 == e2 else math.lcm(e1, e2)
        f1, f2 = den // e1, sign * (den // e2)
        return ([a1 * f1 + a2 * f2 for a1, a2 in zip(A1, A2)],
                [d1 * f1 + d2 * f2 for d1, d2 in zip(D1, D2)], den)

    def product(self, p, q, n):
        """The data of the product of two jets through order n: the two
        numerators of every output slot accumulate as ints under ``rule``
        over den(p) den(q) den(c1 c2), and the gcd of the result is
        divided out once."""
        A1, D1, e1 = p
        A2, D2, e2 = q
        r, k = self.rule
        m = len(_keys(n))
        A, D = [0] * m, [0] * m
        for s, row in _product_rows(n):
            a1, d1 = A1[s], D1[s]
            if not (a1 or d1):
                continue
            ra, rd, kd = r * a1, r * d1, k * d1
            for t, out in row:
                a2, d2 = A2[t], D2[t]
                A[out] += ra * a2 + kd * d2
                D[out] += ra * d2 + rd * a2
        den = r * e1 * e2
        g = math.gcd(den, *A, *D)
        if g == 1:
            return A, D, den
        return [a // g for a in A], [d // g for d in D], den // g

    def scale(self, data, x):
        """Every coefficient times an element, an int or a ``Fraction``."""
        A, D, den = data
        xa, xd, xden = self._parts(x)
        if not xd:
            return [a * xa for a in A], [d * xa for d in D], den * xden
        r, k = self.rule
        ra, rd, kd = r * xa, r * xd, k * xd
        return ([ra * a + kd * d for a, d in zip(A, D)],
                [ra * d + rd * a for a, d in zip(A, D)], r * den * xden)

    def add_scalar(self, data, x):
        """An element, an int or a ``Fraction`` added to the constant
        term."""
        A, D, den = data
        xa, xd, xden = self._parts(x)
        out = den if xden == den else math.lcm(den, xden)
        f, g = out // den, out // xden
        A, D = [a * f for a in A], [d * f for d in D]
        A[0] += xa * g
        D[0] += xd * g
        return A, D, out

    def diff(self, data, which, n):
        """The partial derivative in displacement slot ``which`` of the jet
        through order n."""
        A, D, den = data
        src = _diff_sources(n, which)
        return [A[s] * e for s, e in src], [D[s] * e for s, e in src], den


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

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(self.ctx, -self.na, -self.nd, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the common denominator: the numerators
        of ``other`` enter with ``sign``, so no negation of it is built,
        and equal denominators are not cross-multiplied.  Any other
        operand than an element, an int or a ``Fraction`` is left to its
        own ``__radd__``."""
        if not isinstance(other, QuadExtScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # an int or Fraction adds into the first numerator
            n, d = other.numerator, other.denominator
            return QuadExtScalar(self.ctx, self.na * d + sign * n * self.den,
                                 self.nd * d, self.den * d)
        self._check_ctx(other)
        e1, e2 = self.den, other.den
        f1, f2, den = (1, sign, e1) if e1 == e2 else (e2, sign * e1, e1 * e2)
        return QuadExtScalar(self.ctx, self.na * f1 + other.na * f2,
                             self.nd * f1 + other.nd * f2, den)

    def __mul__(self, other):
        """The product with an element, an int or a ``Fraction``; any other
        operand, such as a jet, is left to its ``__rmul__``."""
        if not isinstance(other, QuadExtScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        self._check_ctx(other)
        r, k = self.ctx.rule
        a1, d1, a2, d2 = self.na, self.nd, other.na, other.nd
        return QuadExtScalar(self.ctx, r * a1 * a2 + k * d1 * d2,
                             r * (a1 * d2 + d1 * a2),
                             r * self.den * other.den)

    __rmul__ = __mul__

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
