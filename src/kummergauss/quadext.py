"""Exact arithmetic in the rank-4 algebra Q[y1, y2] with y1^2 = c1,
y2^2 = c2 fixed rationals: elements a + b y1 + c y2 + d y1 y2.

An element stores four integer numerators over one positive integer
denominator in canonical form (the gcd of the five integers is 1, zero is
0/1), so every operation runs on Python ints and equal values have equal
fields.  ``.a``, ``.b``, ``.c`` and ``.d`` read the parts as lowest-terms
``Fraction``s.

A ``QuadExtContext`` fixes (c1, c2) and is also the coefficient ring of
the inversion-chart jets: it carries ``zero`` and ``one``, inverts with
``inv`` and multiplies jets with ``product``, which works on the integer
numerators of both factors and builds one element per output
coefficient."""

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
    """Element has zero norm in the quadratic extension algebra."""


class QuadExtContext:
    def __init__(self, c1, c2):
        self.c1, self.c2 = rat(c1), rat(c2)
        n1, d1 = self.c1.numerator, self.c1.denominator
        n2, d2 = self.c2.numerator, self.c2.denominator
        # the product rule times d1 d2: 1 -> d1 d2, y1^2 -> n1 d2,
        # y2^2 -> n2 d1, (y1 y2)^2 -> n1 n2
        self.rule = (d1 * d2, n1 * d2, n2 * d1, n1 * n2)
        self.zero = self.element()
        self.one = self.element(a=1)

    def __eq__(self, other):
        return (isinstance(other, QuadExtContext)
                and self.c1 == other.c1 and self.c2 == other.c2)

    def element(self, a=0, b=0, c=0, d=0):
        qs = [rat(q) for q in (a, b, c, d)]
        den = math.lcm(*[q.denominator for q in qs])
        return QuadExtScalar(self, *[q.numerator * (den // q.denominator)
                                     for q in qs], den)

    def rational(self, q):
        return self.element(a=q)

    def inv(self, x):
        return x.inv()

    def _numerators(self, coeffs):
        """A jet's coefficients as (degree, key, four integer numerators)
        over their lcm denominator, sorted by degree, and that denominator.
        Raises ValueError on a coefficient of another context."""
        den = math.lcm(*[x.den for x in coeffs.values()])
        out = []
        for (i, j), x in coeffs.items():
            if x.ctx is not self and x.ctx != self:
                raise ValueError("mixed quadratic extension contexts")
            s = den // x.den
            out.append((i + j, i, j, x.na * s, x.nb * s, x.nc * s, x.nd * s))
        out.sort()
        return out, den

    def product(self, p, q, n):
        """Coefficients of the product of the jets with coefficients p and
        q, through total degree n.  Each factor is scaled to integer
        numerators over its lcm denominator, the four numerators of every
        output coefficient accumulate as ints under ``rule``, and each
        output key becomes one ``QuadExtScalar`` (one gcd)."""
        ps, dp = self._numerators(p)
        qs, dq = self._numerators(q)
        r, k1, k2, k12 = self.rule
        acc = {}
        for e1, i1, j1, a1, b1, c1, d1 in ps:
            if e1 > n:
                break
            ra, rb, rc, rd = r * a1, r * b1, r * c1, r * d1
            k1b, k1d, k2c, k2d, k12d = (k1 * b1, k1 * d1, k2 * c1, k2 * d1,
                                        k12 * d1)
            room = n - e1
            for e2, i2, j2, a2, b2, c2, d2 in qs:
                if e2 > room:
                    break
                na = ra * a2 + k1b * b2 + k2c * c2 + k12d * d2
                nb = ra * b2 + rb * a2 + k2c * d2 + k2d * c2
                nc = ra * c2 + rc * a2 + k1b * d2 + k1d * b2
                nd = ra * d2 + rb * c2 + rc * b2 + rd * a2
                k = (i1 + i2, j1 + j2)
                s = acc.get(k)
                if s is None:
                    acc[k] = [na, nb, nc, nd]
                else:
                    s[0] += na
                    s[1] += nb
                    s[2] += nc
                    s[3] += nd
        den = r * dp * dq
        return {k: QuadExtScalar(self, na, nb, nc, nd, den)
                for k, (na, nb, nc, nd) in acc.items()}

    @property
    def y1(self):
        return self.element(b=1)

    @property
    def y2(self):
        return self.element(c=1)


class QuadExtScalar:
    """(na + nb y1 + nc y2 + nd y1 y2) / den in lowest terms."""

    __slots__ = ("ctx", "na", "nb", "nc", "nd", "den")

    def __init__(self, ctx, na, nb, nc, nd, den):
        """Integer numerators over ``den`` > 0; their gcd is divided out."""
        g = math.gcd(na, nb, nc, nd, den)
        if g != 1:
            na, nb, nc, nd, den = na // g, nb // g, nc // g, nd // g, den // g
        self.ctx, self.na, self.nb, self.nc, self.nd, self.den = (
            ctx, na, nb, nc, nd, den)

    a = property(lambda self: Fraction(self.na, self.den))
    b = property(lambda self: Fraction(self.nb, self.den))
    c = property(lambda self: Fraction(self.nc, self.den))
    d = property(lambda self: Fraction(self.nd, self.den))

    def _check_ctx(self, other):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("mixed quadratic extension contexts")

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(self.ctx, -self.na, -self.nb, -self.nc,
                             -self.nd, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the common denominator: the numerators
        of ``other`` enter with ``sign``, so no negation of it is built,
        and equal denominators are not cross-multiplied."""
        if not isinstance(other, QuadExtScalar):
            # an int or Fraction adds into the first numerator
            n, d = other.numerator, other.denominator
            return QuadExtScalar(self.ctx, self.na * d + sign * n * self.den,
                                 self.nb * d, self.nc * d, self.nd * d,
                                 self.den * d)
        self._check_ctx(other)
        e1, e2 = self.den, other.den
        f1, f2, den = (1, sign, e1) if e1 == e2 else (e2, sign * e1, e1 * e2)
        return QuadExtScalar(self.ctx, self.na * f1 + other.na * f2,
                             self.nb * f1 + other.nb * f2,
                             self.nc * f1 + other.nc * f2,
                             self.nd * f1 + other.nd * f2, den)

    def __mul__(self, other):
        if not isinstance(other, QuadExtScalar):
            return self.scale(other)
        self._check_ctx(other)
        r, k1, k2, k12 = self.ctx.rule
        a1, b1, c1, d1 = self.na, self.nb, self.nc, self.nd
        a2, b2, c2, d2 = other.na, other.nb, other.nc, other.nd
        return QuadExtScalar(
            self.ctx,
            r * a1 * a2 + k1 * b1 * b2 + k2 * c1 * c2 + k12 * d1 * d2,
            r * (a1 * b2 + b1 * a2) + k2 * (c1 * d2 + d1 * c2),
            r * (a1 * c2 + c1 * a2) + k1 * (b1 * d2 + d1 * b2),
            r * (a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2),
            r * self.den * other.den)

    __rmul__ = __mul__

    def scale(self, q):
        """Multiply by an int or a ``Fraction``."""
        n = q.numerator
        return QuadExtScalar(self.ctx, self.na * n, self.nb * n, self.nc * n,
                             self.nd * n, self.den * q.denominator)

    def conj1(self):
        return QuadExtScalar(self.ctx, self.na, -self.nb, self.nc,
                             -self.nd, self.den)

    def conj2(self):
        return QuadExtScalar(self.ctx, self.na, self.nb, -self.nc,
                             -self.nd, self.den)

    def inv(self):
        cof = self.conj1() * self.conj2() * self.conj1().conj2()
        n = self * cof  # n.na / n.den, rational
        if n.na == 0:
            raise NonInvertibleError("zero norm: %s" % (self,))
        # cof / (na / den) = (den cof) / na
        s = n.den if n.na > 0 else -n.den
        return QuadExtScalar(self.ctx, cof.na * s, cof.nb * s, cof.nc * s,
                             cof.nd * s, cof.den * abs(n.na))

    def is_zero(self):
        return self.na == 0 and self.nb == 0 and self.nc == 0 and self.nd == 0

    def __eq__(self, other):
        if isinstance(other, QuadExtScalar):
            return ((self.ctx is other.ctx or self.ctx == other.ctx)
                    and self.na == other.na
                    and self.nb == other.nb and self.nc == other.nc
                    and self.nd == other.nd and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.rational(other)
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the rational it equals
        if not (self.nb or self.nc or self.nd):
            return hash(Fraction(self.na, self.den))
        return hash((self.na, self.nb, self.nc, self.nd, self.den))

    def rational_value(self):
        """Exact value with y_i -> sqrt(c_i); both c_i must be perfect
        squares of rationals."""
        r1 = rational_sqrt(self.ctx.c1)
        r2 = rational_sqrt(self.ctx.c2)
        if r1 is None or r2 is None:
            raise ValueError("square roots are irrational")
        return self.a + self.b * r1 + self.c * r2 + self.d * r1 * r2

    def __str__(self):
        return "(%s + %s*y1 + %s*y2 + %s*y1y2)" % (self.a, self.b, self.c,
                                                   self.d)

    __repr__ = __str__
