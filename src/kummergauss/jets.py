"""Bivariate Taylor jets at a point, generic over the coefficient ring.

A jet of order n stores the Taylor coefficients (not scaled derivatives)
in two displacements through total degree n.  The charts use exact
coefficients (quadratic-extension scalars, or ``NumericRing(Fraction)``);
floats and complex numbers remain only in the tests and the
``complex_backend`` reference.  The ring adapter supplies zero, embedding
of rationals, and inversion.
"""

from fractions import Fraction


class NumericRing:
    """Adapter for Fraction, float or complex jet coefficients."""

    def __init__(self, dtype=float):
        self.dtype = dtype
        self.zero = dtype(0)
        self.one = dtype(1)

    def from_rat(self, q):
        if isinstance(q, (float, complex, int)):
            return self.dtype(q)
        return self.dtype(int(q.numerator)) / self.dtype(int(q.denominator))

    def inv(self, x):
        return self.one / x


class QuadExtJetRing:
    """Adapter for jets with quadratic-extension coefficients."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.zero = ctx.zero
        self.one = ctx.one

    def from_rat(self, q):
        return self.ctx.rational(q)

    def inv(self, x):
        return x.inv()


class Jet:
    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order, coeffs=None):
        self.ring = ring
        self.order = order
        self.coeffs = coeffs if coeffs is not None else {}

    @classmethod
    def constant(cls, ring, order, value):
        return cls(ring, order, {(0, 0): value})

    @classmethod
    def coordinate(cls, ring, order, base, which):
        """base + displacement in slot ``which`` (0 or 1)."""
        ix = (1, 0) if which == 0 else (0, 1)
        return cls(ring, order, {(0, 0): base, ix: ring.one})

    def get(self, i, j):
        return self.coeffs.get((i, j), self.ring.zero)

    @property
    def base(self):
        return self.get(0, 0)

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.ring, self.order,
                                 self.ring.from_rat(other)
                                 if not isinstance(other, type(self.ring.zero))
                                 else other)
        n = min(self.order, other.order)
        out = {}
        for k in set(self.coeffs) | set(other.coeffs):
            if k[0] + k[1] > n:
                continue
            out[k] = self.get(*k) + other.get(*k)
        return Jet(self.ring, n, out)

    def __neg__(self):
        return Jet(self.ring, self.order,
                   {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        n = min(self.order, other.order)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > n:
                    continue
                k = (i, j)
                prev = out.get(k)
                out[k] = c1 * c2 if prev is None else prev + c1 * c2
        return Jet(self.ring, n, out)

    __rmul__ = __mul__

    def scale(self, e):
        """Multiply every coefficient by a ring element or a rational."""
        return Jet(self.ring, self.order,
                   {k: v * e for k, v in self.coeffs.items()})

    def half(self):
        return self.scale(Fraction(1, 2))

    def add_scalar(self, q):
        out = dict(self.coeffs)
        out[(0, 0)] = self.get(0, 0) + self.ring.from_rat(q)
        return Jet(self.ring, self.order, out)

    def diff(self, which):
        """Formal partial derivative in displacement slot 0 or 1; the jet
        order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        out = {}
        for (i, j), c in self.coeffs.items():
            if which == 0 and i > 0:
                out[(i - 1, j)] = c * i
            elif which == 1 and j > 0:
                out[(i, j - 1)] = c * j
        return Jet(self.ring, self.order - 1, out)

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        ic0 = self.ring.inv(self.base)
        rest = self.scale(ic0)
        e = rest.add_scalar(Fraction(-1))  # valuation >= 1
        acc = Jet.constant(self.ring, self.order, self.ring.one)
        power = Jet.constant(self.ring, self.order, self.ring.one)
        for _ in range(self.order):
            power = power * (-e)
            acc = acc + power
        return acc.scale(ic0)

    def __str__(self):
        items = sorted(self.coeffs.items())
        return " + ".join("%s*e1^%d*e2^%d" % (v, k[0], k[1])
                          for k, v in items) or "0"

    __repr__ = __str__
