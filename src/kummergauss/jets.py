"""Bivariate Taylor jets at a point over the rank-2 ring Q(w) of a
``QuadExtContext``.

A jet of order n holds the Taylor coefficients (not scaled derivatives)
in two displacements through total degree n.  They serve the inversion
chart, exact over the point's Q(w), w = y1 y2.

A jet's ``data`` holds its coefficients the way ``rings.Poly`` holds
terms, as integer numerators over one positive denominator per jet:
``(A, D, den)``, where A and D carry the 1-part and the w-part of the
coefficient of e1^i e2^j at ``graded_index(i, j)``, through the jet's
order.  Every jet operation runs on those integers.  As in ``Poly``,
only products reduce: each divides out the gcd of the whole jet once,
and other results keep the denominator they form.  An element is built
only when a coefficient leaves the jet (``get``, ``base``, ``coeffs``),
so every reader sees canonical elements.  Elements of the ring, ints and
``Fraction``s are added to and multiplied into the data directly.
"""

import functools
import math

from .quadext import QuadExtScalar


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


class Jet:
    __slots__ = ("ring", "order", "data")

    def __init__(self, ring, order, data):
        """The jet of ``order`` over the ``QuadExtContext`` ``ring`` whose
        data is ``(A, D, den)`` (see the module docstring)."""
        self.ring = ring
        self.order = order
        self.data = data

    @classmethod
    def from_coeffs(cls, ring, order, coeffs):
        """The jet of ``order`` with coefficients {(i, j): x}, each x an
        element of ``ring``, an int or a ``Fraction``; keys above
        ``order`` are dropped."""
        parts = [(graded_index(i, j), ring._parts(x))
                 for (i, j), x in coeffs.items() if i + j <= order]
        den = math.lcm(*[p[2] for _, p in parts])
        m = len(_keys(order))
        A, D = [0] * m, [0] * m
        for s, (a, d, e) in parts:
            A[s], D[s] = a * (den // e), d * (den // e)
        return cls(ring, order, (A, D, den))

    @classmethod
    def coordinate(cls, ring, order, base, which):
        """base + displacement in slot ``which`` (0 or 1)."""
        ix = (1, 0) if which == 0 else (0, 1)
        return cls.from_coeffs(ring, order, {(0, 0): base, ix: ring.one})

    @property
    def coeffs(self):
        """The nonzero coefficients as {(i, j): element}."""
        A, D, den = self.data
        return {key: QuadExtScalar(self.ring, a, d, den)
                for key, a, d in zip(_keys(self.order), A, D) if a or d}

    def get(self, i, j):
        A, D, den = self.data
        s = graded_index(i, j)
        return QuadExtScalar(self.ring, A[s], D[s], den) if s < len(A) \
            else self.ring.zero

    @property
    def base(self):
        return self.get(0, 0)

    def truncated(self, n):
        """The jet through total degree n; itself when n is not below its
        order."""
        if n >= self.order:
            return self
        A, D, den = self.data
        m = len(_keys(n))
        return Jet(self.ring, n, (A[:m], D[:m], den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other through the lower order, over the lcm of
        the two denominators; ``zip`` stops at the last slot of the lower
        order, so the other operand is not truncated first."""
        if not isinstance(other, Jet):
            return self.add_scalar(other if sign > 0 else -other)
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise ValueError("jets over different rings")
        A1, D1, e1 = self.data
        A2, D2, e2 = other.data
        den = e1 if e1 == e2 else math.lcm(e1, e2)
        f1, f2 = den // e1, sign * (den // e2)
        return Jet(ring, min(self.order, other.order),
                   ([a1 * f1 + a2 * f2 for a1, a2 in zip(A1, A2)],
                    [d1 * f1 + d2 * f2 for d1, d2 in zip(D1, D2)], den))

    def __mul__(self, other):
        """The product through the lower order, or every coefficient times
        an element, an int or a ``Fraction``.  The two numerators of every
        output slot accumulate as ints under the ring's ``rule`` over
        den(p) den(q) den(c1 c2), and the gcd of the result is divided
        out once."""
        if not isinstance(other, Jet):
            return self.scale(other)
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise ValueError("jets over different rings")
        n = min(self.order, other.order)
        A1, D1, e1 = self.data
        A2, D2, e2 = other.data
        r, k = ring.rule
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
        if g != 1:
            A, D, den = [a // g for a in A], [d // g for d in D], den // g
        return Jet(ring, n, (A, D, den))

    __rmul__ = __mul__

    def scale(self, x):
        """Multiply every coefficient by an element, an int or a
        ``Fraction``."""
        A, D, den = self.data
        xa, xd, xden = self.ring._parts(x)
        if not xd:
            data = [a * xa for a in A], [d * xa for d in D], den * xden
        else:
            r, k = self.ring.rule
            ra, rd, kd = r * xa, r * xd, k * xd
            data = ([ra * a + kd * d for a, d in zip(A, D)],
                    [ra * d + rd * a for a, d in zip(A, D)], r * den * xden)
        return Jet(self.ring, self.order, data)

    def add_scalar(self, x):
        """Add an element, an int or a ``Fraction`` to the constant
        term."""
        A, D, den = self.data
        xa, xd, xden = self.ring._parts(x)
        out = den if xden == den else math.lcm(den, xden)
        f, g = out // den, out // xden
        A, D = [a * f for a in A], [d * f for d in D]
        A[0] += xa * g
        D[0] += xd * g
        return Jet(self.ring, self.order, (A, D, out))

    def diff(self, which):
        """Formal partial derivative in displacement slot 0 or 1; the jet
        order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        A, D, den = self.data
        src = _diff_sources(self.order, which)
        return Jet(self.ring, self.order - 1,
                   ([A[s] * e for s, e in src], [D[s] * e for s, e in src],
                    den))

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        ic0 = self.base.inv()
        # 1 - self / c0, of valuation >= 1; the inverse is c0^-1 times the
        # sum of its powers
        neg = self.scale(-ic0).add_scalar(1)
        acc = power = Jet.from_coeffs(self.ring, self.order, {(0, 0): 1})
        for _ in range(self.order):
            power = power * neg
            acc = acc + power
        return acc.scale(ic0)
