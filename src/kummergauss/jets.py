"""Bivariate Taylor jets at a point, generic over the coefficient ring.

A jet of order n holds the Taylor coefficients (not scaled derivatives)
in two displacements through total degree n.  The charts use exact
coefficients: the jet ring of the inversion chart is the
``QuadExtContext`` itself, the rank-2 ring Q(y1 y2) of the point; the
sphere charts use ``NumericRing(Fraction)``; floats and complex numbers
remain only in the tests.

The ring owns the layout of a jet's ``data`` and runs every operation on
it, so each ring works in its own arithmetic: a ``NumericRing`` keeps the
dict of coefficients, and a ``QuadExtContext`` keeps integer numerators
over one denominator per jet.  Besides ``zero``, ``one`` and ``inv``, a
ring supplies ``pack`` (a coefficient dict to data), ``coeffs`` and
``get`` (data back to elements), ``through`` (truncation), ``combine``
(sum or difference), ``product`` (truncated product), ``scale`` (by a
ring element or a rational), ``add_scalar`` and ``diff``.  Rationals are
added to and multiplied into the data directly, so a ring embeds nothing.
"""


class NumericRing:
    """Jet ring of Fraction, float or complex coefficients; a jet's data
    is the dict {(i, j): coefficient}."""

    def __init__(self, dtype=float):
        self.zero = dtype(0)
        self.one = dtype(1)

    def inv(self, x):
        return self.one / x

    def pack(self, coeffs, n):
        return coeffs

    def coeffs(self, data, n):
        return data

    def get(self, data, i, j):
        return data.get((i, j), self.zero)

    def through(self, data, n):
        return {k: c for k, c in data.items() if k[0] + k[1] <= n}

    def combine(self, p, q, sign, n):
        """p + sign * q through total degree n, for p through that degree.
        Each coefficient of q is added or subtracted in place, so no
        negation of q is built."""
        out = dict(p)
        for k, c in q.items():
            if k[0] + k[1] > n:
                continue
            prev = out.get(k)
            if prev is None:
                out[k] = c if sign > 0 else -c
            else:
                out[k] = prev + c if sign > 0 else prev - c
        return out

    def product(self, p, q, n):
        """Coefficients of the product of the jets with coefficients p and
        q, through total degree n."""
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                i, j = i1 + i2, j1 + j2
                if i + j > n:
                    continue
                k = (i, j)
                prev = out.get(k)
                out[k] = c1 * c2 if prev is None else prev + c1 * c2
        return out

    def scale(self, data, e):
        return {k: v * e for k, v in data.items()}

    def add_scalar(self, data, q):
        out = dict(data)
        out[(0, 0)] = self.get(data, 0, 0) + q
        return out

    def diff(self, data, which, n):
        out = {}
        for (i, j), c in data.items():
            if which == 0 and i > 0:
                out[(i - 1, j)] = c * i
            elif which == 1 and j > 0:
                out[(i, j - 1)] = c * j
        return out


class Jet:
    __slots__ = ("ring", "order", "data")

    def __init__(self, ring, order, data):
        """The jet of ``order`` whose data, in the ring's own layout, is
        ``data``; for a ``NumericRing`` that is the coefficient dict."""
        self.ring = ring
        self.order = order
        self.data = data

    @classmethod
    def from_coeffs(cls, ring, order, coeffs):
        """The jet of ``order`` with coefficients {(i, j): ring element}."""
        return cls(ring, order, ring.pack(coeffs, order))

    @classmethod
    def constant(cls, ring, order, value):
        return cls.from_coeffs(ring, order, {(0, 0): value})

    @classmethod
    def coordinate(cls, ring, order, base, which):
        """base + displacement in slot ``which`` (0 or 1)."""
        ix = (1, 0) if which == 0 else (0, 1)
        return cls.from_coeffs(ring, order, {(0, 0): base, ix: ring.one})

    @property
    def coeffs(self):
        """The coefficients as {(i, j): ring element}."""
        return self.ring.coeffs(self.data, self.order)

    def get(self, i, j):
        return self.ring.get(self.data, i, j)

    @property
    def base(self):
        return self.get(0, 0)

    def truncated(self, n):
        """The jet through total degree n; itself when n is not below its
        order."""
        if n >= self.order:
            return self
        return Jet(self.ring, n, self.ring.through(self.data, n))

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other through the lower order."""
        if not isinstance(other, Jet):
            return self.add_scalar(other if sign > 0 else -other)
        ring, n = self.ring, min(self.order, other.order)
        if other.ring is not ring and other.ring != ring:
            raise ValueError("jets over different rings")
        p = self.data if self.order == n else ring.through(self.data, n)
        return Jet(ring, n, ring.combine(p, other.data, sign, n))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        ring, n = self.ring, min(self.order, other.order)
        if other.ring is not ring and other.ring != ring:
            raise ValueError("jets over different rings")
        return Jet(ring, n, ring.product(self.data, other.data, n))

    __rmul__ = __mul__

    def scale(self, e):
        """Multiply every coefficient by a ring element or a rational."""
        return Jet(self.ring, self.order, self.ring.scale(self.data, e))

    def add_scalar(self, q):
        """Add a ring element or a rational to the constant term."""
        return Jet(self.ring, self.order, self.ring.add_scalar(self.data, q))

    def diff(self, which):
        """Formal partial derivative in displacement slot 0 or 1; the jet
        order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.ring, self.order - 1,
                   self.ring.diff(self.data, which, self.order))

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        ic0 = self.ring.inv(self.base)
        # 1 - self / c0, of valuation >= 1; the inverse is c0^-1 times the
        # sum of its powers
        neg = self.scale(-ic0).add_scalar(1)
        acc = power = Jet.constant(self.ring, self.order, self.ring.one)
        for _ in range(self.order):
            power = power * neg
            acc = acc + power
        return acc.scale(ic0)

    def __str__(self):
        items = sorted(self.coeffs.items())
        return " + ".join("%s*e1^%d*e2^%d" % (v, k[0], k[1])
                          for k, v in items) or "0"

    __repr__ = __str__
