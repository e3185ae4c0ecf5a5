"""Bivariate Taylor jets at a point, generic over the coefficient ring.

A jet of order n stores the Taylor coefficients (not scaled derivatives)
in two displacements through total degree n.  The charts use exact
coefficients: the jet ring of the inversion chart is the
``QuadExtContext`` itself, the rank-2 ring Q(y1 y2) of the point; the
sphere charts use ``NumericRing(Fraction)``; floats and complex numbers
remain only in the tests.  The ring supplies
``zero``, ``one``, ``inv`` and ``product``, the truncated product of two
coefficient dicts, so each ring multiplies jets in its own arithmetic; it
embeds nothing, since rationals are added to and multiplied into its
elements directly.
"""


class NumericRing:
    """Jet ring of Fraction, float or complex coefficients."""

    def __init__(self, dtype=float):
        self.zero = dtype(0)
        self.one = dtype(1)

    def inv(self, x):
        return self.one / x

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

    def _through(self, n):
        """A new dict of the coefficients through total degree n."""
        if self.order == n:
            return dict(self.coeffs)
        return {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= n}

    def truncated(self, n):
        """The jet through total degree n; itself when n is not below its
        order."""
        if n >= self.order:
            return self
        return Jet(self.ring, n, self._through(n))

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return Jet(self.ring, self.order,
                   {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other through the lower order.  Each coefficient
        of ``other`` is added or subtracted in place, so no negation of
        ``other`` is built."""
        if not isinstance(other, Jet):
            return self.add_scalar(other if sign > 0 else -other)
        n = min(self.order, other.order)
        out = self._through(n)
        for k, c in other.coeffs.items():
            if k[0] + k[1] > n:
                continue
            prev = out.get(k)
            if prev is None:
                out[k] = c if sign > 0 else -c
            else:
                out[k] = prev + c if sign > 0 else prev - c
        return Jet(self.ring, n, out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        n = min(self.order, other.order)
        return Jet(self.ring, n,
                   self.ring.product(self.coeffs, other.coeffs, n))

    __rmul__ = __mul__

    def scale(self, e):
        """Multiply every coefficient by a ring element or a rational."""
        return Jet(self.ring, self.order,
                   {k: v * e for k, v in self.coeffs.items()})

    def add_scalar(self, q):
        """Add a ring element or a rational to the constant term."""
        out = dict(self.coeffs)
        out[(0, 0)] = self.base + q
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
        e = rest.add_scalar(-1)  # valuation >= 1
        acc = Jet.constant(self.ring, self.order, self.ring.one)
        power = Jet.constant(self.ring, self.order, self.ring.one)
        neg = -e
        for _ in range(self.order):
            power = power * neg
            acc = acc + power
        return acc.scale(ic0)

    def __str__(self):
        items = sorted(self.coeffs.items())
        return " + ".join("%s*e1^%d*e2^%d" % (v, k[0], k[1])
                          for k, v in items) or "0"

    __repr__ = __str__
