"""Tests for the rank-2 ring Q(w), w^2 = c1 c2 (w = y1 y2 of the
inversion chart), and the jet layer."""

import math
import random
from fractions import Fraction

import pytest

from kummergauss.jets import Jet
from kummergauss.quadext import (NonInvertibleError, QuadExtContext,
                                 QuadExtScalar)
from kummergauss.rings import rat, rational_sqrt


def random_elem(rng, ctx, span=9):
    return ctx.element(*[rat(rng.randint(-span, span), rng.randint(1, 4))
                         for _ in range(2)])


# -- square roots -----------------------------------------------------

def test_rational_sqrt():
    assert rational_sqrt(rat(9, 4)) == rat(3, 2)
    assert rational_sqrt(rat(0)) == 0
    assert rational_sqrt(rat(2)) is None
    assert rational_sqrt(rat(-4)) is None
    assert rational_sqrt(rat(49, 36)) == rat(7, 6)


# -- worked inverses --------------------------------------------------

def test_inverse_of_w():
    ctx = QuadExtContext(4, 3)
    inv = ctx.w.inv()
    assert inv == ctx.element(d=rat(1, 12))
    assert (ctx.w * inv) == ctx.one


def test_product_of_conjugate_pair():
    ctx = QuadExtContext(4, 3)
    left = ctx.one + ctx.w
    right = ctx.one - ctx.w
    assert left * right == ctx.rational(rat(-11))  # 1 - c1 c2


def test_inverse_of_one_plus_w():
    ctx = QuadExtContext(4, 3)
    e = ctx.one + ctx.w
    inv = e.inv()
    assert inv == ctx.element(a=rat(-1, 11), d=rat(1, 11))
    assert e * inv == ctx.one


def test_zero_norm_rejected():
    ctx = QuadExtContext(4, 9)
    # 6 -+ w has norm 36 - 36 = 0
    for e in (ctx.rational(6) + ctx.w, ctx.rational(6) - ctx.w):
        with pytest.raises(NonInvertibleError):
            e.inv()


# -- algebra laws, randomized -----------------------------------------

def test_associativity_and_distributivity_randomized():
    rng = random.Random(20260820)
    ctx = QuadExtContext(rat(5), rat(-2))
    for _ in range(200):
        x = random_elem(rng, ctx)
        y = random_elem(rng, ctx)
        z = random_elem(rng, ctx)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_inverse_round_trip_randomized():
    rng = random.Random(20260822)
    ctx = QuadExtContext(rat(2), rat(-3))
    done = 0
    while done < 80:
        x = random_elem(rng, ctx)
        try:
            inv = x.inv()
        except NonInvertibleError:
            continue
        assert x * inv == ctx.one
        done += 1


def test_mixed_contexts_rejected():
    a = QuadExtContext(2, 3).w
    b = QuadExtContext(2, 5).w
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a * b


# -- integer kernel against the Fraction formulas ---------------------

def _mul_reference(ctx, x, y):
    """The product rule on Fraction parts."""
    k = ctx.c1 * ctx.c2
    a1, d1 = x
    a2, d2 = y
    return (a1 * a2 + k * d1 * d2, a1 * d2 + d1 * a2)


def _inv_reference(ctx, x):
    """The conjugate over the norm, on Fraction parts; None at norm 0."""
    a, d = x
    norm = a * a - ctx.c1 * ctx.c2 * d * d
    return (a / norm, -d / norm) if norm else None


def _add_reference(x, y):
    return tuple(p + q for p, q in zip(x, y))


def parts(x):
    return (x.a, x.d)


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.na, x.nd, x.den) == 1
    if x.is_zero():
        assert (x.na, x.den) == (0, 1)
    assert all(type(q) is Fraction for q in parts(x))


# c_i of both signs, integral and with denominators up to 5040
KERNEL_CONTEXTS = [(rat(5), rat(-2)), (rat(-3, 7), rat(11, 5040)),
                   (rat(-1), rat(-1, 4)), (rat(7, 9), rat(13)),
                   (rat(1, 5040), rat(-5040))]


def random_parts(rng):
    """Fraction parts: zero, rational, or mixed, with denominators up to
    5040."""
    kind = rng.random()
    if kind < 0.05:
        return (rat(0),) * 2
    out = []
    for i in range(2):
        if (kind < 0.2 and i > 0) or rng.random() < 0.2:
            out.append(rat(0))
        else:
            out.append(rat(rng.randint(-10 ** 6, 10 ** 6),
                           rng.choice((1, 2, 7, 36, 720, 5040,
                                       rng.randint(1, 5040)))))
    return tuple(out)


@pytest.mark.parametrize("c1,c2", KERNEL_CONTEXTS,
                         ids=["%s,%s" % c for c in KERNEL_CONTEXTS])
def test_kernel_matches_fraction_reference(c1, c2):
    rng = random.Random(20261018 + KERNEL_CONTEXTS.index((c1, c2)))
    ctx = QuadExtContext(c1, c2)
    inverted = 0
    for _ in range(120):
        xp, yp = random_parts(rng), random_parts(rng)
        pairs = [(xp, yp),
                 # cross terms cancel: (p + r)(p - r) and x conj(x)
                 (_add_reference(xp, yp),
                  _add_reference(xp, tuple(-q for q in yp))),
                 (xp, (xp[0], -xp[1])),
                 (xp, tuple(-q for q in xp))]
        for u, v in pairs:
            x, y = ctx.element(*u), ctx.element(*v)
            assert parts(x) == u and parts(y) == v
            prod, total = x * y, x + y
            assert parts(prod) == _mul_reference(ctx, u, v)
            assert parts(total) == _add_reference(u, v)
            assert parts(x - y) == _add_reference(u, tuple(-q for q in v))
            q = rat(rng.randint(-50, 50), rng.randint(1, 5040))
            # rational factors, Fraction and int, scaled in or as elements
            # on either side
            for r in (q, q.numerator):
                e = ctx.rational(r)
                for z in (x.scale(r), x * e, e * x):
                    assert parts(z) == tuple(p * r for p in u)
                    assert_canonical(z)
            for z in (x, y, prod, total, x.scale(q), -x):
                assert_canonical(z)
            want = _inv_reference(ctx, u)
            if want is None:
                with pytest.raises(NonInvertibleError):
                    x.inv()
                continue
            # norms of both signs
            inv = x.inv()
            assert parts(inv) == want
            assert x * inv == ctx.one
            assert_canonical(inv)
            inverted += 1
    assert inverted > 400


def test_rational_addition_matches_element_addition():
    """A rational enters the ring through ``ctx.rational`` and adds into
    the first part; a bare int or ``Fraction`` is a foreign operand."""
    rng = random.Random(20261019)
    ctx = QuadExtContext(rat(-3, 7), rat(11, 5040))
    for _ in range(60):
        x = ctx.element(*random_parts(rng))
        q = rat(rng.randint(-50, 50), rng.randint(1, 5040))
        for r in (q, q.numerator):
            e = ctx.rational(r)
            for z in (x + e, e + x):
                assert z == ctx.element(x.a + r, x.d)
                assert_canonical(z)
            assert x - e == x + ctx.rational(-r)
            for op in (lambda: x + r, lambda: r + x, lambda: x * r):
                with pytest.raises(TypeError):
                    op()


def test_difference_is_sum_with_negation():
    """Subtraction works on the numerators directly, with or without a
    common denominator, and stays canonical."""
    rng = random.Random(20261020)
    ctx = QuadExtContext(rat(-3, 7), rat(11, 5040))
    for _ in range(100):
        x = ctx.element(*random_parts(rng))
        y = ctx.element(*random_parts(rng))
        # adding an integer element and negating keep the denominator, so
        # these take the shared-denominator path
        same_den = -(x + ctx.rational(rng.randint(-9, 9)))
        assert same_den.den == x.den
        for z in (y, same_den, x):
            for value, want in ((x - z, x + (-z)), (z - x, z + (-x)),
                                (x + z, ctx.element(x.a + z.a, x.d + z.d))):
                assert value == want
                assert_canonical(value)
        assert_canonical(x - x)
        assert (x - x).is_zero()


# -- the jet product kernel -------------------------------------------

def _schoolbook(p, q, n):
    """The truncated jet product from QuadExtScalar ``*`` and ``+``."""
    out = {}
    for (i1, j1), x in p.items():
        for (i2, j2), y in q.items():
            if i1 + i2 + j1 + j2 <= n:
                k = (i1 + i2, j1 + j2)
                out[k] = out[k] + x * y if k in out else x * y
    return out


def _random_coeffs(rng, ctx, order):
    """Jet coefficients through ``order`` with mixed denominators; about
    one key in five is missing."""
    return {(i, d - i): ctx.element(*random_parts(rng))
            for d in range(order + 1) for i in range(d + 1)
            if rng.random() < 0.8}


def _nonzero(coeffs):
    return {k: x for k, x in coeffs.items() if not x.is_zero()}


def assert_jet_data(jet, reduced=False):
    """A Q(w) jet stores two numerator lists of its order's length over a
    positive denominator, in lowest terms where ``reduced``, and hands out
    canonical elements from ``get``, ``base`` and ``coeffs``."""
    A, D, den = jet.data
    size = (jet.order + 1) * (jet.order + 2) // 2
    assert len(A) == len(D) == size and den > 0
    if reduced:
        assert math.gcd(den, *A, *D) == 1
    assert_canonical(jet.base)
    for x in jet.coeffs.values():
        assert_canonical(x)
    for i in range(jet.order + 2):
        for j in range(jet.order + 2 - i):
            assert_canonical(jet.get(i, j))


@pytest.mark.parametrize("c1,c2", KERNEL_CONTEXTS,
                         ids=["%s,%s" % c for c in KERNEL_CONTEXTS])
def test_jet_product_matches_schoolbook(c1, c2):
    rng = random.Random(20261019 + KERNEL_CONTEXTS.index((c1, c2)))
    ctx = QuadExtContext(c1, c2)
    cancelled = 0
    for _ in range(5):
        for op in range(4):
            for oq in range(4):
                p = _random_coeffs(rng, ctx, op)
                q = _random_coeffs(rng, ctx, oq)
                # p(e1, e2) p(-e1, e2) is even in e1: its odd coefficients
                # are sums that cancel to zero
                r = {(i, j): -x if i % 2 else x for (i, j), x in p.items()}
                n = min(op, oq)
                for a, b, m, bo in ((p, q, n, oq), (p, r, op, op)):
                    got = Jet.from_coeffs(ctx, op, a) \
                        * Jet.from_coeffs(ctx, bo, b)
                    assert got.order == m
                    assert got.coeffs == _nonzero(_schoolbook(a, b, m))
                    assert_jet_data(got, reduced=True)
                odd = [k for k in _schoolbook(p, r, op) if k[0] % 2]
                even = Jet.from_coeffs(ctx, op, p) \
                    * Jet.from_coeffs(ctx, op, r)
                assert all(even.get(*k).is_zero() for k in odd)
                cancelled += len(odd)
    assert cancelled > 0


class _RefJet:
    """The element-by-element reference for Q(w) jets: the dict of the
    ``QuadExtScalar`` coefficients through ``order``, every operation
    written out on those elements."""

    def __init__(self, ctx, order, coeffs):
        self.ctx, self.order = ctx, order
        self.coeffs = {k: x for k, x in coeffs.items() if sum(k) <= order}

    def _new(self, order, coeffs):
        return _RefJet(self.ctx, order, coeffs)

    def _elem(self, e):
        """An int or a ``Fraction`` as an element; an element as is."""
        return e if isinstance(e, QuadExtScalar) else self.ctx.rational(e)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def _combine(self, other, sign):
        if not isinstance(other, _RefJet):
            return self.add_scalar(other if sign > 0 else -other)
        out = dict(self.coeffs)
        for k, x in other.coeffs.items():
            y = x if sign > 0 else -x
            out[k] = out[k] + y if k in out else y
        return self._new(min(self.order, other.order), out)

    def __mul__(self, other):
        if not isinstance(other, _RefJet):
            return self.scale(other)
        n = min(self.order, other.order)
        return self._new(n, _schoolbook(self.coeffs, other.coeffs, n))

    def scale(self, e):
        e = self._elem(e)
        return self._new(self.order,
                         {k: x * e for k, x in self.coeffs.items()})

    def add_scalar(self, e):
        out = dict(self.coeffs)
        out[0, 0] = out.get((0, 0), self.ctx.zero) + self._elem(e)
        return self._new(self.order, out)

    def truncated(self, n):
        return self._new(min(n, self.order), self.coeffs)

    def diff(self, which):
        out = {}
        for (i, j), x in self.coeffs.items():
            if which == 0 and i:
                out[i - 1, j] = x * self._elem(i)
            elif which == 1 and j:
                out[i, j - 1] = x * self._elem(j)
        return self._new(self.order - 1, out)

    def inverse(self):
        """The coefficients g of 1/f one total degree at a time, from
        f g = 1: g_0 = 1/f_0 and f_0 g_k = -sum_{0 < m <= k} f_m g_(k-m)."""
        f = self.coeffs
        zero = self.ctx.zero
        ic0 = f.get((0, 0), zero).inv()
        g = {(0, 0): ic0}
        for e in range(1, self.order + 1):
            for i in range(e + 1):
                acc = zero
                for (a, b), fx in f.items():
                    if (a, b) != (0, 0) and a <= i and b <= e - i:
                        acc = acc + fx * g[i - a, e - i - b]
                g[i, e - i] = -(acc * ic0)
        return self._new(self.order, g)


@pytest.mark.parametrize("c1,c2", KERNEL_CONTEXTS,
                         ids=["%s,%s" % c for c in KERNEL_CONTEXTS])
def test_jet_operations_match_element_reference(c1, c2):
    """Every operation on the numerator form equals the same operation on
    the coefficient elements, at equal and unequal orders, and leaves data
    of the result's order; products end in lowest terms."""
    rng = random.Random(20261029 + KERNEL_CONTEXTS.index((c1, c2)))
    ctx = QuadExtContext(c1, c2)
    inverted = 0
    for _ in range(4):
        for op in range(4):
            for oq in range(4):
                p = _random_coeffs(rng, ctx, op)
                q = _random_coeffs(rng, ctx, oq)
                x = Jet.from_coeffs(ctx, op, p)
                y = Jet.from_coeffs(ctx, oq, q)
                rx, ry = _RefJet(ctx, op, p), _RefJet(ctx, oq, q)
                e = ctx.element(*random_parts(rng))
                f = rat(rng.randint(-50, 50), rng.randint(1, 5040))
                cases = [(x + y, rx + ry, False), (y - x, ry - rx, False),
                         (x - x, rx - rx, False), (-x, -rx, False),
                         (x * y, rx * ry, True)]
                for s in (f, f.numerator, e):
                    cases += [(x.scale(s), rx.scale(s), False),
                              (x * s, rx * s, False),
                              (x.add_scalar(s), rx.add_scalar(s), False),
                              (x + s, rx + s, False), (x - s, rx - s, False)]
                cases += [(x.truncated(n), rx.truncated(n), False)
                          for n in range(op + 2)]
                if op:
                    cases += [(x.diff(0), rx.diff(0), False),
                              (x.diff(1), rx.diff(1), False)]
                try:
                    want = rx.inverse()
                except NonInvertibleError:
                    with pytest.raises(NonInvertibleError):
                        x.inverse()
                else:
                    cases.append((x.inverse(), want, False))
                    inverted += 1
                for got, want, reduced in cases:
                    assert got.order == want.order
                    assert got.coeffs == _nonzero(want.coeffs)
                    assert_jet_data(got, reduced)
    assert inverted > 30


def test_element_times_jet_is_jet_times_element():
    """An element on the left of a jet leaves the product to the jet; an
    element plus a jet is no operation of either."""
    ctx = QuadExtContext(2, 3)
    jet = Jet.coordinate(ctx, 2, ctx.one + ctx.w, 0) \
        * Jet.coordinate(ctx, 2, ctx.w.scale(rat(-2, 7)), 1)
    for e in (ctx.w, ctx.rational(rat(-2, 7)) + ctx.w):
        assert (e * jet).coeffs == (jet * e).coeffs
    with pytest.raises(TypeError):
        ctx.w + jet
    with pytest.raises(TypeError):
        ctx.w - jet


def test_jet_product_over_two_contexts_rejected():
    a, b = QuadExtContext(2, 3), QuadExtContext(2, 5)
    ja = Jet.coordinate(a, 2, a.w, 0)
    jb = Jet.coordinate(b, 2, b.w, 1)
    for x, y in ((ja, jb), (jb, ja)):
        with pytest.raises(ValueError):
            x * y
    # equal contexts built apart are one ring
    c = QuadExtContext(2, 3)
    assert (ja * Jet.coordinate(c, 2, c.w, 1)).base == 6


@pytest.mark.parametrize("op", [
    lambda a, b: Jet.coordinate(a, 2, a.w, 0) + Jet.coordinate(b, 2, b.w, 0),
    lambda a, b: Jet.coordinate(a, 2, a.w, 0) * b.w,
    lambda a, b: Jet.from_coeffs(a, 0, {(0, 0): a.w}).diff(0),
], ids=["sum-over-two-rings", "scaled-by-another-ring", "diff-at-order-0"])
def test_jet_guards_raise(op):
    with pytest.raises(ValueError):
        op(QuadExtContext(2, 3), QuadExtContext(2, 5))


def test_equal_values_have_equal_fields_and_hash():
    rng = random.Random(20261018)
    ctx = QuadExtContext(rat(-3, 7), rat(5, 2))
    zeros = [ctx.zero, ctx.element(0, 0)]
    done = 0
    while done < 60:
        x = ctx.element(*random_parts(rng))
        y = ctx.element(*random_parts(rng))
        try:
            yinv = y.inv()
            xinv = x.inv()
        except NonInvertibleError:
            continue
        done += 1
        paths = [ctx.element(*parts(x)), x * ctx.one, ctx.one * x,
                 x.scale(rat(6, 35)).scale(rat(35, 6)),
                 (x + x).scale(rat(1, 2)), xinv.inv(), x * y * yinv,
                 x + ctx.zero, -(-x)]
        for p in paths:
            assert p == x and hash(p) == hash(x)
            assert (p.na, p.nd, p.den) == (x.na, x.nd, x.den)
            assert_canonical(p)
        assert_canonical(xinv)
        zeros += [x - x, x.scale(0), x * ctx.zero, x + (-x)]
    for z in zeros:
        assert z == ctx.zero and z == 0 and hash(z) == hash(ctx.zero)
        assert_canonical(z)
    assert ctx.rational(rat(3, 4)).scale(4) == 3


def test_rational_elements_equal_their_rationals():
    """An element with no y part equals the int or Fraction it holds, from
    either side, and hashes as it does."""
    ctx = QuadExtContext(2, 3)
    half = ctx.rational(rat(1, 2))
    assert half == rat(1, 2) and rat(1, 2) == half
    assert hash(half) == hash(rat(1, 2))
    assert ctx.rational(3) == 3 and hash(ctx.rational(3)) == hash(3)
    assert half != rat(1, 3) and half != 0
    assert ctx.w != rat(1, 2) and (ctx.w + half) != rat(1, 2)
    assert {half: "x"}[rat(1, 2)] == "x"


# -- embeddings -------------------------------------------------------

def test_rational_value_with_square_roots():
    ctx = QuadExtContext(4, 9)
    assert ctx.w.rational_value() == 6
    e = ctx.element(a=rat(1), d=rat(1, 2))
    # 1 + (1/2)*6 = 4
    assert e.rational_value() == 4


def test_rational_value_requires_perfect_squares():
    """Each c_i must be a square: w -> sqrt(c1) sqrt(c2), which is not
    sqrt(c1 c2) when both c_i are negative."""
    for c1, c2 in ((2, 9), (2, 8), (-1, -4)):
        with pytest.raises(ValueError):
            QuadExtContext(c1, c2).w.rational_value()


def test_report_text_keeps_the_four_slot_form():
    """Reports print elements as points of Q(y1, y2); the y1 and y2 slots
    are zero."""
    ctx = QuadExtContext(rat(-3, 7), rat(5, 2))
    assert str(ctx.element(a=rat(1, 2), d=-3)) \
        == "(1/2 + 0*y1 + 0*y2 + -3*y1y2)"
    assert repr(ctx.zero) == "(0 + 0*y1 + 0*y2 + 0*y1y2)"


def test_rational_value_is_a_ring_map():
    """With both c_i perfect squares, w -> sqrt(c1) sqrt(c2) is an exact
    ring map to Q: it respects +, * and inv (the ring is then split, so an
    element with a nonzero value may still be non-invertible)."""
    rng = random.Random(20260823)
    ctx = QuadExtContext(rat(4, 9), rat(25))
    done = 0
    while done < 60:
        x = random_elem(rng, ctx, span=4)
        y = random_elem(rng, ctx, span=4)
        rx, ry = x.rational_value(), y.rational_value()
        assert (x + y).rational_value() == rx + ry
        assert (x * y).rational_value() == rx * ry
        try:
            inv = x.inv()
        except NonInvertibleError:
            continue
        assert inv.rational_value() == 1 / rx
        done += 1


# -- jets -------------------------------------------------------------

def rational_jet_ring():
    """Jets whose coefficients stay in Q inside the extension ring."""
    ctx = QuadExtContext(2, 3)
    return ctx, ctx


def test_jet_product_truncates_at_order():
    ctx, ring = rational_jet_ring()
    x = Jet.coordinate(ring, 2, ctx.one, 0)
    cube = x * x * x
    assert cube.get(3, 0) == 0
    assert cube.get(2, 0) == 3  # (1 + e)^3 through order 2


def test_jet_inverse_round_trip_exact():
    ctx, ring = rational_jet_ring()
    x = Jet.coordinate(ring, 3, ctx.rational(Fraction(2)), 0)
    y = Jet.coordinate(ring, 3, ctx.rational(Fraction(-1, 2)), 1)
    third = Jet.from_coeffs(ring, 3, {(0, 0): ctx.rational(Fraction(1, 3))})
    f = x * x + y + third
    prod = f * f.inverse()
    assert prod.get(0, 0) == 1
    for i in range(4):
        for j in range(4 - i):
            if (i, j) != (0, 0):
                assert prod.get(i, j) == 0


def test_jet_diff_matches_polynomial_rule():
    ctx, ring = rational_jet_ring()
    x = Jet.coordinate(ring, 3, ctx.rational(Fraction(3)), 0)
    y = Jet.coordinate(ring, 3, ctx.rational(Fraction(5)), 1)
    f = x * x * y
    fx = f.diff(0)
    assert fx.base == 2 * 3 * 5
    assert fx.get(1, 0) == 2 * 5
    assert fx.get(0, 1) == 2 * 3
    assert f.diff(0).order == 2


def test_jet_inverse_over_quadext():
    ctx = QuadExtContext(4, 3)
    f = Jet.coordinate(ctx, 3, ctx.one + ctx.w, 0)
    prod = f * f.inverse()
    assert prod.base == ctx.one
    assert prod.get(1, 0).is_zero()


# the jets of the two charts: the inversion chart's over Q(w) with an
# element that has a w-part, and the sphere charts' Fraction-valued ones
_JET_CTX = QuadExtContext(rat(-3, 7), rat(5, 2))
_RATIONAL_CTX = rational_jet_ring()[0]
JET_RINGS = pytest.mark.parametrize("ring,e", [
    (_JET_CTX, _JET_CTX.w.scale(3)),
    (_RATIONAL_CTX, _RATIONAL_CTX.rational(Fraction(5, 3))),
], ids=["quadext", "fraction"])


@JET_RINGS
def test_jet_truncation_keeps_the_coefficients_through_n(ring, e):
    jet = Jet.from_coeffs(ring, 3, {(0, 0): e, (1, 0): ring.one, (1, 1): e,
                                    (0, 3): e * e})
    kept = dict(jet.coeffs)
    for n, keys in ((0, [(0, 0)]), (1, [(0, 0), (1, 0)]),
                    (2, [(0, 0), (1, 0), (1, 1)])):
        low = jet.truncated(n)
        assert low.order == n
        assert low.coeffs == {k: jet.coeffs[k] for k in keys}
    for n in (3, 4):
        same = jet.truncated(n)
        assert (same.order, same.coeffs) == (3, kept)
    assert jet.coeffs == kept
    # a ring map: truncating the factors truncates the product
    x = Jet.coordinate(ring, 3, e, 0) + Jet.coordinate(ring, 3, ring.one, 1)
    assert (jet * x).truncated(1).coeffs \
        == (jet.truncated(1) * x.truncated(1)).coeffs


@JET_RINGS
def test_jet_plus_scalar_is_add_scalar(ring, e):
    x = Jet.coordinate(ring, 3, ring.one, 0)
    jet = x * x + Jet.coordinate(ring, 3, ring.zero, 1)
    # the second jet has no constant term until the scalar gives it one
    for j in (jet, Jet.from_coeffs(ring, 2, {(1, 0): ring.one})):
        for q, elem in ((rat(-2, 9), ring.rational(rat(-2, 9))), (e, e)):
            total = j + q
            assert total.order == j.order
            assert total.coeffs == j.add_scalar(q).coeffs
            assert total.base == j.base + elem
            assert {k: v for k, v in total.coeffs.items() if k != (0, 0)} \
                == {k: v for k, v in j.coeffs.items() if k != (0, 0)}


@JET_RINGS
def test_sum_of_disjoint_jets_is_their_union(ring, e):
    a = Jet.from_coeffs(ring, 3, {(0, 0): e, (2, 1): ring.one})
    b = Jet.from_coeffs(ring, 3, {(1, 0): e * e,
                                  (0, 3): ring.one + ring.one})
    for total in (a + b, b + a):
        assert total.order == 3
        assert total.coeffs == {**a.coeffs, **b.coeffs}
    # the lower order truncates the other operand's terms
    c = Jet.from_coeffs(ring, 1, {(0, 1): e})
    assert (a + c).coeffs == {(0, 0): e, (0, 1): e}
    assert (c + a).coeffs == {(0, 0): e, (0, 1): e}


@JET_RINGS
def test_jet_difference_is_sum_with_negation(ring, e):
    a = Jet.from_coeffs(ring, 3, {(0, 0): e, (2, 1): ring.one, (1, 0): e})
    b = Jet.from_coeffs(ring, 3, {(1, 0): e * e,
                                  (0, 3): ring.one + ring.one})
    c = Jet.from_coeffs(ring, 1, {(0, 1): e, (1, 0): ring.one})
    for x, y in ((a, b), (b, a), (a, c), (c, a), (a, a)):
        diff = x - y
        assert diff.order == min(x.order, y.order)
        assert diff.coeffs == (x + (-y)).coeffs
    for q in (rat(-2, 9), e):
        assert (a - q).coeffs == a.add_scalar(-q).coeffs
