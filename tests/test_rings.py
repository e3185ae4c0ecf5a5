"""Property tests for the exact polynomial and truncated-series layer."""

import math
import random
from fractions import Fraction

import pytest

from kummergauss import rings
from kummergauss.rings import (Context, ContextError, NotDivisibleError, Poly,
                               TruncatedSeries, exact_divide, format_rational,
                               parse_rational, rat)

CTX = Context(("u", "v"), grading=2)
CTX3 = Context(("u", "v", "a"), grading=2)
# shaped like the symbolic sigma context: (u, v) graded, five weightless moduli
CTX7 = Context(("u", "v", "l0", "l1", "l2", "l3", "l4"), grading=2)


def random_poly(rng, ctx=CTX, max_deg=5, terms=6, max_coeff=9):
    items = []
    for _ in range(rng.randint(0, terms)):
        exps = [rng.randint(0, max_deg) for _ in range(ctx.n)]
        c = rat(rng.randint(-max_coeff, max_coeff),
                rng.randint(1, max_coeff))
        items.append((exps, c))
    return Poly.from_terms(ctx, items)


# -- rational helpers -------------------------------------------------

def test_parse_and_format_round_trip():
    for text in ("3/4", "-7/2", "5", "0", "-12/36"):
        q = parse_rational(text)
        assert parse_rational(format_rational(q)) == q
    assert format_rational(rat(3)) == "3/1"
    assert format_rational(rat(-1, 2)) == "-1/2"


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("three")


# -- ring axioms, randomized ------------------------------------------

def test_ring_axioms_randomized():
    rng = random.Random(20260812)
    zero = Poly.zero(CTX)
    one = Poly.const(CTX, 1)
    for _ in range(250):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p + zero == p
        assert p + (-p) == zero
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * one == p
        assert p * (q + r) == p * q + p * r


def test_leibniz_and_mixed_partials_randomized():
    rng = random.Random(20260813)
    for _ in range(250):
        p = random_poly(rng)
        q = random_poly(rng)
        for var in ("u", "v"):
            assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)
        assert p.diff("u").diff("v") == p.diff("v").diff("u")


def test_eval_is_a_homomorphism_randomized():
    rng = random.Random(20260814)
    for _ in range(250):
        p = random_poly(rng)
        q = random_poly(rng)
        point = {"u": rat(rng.randint(-5, 5), rng.randint(1, 5)),
                 "v": rat(rng.randint(-5, 5), rng.randint(1, 5))}
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)


def test_eval_matches_fraction_reference_randomized():
    """The integer evaluation equals the term-by-term Fraction sum, a
    variable the polynomial does not use may be left out, and a used one
    may not."""
    rng = random.Random(20260815)
    seen = set()
    for _ in range(250):
        p = random_poly(rng, CTX7, max_deg=3, terms=5, max_coeff=50)
        point = {name: rat(rng.randint(-9, 9), rng.randint(1, 9))
                 for name in CTX7.names}
        expected = Fraction(0)
        for k, c in p.items():
            for name, e in zip(CTX7.names, CTX7.unpack(k)):
                c *= point[name] ** e
            expected += c
        assert p.eval(point) == expected
        used = {name for k in p.terms
                for name, e in zip(CTX7.names, CTX7.unpack(k)) if e}
        for name in CTX7.names:
            rest = {n: v for n, v in point.items() if n != name}
            seen.add(name in used)
            if name in used:
                with pytest.raises(ContextError):
                    p.eval(rest)
            else:
                assert p.eval(rest) == expected
    assert seen == {True, False}


def test_eval_requires_every_used_variable():
    p = Poly.var(CTX, "u") * Poly.var(CTX, "v")
    with pytest.raises(ContextError):
        p.eval({"u": rat(1)})


def test_mixed_contexts_rejected():
    with pytest.raises(ContextError):
        Poly.var(CTX, "u") + Poly.var(CTX3, "u")


def assert_representation(poly):
    """Integer numerators, none zero, over a positive denominator."""
    assert type(poly.den) is int and poly.den > 0
    assert all(type(n) is int and n != 0 for n in poly.terms.values())


def assert_lowest_terms(poly):
    """The representation of products and constructed polynomials: the
    denominator also shares no factor with all the numerators."""
    assert_representation(poly)
    assert math.gcd(poly.den, *poly.terms.values()) == 1


# -- the integer product kernel against the Fraction schoolbook loop ---

def _mul_reference(p, q, cap=None):
    """Terms of p * q by the plain Fraction schoolbook loop, dropping terms
    of grading degree > cap; the reference for Poly.mul."""
    out = {}
    if cap is None:
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                k = k1 + k2
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
    else:
        gdeg = p.ctx.grading_degree

        def buckets(poly):
            bs = {}
            for k, c in poly.items():
                bs.setdefault(gdeg(k), []).append((k, c))
            return bs

        b1 = buckets(p)
        b2 = buckets(q)
        for d1, t1 in b1.items():
            for d2, t2 in b2.items():
                if d1 + d2 > cap:
                    continue
                for k1, c1 in t1:
                    for k2, c2 in t2:
                        k = k1 + k2
                        s = out.get(k)
                        out[k] = c1 * c2 if s is None else s + c1 * c2
    for k in [k for k, c in out.items() if c == 0]:
        del out[k]
    return out


def _wide_poly(rng, ctx, max_deg, terms):
    """Random polynomial with signed coefficients and denominators <= 5040;
    a few exponents per variable so products collide and cancel."""
    items = []
    for _ in range(rng.randint(0, terms)):
        exps = [rng.randint(0, max_deg) for _ in range(ctx.grading)]
        exps += [rng.randint(0, 1) for _ in range(ctx.n - ctx.grading)]
        c = rat(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 5040))
        items.append((exps, c))
    return Poly.from_terms(ctx, items)


def _kernel_pairs(rng, ctx, count):
    """Seeded factor pairs: random ones, (p + r, p - r) whose cross terms
    cancel exactly, and pairs with an empty or a constant factor."""
    for i in range(count):
        p = _wide_poly(rng, ctx, 4, 8)
        r = _wide_poly(rng, ctx, 4, 8)
        kind = i % 4
        if kind == 0:
            yield p, r
        elif kind == 1:
            yield p + r, p - r
        elif kind == 2:
            yield p, Poly.zero(ctx)
            yield Poly.zero(ctx), r
        else:
            c = rat(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 5040))
            yield Poly.const(ctx, c), r
            yield p, Poly.const(ctx, c)


@pytest.mark.parametrize("ctx", [CTX, CTX7], ids=["uv", "uv+moduli"])
def test_mul_matches_fraction_reference(ctx):
    rng = random.Random(20261018)
    merged = 0  # uncapped products where terms collided or cancelled
    for p, q in _kernel_pairs(rng, ctx, 200):
        for cap in (None, rng.randint(-1, 12)):
            want = _mul_reference(p, q, cap)
            pq = p.mul(q, cap=cap)
            assert dict(pq.items()) == want
            assert_lowest_terms(pq)
            got = pq.terms
            if cap is None and len(got) < len(p.terms) * len(q.terms):
                merged += 1
    assert merged > 20


def test_constant_factor_product_matches_fraction_reference():
    """A constant on either side scales the other factor (and drops what
    passes the cap); a one-term factor that is not constant must shift
    every key, as the general loop does."""
    rng = random.Random(20261020)
    for ctx in (CTX, CTX7):
        pad = (0,) * (ctx.n - 2)
        for _ in range(40):
            p = _wide_poly(rng, ctx, 4, 8)
            c = rat(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 5040))
            const = Poly.const(ctx, c)
            mono = Poly.from_terms(ctx, [((rng.randint(0, 3),
                                           rng.randint(1, 3)) + pad, c)])
            for cap in (None, rng.randint(-1, 10)):
                for a, b in ((const, p), (p, const), (mono, p), (p, mono)):
                    ab = a.mul(b, cap=cap)
                    assert dict(ab.items()) == _mul_reference(a, b, cap)
                    assert_lowest_terms(ab)
    # an integer constant that shares factors with the denominator
    p = Poly.from_terms(CTX, [((1, 0), rat(1, 6)), ((0, 2), rat(5, 4))])
    six = Poly.const(CTX, 6)
    assert six * p == p * six == Poly.from_terms(
        CTX, [((1, 0), 1), ((0, 2), rat(15, 2))])
    assert_lowest_terms(six * p)
    assert six.mul(p, cap=1) == Poly.var(CTX, "u")


def test_mul_rejects_exponent_overflow():
    u = Poly.var(CTX, "u")
    with pytest.raises(ContextError):
        u ** 200 * u ** 100


def test_mul_rejects_weightless_exponent_overflow_under_cap():
    a = Poly.var(CTX3, "a")
    with pytest.raises(ContextError):
        (a ** 200).mul(a ** 100, cap=2)


def test_mul_reaches_exponent_limit():
    u = Poly.var(CTX, "u")
    assert u ** 200 * u ** 55 == Poly.from_terms(CTX, [((255, 0), 1)])
    # the keys' bitwise OR (255) overstates the largest exponent (128)
    assert (u ** 128 + u ** 127) * u == u ** 129 + u ** 128


# -- the representation: lowest terms and the packed degree -----------

def _moduli_values(ctx, rng):
    return {name: rat(rng.randint(-9, 9), rng.randint(1, 9))
            for name in ctx.names[ctx.grading:]}


def _fraction_diff(ctx, terms, i):
    """d/dx_i of a {key: Fraction} dict, by unpacked exponents."""
    out = {}
    for k, c in terms.items():
        exps = list(ctx.unpack(k))
        if exps[i]:
            out[ctx.pack(exps[:i] + [exps[i] - 1] + exps[i + 1:])] = \
                c * exps[i]
    return out


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


@pytest.mark.parametrize("ctx", [CTX, CTX7], ids=["uv", "uv+moduli"])
def test_products_are_in_lowest_terms_and_other_results_exact(ctx):
    """Products (both ``mul`` paths and ``**``) and the constructor reduce
    to lowest terms; sums, scalings, negations, derivatives and truncations
    keep the denominator they form.  Each of those has the value of the
    Fraction reference and equals its lowest-terms rebuild."""
    rng = random.Random(20261019)
    last = ctx.names[-1]
    reducible = 0  # results that are not in lowest terms

    def gdeg(k):
        return sum(ctx.unpack(k)[:ctx.grading])

    for _ in range(150):
        p = _wide_poly(rng, ctx, 4, 8)
        q = _wide_poly(rng, ctx, 4, 8)
        cap = rng.randint(-1, 10)
        deg = rng.randint(0, 8)
        c = rat(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 5040))
        m = rng.randint(-6, 6)
        # sums and differences need not be in lowest terms: w is p over
        # the common denominator of p and q
        s, t, w = p + q, p - q, (p + q) - q
        const = Poly.const(ctx, c)
        for a, b, k in ((s, t, None), (w, t, cap), (const, w, None),
                        (w, const, cap)):
            r = a.mul(b, cap=k)
            assert_lowest_terms(r)
            assert dict(r.items()) == _mul_reference(a, b, k)
        for r in (w ** 2, (w * const) ** 3,
                  Poly(ctx, dict(w.items())),
                  p.map_context(CTX, _moduli_values(ctx, rng)),
                  p.map_context(CTX7)):
            assert_lowest_terms(r)
        assert w ** 2 == w * w == p * p
        P, Q = dict(p.items()), dict(q.items())
        keys = P.keys() | Q.keys()
        cases = [
            (s, {k: P.get(k, 0) + Q.get(k, 0) for k in keys}),
            (t, {k: P.get(k, 0) - Q.get(k, 0) for k in keys}),
            (w, P),
            (-w, {k: -v for k, v in P.items()}),
            (w.scale(c), {k: c * v for k, v in P.items()}),
            (p.scale(m * p.den), {k: m * p.den * v for k, v in P.items()}),
            (w.diff("u"), _fraction_diff(ctx, P, 0)),
            (w.diff(last), _fraction_diff(ctx, P, ctx.n - 1)),
            (w.truncated(cap), {k: v for k, v in P.items()
                                if gdeg(k) <= cap}),
            (w.homogeneous_part(deg), {k: v for k, v in P.items()
                                       if gdeg(k) == deg}),
        ]
        for r, want in cases:
            assert_representation(r)
            assert dict(r.items()) == _nonzero(want)
            assert r == Poly(ctx, dict(r.items()))
            reducible += math.gcd(r.den, *r.terms.values()) > 1
    assert reducible > 500
    # the content of a result can shrink: u/2 + u/2, 2 * (u/2), d(u^2/2);
    # the value, and so the text, are those of u
    u = Poly.var(ctx, "u")
    half = Poly.var(ctx, "u").scale(rat(1, 2))
    for r in (half + half, half.scale(2), (half * u).diff("u")):
        assert_representation(r)
        assert r == u and u == r and r == Poly(ctx, dict(r.items()))
        assert str(r) == str(u) == "1/1*u"
        assert r != u.scale(2) and r != u + 1
    assert (half + half).den == 2


@pytest.mark.parametrize("ctx", [CTX, CTX7], ids=["uv", "uv+moduli"])
def test_packed_degree_is_the_grading_degree(ctx):
    rng = random.Random(20261020)
    checked = 0
    for _ in range(150):
        p = _wide_poly(rng, ctx, 4, 8)
        q = _wide_poly(rng, ctx, 4, 8)
        pq = p * q
        for r in (pq, pq.diff("v"), pq.diff(ctx.names[-1]),
                  p.mul(q, cap=5)):
            for k in r.terms:
                assert ctx.grading_degree(k) \
                    == sum(ctx.unpack(k)[:ctx.grading])
                assert ctx.pack(ctx.unpack(k)) == k
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("ctx", [CTX, CTX7], ids=["uv", "uv+moduli"])
def test_routes_to_one_polynomial_compare_equal(ctx):
    rng = random.Random(20261021)
    unequal = 0
    for _ in range(150):
        p = _wide_poly(rng, ctx, 4, 8)
        q = _wide_poly(rng, ctx, 4, 8)
        cap = rng.randint(-1, 10)
        assert p.mul(q, cap=cap) == (p * q).truncated(cap)
        assert (p + q) - q == p
        assert p - p == Poly.zero(ctx)
        assert p.scale(rat(2, 3)).scale(rat(3, 2)) == p
        assert Poly(ctx, dict(p.items())) == p
        unequal += p.den != q.den
    assert unequal > 100


def test_exponent_guard_covers_the_field_below_the_degree():
    """The last variable's field sits just under the degree field, where
    a carry would silently change the grading degree."""
    last = Poly.var(CTX7, "l4")
    with pytest.raises(ContextError):
        (last ** 200).mul(last ** 100, cap=30)
    v = Poly.var(CTX7, "v")
    with pytest.raises(ContextError):
        (v ** 200).mul(v ** 56)
    assert (v ** 200 * v ** 55).valuation() == 255


def _refuse_scan(*args):
    raise AssertionError("exponent scan ran")


def test_capped_product_in_graded_context_is_exact_without_scan(monkeypatch):
    """In an all-graded context a capped product forms no key of degree
    above the cap, so no field can pass the limit and the exponent scan
    never runs.  It still runs uncapped, above the field limit and with
    weightless variables."""
    u = Poly.var(CTX, "u")
    a = Poly.var(CTX3, "a")
    big, mid, a2 = u ** 200, u ** 100, a * a
    rng = random.Random(20261026)
    pairs = [(_wide_poly(rng, CTX, 6, 8), _wide_poly(rng, CTX, 6, 8))
             for _ in range(80)]
    monkeypatch.setattr(rings, "_check_exponent_sums", _refuse_scan)
    assert big.mul(mid, cap=20).is_zero()
    assert big.mul(mid, cap=255) == Poly.zero(CTX)
    for p, q in pairs:
        cap = rng.randint(-1, 14)
        pq = p.mul(q, cap=cap)
        assert dict(pq.items()) == _mul_reference(p, q, cap)
        assert_lowest_terms(pq)
    for product in (lambda: big.mul(mid), lambda: big.mul(mid, cap=256),
                    lambda: a2.mul(a, cap=2)):
        with pytest.raises(AssertionError, match="exponent scan"):
            product()


@pytest.mark.parametrize("ctx", [CTX, CTX7], ids=["uv", "uv+moduli"])
def test_products_with_cancelling_terms_reduce_in_one_pass(ctx):
    """Capped and uncapped products whose terms cancel, and whose raw
    numerators share a factor with the denominator, are in lowest terms
    with no zero numerator."""
    rng = random.Random(20261027)
    cancelled = reduced = 0
    for _ in range(150):
        p = _wide_poly(rng, ctx, 3, 6)
        r = _wide_poly(rng, ctx, 3, 6)
        k = rat(rng.choice((2, 3, 4, 6, 12)), rng.randint(1, 7))
        for x, y in ((p + r, p - r), ((p + r).scale(k), (p - r).scale(k))):
            for cap in (None, rng.randint(0, 8)):
                xy = x.mul(y, cap=cap)
                assert dict(xy.items()) == _mul_reference(x, y, cap)
                assert_lowest_terms(xy)
                formed = {k1 + k2 for k1 in x.terms for k2 in y.terms
                          if cap is None or (k1 + k2) >> ctx.top <= cap}
                cancelled += len(xy.terms) < len(formed)
                reduced += xy.den < x.den * y.den
    assert cancelled > 200 and reduced > 200


# -- seeded small random polynomials ----------------------------------

def small_poly_pairs(seed, count=120):
    """Pairs of polynomials of at most five terms, exponents 0-4 and
    coefficients in [-50, 50] with denominators at most 20."""
    rng = random.Random(seed)

    def draw():
        items = []
        for _ in range(rng.randint(0, 5)):
            den = rng.randint(1, 20)
            c = Fraction(rng.randint(-50 * den, 50 * den), den)
            items.append(((rng.randint(0, 4), rng.randint(0, 4)), c))
        return Poly.from_terms(CTX, items)
    return [(draw(), draw()) for _ in range(count)]


def test_seeded_product_degree():
    for p, q in small_poly_pairs(20261101):
        pq = p * q
        if p.is_zero() or q.is_zero():
            assert pq.is_zero()
        else:
            assert pq.valuation() == p.valuation() + q.valuation()
            assert pq.grading_degree_max() \
                == p.grading_degree_max() + q.grading_degree_max()


def test_seeded_sub_is_inverse_of_add():
    for p, q in small_poly_pairs(20261102):
        assert (p + q) - q == p


# -- truncated series -------------------------------------------------

def test_series_truncates_body_on_construction():
    p = Poly.var(CTX, "u") ** 7 + Poly.var(CTX, "v")
    s = TruncatedSeries(p, 4)
    assert s.body == Poly.var(CTX, "v")
    assert s.known_order == 4


def test_series_mul_order_uses_valuations():
    u = Poly.var(CTX, "u")
    s = TruncatedSeries(u, 5)          # valuation 1, known 5
    t = TruncatedSeries(u * u, 7)      # valuation 2, known 7
    st_ = s * t
    # min(5 + 2, 7 + 1) = 7
    assert st_.known_order == 7
    assert st_.body == u ** 3


def test_series_mul_with_zero_factor_is_exactly_zero():
    z = TruncatedSeries(Poly.zero(CTX), 3)
    s = TruncatedSeries(Poly.var(CTX, "u"), 9)
    prod = z * s
    assert prod.body.is_zero()
    assert prod.known_order == 9


def test_series_add_takes_min_order():
    u = Poly.var(CTX, "u")
    s = TruncatedSeries(u, 5) + TruncatedSeries(u, 3)
    assert s.known_order == 3


def test_series_diff_loses_one_order():
    u = Poly.var(CTX, "u")
    s = TruncatedSeries(u ** 3, 6)
    d = s.diff("u")
    assert d.known_order == 5
    assert d.body == 3 * u * u


def test_series_mul_randomized_agrees_with_poly_product():
    rng = random.Random(20260815)
    for _ in range(250):
        p = random_poly(rng, max_deg=3)
        q = random_poly(rng, max_deg=3)
        n = rng.randint(2, 8)
        m = rng.randint(2, 8)
        a, b = TruncatedSeries(p, n), TruncatedSeries(q, m)
        s = a * b
        assert s.body == (p.truncated(n) * q.truncated(m)).truncated(
            s.known_order)
        # results built without a truncation pass keep the invariant too
        for r in (s, -a, a.scale(Fraction(-3, 7)), a + b,
                  a + TruncatedSeries(q, n), a - b):
            assert all(CTX.grading_degree(k) <= r.known_order
                       for k in r.body.terms)


def test_series_sum_at_unequal_orders_cuts_first():
    """a +- b at unequal known orders, with the longer operand cut before
    the sum, equals the full sum truncated at the lower order."""
    rng = random.Random(20261028)
    for ctx in (CTX, CTX7):
        for _ in range(120):
            n, m = rng.sample(range(0, 9), 2)
            a = TruncatedSeries(_wide_poly(rng, ctx, 5, 8), n)
            b = TruncatedSeries(_wide_poly(rng, ctx, 5, 8), m)
            for got, body in ((a + b, a.body + b.body),
                              (a - b, a.body - b.body),
                              (b - a, b.body - a.body)):
                want = TruncatedSeries(body, min(n, m))
                assert got == want
                assert_representation(got.body)


def test_lowest_terms_reports_valuation_block():
    p = Poly.var(CTX, "v") ** 2 + Poly.var(CTX, "u") ** 5
    deg, part = TruncatedSeries(p, 9).lowest_terms()
    assert deg == 2
    assert part == Poly.var(CTX, "v") ** 2


# -- exact division ---------------------------------------------------

def test_exact_divide_round_trip_randomized():
    rng = random.Random(20260816)
    done = 0
    while done < 120:
        d = random_poly(rng, max_deg=2, terms=3)
        q = random_poly(rng, max_deg=3, terms=4)
        if d.is_zero() or q.is_zero():
            continue
        n = 12
        num = TruncatedSeries(d * q, n)
        den = TruncatedSeries(d, n)
        quot = exact_divide(num, den)
        assert quot.body == q.truncated(quot.known_order)
        done += 1


def test_exact_divide_order_bookkeeping():
    u = Poly.var(CTX, "u")
    v = Poly.var(CTX, "v")
    num = TruncatedSeries((u + v * v) * (u + v), 10)
    den = TruncatedSeries(u + v * v, 10)
    quot = exact_divide(num, den)
    assert quot.body == u + v
    assert quot.known_order == 10 - 1  # limit minus divisor valuation


def test_exact_divide_detects_nonzero_remainder():
    u = Poly.var(CTX, "u")
    v = Poly.var(CTX, "v")
    with pytest.raises(NotDivisibleError):
        exact_divide(TruncatedSeries(v, 6), TruncatedSeries(u, 6))


def test_exact_divide_by_zero_rejected():
    u = Poly.var(CTX, "u")
    with pytest.raises(NotDivisibleError):
        exact_divide(TruncatedSeries(u, 6),
                     TruncatedSeries(Poly.zero(CTX), 6))


# -- misc structure ---------------------------------------------------

def test_context_rejects_bad_grading():
    with pytest.raises(ContextError):
        Context(("u", "v"), grading=0)
    with pytest.raises(ContextError):
        Context(("u", "v"), grading=3)
    with pytest.raises(ContextError):
        Context(("u", "u"))


def test_pack_rejects_huge_exponents():
    with pytest.raises(ContextError):
        CTX.pack((300, 0))


def test_canonical_str_is_stable():
    p = Poly.from_terms(CTX, [((0, 2), rat(1)), ((1, 0), rat(-2))])
    assert str(p) == "-2/1*u + 1/1*v^2"


def test_map_context_substitutes_missing_vars():
    p = Poly.from_terms(CTX3, [((1, 0, 2), rat(3))])
    q = p.map_context(CTX, {"a": rat(1, 3)})
    assert q == Poly.from_terms(CTX, [((1, 0), rat(1, 3))])


# -- guards -----------------------------------------------------------

_U, _U3 = Poly.var(CTX, "u"), Poly.var(CTX3, "u")


@pytest.mark.parametrize("make,error", [
    (lambda: _U ** -1, ValueError),
    (lambda: _U.diff("a"), ContextError),
    (lambda: Poly.var(CTX, "a"), ContextError),
    (lambda: Poly.var(CTX3, "a").map_context(CTX), ContextError),
    (lambda: TruncatedSeries(_U, -1), ValueError),
    (lambda: TruncatedSeries(_U, 3) + TruncatedSeries(_U3, 3), ContextError),
    (lambda: TruncatedSeries(_U, 3) * TruncatedSeries(_U3, 3), ContextError),
], ids=["negative-power", "diff-by-unknown-variable", "unknown-variable",
        "map-without-target", "negative-known-order",
        "series-sum-across-contexts", "series-product-across-contexts"])
def test_ring_guards_raise(make, error):
    with pytest.raises(error) as exc:
        make()
    assert exc.type is error


def test_equal_terms_in_different_contexts_are_unequal():
    """u packs to the same key whether a is graded or not; the contexts
    still differ, so the polynomials do."""
    graded = Context(("u", "v", "a"), grading=3)
    assert _U3.terms == Poly.var(graded, "u").terms
    assert _U3 != Poly.var(graded, "u")


def test_order_zero_series_differentiates_to_zero():
    """A series known only through its constant term has a derivative known
    through no order, kept as zero at order 0."""
    s = TruncatedSeries(Poly.const(CTX, 3) + _U, 0)
    assert s.diff("u") == TruncatedSeries(Poly.zero(CTX), 0)
