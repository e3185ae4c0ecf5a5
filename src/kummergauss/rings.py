"""Exact rational coefficients, sparse multivariate polynomials and
truncated power series with validity-order tracking.

Monomials are packed into a single integer, 8 bits per variable, so that
monomial multiplication is integer addition.  The first ``grading`` context
variables (the coordinates) carry the grading weight used for truncation;
any remaining variables (the curve moduli) are weightless.  Above the
variable fields every key carries its grading degree (``key >> ctx.top``),
which adds under multiplication as the exponents do, so truncation and
valuation compare keys instead of summing fields.

A ``Poly`` holds nonzero integer numerators over one positive common
denominator.  Only products and the ``Poly(ctx, {key: rational})``
constructor reduce to lowest terms: other results keep the denominator
they form, since on small polynomials reducing costs more than they do,
and products keep the numerators small.  Equality is by value, and every
rational leaving a ``Poly`` is a ``Fraction``, so it is canonical.
Products multiply Python integers and build no rational per term.  A
product whose exponents could overflow the 8-bit fields raises
``ContextError``.  The scan behind that guard runs only where a cap
cannot bound the fields: in an all-graded context, every key a capped
product forms has degree, hence every field, at most the cap.
"""

import functools
import math
import operator
from fractions import Fraction


def rat(p, q=1):
    """The one exact rational type of the package."""
    return Fraction(p, q)


def rational_sqrt(q):
    """Exact square root of a rational, or None when irrational/negative."""
    if q < 0:
        return None
    n, d = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return rat(rn, rd)


_SHIFT = 8
_MASK = (1 << _SHIFT) - 1
_EXP_LIMIT = _MASK


def parse_rational(text):
    """Parse 'p/q' or 'p' into an exact rational."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/", 1)
        return rat(int(p), int(q))
    return rat(int(text))


def format_rational(x):
    s = str(x)
    return s if "/" in s else s + "/1"


class ContextError(ValueError):
    """Mismatched or incomplete variable context."""


class NotDivisibleError(ArithmeticError):
    """exact_divide found a nonzero remainder."""


class Context:
    """Fixed variable set for a polynomial ring.

    ``grading`` is the number of leading variables whose total degree is
    tracked for series truncation (the coordinates, e.g. (u, v)); a key
    keeps that degree in the bits from ``top`` up.
    """

    def __init__(self, names, grading=2):
        self.names = tuple(names)
        self.n = len(self.names)
        self.grading = grading
        self.top = _SHIFT * self.n
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != self.n:
            raise ContextError("duplicate variable names")
        if not 0 < grading <= self.n:
            raise ContextError("grading must select a nonempty prefix")

    def pack(self, exps):
        exps = tuple(exps)
        key = sum(exps[:self.grading]) << self.top
        for i, e in enumerate(exps):
            if not 0 <= e <= _EXP_LIMIT:
                raise ContextError("exponent out of packing range")
            key |= e << (_SHIFT * i)
        return key

    def unpack(self, key):
        return tuple((key >> (_SHIFT * i)) & _MASK for i in range(self.n))

    def field(self, name):
        """(shift, mask): ``name``'s exponent is (key >> shift) & mask."""
        return _SHIFT * self.index[name], _MASK

    def grading_degree(self, key):
        return key >> self.top

    def __eq__(self, other):
        return isinstance(other, Context) and self.names == other.names \
            and self.grading == other.grading

    def __repr__(self):
        return "Context(%s)" % ", ".join(self.names)


def _lowest(terms, den):
    """(terms, den) in lowest terms with the zero numerators dropped, so
    gcd(den, *terms.values()) == 1, for the constructor and products.
    ``terms`` maps keys to ints and ``den`` is a positive int; a zero value
    leaves the gcd as it is, so one pass divides and drops zeros."""
    g = math.gcd(den, *terms.values())
    if g != 1:
        return {k: n // g for k, n in terms.items() if n}, den // g
    if 0 in terms.values():
        return {k: n for k, n in terms.items() if n}, den
    return terms, den


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients:
    ``terms`` maps packed keys to integer numerators over the common
    denominator ``den``, in lowest terms after a product (see the module
    docstring).

    Equality is by value; text output is canonical (graded-lex with the
    context variable order, earlier variables larger).
    """

    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx, terms=None):
        """``terms`` maps packed keys to rationals (ints or Fractions)."""
        terms = terms or {}
        den = math.lcm(*[c.denominator for c in terms.values()])
        self.ctx = ctx
        self.terms, self.den = _lowest(
            {k: c.numerator * (den // c.denominator)
             for k, c in terms.items()}, den)

    @classmethod
    def _of(cls, ctx, terms, den=1):
        """The polynomial terms/den, from nonzero integer numerators over a
        positive denominator, taken as they are; zero gets denominator 1."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms, p.den = terms, den if terms else 1
        return p

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def const(cls, ctx, value):
        return cls(ctx, {0: value})

    @classmethod
    def var(cls, ctx, name):
        i = ctx.index.get(name)
        if i is None:
            raise ContextError("unknown variable %r" % name)
        return cls(ctx, {ctx.pack(int(j == i) for j in range(ctx.n)): 1})

    @classmethod
    def from_terms(cls, ctx, items):
        """items: iterable of (exponent tuple, coefficient)."""
        terms = {}
        for exps, c in items:
            key = ctx.pack(exps)
            terms[key] = terms.get(key, 0) + c
        return cls(ctx, terms)

    def items(self):
        """(key, coefficient) pairs, each coefficient a ``Fraction``."""
        den = self.den
        return ((k, Fraction(n, den)) for k, n in self.terms.items())

    def _check(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextError("mixed variable contexts")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return Poly._of(self.ctx, {k: -n for k, n in self.terms.items()},
                        self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the common denominator, term by term;
        terms that cancel are dropped."""
        if not isinstance(other, Poly):
            other = Poly.const(self.ctx, other)
        self._check(other)
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, sign * (d1 // g)
        out = dict(self.terms) if f1 == 1 else \
            {k: n * f1 for k, n in self.terms.items()}
        get = out.get
        for k, n in other.terms.items():
            s = get(k, 0) + n * f2
            if s:
                out[k] = s
            else:
                del out[k]
        return Poly._of(self.ctx, out, d1 * f1)

    def mul(self, other, cap=None):
        """Product, optionally dropping terms of grading degree > cap.

        The numerators are multiplied and added as Python integers over
        the product of the two denominators.  The degree field makes a
        key below ``(cap + 1) << top`` exactly when its degree is within
        the cap, so each row of the product stops at the first key of
        ``other`` (in ascending order) that would pass it.

        A constant factor (the single key 0) scales the other factor's
        numerators; its key adds nothing, so no exponent can overflow.

        Otherwise ``_check_exponent_sums`` guards the packed fields, unless
        the cap is within the field limit and every variable is graded:
        a kept key's degree, the sum of its fields plus any carry, is then
        at most the cap, so no kept field can pass the limit.

        Both paths return the product in lowest terms, reduced and cleared
        of cancelled terms in one pass."""
        self._check(other)
        ctx = self.ctx
        den = self.den * other.den
        if len(self.terms) == 1 and 0 in self.terms:
            c, terms = self.terms[0], other.terms
        elif len(other.terms) == 1 and 0 in other.terms:
            c, terms = other.terms[0], self.terms
        else:
            c = None
        if c is not None:
            if cap is None:
                out = {k: n * c for k, n in terms.items()}
            else:
                limit = (cap + 1) << ctx.top
                out = {k: n * c for k, n in terms.items() if k < limit}
            return Poly._of(ctx, *_lowest(out, den))
        if cap is None or cap > _EXP_LIMIT or ctx.grading < ctx.n:
            _check_exponent_sums(ctx, self.terms, other.terms)
        t2 = sorted(other.terms.items())
        if cap is None:
            # one past the largest key of the product
            limit = max(self.terms, default=0) + (t2[-1][0] if t2 else 0) + 1
        else:
            limit = (cap + 1) << ctx.top
        out = {}
        get = out.get
        for k1, c1 in self.terms.items():
            room = limit - k1
            for k2, c2 in t2:
                if k2 >= room:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return Poly._of(ctx, *_lowest(out, den))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """Multiply by an int or a ``Fraction``."""
        n = c.numerator
        if not n:
            return Poly(self.ctx)
        return Poly._of(self.ctx, {k: v * n for k, v in self.terms.items()},
                        self.den * c.denominator)

    def __pow__(self, n):
        if not (isinstance(n, int) and n >= 0):
            raise ValueError("nonnegative integer power only")
        result = Poly.const(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        """Equality of values, cross-multiplied over the denominators."""
        if isinstance(other, Poly):
            if self.ctx is not other.ctx and self.ctx != other.ctx:
                return False
            d1, d2 = self.den, other.den
            t1, t2 = self.terms, other.terms
            if d1 == d2:
                return t1 == t2
            return t1.keys() == t2.keys() and all(
                n * d2 == t2[k] * d1 for k, n in t1.items())
        return NotImplemented

    # -- calculus and queries -----------------------------------------

    def diff(self, var):
        """Formal partial derivative with respect to a context variable."""
        ctx = self.ctx
        i = ctx.index.get(var) if isinstance(var, str) else var
        if i is None or not 0 <= i < ctx.n:
            raise ContextError("unknown variable %r" % (var,))
        shift = _SHIFT * i
        # one off the exponent, and one off the degree of a grading variable
        step = (1 << shift) + ((1 << ctx.top) if i < ctx.grading else 0)
        out = {}
        for k, n in self.terms.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - step] = n * e
        return Poly._of(ctx, out, self.den)

    def eval(self, assignment):
        """Exact value at rational variable values; the assignment must
        cover every variable present.  A value n/d whose largest exponent
        is E enters a term as n^e d^(E - e), so the sum runs on the integer
        numerators over the one denominator den * prod d^E."""
        ctx = self.ctx
        top = [0] * ctx.n
        for k in self.terms:
            for i in range(ctx.n):
                e = (k >> (_SHIFT * i)) & _MASK
                if e > top[i]:
                    top[i] = e
        powers, den = [], self.den
        for i, e_max in enumerate(top):
            if not e_max:
                continue
            name = ctx.names[i]
            if name not in assignment:
                raise ContextError("missing value for %r" % name)
            n, d = assignment[name].numerator, assignment[name].denominator
            powers.append((_SHIFT * i, [n ** e * d ** (e_max - e)
                                        for e in range(e_max + 1)]))
            den *= d ** e_max
        total = 0
        for k, c in self.terms.items():
            for shift, pw in powers:
                c *= pw[(k >> shift) & _MASK]
            total += c
        return Fraction(total, den)

    def is_zero(self):
        return not self.terms

    def grading_degree_max(self):
        return max(self.terms) >> self.ctx.top if self.terms else -1

    def valuation(self):
        """Lowest grading degree present, or None for the zero polynomial."""
        return min(self.terms) >> self.ctx.top if self.terms else None

    def _kept(self, out):
        """The sub-polynomial of the terms ``out`` kept from self, over
        self's denominator."""
        if len(out) == len(self.terms):
            return self
        return Poly._of(self.ctx, out, self.den)

    def homogeneous_part(self, degree):
        top = self.ctx.top
        return self._kept({k: n for k, n in self.terms.items()
                           if k >> top == degree})

    def truncated(self, cap):
        limit = (cap + 1) << self.ctx.top
        if not self.terms or max(self.terms) < limit:
            return self
        return self._kept({k: n for k, n in self.terms.items() if k < limit})

    def coefficient(self, exps):
        return Fraction(self.terms.get(self.ctx.pack(exps), 0), self.den)

    def map_context(self, new_ctx, assignment=None):
        """Re-express in another context; variables absent from new_ctx must
        be given numeric values in ``assignment``."""
        assignment = assignment or {}
        out = {}
        for k, c in self.items():
            exps = self.ctx.unpack(k)
            new_exps = [0] * new_ctx.n
            coeff = c
            for i, e in enumerate(exps):
                if not e:
                    continue
                name = self.ctx.names[i]
                j = new_ctx.index.get(name)
                if j is not None:
                    new_exps[j] = e
                elif name in assignment:
                    coeff = coeff * assignment[name] ** e
                else:
                    raise ContextError("no target for variable %r" % name)
            key = new_ctx.pack(new_exps)
            out[key] = out.get(key, 0) + coeff
        return Poly(new_ctx, out)

    # -- canonical order and text -------------------------------------

    def _sort_key(self, key):
        # graded lex: total degree first, then earlier variables dominate
        exps = self.ctx.unpack(key)
        return (sum(exps), tuple(-e for e in exps))

    def sorted_terms(self):
        """(key, coefficient) pairs in canonical graded-lex order (low
        degree first)."""
        return sorted(self.items(), key=lambda kv: self._sort_key(kv[0]))

    def min_term(self):
        """Smallest (key, coeff) in graded-lex order; None if zero."""
        if not self.terms:
            return None
        key = min(self.terms, key=self._sort_key)
        return key, Fraction(self.terms[key], self.den)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            factors = [format_rational(c)]
            for i, e in enumerate(self.ctx.unpack(key)):
                if e == 1:
                    factors.append(self.ctx.names[i])
                elif e > 1:
                    factors.append("%s^%d" % (self.ctx.names[i], e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def _field_maxima(ctx, keys):
    return [max(((k >> (_SHIFT * i)) & _MASK for k in keys), default=0)
            for i in range(ctx.n)]


def _check_exponent_sums(ctx, terms1, terms2):
    """Raise ContextError when some variable's exponent in the product of
    two term dicts could exceed the packed field, which would otherwise
    carry silently into the next variable.

    The bitwise OR of a factor's keys bounds every field from above.  Added
    as plain integers, two such bounds carry into the low bit of the next
    field exactly when some field sum passes the limit, so the exact
    per-variable maxima are only computed after such a carry.

    ``Poly.mul`` skips this scan for a cap within the field limit in an
    all-graded context, where the cap bounds every field."""
    fields = (1 << ctx.top) - 1
    or1 = functools.reduce(operator.or_, terms1, 0) & fields
    or2 = functools.reduce(operator.or_, terms2, 0) & fields
    if not ((or1 + or2) ^ or1 ^ or2) & (fields // _MASK) << _SHIFT:
        return
    for i, (e1, e2) in enumerate(zip(_field_maxima(ctx, terms1),
                                     _field_maxima(ctx, terms2))):
        if e1 + e2 > _EXP_LIMIT:
            raise ContextError("exponent of %r in product exceeds %d"
                               % (ctx.names[i], _EXP_LIMIT))


class TruncatedSeries:
    """A polynomial known to be exact through grading degree ``known_order``.

    The body never contains terms above the known order; every operation
    propagates the worst-case valid order.
    """

    __slots__ = ("body", "known_order")

    def __init__(self, body, known_order):
        if known_order < 0:
            raise ValueError("known_order must be >= 0")
        self.body = body.truncated(known_order)
        self.known_order = known_order

    @classmethod
    def _capped(cls, body, known_order):
        """Wrap a body with no term above ``known_order``, unchecked."""
        s = object.__new__(cls)
        s.body, s.known_order = body, known_order
        return s

    @property
    def ctx(self):
        return self.body.ctx

    def _check(self, other):
        if self.body.ctx is not other.body.ctx and self.ctx != other.ctx:
            raise ContextError("mixed variable contexts")

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __neg__(self):
        return TruncatedSeries._capped(-self.body, self.known_order)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def _combine(self, other, op):
        """op(self, other) at the lower known order: the longer operand is
        cut to that order before the sum, so no term above it is formed."""
        self._check(other)
        n, m = self.known_order, other.known_order
        a, b = self.body, other.body
        if n > m:
            a, n = a.truncated(m), m
        elif m > n:
            b = b.truncated(n)
        return TruncatedSeries._capped(op(a, b), n)

    def __mul__(self, other):
        p, q = self.body, other.body
        if p.ctx is not q.ctx:
            self._check(other)
        if not p.terms or not q.terms:
            # zero factor: product is exactly zero; keep a generous order
            n = max(self.known_order, other.known_order)
            return TruncatedSeries(Poly.zero(p.ctx), n)
        # known(st) = min(known(s) + val(t), known(t) + val(s))
        top = p.ctx.top
        n = min(self.known_order + (min(q.terms) >> top),
                other.known_order + (min(p.terms) >> top))
        return TruncatedSeries._capped(p.mul(q, cap=n), n)

    def scale(self, c):
        return TruncatedSeries._capped(self.body.scale(c), self.known_order)

    def diff(self, var):
        """Derivative in a grading variable; one order of validity is lost."""
        if self.known_order == 0:
            return TruncatedSeries(Poly.zero(self.ctx), 0)
        return TruncatedSeries(self.body.diff(var), self.known_order - 1)

    def valuation(self):
        return self.body.valuation()

    def is_zero_through(self):
        v = self.body.valuation()
        return v is None or v > self.known_order

    def lowest_terms(self):
        """(degree, homogeneous part) of the minimal grading degree, or
        (None, zero) when the series vanishes through its known order."""
        v = self.body.valuation()
        if v is None:
            return None, Poly.zero(self.ctx)
        return v, self.body.homogeneous_part(v)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.body == other.body
                and self.known_order == other.known_order)

    def __str__(self):
        return "%s + O(deg %d)" % (self.body, self.known_order + 1)

    __repr__ = __str__


def exact_divide(s, d):
    """Divide series ``s`` by ``d``; the remainder must vanish through the
    validated order, otherwise NotDivisibleError is raised.

    The pivot is the graded-lex minimal monomial of ``d``; whenever the
    division succeeds, series_mul(q, d) agrees with s through q.known_order
    + val(d).
    """
    if s.ctx != d.ctx:
        raise ContextError("mixed variable contexts")
    ctx = s.ctx
    pivot = d.body.min_term()
    if pivot is None:
        raise NotDivisibleError("division by zero series")
    pivot_key, pivot_coeff = pivot
    w = d.body.valuation()
    limit = min(s.known_order, d.known_order)
    rem = {k: c for k, c in s.body.items()
           if ctx.grading_degree(k) <= limit}
    quot = {}
    sort_key = Poly(ctx)._sort_key
    d_terms = list(d.body.items())
    pivot_exps = ctx.unpack(pivot_key)
    while rem:
        t_key = min(rem, key=sort_key)
        t_exps = ctx.unpack(t_key)
        if any(te < pe for te, pe in zip(t_exps, pivot_exps)):
            raise NotDivisibleError("remainder term not divisible by pivot")
        m_key = t_key - pivot_key
        c = rem[t_key] / pivot_coeff
        quot[m_key] = c
        for k, dc in d_terms:
            nk = m_key + k
            if ctx.grading_degree(nk) > limit:
                continue
            v = rem.get(nk, 0) - c * dc
            if v == 0:
                rem.pop(nk, None)
            else:
                rem[nk] = v
    return TruncatedSeries(Poly(ctx, quot), limit - w)
