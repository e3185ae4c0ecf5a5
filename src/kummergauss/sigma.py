"""Genus-2 sigma-series chart: series builder, second and third log
derivatives, the quartic kernel matrix, the induced surface metric and the
cleared-denominator Ricci components.

Coordinates are (u, v); indices follow the curve convention 1 -> u, 2 -> v.
Quantities are carried as ``SigmaRational`` num / (sigma^a * Dhat^b) over
a ``QuotientFrame``; the power ledger is signed so products cancel
denominator powers symbolically and no division is ever forced.  The
numerators are series here; the sphere charts (``sphere``) build frames
over one polynomial denominator with exact ``Poly`` numerators.

A ``SigmaSeries`` frame owns every stage over its sigma: the moduli, X/Y/Z
(wp2), the four wp3, the kernel matrix, the Gauss metric, Dhat with its
powers and derivatives, and the cleared Ricci components.  Each is a
read-only attribute, computed on first use by the module function defining
the stage; nothing outside the frame writes it.  The frame also forms each
product of two sigma derivatives once (``sd_product``).  Only products
are shared: a product's known order does not depend on how its factors
are grouped, while a sum's does.

A frame is exact through its ``order`` only as far as its sigma is: a
sigma truncated at level L matches the true one through degree L + 1,
while at lambda = 0 it is exactly u - v^3/3.  The caller picks the order.
"""

import operator
from fractions import Fraction
from functools import cached_property

from .rings import (Context, Poly, TruncatedSeries, exact_divide, rat)
from .tensor import MetricTensor, christoffel, det4, riemann, ricci

LAMBDA_NAMES = ("l0", "l1", "l2", "l3", "l4")
DEFAULT_ORDER = 16

_SYMBOLIC_CTX = Context(("u", "v") + LAMBDA_NAMES, grading=2)
_NUMERIC_CTX = Context(("u", "v"), grading=2)


def _sigma_poly(ctx, lam, level):
    """The truncated sigma expansion as an exact polynomial; ``lam`` holds
    the moduli as variables (symbolic) or as rationals (numeric)."""
    pad = (0,) * (ctx.n - 2)

    def m(i, j):
        """The monomial u^i v^j."""
        return Poly.from_terms(ctx, [((i, j) + pad, 1)])

    l0, l1, l2, l3, l4 = lam
    s = m(1, 0) + l2 * Fraction(1, 24) * m(3, 0) - Fraction(1, 3) * m(0, 3)
    if level >= 5:
        inner = (
            (l0 * l4 * Fraction(1, 2) - l1 * l3 * Fraction(1, 8)
             - l2 * l2 * Fraction(1, 16)) * m(5, 0)
            + 10 * l0 * m(4, 1)
            + 5 * l1 * m(3, 2)
            + 5 * l2 * m(2, 3)
            + l3 * Fraction(5, 2) * m(1, 4)
            + 2 * l4 * m(0, 5))
        s = s - inner * Fraction(1, 120)
    if level >= 7:
        h = [
            -l3 - 2 * l4 * l4,
            -2 * l2 - l3 * l4 * Fraction(1, 2),
            -2 * l1 - l2 * l4 * Fraction(1, 2),
            -2 * l0 - l2 * l3 * Fraction(1, 8) - l1 * l4 * Fraction(1, 2),
            -l1 * l3 * Fraction(1, 4) - l0 * l4 - l2 * l2 * Fraction(1, 8),
            -l0 * l3 * Fraction(3, 2) - l1 * l2 * Fraction(1, 4),
            -l0 * l2 * Fraction(11, 2) + l1 * l1,
            (l2 ** 3 * Fraction(1, 64) + l1 * l2 * l3 * Fraction(3, 32)
             - l0 * l2 * l4 * Fraction(15, 8) - l0 * l1 * Fraction(1, 2)
             + l0 * l3 * l3 * Fraction(3, 8) + l1 * l1 * l4 * Fraction(3, 8)),
        ]
        binom = (1, 7, 21, 35, 35, 21, 7, 1)
        s7 = Poly.zero(ctx)
        for k in range(8):
            s7 = s7 + binom[k] * h[k] * m(k, 7 - k)
        s = s + s7 * Fraction(1, 5040)
    return s


class QuotientFrame:
    """The bookkeeping of ``SigmaRational`` quotients over two fixed
    denominators, sigma and Dhat: their powers, the quotient-rule products
    and the constructors.  ``one`` and ``sigma`` are ``Poly``s or
    ``TruncatedSeries``; ``sd(k)`` is sigma's derivative by curve index k
    (1 -> u, 2 -> v); ``self.dhat`` is read only for a power of Dhat."""

    def __init__(self, one, sigma):
        self.sigma = sigma
        self._sigma_pows = {0: one, 1: sigma}

    def sd(self, k):
        return self.sigma.diff(k - 1)

    @cached_property
    def _quotient_pairs(self):
        """Per coordinate: (sigma_i Dhat, sigma Dhat_i), the two products
        the quotient rule needs under a Dhat denominator."""
        return [(self.sd(k) * self.dhat, self.sigma * self.dhat.diff(k - 1))
                for k in (1, 2)]

    @cached_property
    def _sigD(self):
        return self.sigma * self.dhat

    @cached_property
    def _dhat_pows(self):
        return {0: self._sigma_pows[0], 1: self.dhat}

    def sigma_pow(self, k):
        if k not in self._sigma_pows:
            self._sigma_pows[k] = self.sigma_pow(k - 1) * self.sigma
        return self._sigma_pows[k]

    def dhat_pow(self, k):
        if k not in self._dhat_pows:
            self._dhat_pows[k] = self.dhat_pow(k - 1) * self.dhat
        return self._dhat_pows[k]

    def rational(self, num, sig_pow=0, det_pow=0):
        return SigmaRational(self, num, sig_pow, det_pow)

    def scalar(self, value):
        return self.rational(self._sigma_pows[0].scale(value))


class SigmaSeries(QuotientFrame):
    """Truncated sigma expansion plus the memoised stages shared by every
    quantity built over it (see the module docstring)."""

    def __init__(self, level, lambdas=None, order=DEFAULT_ORDER):
        if level not in (3, 5, 7):
            raise ValueError("sigma level must be 3, 5 or 7")
        self.level = level
        self.order = order
        if lambdas is None:
            self.ctx = _SYMBOLIC_CTX
            self.lam = [Poly.var(self.ctx, n) for n in LAMBDA_NAMES]
        else:
            if len(lambdas) != 5:
                raise ValueError("need five lambda values")
            self.ctx = _NUMERIC_CTX
            self.lam = [rat(x) for x in lambdas]
        poly = self.sigma_poly = _sigma_poly(self.ctx, self.lam, level)
        super().__init__(TruncatedSeries(Poly.const(self.ctx, 1), order),
                         TruncatedSeries(poly, order))
        # sd(*k) by the sorted index tuple k
        self._sd = {(): self.sigma}
        # sd(*a) * sd(*b) by the sorted pair of sorted index tuples
        self._sd_products = {}

    # -- derived stages, each computed on first use --------------------

    @cached_property
    def moduli(self):
        """The five lambda as rationals over the frame."""
        return [self.rational(TruncatedSeries(x, self.order))
                if isinstance(x, Poly) else self.scalar(x) for x in self.lam]

    @cached_property
    def xyz(self):
        """(X, Y, Z) = (wp22, wp21, wp11)."""
        return wp2(self, 22), wp2(self, 21), wp2(self, 11)

    @cached_property
    def wp3s(self):
        """(wp222, wp221, wp211, wp111)."""
        return tuple(wp3(self, k) for k in ("222", "221", "211", "111"))

    @cached_property
    def kernel_matrix(self):
        """The adopted ("wp11") kernel matrix at the frame's (X, Y, Z)."""
        return kummer_matrix(self.moduli, *self.xyz, self.scalar(2),
                             self.scalar(0))

    @cached_property
    def metric(self):
        return gauss_metric(self)

    @cached_property
    def metric_inverse(self):
        """(Dhat, inverse metric) of the frame's Gauss metric."""
        return metric_det_inverse(self.metric)

    @cached_property
    def cleared_ricci(self):
        """``ricci_hat`` of the frame."""
        return ricci_hat(self)

    @property
    def dhat(self):
        return self.metric_inverse[0]

    # -- sigma derivatives --------------------------------------------

    def sd(self, *indices):
        """sigma differentiated by curve indices, e.g. sd(2, 2, 1), as a
        series at the frame's order: the exact ``sigma_poly`` is
        differentiated along the sorted indices, once per sorted tuple."""
        key = tuple(sorted(indices))
        if key not in self._sd:
            d = self.sigma_poly
            for k in key:
                d = d.diff(k - 1)
            self._sd[key] = TruncatedSeries(d, self.order)
        return self._sd[key]

    def sd_product(self, a, b):
        """``sd(*a) * sd(*b)``, formed once per unordered pair; the series
        product and its known order do not depend on the factor order."""
        key = tuple(sorted((tuple(sorted(a)), tuple(sorted(b)))))
        if key not in self._sd_products:
            self._sd_products[key] = self.sd(*key[0]) * self.sd(*key[1])
        return self._sd_products[key]


class SigmaRational:
    """num / (sigma^a * Dhat^b) over a ``QuotientFrame``, num a series
    (with its validity ledger) or an exact ``Poly``.  ``sig_pow`` and
    ``det_pow`` may run negative (a negative power is an uncancelled
    numerator factor); the sigma chart normalizes the quantities it
    reports back to non-negative powers."""

    __slots__ = ("frame", "num", "sig_pow", "det_pow")

    def __init__(self, frame, num, sig_pow=0, det_pow=0):
        self.frame = frame
        self.num = num
        self.sig_pow = sig_pow
        self.det_pow = det_pow

    def _raise_to(self, a, b):
        if a == self.sig_pow and b == self.det_pow:
            return self
        num = self.num
        if a != self.sig_pow:
            num = num * self.frame.sigma_pow(a - self.sig_pow)
        if b != self.det_pow:
            num = num * self.frame.dhat_pow(b - self.det_pow)
        return SigmaRational(self.frame, num, a, b)

    def _combine(self, other, op):
        """op(self, other) over the larger of each pair of powers."""
        a = max(self.sig_pow, other.sig_pow)
        b = max(self.det_pow, other.det_pow)
        x, y = self._raise_to(a, b), other._raise_to(a, b)
        return SigmaRational(self.frame, op(x.num, y.num), a, b)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __neg__(self):
        return SigmaRational(self.frame, -self.num, self.sig_pow,
                             self.det_pow)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        return SigmaRational(self.frame, self.num * other.num,
                             self.sig_pow + other.sig_pow,
                             self.det_pow + other.det_pow)

    def scale(self, c):
        return SigmaRational(self.frame, self.num.scale(c), self.sig_pow,
                             self.det_pow)

    def inverse(self):
        """The reciprocal of a quotient whose numerator is a nonzero
        constant ``Poly``, over the negated powers; any other numerator
        raises ``ArithmeticError``."""
        num = self.num
        if not (isinstance(num, Poly) and num.terms.keys() == {0}):
            raise ArithmeticError("only a constant numerator is inverted")
        return SigmaRational(self.frame,
                             Poly.const(num.ctx, rat(num.den, num.terms[0])),
                             -self.sig_pow, -self.det_pow)

    def diff(self, i):
        """Coordinate derivative (i = 0 for u, 1 for v) in closed pair form:
        d(N/(s^a D^b)) = (N' s D - N (a s' D + b s D')) / (s^(a+1) D^(b+1)).
        """
        frame = self.frame
        nd = self.num.diff(i)
        a, b = self.sig_pow, self.det_pow
        if b == 0:
            num = nd * frame.sigma
            if a:
                num = num - self.num * frame.sd(1 if i == 0 else 2).scale(a)
            return SigmaRational(frame, num, a + 1, 0)
        num = nd * frame._sigD
        sprime_dhat, sigma_dprime = frame._quotient_pairs[i]
        num = num - self.num * (sprime_dhat.scale(a) + sigma_dprime.scale(b))
        return SigmaRational(frame, num, a + 1, b + 1)

    def to_powers(self, a, b):
        """Re-express over sigma^a Dhat^b exactly, multiplying or exact-
        dividing the numerator as required."""
        cur = self._raise_to(max(a, self.sig_pow), max(b, self.det_pow))
        num = cur.num
        if cur.sig_pow > a:
            num = exact_divide(num, self.frame.sigma_pow(cur.sig_pow - a))
        if cur.det_pow > b:
            num = exact_divide(num, self.frame.dhat_pow(cur.det_pow - b))
        return SigmaRational(self.frame, num, a, b)

    def is_zero_through(self):
        return self.num.is_zero_through()


def build_sigma(level, lambdas=None, order=DEFAULT_ORDER):
    """Truncated sigma expansion; with every lambda zero it collapses to
    u - v^3/3 at any level."""
    return SigmaSeries(level, lambdas=lambdas, order=order)


def wp2(s, ij):
    """Second log derivative wp_ij = (sigma_i sigma_j - sigma sigma_ij)
    over sigma^2."""
    i, j = int(str(ij)[0]), int(str(ij)[1])
    num = s.sd_product((i,), (j,)) - s.sd_product((), (i, j))
    return s.rational(num, sig_pow=2)


def wp3(s, ijk):
    """Third log derivative wp_ijk = -(sigma^2 s_ijk - sigma (s_ij s_k +
    s_ik s_j + s_jk s_i) + 2 s_i s_j s_k) / sigma^3, with s_i = sigma_i
    (independent of differentiating wp2).  Every pair product comes from
    the frame's ``sd_product``; s_i s_j s_k is wp2's s_i s_j times s_k."""
    key = str(ijk)
    if key not in ("222", "221", "211", "111"):
        raise ValueError("ijk must be one of 222, 221, 211, 111")
    i, j, k = (int(c) for c in key)
    pairs = s.sd_product((i, j), (k,)) + s.sd_product((i, k), (j,)) \
        + s.sd_product((j, k), (i,))
    inner = s.sigma_pow(2) * s.sd(i, j, k) - s.sigma * pairs \
        + (s.sd_product((i,), (j,)) * s.sd(k)).scale(2)
    return s.rational(-inner, sig_pow=3)


def pde_residuals(s):
    """Residuals of the five wp differential equations, as rationals over
    sigma^4; each vanishes through its validated order for a correct
    sigma expansion."""
    X, Y, Z = s.xyz
    # wp_{ij kl} = d_k d_l wp_{ij}; coordinate 0 is u (index 1), 1 is v
    Xv = X.diff(1)
    p2222 = Xv.diff(1)
    p2221 = Xv.diff(0)
    p2211 = Y.diff(1).diff(0)
    p2111 = Y.diff(0).diff(0)
    p1111 = Z.diff(0).diff(0)
    l0, l1, l2, l3, l4 = s.moduli
    half = Fraction(1, 2)
    r1 = p2222 - (X * X).scale(6) - Y.scale(4) - l4 * X - l3.scale(half)
    r2 = p2221 - (X * Y).scale(6) + Z.scale(2) - l4 * Y
    r3 = p2211 - (Y * Y).scale(4) - (X * Z).scale(2) - (l3 * Y).scale(half)
    r4 = p2111 - (Y * Z).scale(6) - l2 * Y + (l1 * X).scale(half) + l0
    r5 = p1111 - (Z * Z).scale(6) - l2 * Z - l1 * Y + (l0 * X).scale(3) \
        - (l3 * l1).scale(Fraction(1, 8)) + (l4 * l0).scale(half)
    return [r1, r2, r3, r4, r5]


def kummer_matrix(lam, X, Y, Z, two, zero, variant="wp11"):
    """The 4x4 kernel matrix of the consistency conditions, over any ring
    whose elements have ``.scale``: the sigma chart passes SigmaRationals,
    the inversion chart quadratic-extension scalars.  ``lam``, ``two`` and
    ``zero`` are the five moduli and the constants already in that ring.

    ``variant`` selects the second diagonal entry: "wp11" is
    -l2 - 4 Z (the kernel-matrix form, adopted, and the only one the sigma
    chart builds); "wp22" is the -l2 - 4 X variant printed with the
    quartic, which the inversion chart builds to show that it fails.
    """
    l0, l1, l2, l3, l4 = lam
    half = Fraction(1, 2)
    diag2 = -l2 - Z.scale(4) if variant == "wp11" else -l2 - X.scale(4)
    # each symmetric entry is built once and placed twice
    k01, k02, k03 = l1.scale(half), Z.scale(2), Y.scale(-2)
    k12, k13 = l3.scale(half) + Y.scale(2), X.scale(2)
    return [
        [-l0, k01, k02, k03],
        [k01, diag2, k12, k13],
        [k02, k12, -l4 - X.scale(4), two],
        [k03, k13, two, zero],
    ]


def kummer_det(s):
    """sigma^8 * det K as a series with its validated order."""
    return det4(s.kernel_matrix)._raise_to(8, 0).num


def kernel_residual(s):
    """K . (wp222, wp221, wp211, wp111)^T; all four entries vanish through
    their validated order."""
    w = s.wp3s
    # Row 4 ends in K's structural zero, and 0 * wp111 is still formed:
    # as in ``det4``, the zero product's known order caps the row's, and
    # dropping it would claim orders past the frame's level + 1 horizon.
    return [r[0] * w[0] + r[1] * w[1] + r[2] * w[2] + r[3] * w[3]
            for r in s.kernel_matrix]


class GaussMetric:
    """Surface metric of the (X, Y, Z) chart with sigma^6 denominators."""

    def __init__(self, frame, ghat11, ghat12, ghat22):
        self.frame = frame
        self.ghat11 = ghat11
        self.ghat12 = ghat12
        self.ghat22 = ghat22
        self.tensor = MetricTensor(frame.rational(ghat11, sig_pow=6),
                                   frame.rational(ghat12, sig_pow=6),
                                   frame.rational(ghat22, sig_pow=6))


def gauss_metric(s):
    """First fundamental form of S = (X, Y, Z): g11 = wp221^2 + wp211^2 +
    wp111^2 and companions, assembled from the sigma^3 numerators."""
    n222, n221, n211, n111 = (w.num for w in s.wp3s)
    # the squares ghat11 and ghat22 share are formed once
    sq221, sq211 = n221 * n221, n211 * n211
    ghat11 = sq221 + sq211 + n111 * n111
    ghat12 = n222 * n221 + n221 * n211 + n211 * n111
    ghat22 = n222 * n222 + sq221 + sq211
    return GaussMetric(s, ghat11, ghat12, ghat22)


class SingularMetricError(ArithmeticError):
    pass


def metric_det_inverse(metric):
    """Dhat = sigma^12 det g, and the inverse metric over Dhat.  The frame
    keeps the pair for its own metric as ``metric_inverse``."""
    frame = metric.frame
    dhat = metric.ghat11 * metric.ghat22 - metric.ghat12 * metric.ghat12
    if dhat.valuation() is None:
        raise SingularMetricError("det g vanishes through validated order")
    ginv = MetricTensor(frame.rational(metric.ghat22, sig_pow=-6, det_pow=1),
                        frame.rational(-metric.ghat12, sig_pow=-6, det_pow=1),
                        frame.rational(metric.ghat11, sig_pow=-6, det_pow=1))
    return dhat, ginv


def ricci_hat(s):
    """Cleared Ricci components Rhat_ij with R_ij = Rhat_ij/(sigma^2 Dhat^2).

    Returns a dict with the numerator series of R11, R12 and R22, and
    ``ricci_symmetry_ok``: whether R12 = R21 through the validated order.
    """
    ginv = s.metric_inverse[1]
    ric = ricci(riemann(christoffel(s.metric.tensor, ginv)))
    out = {name: comp.to_powers(2, 2).num
           for name, comp in (("R11", ric.r11), ("R12", ric.r12),
                              ("R22", ric.r22))}
    out["ricci_symmetry_ok"] = (ric.r12 - ric.r21).is_zero_through()
    return out
