"""Jacobi-inversion chart: X, Y, Z as symmetric functions of (x1, x2) with
y_i^2 = f5(x_i).  ``chart_F`` is the one F, for rationals, jets and
``Poly``s.  The quartic is one ``Poly`` identity in symbolic lambda, which
holds on both sheets (``quartic_identities``).

Points are evaluated exactly through jets over Q(w), w = y1 y2 with
w^2 = c1 c2, c_i = f5(x_i) at the base point: along the lift
y_i(x_i) = y_i r_i(x_i), where r_i = sqrt(f5(x_i) / c_i) has rational
Taylor coefficients, so Z = (F - 2 w r1 r2) / D and everything built from
it stays in Q(w).  ``ChartBPoint.roots`` is the point's ``QuadExtContext``
with its signed w, built once and read by the jets and by the closed-form
dZ.  Every point is lifted at ``JET_ORDER`` = 3, the order the Ricci
values read (the metric through order 2, differentiated twice); dZ and
the quartic read the same lift's first and zeroth orders.  A point keeps
the exact lift and metric it computes first (``lift``, ``metric``), so
the admissible-point filter and every later check share them.
``metric`` is ``tensor.induced_metric`` of the lift's (X, Y, Z), cut one
order lower before the generic ``tensor.inverse_metric`` inverts it."""

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .jets import Jet, graded_index
from .quadext import NonInvertibleError, QuadExtContext
from .rings import Context, Poly, rat
from .sigma import LAMBDA_NAMES, kummer_matrix
from .tensor import (MetricTensor, christoffel, det4, induced_metric,
                     inverse_metric, ricci, riemann)

JET_ORDER = 3
# the ring of the quartic identity and the closed-form dZ
_CHART_CTX = Context(("x1", "x2", "y1", "y2") + LAMBDA_NAMES, grading=2)


class AdmissibilityError(ValueError):
    """Point violates a chart precondition; the message names it."""


class SingularPointError(ArithmeticError):
    """Metric determinant not invertible at the base point."""


def f5_scalar(x, lam):
    """The curve quintic at x, which may be a rational, a jet or a
    ``Poly``."""
    l0, l1, l2, l3, l4 = lam
    return ((((4 * x + l4) * x + l3) * x + l2) * x + l1) * x + l0


def chart_F(x1, x2, lam):
    """F = 4 p^2 s + 2 l4 p^2 + l3 p s + 2 l2 p + l1 s + 2 l0, s = x1 + x2,
    p = x1 x2, in Horner form with the ring element left of every sum, so
    x1 and x2 may be rationals, jets or ``Poly``s."""
    l0, l1, l2, l3, l4 = lam
    s, p = x1 + x2, x1 * x2
    return p * (p * (s * 4 + 2 * l4) + s * l3 + 2 * l2) + s * l1 + 2 * l0


@dataclass(frozen=True)
class ChartBPoint:
    x1: object
    x2: object
    lambdas: tuple = (0, 0, 0, 0, 0)
    sign1: int = 1
    sign2: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x1", rat(self.x1))
        object.__setattr__(self, "x2", rat(self.x2))
        object.__setattr__(self, "lambdas",
                           tuple(rat(x) for x in self.lambdas))
        if self.sign1 not in (1, -1) or self.sign2 not in (1, -1):
            raise ValueError("signs must be +1 or -1")

    @cached_property
    def c1(self):
        return f5_scalar(self.x1, self.lambdas)

    @cached_property
    def c2(self):
        return f5_scalar(self.x2, self.lambdas)

    def check_admissible(self):
        if self.x1 == self.x2:
            raise AdmissibilityError("x1 == x2 (pole of Z)")
        if self.c1 == 0:
            raise AdmissibilityError("f5(x1) == 0 (y1 not invertible)")
        if self.c2 == 0:
            raise AdmissibilityError("f5(x2) == 0 (y2 not invertible)")

    @cached_property
    def roots(self):
        """(ring, w): the point's ring Q(w), w^2 = c1 c2, and w = y1 y2 on
        its sheet.  The sheet enters only through sign1 sign2."""
        ctx = QuadExtContext(self.c1, self.c2)
        return ctx, ctx.w.scale(self.sign1 * self.sign2)

    @cached_property
    def lift(self):
        return xyz_jets(self)

    @cached_property
    def metric(self):
        """Jets (g, ginv) of the metric the lift's (X, Y, Z) induces about
        the base point, one order below the lift, and of its inverse, one
        order lower still: ``christoffel`` multiplies the inverse only
        into first derivatives of g.  Raises NonInvertibleError where
        det g is not invertible."""
        X, Y, Z, _ = self.lift
        g = induced_metric(*([X.diff(i), Y.diff(i), Z.diff(i)]
                             for i in (0, 1)))
        cut = MetricTensor(*(x.truncated(JET_ORDER - 2)
                             for x in (g.g11, g.g12, g.g22)))
        return g, inverse_metric(cut)


def _sqrt_jet(s, slot):
    """Jet square root of s, where s has constant term 1 and rational
    coefficients along displacement ``slot`` only: the root with constant
    term 1, on the numerators of s.  With s_k = S_k / d (S_0 = d) and
    q = 4d, the root has y_k = Y_k / (2^(2k-1) d^k) for k > 0, where
    Y_k = q^(k-1) S_k - sum_{0<j<k} Y_j Y_(k-j); over q^n its numerators
    are q^n and 2 Y_k q^(n-k)."""
    n = s.order
    S, _, d = s.data
    q = 4 * d
    at = [graded_index(k, 0) if slot == 0 else graded_index(0, k)
          for k in range(n + 1)]
    Y = [0] * (n + 1)
    A = [0] * len(S)
    A[0] = q ** n
    for k in range(1, n + 1):
        Y[k] = q ** (k - 1) * S[at[k]] \
            - sum(Y[j] * Y[k - j] for j in range(1, k))
        A[at[k]] = 2 * Y[k] * q ** (n - k)
    return Jet(s.ring, n, (A, [0] * len(S), A[0]))


def xyz_jets(p):
    """X = x1 + x2, Y = -x1 x2, Z = (F - 2 y1 y2) / (4 (x1 - x2)^2), and
    the lifted jets of x1, x2 and y1 y2 about the base point at
    ``JET_ORDER``.  The y1 y2 jet is w r1 r2 with r_i the rational jet of
    sqrt(f5(x_i) / c_i), r_i = 1 at the base, so its square is the jet of
    f5(x1) f5(x2) through that order."""
    p.check_admissible()
    ring, w = p.roots
    jx1 = Jet.coordinate(ring, JET_ORDER, p.x1, 0)
    jx2 = Jet.coordinate(ring, JET_ORDER, p.x2, 1)
    r1 = _sqrt_jet(f5_scalar(jx1, p.lambdas).scale(1 / p.c1), 0)
    r2 = _sqrt_jet(f5_scalar(jx2, p.lambdas).scale(1 / p.c2), 1)
    jw = (r1 * r2).scale(w)
    X = jx1 + jx2
    Y = -(jx1 * jx2)
    diffj = jx1 - jx2
    denom = (diffj * diffj).scale(4)
    Z = (chart_F(jx1, jx2, p.lambdas) - jw.scale(2)) * denom.inverse()
    return X, Y, Z, {"x1": jx1, "x2": jx2, "y1y2": jw}


@lru_cache(maxsize=4)
def _chart_derivatives(lambdas):
    """(dF/dx1, dF/dx2, f5'(x1)) over the chart ring at the moduli
    ``lambdas``; they depend on nothing else, so each lambda tuple builds
    them once."""
    x1, x2 = Poly.var(_CHART_CTX, "x1"), Poly.var(_CHART_CTX, "x2")
    F = chart_F(x1, x2, lambdas)
    return F.diff("x1"), F.diff("x2"), f5_scalar(x1, lambdas).diff("x1")


def dz_closed_form(p):
    """dZ/dx_i at the base point by the quotient rule, with dF/dx_i and
    f5'(x_i) the formal derivatives of F and f5 over the chart ring at the
    point's moduli (independent of the jet path).  y_j / y_i is
    y1 y2 / y_i^2 = w / c_i."""
    p.check_admissible()
    ctx, w = p.roots
    dF1, dF2, df5 = _chart_derivatives(p.lambdas)
    at = {"x1": p.x1, "x2": p.x2}
    d = p.x1 - p.x2
    N = ctx.rational(chart_F(p.x1, p.x2, p.lambdas)) - w.scale(2)
    # dZ/dx_i = (dF/dx_i - f5'(x_i) y_j / y_i) / (4 d^2) -+ N / (2 d^3);
    # f5' is one polynomial in x1, read at each x_i
    out = []
    for dF, xi, ci, sign in ((dF1, p.x1, p.c1, -1), (dF2, p.x2, p.c2, 1)):
        dN = ctx.rational(dF.eval(at)) - w.scale(df5.eval({"x1": xi}) / ci)
        out.append(N.scale(sign / (2 * d ** 3)) + dN.scale(1 / (4 * d * d)))
    return tuple(out)


def quartic_identities():
    """{variant: (D^4 det K, its normal form modulo y_i^2 = f5(x_i))} for
    both kernel-matrix variants, as ``Poly``s in (x1, x2, y1, y2, l0..l4).
    Each kernel-matrix entry is linear in (lambda, X, Y, Z, 2), so with
    D = 4 (x1 - x2)^2 and N = F - 2 y1 y2 = Z D the matrix of
    (lambda D, X D, Y D, N, 2 D) has determinant D^4 det K.  The quotient
    ring is free on 1, y1, y2, y1 y2 over Q[x1, x2, lambda], so a zero
    normal form is det K = 0 on the chart for every lambda and both
    sheets.  The variants differ only in K[1][1] and det is linear in row
    1, so det(wp22) = det(wp11) + (4N - 4XD) C11, where the cofactor C11
    of K[1][1] is the determinant with row 1 -> (0, 1, 0, 0)."""
    x1, x2, y1, y2, *lam = [Poly.var(_CHART_CTX, name)
                            for name in _CHART_CTX.names]
    zero = Poly.zero(_CHART_CTX)
    D = (x1 - x2) ** 2 * 4
    N = chart_F(x1, x2, lam) - y1 * y2 * 2
    XD = (x1 + x2) * D
    m = kummer_matrix([l * D for l in lam], XD, -(x1 * x2) * D, N, D * 2,
                      zero)
    det11 = det4(m)
    m[1] = [zero, Poly.const(_CHART_CTX, 1), zero, zero]
    dets = {"wp11": det11, "wp22": det11 + (N - XD) * 4 * det4(m)}
    # y1, y2 are ungraded: y_i^(2k + e) -> f5(x_i)^k y_i^e takes k times
    # the key of y_i^2 off the key and leaves its degree bits alone
    (s1, mask), (s2, _) = (_CHART_CTX.field(y) for y in ("y1", "y2"))
    f1, f2 = f5_scalar(x1, lam), f5_scalar(x2, lam)
    factor = lru_cache(lambda k1, k2: f1 ** k1 * f2 ** k2)

    def normal_form(det):
        parts = {}
        for key, n in det.terms.items():
            k1, k2 = (key >> s1 & mask) >> 1, (key >> s2 & mask) >> 1
            parts.setdefault((k1, k2), {})[
                key - (k1 << s1 + 1) - (k2 << s2 + 1)] = n
        return sum((Poly(_CHART_CTX, t) * factor(*ks)
                    for ks, t in parts.items()), zero).scale(rat(1, det.den))
    return {variant: (det, normal_form(det)) for variant, det in dets.items()}


def quartic_check(p, variant="wp11"):
    """Value of det K at the point's (X, Y, Z); exactly zero on the surface
    with the adopted kernel-matrix entry.  Only the base values of the
    point's lift enter."""
    X, Y, Z, _ = p.lift
    ctx = X.ring
    lam = [ctx.rational(v) for v in p.lambdas]
    return det4(kummer_matrix(lam, X.base, Y.base, Z.base,
                              ctx.rational(2), ctx.zero, variant))


def ricci_point(p):
    """Exact Ricci components at the base point via the generic tensor
    pipeline over the point's jet ring: the order-3 lift gives the metric
    through order 2, which is differentiated twice."""
    try:
        g, ginv = p.metric
    except NonInvertibleError as e:
        raise SingularPointError(str(e))
    ric = ricci(riemann(christoffel(g, ginv)))
    return {
        "R11": ric.r11.base,
        "R12": ric.r12.base,
        "R22": ric.r22.base,
        "R21": ric.r21.base,
    }


def random_admissible_points(seed, count, lambdas=(0, 0, 0, 0, 0)):
    """Deterministic stream of admissible rational points with numerators
    and denominators bounded by 50, each lifted and with its metric built:
    a point is accepted where det g is invertible."""
    rng = random.Random(seed)

    def draw():
        return rat(rng.randint(-50, 50), rng.randint(1, 50))
    out = []
    while len(out) < count:
        p = ChartBPoint(draw(), draw(), tuple(lambdas))
        # the lift checks admissibility, and the metric must be invertible
        # on the principal sheet; the point keeps both for later checks
        try:
            p.metric
        except (AdmissibilityError, NonInvertibleError):
            continue
        out.append(p)
    return out
