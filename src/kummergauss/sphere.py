"""Double-sphere specialization: Goepel tetrad constants, the Fresnel
quartic reduction, exact Einstein-metric verification on the round sphere
and the conformal plane chart, and the first Chern number read exactly
from that chart's metric.

The chart jets are the rational jets of one fixed ring,
``QuadExtContext(1, 1)``: their w-parts stay zero (a rational element
has norm a^2, so every inverse exists), and each value leaves the chart
as a ``Fraction`` through ``.a``."""

import math
from fractions import Fraction

from .jets import Jet
from .quadext import QuadExtContext, rational_sqrt
from .rings import Context, Poly, rat
from .tensor import (MetricTensor, christoffel, inverse_metric, ricci,
                     riemann, scalar_curvature)


class DegenerateTetradError(ArithmeticError):
    """A Goepel constant denominator vanishes."""


def goepel_constants(a2, b2, c2, d2):
    """(A, B, C, D) of the quartic tetrad identity for the squares alpha^2,
    beta^2, gamma^2, delta^2.  D is exact when the (2-A)(2-B)(2-C) product
    vanishes or the tetrad product is a perfect square; otherwise it is
    reported unavailable (None)."""
    a2, b2, c2, d2 = (rat(x) for x in (a2, b2, c2, d2))
    a4, b4, c4, d4 = a2 * a2, b2 * b2, c2 * c2, d2 * d2
    dens = (a2 * d2 - b2 * c2, b2 * d2 - c2 * a2, c2 * d2 - a2 * b2)
    if any(x == 0 for x in dens):
        raise DegenerateTetradError("tetrad denominator vanishes")
    A = (b4 + c4 - a4 - d4) / dens[0]
    B = (c4 + a4 - b4 - d4) / dens[1]
    C = (a4 + b4 - c4 - d4) / dens[2]
    prod = (2 - A) * (2 - B) * (2 - C)
    if prod == 0:
        return A, B, C, rat(0)
    # D = sqrt(a2 b2 c2 d2) * prod / (a2+b2+c2+d2)^2 when that root is
    # rational; the irrational branch is out of scope
    root = rational_sqrt(a2 * b2 * c2 * d2)
    if root is None:
        return A, B, C, None
    s = a2 + b2 + c2 + d2
    return A, B, C, root * prod / (s * s)


_FRESNEL_CTX = Context(("x", "y", "z"), grading=3)


def fresnel_quartic(a2, b2, c2):
    """Expansion of the Fresnel wave-surface quartic as a polynomial in
    (x, y, z) with the squared axis constants as parameters."""
    ctx = _FRESNEL_CTX
    x = Poly.var(ctx, "x")
    y = Poly.var(ctx, "y")
    z = Poly.var(ctx, "z")
    a2, b2, c2 = rat(a2), rat(b2), rat(c2)
    r2 = x * x + y * y + z * z
    weighted = a2 * x * x + b2 * y * y + c2 * z * z
    middle = (a2 * (b2 + c2) * x * x + b2 * (c2 + a2) * y * y
              + c2 * (a2 + b2) * z * z)
    return r2 * weighted - middle + Poly.const(ctx, a2 * b2 * c2)


def fresnel_reduce():
    """Expanded quartic at unit axes plus the double-sphere identity check:
    there the quartic equals (x^2 + y^2 + z^2 - 1)^2 exactly."""
    quartic = fresnel_quartic(1, 1, 1)
    ctx = _FRESNEL_CTX
    x = Poly.var(ctx, "x")
    y = Poly.var(ctx, "y")
    z = Poly.var(ctx, "z")
    sphere = x * x + y * y + z * z - Poly.const(ctx, 1)
    return quartic, quartic == sphere * sphere


# -- exact jet charts -------------------------------------------------

_RING = QuadExtContext(1, 1)
# the checks read Ricci at the base point only: the metric through order 2
_JET_ORDER = 2
# theta = 2 atan t runs from about 1e-3 (t = 1/2000) through the equator
# (t = 1) to about pi - 1e-3 (t = 2000)
_SPHERE_TS = tuple(Fraction(t) for t in (
    "1/2000 1/200 1/50 1/10 1/5 1/3 1/2 2/3 4/5 1 "
    "5/4 3/2 2 3 5 10 50 200 1000 2000").split())
_KAHLER_POINTS = ((0, 0), (Fraction(1, 2), Fraction(1, 3)), (1, 0),
                  (Fraction(-7, 10), Fraction(2, 5)),
                  (Fraction(5, 2), Fraction(-5, 4)))


def sphere_metric_jets(t, order=_JET_ORDER):
    """Round-sphere metric diag(1, sin^2 theta) as analytic jets in
    (theta, phi) at theta = 2 atan t.  The Taylor jet of sin is rational:
    sin theta = 2t/(1+t^2) and cos theta = (1-t^2)/(1+t^2)."""
    t = Fraction(t)
    s, c = 2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)
    derivs = [s, c, -s, -c]
    sj = Jet.from_coeffs(_RING, order,
                         {(k, 0): derivs[k % 4] / math.factorial(k)
                          for k in range(order + 1)})
    return MetricTensor(Jet.constant(_RING, order, 1),
                        Jet.constant(_RING, order, 0), sj * sj)


def kahler_metric_jets(u, v, order=_JET_ORDER):
    """Conformal plane chart 4 (du^2 + dv^2) / (1 + u^2 + v^2)^2 as jets."""
    ju = Jet.coordinate(_RING, order, u, 0)
    jv = Jet.coordinate(_RING, order, v, 1)
    f = (ju * ju + jv * jv).add_scalar(1)
    finv = f.inverse()
    conf = (finv * finv).scale(4)
    return MetricTensor(conf, Jet.constant(_RING, order, 0), conf)


def _chart_report(metrics):
    """Largest |R_ij - g_ij| and |R - 2| over the base points of the metric
    jets: both vanish exactly on an Einstein chart with scalar curvature 2."""
    max_dev = max_scal_dev = Fraction(0)
    for g in metrics:
        ginv = inverse_metric(g)
        ric = ricci(riemann(christoffel(g, ginv)))
        max_dev = max(max_dev, abs(ric.r11.base.a - g.g11.base.a),
                      abs(ric.r12.base.a - g.g12.base.a),
                      abs(ric.r22.base.a - g.g22.base.a))
        scal = scalar_curvature(g, ginv, ric)
        max_scal_dev = max(max_scal_dev, abs(scal.base.a - 2))
    return {"points": len(metrics), "max_einstein_dev": max_dev,
            "max_scalar_dev": max_scal_dev}


def sphere_einstein_check():
    """Verify R_ij = g_ij and R = 2 exactly at theta = 2 atan t for each
    t of ``_SPHERE_TS``, one point per t: the metric does not depend on phi."""
    return _chart_report([sphere_metric_jets(t) for t in _SPHERE_TS])


def kahler_conformal_check():
    """Check exactly that the conformal chart is Einstein with R = 2 at
    rational sample points and that the metric really is the conformal
    factor times identity."""
    metrics = [kahler_metric_jets(u, v) for u, v in _KAHLER_POINTS]
    max_conf_dev = Fraction(0)
    for (u, v), g in zip(_KAHLER_POINTS, metrics):
        conf = 4 / (1 + Fraction(u) ** 2 + Fraction(v) ** 2) ** 2
        max_conf_dev = max(max_conf_dev, abs(g.g11.base.a - conf),
                           abs(g.g22.base.a - conf), abs(g.g12.base.a))
    return dict(_chart_report(metrics), max_conformal_dev=max_conf_dev)


_AXIS = Context(("u",), grading=1)
MIN_TOLERANCE = Fraction(1, 10 ** 10)


def chern_number(tolerance):
    """First Chern number of the double sphere, read from its Kaehler
    metric f |dz|^2.

    By Gauss-Bonnet the curvature over the disc |z| <= R integrates to
    2 pi c1(R) with c1(R) = -R f_u / (2f) at (R, 0), taken exactly from
    the metric jets.  R is the least power of two with 2 - c1(R) at most
    ``tolerance`` (at least ``MIN_TOLERANCE``).  The limit of c1 is the
    ratio of the leading coefficients of u q_u / q; that ratio must equal
    the jet value at every radius tried, otherwise the limit is None (the
    metric is not the chart the limit was derived for).

    Returns (R, c1(R), limit).
    """
    if not tolerance >= MIN_TOLERANCE:
        raise ValueError("tolerance must be >= 1e-10")
    # on the axis v = 0 the chart f = 4/q^2, q = 1 + u^2 + v^2, has
    # q = 1 + u^2 and c1 = u q_u / q; u q_u has the degree of q, so the
    # limit is the ratio of their top coefficients
    u = Poly.var(_AXIS, "u")
    q = Poly.const(_AXIS, 1) + u * u
    num = u * q.diff("u")
    top = [q.grading_degree_max()]
    limit = num.coefficient(top) / q.coefficient(top)
    radius = 1
    while True:
        f = kahler_metric_jets(radius, 0, order=1).g11
        c1 = -radius * f.get(1, 0).a / (2 * f.base.a)
        if c1 != num.eval({"u": radius}) / q.eval({"u": radius}):
            return radius, c1, None
        if 2 - c1 <= tolerance:
            return radius, c1, limit
        radius *= 2
