"""Double-sphere specialization: Goepel tetrad constants, the Fresnel
quartic reduction, exact Einstein-metric verification on the round sphere
and the conformal plane chart, and the first Chern number read exactly
from that chart's metric.

Both charts are exact rational functions with one denominator each, built
once per check as ``sigma.SigmaRational`` quotients with ``Poly``
numerators.  Each chart states only its metric: ``tensor.inverse_metric``
derives the inverse, the curvature pipeline of ``tensor`` runs on them
whole, and each report reads its values off them at rational points."""

from fractions import Fraction

from .rings import Context, Poly, rat, rational_sqrt
from .sigma import QuotientFrame
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
    x, y, z = (Poly.var(_FRESNEL_CTX, n) for n in "xyz")
    a2, b2, c2 = rat(a2), rat(b2), rat(c2)
    r2 = x * x + y * y + z * z
    weighted = a2 * x * x + b2 * y * y + c2 * z * z
    middle = (a2 * (b2 + c2) * x * x + b2 * (c2 + a2) * y * y
              + c2 * (a2 + b2) * z * z)
    return r2 * weighted - middle + Poly.const(_FRESNEL_CTX, a2 * b2 * c2)


def fresnel_reduce():
    """Expanded quartic at unit axes plus the double-sphere identity check:
    there the quartic equals (x^2 + y^2 + z^2 - 1)^2 exactly."""
    quartic = fresnel_quartic(1, 1, 1)
    x, y, z = (Poly.var(_FRESNEL_CTX, n) for n in "xyz")
    sphere = x * x + y * y + z * z - Poly.const(_FRESNEL_CTX, 1)
    return quartic, quartic == sphere * sphere


# -- exact rational charts --------------------------------------------

_Z_CTX = Context(("z", "phi"))
_UV_CTX = Context(("u", "v"))
# theta = 2 atan t runs from about 1e-3 (t = 1/2000) through the equator
# (t = 1) to about pi - 1e-3 (t = 2000); z = cos theta
_SPHERE_TS = tuple(Fraction(t) for t in (
    "1/2000 1/200 1/50 1/10 1/5 1/3 1/2 2/3 4/5 1 "
    "5/4 3/2 2 3 5 10 50 200 1000 2000").split())
_KAHLER_POINTS = ((0, 0), (Fraction(1, 2), Fraction(1, 3)), (1, 0),
                  (Fraction(-7, 10), Fraction(2, 5)),
                  (Fraction(5, 2), Fraction(-5, 4)))


def sphere_chart():
    """The round sphere in the chart z = cos theta, as the exact rational
    metric dz^2 / p + p dphi^2 in (z, phi), with the one denominator
    p = 1 - z^2."""
    one, z = Poly.const(_Z_CTX, 1), Poly.var(_Z_CTX, "z")
    frame = QuotientFrame(one, one - z * z)
    return MetricTensor(frame.rational(one, sig_pow=1), frame.scalar(0),
                        frame.rational(one, sig_pow=-1))


def conformal_chart():
    """The conformal plane chart 4 (du^2 + dv^2) / q^2, q = 1 + u^2 + v^2,
    as the exact rational metric in (u, v)."""
    one = Poly.const(_UV_CTX, 1)
    u, v = Poly.var(_UV_CTX, "u"), Poly.var(_UV_CTX, "v")
    frame = QuotientFrame(one, one + u * u + v * v)
    conf = frame.rational(one.scale(4), sig_pow=2)
    return MetricTensor(conf, frame.scalar(0), conf)


def _value(x, point):
    """Exact value of a chart quotient at a rational point."""
    return x.num.eval(point) / x.frame.sigma.eval(point) ** x.sig_pow


def _chart_report(g, points):
    """Largest |R_ij - g_ij| and |R - 2| at the points of a chart with
    metric g: both vanish exactly on an Einstein chart with scalar
    curvature 2."""
    ginv = inverse_metric(g)
    ric = ricci(riemann(christoffel(g, ginv)))
    scal = scalar_curvature(ginv, ric)
    devs = (ric.r11 - g.g11, ric.r12 - g.g12, ric.r22 - g.g22)
    max_dev = max_scal_dev = Fraction(0)
    for pt in points:
        max_dev = max(max_dev, *(abs(_value(d, pt)) for d in devs))
        max_scal_dev = max(max_scal_dev, abs(_value(scal, pt) - 2))
    return {"points": len(points), "max_einstein_dev": max_dev,
            "max_scalar_dev": max_scal_dev}


def sphere_einstein_check():
    """Verify R_ij = g_ij and R = 2 exactly at theta = 2 atan t for each
    t of ``_SPHERE_TS``, that is at z = (1 - t^2) / (1 + t^2), one point
    per t: the metric does not depend on phi."""
    return _chart_report(sphere_chart(), [{"z": (1 - t * t) / (1 + t * t)}
                                          for t in _SPHERE_TS])


def kahler_conformal_check():
    """Check exactly that the conformal chart is Einstein with R = 2 at
    rational sample points and that the metric really is the conformal
    factor times identity."""
    g = conformal_chart()
    points = [{"u": Fraction(u), "v": Fraction(v)} for u, v in _KAHLER_POINTS]
    max_conf_dev = Fraction(0)
    for pt in points:
        conf = 4 / (1 + pt["u"] ** 2 + pt["v"] ** 2) ** 2
        max_conf_dev = max(max_conf_dev, abs(_value(g.g11, pt) - conf),
                           abs(_value(g.g22, pt) - conf),
                           abs(_value(g.g12, pt)))
    return dict(_chart_report(g, points),
                max_conformal_dev=max_conf_dev)


_AXIS = Context(("u",), grading=1)
MIN_TOLERANCE = Fraction(1, 10 ** 10)


def chern_number(tolerance):
    """First Chern number of the double sphere, read from its Kaehler
    metric f |dz|^2.

    By Gauss-Bonnet the curvature over the disc |z| <= R integrates to
    2 pi c1(R) with c1(R) = -R f_u / (2f) at (R, 0), read exactly off f =
    g11 of ``conformal_chart``.  R is the least power of two with 2 - c1(R)
    at most ``tolerance`` (at least ``MIN_TOLERANCE``).  The limit of c1 is
    the ratio of the leading coefficients of u q_u / q; that ratio must
    equal the chart's value at every radius tried, otherwise the limit is
    None (the metric is not the chart the limit was derived for).

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
    f = conformal_chart().g11
    f_u = f.diff(0)
    radius = 1
    while True:
        pt = {"u": radius, "v": 0}
        c1 = -radius * _value(f_u, pt) / (2 * _value(f, pt))
        if c1 != num.eval({"u": radius}) / q.eval({"u": radius}):
            return radius, c1, None
        if 2 - c1 <= tolerance:
            return radius, c1, limit
        radius *= 2
