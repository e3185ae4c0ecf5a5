"""Double-sphere specialization: Goepel tetrad constants, the Fresnel
quartic reduction, Einstein-metric verification on the round sphere, the
conformal plane chart and the Chern-number quadrature."""

import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet, NumericRing
from .quadext import rational_sqrt
from .rings import Context, Poly, rat
from .tensor import (MetricTensor, christoffel, inverse_metric, ricci,
                     riemann, scalar_curvature)

POLE_MARGIN = 1e-3


class DegenerateTetradError(ArithmeticError):
    """A Goepel constant denominator vanishes."""


class QuadratureError(ArithmeticError):
    """Panel refinement did not converge within budget."""


@dataclass(frozen=True)
class GoepelInput:
    alpha2: object
    beta2: object
    gamma2: object
    delta2: object

    def squares(self):
        return tuple(rat(x) if isinstance(x, int) else x
                     for x in (self.alpha2, self.beta2, self.gamma2,
                               self.delta2))


def goepel_constants(inp):
    """(A, B, C, D) of the quartic tetrad identity.  D is exact when the
    (2-A)(2-B)(2-C) product vanishes or the tetrad product is a perfect
    square; otherwise it is reported unavailable (None)."""
    a2, b2, c2, d2 = inp.squares()
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
    a2 = rat(a2) if isinstance(a2, int) else a2
    b2 = rat(b2) if isinstance(b2, int) else b2
    c2 = rat(c2) if isinstance(c2, int) else c2
    r2 = x * x + y * y + z * z
    weighted = a2 * x * x + b2 * y * y + c2 * z * z
    middle = (a2 * (b2 + c2) * x * x + b2 * (c2 + a2) * y * y
              + c2 * (a2 + b2) * z * z)
    return r2 * weighted - middle + Poly.const(ctx, a2 * b2 * c2)


def fresnel_reduce(a2=1, b2=1, c2=1):
    """Expanded quartic plus the double-sphere identity check: at unit
    axes the quartic equals (x^2 + y^2 + z^2 - 1)^2 exactly."""
    quartic = fresnel_quartic(a2, b2, c2)
    ctx = _FRESNEL_CTX
    x = Poly.var(ctx, "x")
    y = Poly.var(ctx, "y")
    z = Poly.var(ctx, "z")
    sphere = x * x + y * y + z * z - Poly.const(ctx, 1)
    double_sphere = sphere * sphere
    identity = fresnel_quartic(1, 1, 1) == double_sphere
    return quartic, identity


# -- float-jet charts -------------------------------------------------

# extended precision: the inverse metric near the pole margin reaches
# ~1e6, so binary64 cancellation alone would exceed the 1e-12 targets
_RING = NumericRing(np.longdouble)
_JET_ORDER = 3


def _sin_jet(theta, order=_JET_ORDER):
    """Taylor jet of sin at theta in displacement slot 0."""
    t = np.longdouble(theta)
    s, c = np.sin(t), np.cos(t)
    derivs = [s, c, -s, -c]
    coeffs = {}
    fact = np.longdouble(1.0)
    for k in range(order + 1):
        if k:
            fact *= k
        coeffs[(k, 0)] = derivs[k % 4] / fact
    return Jet(_RING, order, coeffs)


def sphere_metric_jets(theta, order=_JET_ORDER):
    """Round-sphere metric diag(1, sin^2 theta) as analytic jets in
    (theta, phi)."""
    one = Jet.constant(_RING, order, np.longdouble(1.0))
    zero = Jet(_RING, order, {})
    sj = _sin_jet(theta, order)
    return MetricTensor(one, zero, sj * sj)


def kahler_metric_jets(u, v, order=_JET_ORDER):
    """Conformal plane chart 4 (du^2 + dv^2) / (1 + u^2 + v^2)^2 as jets."""
    ju = Jet.coordinate(_RING, order, np.longdouble(u), 0)
    jv = Jet.coordinate(_RING, order, np.longdouble(v), 1)
    f = (ju * ju + jv * jv).add_scalar(1)
    finv = f.inverse()
    conf = (finv * finv).scale(4)
    zero = Jet(_RING, order, {})
    return MetricTensor(conf, zero, conf)


def _jet_chart_report(g):
    ginv = inverse_metric(g)
    ric = ricci(riemann(christoffel(g, ginv)))
    scal = scalar_curvature(g, ginv, ric)
    dev = max(abs(ric.r11.base - g.g11.base),
              abs(ric.r12.base - g.g12.base),
              abs(ric.r22.base - g.g22.base))
    return {"einstein_dev": dev, "scalar": scal.base,
            "ricci": (ric.r11.base, ric.r12.base, ric.r22.base),
            "metric": (g.g11.base, g.g12.base, g.g22.base)}


def sphere_einstein_check(grid=None, n_theta=20, n_phi=20,
                          margin=POLE_MARGIN):
    """Verify R_ij = g_ij and R = 2 on a (theta, phi) grid.

    The metric does not depend on phi, but the grid is walked anyway to
    mirror the chart's domain."""
    if grid is None:
        grid = [(margin + (math.pi - 2 * margin) * i / (n_theta - 1),
                 2 * math.pi * j / n_phi)
                for i in range(n_theta) for j in range(n_phi)]
    max_dev = 0.0
    max_scal_dev = 0.0
    for theta, _phi in grid:
        if not margin <= theta <= math.pi - margin:
            raise ValueError("theta %.3g violates the pole margin" % theta)
        rep = _jet_chart_report(sphere_metric_jets(theta))
        max_dev = max(max_dev, rep["einstein_dev"])
        max_scal_dev = max(max_scal_dev, abs(rep["scalar"] - 2.0))
    return {"points": len(grid), "max_einstein_dev": max_dev,
            "max_scalar_dev": max_scal_dev}


def kahler_conformal_check(points=None):
    """Check the conformal chart is Einstein with R = 2 at sample points
    and that the metric really is the conformal factor times identity."""
    if points is None:
        points = [(0.0, 0.0), (0.5, 1.0 / 3.0), (1.0, 0.0), (-0.7, 0.4),
                  (2.5, -1.25)]
    max_dev = 0.0
    max_scal_dev = 0.0
    max_conf_dev = 0.0
    for u, v in points:
        g = kahler_metric_jets(u, v)
        conf = 4.0 / (1.0 + u * u + v * v) ** 2
        max_conf_dev = max(max_conf_dev, abs(g.g11.base - conf),
                           abs(g.g22.base - conf), abs(g.g12.base))
        rep = _jet_chart_report(g)
        max_dev = max(max_dev, rep["einstein_dev"])
        max_scal_dev = max(max_scal_dev, abs(rep["scalar"] - 2.0))
    return {"points": len(points), "max_einstein_dev": max_dev,
            "max_scalar_dev": max_scal_dev, "max_conformal_dev": max_conf_dev}


def plane_integrand(u, v):
    """Chern-class density (2/pi) / (1 + u^2 + v^2)^2 on the plane."""
    return (2.0 / math.pi) / (1.0 + u * u + v * v) ** 2


def _pairwise_sum(values):
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def chern_number(tolerance=1e-6, gl_order=16, max_panels=1 << 14):
    """First Chern number of the sphere chart by quadrature.

    Polar substitution reduces the plane integral to the radial profile
    2 pi * r / (1+r^2)^2 times the angular average; the half line is
    compactified by r = t / (1 - t) and integrated with Gauss-Legendre
    panels, doubled until successive estimates differ by tolerance/10.
    """
    if tolerance < 1e-10:
        raise ValueError("tolerance must be >= 1e-10")
    nodes, weights = np.polynomial.legendre.leggauss(gl_order)

    def integrand(t):
        r = t / (1.0 - t)
        # 2 pi r / (1+r^2)^2 * (2/pi) * dr/dt
        return 4.0 * r / (1.0 + r * r) ** 2 / (1.0 - t) ** 2

    prev = None
    n = 8
    while n <= max_panels:
        pieces = []
        width = 1.0 / n
        for i in range(n):
            a = i * width
            mid = a + 0.5 * width
            half = 0.5 * width
            pieces.append(half * _pairwise_sum(
                w * integrand(mid + half * x)
                for x, w in zip(nodes, weights)))
        est = _pairwise_sum(pieces)
        if prev is not None and abs(est - prev) < tolerance / 10.0:
            return est
        prev = est
        n *= 2
    raise QuadratureError(
        "no convergence below %g with %d panels (last %.3e)"
        % (tolerance, max_panels, prev))
