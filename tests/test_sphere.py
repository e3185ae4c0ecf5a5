"""Tests for the double-sphere specialization: tetrad constants, the
Fresnel reduction, the Einstein checks and the exact Chern number."""

import math
from fractions import Fraction

import pytest

from kummergauss import sphere
from kummergauss.cli import RunConfig, run
from kummergauss.jets import Jet
from kummergauss.rings import Poly, rat
from kummergauss.sphere import (DegenerateTetradError, chern_number,
                                fresnel_quartic, fresnel_reduce,
                                goepel_constants, kahler_conformal_check,
                                kahler_metric_jets, sphere_einstein_check,
                                sphere_metric_jets)
from kummergauss.sphere import _KAHLER_POINTS, _SPHERE_TS
from kummergauss.tensor import (MetricTensor, christoffel, inverse_metric,
                                ricci, riemann, scalar_curvature)


# -- tetrad constants -------------------------------------------------

def test_goepel_witness_constants():
    a, b, c, d = goepel_constants(1, 1, 1, -3)
    assert (a, b, c, d) == (2, 2, 2, 0)


def test_goepel_degenerate_tetrad_raises():
    # alpha^2 delta^2 - beta^2 gamma^2 = 0
    with pytest.raises(DegenerateTetradError):
        goepel_constants(1, 2, 2, 4)


def test_goepel_rational_root_branch():
    a, b, c, d = goepel_constants(rat(1), rat(4), rat(9), rat(16))
    # denominators 16 - 36, 64 - 9, 144 - 4
    assert a == rat(16 + 81 - 1 - 256, -20)
    assert b == rat(81 + 1 - 16 - 256, 55)
    assert c == rat(1 + 16 - 81 - 256, 140)
    root = rat(24)  # sqrt(1 * 4 * 9 * 16)
    assert d == root * (2 - a) * (2 - b) * (2 - c) / rat(30) ** 2


def test_goepel_irrational_root_reported_unavailable():
    a, b, c, d = goepel_constants(1, 1, 2, -3)
    assert d is None


# -- Fresnel reduction ------------------------------------------------

def test_fresnel_unit_axes_is_double_sphere():
    quartic, identity = fresnel_reduce()
    assert identity
    ctx = quartic.ctx
    x = Poly.var(ctx, "x")
    y = Poly.var(ctx, "y")
    z = Poly.var(ctx, "z")
    sphere = x * x + y * y + z * z - Poly.const(ctx, 1)
    assert quartic == sphere * sphere


def test_fresnel_general_axes_expansion():
    q = fresnel_quartic(1, 2, 3)
    assert q.coefficient((4, 0, 0)) == 1
    assert q.coefficient((0, 4, 0)) == 2
    assert q.coefficient((0, 0, 4)) == 3
    assert q.coefficient((2, 0, 0)) == -(2 + 3)  # -a2(b2 + c2) with a2 = 1
    assert q.coefficient((0, 0, 0)) == 6
    assert q.coefficient((2, 2, 0)) == 1 + 2


# -- Einstein checks --------------------------------------------------

def test_sphere_einstein_within_tolerance():
    # theta = 2 atan t spans [1e-3, pi - 1e-3] to 4 digits, equator included
    thetas = [2 * math.atan(t) for t in _SPHERE_TS]
    assert 1 in _SPHERE_TS and len(set(_SPHERE_TS)) == 20
    assert round(min(thetas), 4) == 1e-3
    assert round(max(thetas), 4) == round(math.pi - 1e-3, 4)
    rep = sphere_einstein_check()
    assert rep["points"] == 20
    assert rep["max_einstein_dev"] == 0
    assert rep["max_scalar_dev"] == 0


def test_kahler_einstein_and_conformal_within_tolerance():
    rep = kahler_conformal_check()
    assert rep["points"] == 5
    assert rep["max_einstein_dev"] == 0
    assert rep["max_scalar_dev"] == 0
    assert rep["max_conformal_dev"] == 0


def test_sphere_chart_jets_have_zero_w_part():
    """The sphere charts read every value through ``.a``, which is the
    value only where the w-part is zero: so it is in the metric jets of
    both charts (the Chern radii included), their inverses, and the
    Ricci and scalar-curvature jets."""
    metrics = [sphere_metric_jets(t) for t in _SPHERE_TS] \
        + [kahler_metric_jets(u, v) for u, v in _KAHLER_POINTS] \
        + [kahler_metric_jets(r, 0, order=1) for r in (1, 2, 2048)]
    for g in metrics:
        jets = [g.g11, g.g12, g.g22]
        if g.g11.order > 1:
            ginv = inverse_metric(g)
            ric = ricci(riemann(christoffel(g, ginv)))
            jets += [ginv.g11, ginv.g12, ginv.g22, ric.r11, ric.r12,
                     ric.r22, ric.r21, scalar_curvature(g, ginv, ric)]
        for jet in jets:
            assert not any(jet.data[1])


# -- Chern number -----------------------------------------------------

def c1_from_jets(radius):
    """-R f_u / (2f) at (R, 0) for the conformal factor f of the chart."""
    f = kahler_metric_jets(radius, 0, order=1).g11
    return -radius * f.get(1, 0).a / (2 * f.base.a)


def test_chern_density_from_metric_jets():
    # closed form c1(R) = 2R^2 / (1 + R^2)
    assert c1_from_jets(1) == 1
    assert c1_from_jets(3) == Fraction(9, 5)
    assert c1_from_jets(1000) == Fraction(2000000, 1000001)


def test_chern_number_is_two():
    radius, c1, limit = chern_number(tolerance=1e-6)
    assert limit == 2 and type(limit) is Fraction
    assert 0 < 2 - c1 <= 1e-6
    assert c1 == c1_from_jets(radius)
    # the least power of two: half the radius misses the tolerance
    assert 2 - c1_from_jets(radius // 2) > 1e-6
    assert (radius, c1) == (2048, Fraction(8388608, 4194305))


def test_chern_number_deterministic():
    assert chern_number(tolerance=1e-6) == chern_number(tolerance=1e-6)


def test_chern_meets_tightest_tolerance():
    radius, c1, limit = chern_number(tolerance=1e-10)
    assert limit == 2
    assert 0 < 2 - c1 <= 1e-10
    assert radius == 262144


def test_chern_fails_on_a_metric_off_the_chart(monkeypatch):
    # f = 16/q^4 in place of 4/q^2: c1(R) = 4R^2/(1+R^2) no longer equals
    # u q_u / q, although its remainder at R = 1 is exactly zero
    chart = sphere.kahler_metric_jets

    def squared(u, v, order):
        f = chart(u, v, order).g11
        return MetricTensor(f * f, Jet.constant(f.ring, f.order, 0), f * f)

    monkeypatch.setattr(sphere, "kahler_metric_jets", squared)
    assert chern_number(tolerance=1e-6) == (1, 2, None)
    report, code = run(RunConfig("chern"))
    assert code == 1
    assert report["checks"][0]["status"] == "fail"
    assert report["checks"][0]["limit"] is None


def test_chern_rejects_silly_tolerance():
    for tol in (1e-15, 0, -1, float("nan")):
        with pytest.raises(ValueError):
            chern_number(tolerance=tol)
