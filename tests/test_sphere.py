"""Tests for the double-sphere specialization: tetrad constants, the
Fresnel reduction, the Einstein checks and the exact Chern number."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import kummergauss
from kummergauss import sphere
from kummergauss.cli import RunConfig, run
from kummergauss.rings import Poly, rat
from kummergauss.sphere import (DegenerateTetradError, chern_number,
                                conformal_chart, fresnel_quartic,
                                fresnel_reduce, goepel_constants,
                                kahler_conformal_check, sphere_chart,
                                sphere_einstein_check)
from kummergauss.sphere import _SPHERE_TS, _value
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


@pytest.mark.parametrize("chart", [sphere_chart, conformal_chart])
def test_charts_are_einstein_as_rational_functions(chart):
    """R_ij - g_ij and R - 2 have the zero polynomial as numerator on the
    whole chart, not only at the sample points."""
    g = chart()
    ginv = inverse_metric(g)
    ric = ricci(riemann(christoffel(g, ginv)))
    scal = scalar_curvature(ginv, ric)
    for dev in (ric.r11 - g.g11, ric.r12 - g.g12, ric.r22 - g.g22,
                scal - g.g11.frame.scalar(2)):
        assert dev.num == Poly.zero(dev.num.ctx)


@pytest.mark.parametrize("chart,diagonal", [
    (sphere_chart, ((1, -1), (1, 1))),
    (conformal_chart, ((Fraction(1, 4), -2), (Fraction(1, 4), -2)))],
    ids=["sphere", "conformal"])
def test_derived_inverse_is_the_closed_form(chart, diagonal):
    """The inverse ``inverse_metric`` derives is the closed form each
    chart once stated beside its metric, entry by entry: p and 1/p on the
    sphere, p = 1 - z^2, and q^2 / 4 twice on the conformal chart, each a
    constant over a power of the chart's denominator, and zero off the
    diagonal."""
    ginv = inverse_metric(chart())
    for x, (c, power) in zip((ginv.g11, ginv.g22), diagonal):
        assert x.num == Poly.const(x.num.ctx, c)
        assert (x.sig_pow, x.det_pow) == (power, 0)
    assert ginv.g12.num == Poly.zero(ginv.g12.num.ctx)


def test_conformal_ricci_is_one_term_over_q_squared():
    """R_11 and R_22 of the conformal chart clear to g11 = 4 / q^2 itself:
    the derived inverse's zero off-diagonal sits at q^-4, below every
    term it is summed with, so no Christoffel sum is raised to a higher
    power of q."""
    g = conformal_chart()
    ric = ricci(riemann(christoffel(g, inverse_metric(g))))
    for r in (ric.r11, ric.r22):
        assert (len(r.num.terms), r.sig_pow) == (1, 2)
        assert r.num == g.g11.num


def _rescaled(chart, entry, sig_pow, factor):
    """A mutant of a diagonal chart: metric entry ``entry`` (0 or 1) times
    factor * (denominator)^-sig_pow.  The checks derive the inverse from
    the mutated metric."""
    def mutant():
        g = chart()
        frame = g.g11.frame
        diag = [g.g11, g.g22]
        diag[entry] *= frame.rational(frame.sigma_pow(0).scale(factor),
                                      sig_pow=sig_pow)
        return MetricTensor(diag[0], g.g12, diag[1])
    return mutant


def test_kahler_verify_fails_on_a_wrong_conformal_factor(monkeypatch):
    # g11 = 3/q^2 in place of 4/q^2
    monkeypatch.setattr(sphere, "conformal_chart", _rescaled(
        conformal_chart, 0, 0, Fraction(3, 4)))
    rep = kahler_conformal_check()
    assert rep["max_einstein_dev"] == Fraction(2, 3)
    assert rep["max_scalar_dev"] == Fraction(59, 48)
    assert rep["max_conformal_dev"] == 1
    report, code = run(RunConfig("kahler-verify"))
    assert code == 1
    assert [c["status"] for c in report["checks"]] == ["fail"] * 3


def test_sphere_verify_fails_on_a_wrong_power_in_g_zz(monkeypatch):
    # g_zz = 1/(1 - z^2)^2 in place of 1/(1 - z^2)
    monkeypatch.setattr(sphere, "sphere_chart", _rescaled(
        sphere_chart, 0, 1, 1))
    rep = sphere_einstein_check()
    assert rep["max_einstein_dev"] > 1 and rep["max_scalar_dev"] > 1
    report, code = run(RunConfig("sphere-verify"))
    assert code == 1
    assert [c["status"] for c in report["checks"]] == ["fail"] * 2


def test_constant_factor_on_g_phiphi_is_no_mutant(monkeypatch):
    """3 (1 - z^2) dphi^2 is the round sphere again, with phi rescaled: a
    local isometry, which the Einstein checks rightly pass."""
    monkeypatch.setattr(sphere, "sphere_chart", _rescaled(
        sphere_chart, 1, 0, 3))
    rep = sphere_einstein_check()
    assert rep["max_einstein_dev"] == 0 and rep["max_scalar_dev"] == 0


def test_sphere_module_does_not_import_jets():
    """The double-sphere charts are rational functions; the jets of the
    inversion chart and their ring Q(w) stay out of a fresh interpreter
    that imports them."""
    src = os.path.dirname(os.path.dirname(kummergauss.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, kummergauss.sphere; "
            "print(['kummergauss.jets' in sys.modules, "
            "'kummergauss.quadext' in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False]"


# -- Chern number -----------------------------------------------------

def c1_from_chart(radius):
    """-R f_u / (2f) at (R, 0) for the conformal factor f = g11 of the
    chart."""
    f = conformal_chart().g11
    pt = {"u": Fraction(radius), "v": Fraction(0)}
    return -radius * _value(f.diff(0), pt) / (2 * _value(f, pt))


def test_chern_density_from_metric_jets():
    # closed form c1(R) = 2R^2 / (1 + R^2)
    assert c1_from_chart(1) == 1
    assert c1_from_chart(3) == Fraction(9, 5)
    assert c1_from_chart(1000) == Fraction(2000000, 1000001)


def test_chern_number_is_two():
    radius, c1, limit = chern_number(tolerance=1e-6)
    assert limit == 2 and type(limit) is Fraction
    assert 0 < 2 - c1 <= 1e-6
    assert c1 == c1_from_chart(radius)
    # the least power of two: half the radius misses the tolerance
    assert 2 - c1_from_chart(radius // 2) > 1e-6
    assert (radius, c1) == (2048, Fraction(8388608, 4194305))


def test_chern_number_deterministic():
    assert chern_number(tolerance=1e-6) == chern_number(tolerance=1e-6)


def test_chern_meets_tightest_tolerance():
    radius, c1, limit = chern_number(tolerance=1e-10)
    assert limit == 2
    assert 0 < 2 - c1 <= 1e-10
    assert radius == 262144


def test_chern_density_is_the_axis_closed_form():
    """-u f_u / (2f) = u q_u / q as rational functions on the whole chart,
    cross-multiplied: -u f_u q - 2 f u q_u has the zero numerator."""
    f = conformal_chart().g11
    frame = f.frame
    u = frame.rational(Poly.var(frame.sigma.ctx, "u"))
    q, q_u = frame.rational(frame.sigma), frame.rational(frame.sd(1))
    dev = -(u * f.diff(0) * q) - (f * u * q_u).scale(2)
    assert dev.num == Poly.zero(frame.sigma.ctx)


def test_chern_fails_on_a_metric_off_the_chart(monkeypatch):
    # f = 16/q^4 in place of 4/q^2: c1(R) = 4R^2/(1+R^2) no longer equals
    # u q_u / q, although its remainder at R = 1 is exactly zero
    chart = sphere.conformal_chart

    def squared():
        g = chart()
        f = g.g11
        return MetricTensor(f * f, g.g12, f * f)

    monkeypatch.setattr(sphere, "conformal_chart", squared)
    assert chern_number(tolerance=1e-6) == (1, 2, None)
    report, code = run(RunConfig("chern"))
    assert code == 1
    assert report["checks"][0]["status"] == "fail"
    assert report["checks"][0]["limit"] is None


def test_chern_rejects_silly_tolerance():
    for tol in (1e-15, 0, -1, float("nan")):
        with pytest.raises(ValueError):
            chern_number(tolerance=tol)
