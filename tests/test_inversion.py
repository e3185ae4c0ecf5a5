"""Tests for the symmetric-function chart over the hyperelliptic curve:
witness values, the quartic as one identity in symbolic lambda on both
sheets, closed-form derivatives against jets, symmetry of the induced
metric, and the Ricci values against the Gauss curvature of the chart's
second fundamental form."""

from dataclasses import replace

import pytest

from kummergauss import inversion
from kummergauss.inversion import (AdmissibilityError, ChartBPoint,
                                   SingularPointError, chart_F,
                                   dz_closed_form, f5_scalar, quartic_check,
                                   quartic_identity, random_admissible_points,
                                   ricci_point, xyz_jets)
from kummergauss.jets import Jet
from kummergauss.quadext import QuadExtContext
from kummergauss.rings import Context, Poly, rat
from kummergauss.sigma import LAMBDA_NAMES
from kummergauss.tensor import MetricTensor

W = ChartBPoint(1, 4)
RING = Context(("x1", "x2") + LAMBDA_NAMES)
LAM = (rat(1, 2), rat(-3), rat(2, 7), rat(5), rat(-1))
LIFT_LAMBDAS = pytest.mark.parametrize(
    "lambdas", [(0, 0, 0, 0, 0), LAM], ids=["zero", "lam"])


# -- admissibility ----------------------------------------------------

def test_equal_coordinates_rejected():
    with pytest.raises(AdmissibilityError):
        ChartBPoint(3, 3).check_admissible()


def test_curve_branch_point_rejected():
    # f5(0) = 0 when l0 = 0
    with pytest.raises(AdmissibilityError):
        ChartBPoint(0, 2).check_admissible()


def test_bad_signs_rejected():
    with pytest.raises(ValueError):
        ChartBPoint(1, 2, sign1=2)


def test_f5_witness_values():
    lam0 = (rat(0),) * 5
    assert f5_scalar(rat(1), lam0) == 4
    assert f5_scalar(rat(4), lam0) == 4096
    x = Poly.var(RING, "x1")
    assert f5_scalar(x, lam0).diff("x1").eval({"x1": 1}) == 20


def test_chart_F_is_one_formula_on_every_ring():
    """Rationals, rational jets in Q(w) and chart-ring polynomials give
    the same F and the same first derivatives."""
    lam = (rat(1, 2), rat(-3), rat(2, 7), rat(5), rat(-1))
    a, b = rat(3, 5), rat(-7, 2)
    assert chart_F(rat(1), rat(4), (rat(0),) * 5) == 320  # Z = 64/36
    ring = QuadExtContext(2, 3)
    jet = chart_F(Jet.coordinate(ring, 1, a, 0),
                  Jet.coordinate(ring, 1, b, 1), lam)
    x1, x2, *lv = [Poly.var(RING, name) for name in RING.names]
    poly = chart_F(x1, x2, lv)
    at = dict(zip(("x1", "x2") + LAMBDA_NAMES, (a, b) + lam))
    assert jet.base == poly.eval(at) == chart_F(a, b, lam)
    assert jet.get(1, 0) == poly.diff("x1").eval(at)
    assert jet.get(0, 1) == poly.diff("x2").eval(at)


# -- witness values ---------------------------------------------------

def test_witness_xyz():
    X, Y, Z, lifted = xyz_jets(W)
    assert X.base.rational_value() == 5
    assert Y.base.rational_value() == -4
    assert Z.base.rational_value() == rat(16, 9)
    assert lifted["y1y2"].base.rational_value() == 2 * 64
    # the y1 y2 jet really is a square root of f5(x1) f5(x2) along the
    # lift, through JET_ORDER, on both sheets and with nonzero moduli
    n = inversion.JET_ORDER
    for lambdas in ((0, 0, 0, 0, 0), LAM):
        points = [replace(W, lambdas=lambdas)] \
            + random_admissible_points(11, 4, lambdas=lambdas)
        for p in points + [replace(q, sign2=-1) for q in points]:
            _, _, _, lifted = xyz_jets(p)
            jw = lifted["y1y2"]
            want = f5_scalar(lifted["x1"], lambdas) \
                * f5_scalar(lifted["x2"], lambdas)
            square = jw * jw
            assert square.order == want.order == n
            assert all(square.get(i, j) == want.get(i, j)
                       for i in range(n + 1) for j in range(n + 1 - i)), p


def test_witness_other_sheet():
    _, _, Z, _ = xyz_jets(replace(W, sign1=-1, sign2=-1))
    assert Z.base.rational_value() == rat(16, 9)  # both signs flipped: same Z
    _, _, Z2, _ = xyz_jets(ChartBPoint(1, 4, sign2=-1))
    assert Z2.base.rational_value() == 16


def test_witness_dz_closed_form():
    dz1, dz2 = dz_closed_form(W)
    assert dz1.rational_value() == rat(80, 27)


def test_witness_metric_entry():
    g, _ = W.metric
    assert g.g11.base.rational_value() == rat(18793, 729)


def test_second_witness_on_quartic():
    p = ChartBPoint(1, 2, lambdas=(1, 0, 0, 0, 0))
    assert quartic_check(p).is_zero()


# -- the quartic as an identity ----------------------------------------

def test_quartic_identity_holds_on_both_sheets():
    """D^4 det K is a nonzero polynomial that reduces to 0 modulo
    y_i^2 = f5(x_i): det K vanishes for every lambda and sign choice."""
    det, reduced = quartic_identity()
    assert len(det.terms) == 189
    assert reduced.is_zero()


def test_wp22_identity_is_det_k_on_both_sheets():
    """The printed variant leaves a nonzero normal form, and its value at
    the witness is D^4 times the pointwise det K on each sheet."""
    det, reduced = quartic_identity("wp22")
    assert (len(det.terms), len(reduced.terms)) == (283, 264)
    d4 = (4 * (1 - 4) ** 2) ** 4
    for sign2 in (1, -1):
        at = {"x1": 1, "x2": 4, "y1": 2, "y2": 64 * sign2,
              **dict.fromkeys(LAMBDA_NAMES, 0)}
        point = ChartBPoint(1, 4, sign2=sign2)
        value = quartic_check(point, variant="wp22").rational_value()
        assert value != 0
        assert reduced.eval(at) == det.eval(at) == d4 * value


def test_quartic_identity_catches_a_wrong_F(monkeypatch):
    """One lambda term of F changed breaks the identity."""
    orig = inversion.chart_F
    monkeypatch.setattr(inversion, "chart_F",
                        lambda x1, x2, lam: orig(x1, x2, lam) + lam[0])
    _, reduced = quartic_identity()
    assert not reduced.is_zero()


def test_quartic_zero_with_nonzero_moduli():
    lams = (rat(1), rat(0), rat(-2), rat(1, 2), rat(3))
    for p in random_admissible_points(7, 5, lambdas=lams):
        assert quartic_check(p).is_zero(), p


def test_wrong_diagonal_variant_fails_at_witness():
    val = quartic_check(W, variant="wp22")
    assert not val.is_zero()
    assert quartic_check(W, variant="wp11").is_zero()


# -- derivatives: jets vs closed form ---------------------------------

def test_dz_closed_form_matches_jets_at_random_points():
    for p in random_admissible_points(13, 20):
        _, _, Z, _ = xyz_jets(p)
        dz1, dz2 = dz_closed_form(p)
        assert (Z.get(1, 0) - dz1).is_zero(), p
        assert (Z.get(0, 1) - dz2).is_zero(), p


def test_dz_closed_form_matches_jets_with_moduli():
    lams = (rat(2), rat(-1), rat(0), rat(1), rat(1, 3))
    for p in random_admissible_points(5, 5, lambdas=lams):
        _, _, Z, _ = xyz_jets(p)
        dz1, dz2 = dz_closed_form(p)
        assert (Z.get(1, 0) - dz1).is_zero()
        assert (Z.get(0, 1) - dz2).is_zero()


# -- metric and Ricci -------------------------------------------------

def _swap_eq(a, b):
    """Equality across the coordinate swap: the swapped point lives in the
    ring with c1 and c2 exchanged, and w = y1 y2 is symmetric under the
    swap, so both parts agree."""
    return (a.ctx.c1 == b.ctx.c2 and a.ctx.c2 == b.ctx.c1
            and a.a == b.a and a.d == b.d)


@LIFT_LAMBDAS
def test_metric_is_the_closed_form_at_the_base(lambdas):
    """The metric the lift's (X, Y, Z) induces has, at the base point, the
    Gram entries of S_1 = (1, -x2, Z_1) and S_2 = (1, -x1, Z_2), with
    Z_i from the jet-free ``dz_closed_form``, on both sheets."""
    points = [replace(W, lambdas=lambdas)] \
        + random_admissible_points(11, 4, lambdas=lambdas)
    for p in points + [replace(q, sign2=-1) for q in points]:
        g, _ = p.metric
        ctx = p.roots[0]
        dz1, dz2 = dz_closed_form(p)
        x1, x2 = p.x1, p.x2
        want = (dz1 * dz1 + ctx.rational(1 + x2 * x2),
                dz1 * dz2 + ctx.rational(1 + x1 * x2),
                dz2 * dz2 + ctx.rational(1 + x1 * x1))
        for entry, value in zip((g.g11, g.g12, g.g22), want):
            assert (entry.base - value).is_zero(), p


def test_metric_swap_covariance():
    """Swapping (x1, x2) swaps the metric diagonal and keeps g12."""
    for p in random_admissible_points(31, 5):
        g, _ = p.metric
        gs, _ = replace(p, x1=p.x2, x2=p.x1).metric
        assert _swap_eq(g.g11.base, gs.g22.base)
        assert _swap_eq(g.g22.base, gs.g11.base)
        assert _swap_eq(g.g12.base, gs.g12.base)


def test_metric_sheet_symmetry():
    """Flipping both branch signs leaves the metric unchanged."""
    for p in random_admissible_points(17, 5):
        g, _ = p.metric
        gf, _ = replace(p, sign1=-1, sign2=-1).metric
        assert g.g11.base == gf.g11.base
        assert g.g12.base == gf.g12.base
        assert g.g22.base == gf.g22.base


def test_ricci_nonzero_at_random_points():
    for p in random_admissible_points(42, 6):
        rep = ricci_point(p)
        for key in ("R11", "R12", "R22"):
            assert not rep[key].is_zero(), (p, key)
        assert (rep["R12"] - rep["R21"]).is_zero()


def test_ricci_point_rejects_a_singular_metric(monkeypatch):
    """Where det g is not invertible at the base point, ricci_point raises
    SingularPointError in place of the ring's NonInvertibleError."""
    real = inversion.inverse_metric
    # g12 = g22 = g11 makes det g the zero jet
    monkeypatch.setattr(inversion, "inverse_metric",
                        lambda g: real(MetricTensor(g.g11, g.g11, g.g11)))
    with pytest.raises(SingularPointError):
        ricci_point(ChartBPoint(1, 4))


def test_random_points_deterministic():
    a = random_admissible_points(123, 6)
    b = random_admissible_points(123, 6)
    assert [(p.x1, p.x2) for p in a] == [(p.x1, p.x2) for p in b]


def test_lift_point_respects_order():
    _, _, _, lifted = xyz_jets(W)
    assert lifted["y1y2"].order == inversion.JET_ORDER
    assert lifted["x1"].get(1, 0) == lifted["x1"].ring.one


def test_points_share_one_extension():
    """The lift and the closed-form dZ read the point's one context."""
    p = ChartBPoint(rat(2, 3), rat(-5, 7))
    ctx = p.roots[0]
    assert p.lift[2].base.ctx is ctx
    assert all(d.ctx is ctx for d in dz_closed_form(p))


# -- Ricci against the theorema egregium ------------------------------

def egregium(p):
    """Gauss curvature K and the metric (E, F, G) from the second
    fundamental form of S = (x1 + x2, -x1 x2, Z), read off the point's
    lift alone.  With S_1 = (1, -x2, Z_1), S_2 = (1, -x1, Z_2) and the
    unnormalised normal S_1 x S_2 = (x1 Z_1 - x2 Z_2, Z_1 - Z_2, d),
    d = x2 - x1: L = Z_11 d, M = Z_12 d - (Z_1 - Z_2), N = Z_22 d, and
    |S_1 x S_2|^2 = EG - F^2, so K = (LN - M^2) / (EG - F^2)^2."""
    Z = p.lift[2]
    one = Z.ring.one
    z1, z2 = Z.get(1, 0), Z.get(0, 1)
    z11, z12, z22 = Z.get(2, 0).scale(2), Z.get(1, 1), Z.get(0, 2).scale(2)
    x1, x2 = p.x1, p.x2
    d = x2 - x1
    E = z1 * z1 + one.scale(1 + x2 * x2)
    F = z1 * z2 + one.scale(1 + x1 * x2)
    G = z2 * z2 + one.scale(1 + x1 * x1)
    L, M, N = z11.scale(d), z12.scale(d) - (z1 - z2), z22.scale(d)
    area = E * G - F * F
    return (L * N - M * M) * (area * area).inv(), (E, F, G)


def _riemann_sign_mutant(gam):
    """``tensor.riemann`` with the sign of one Gamma.Gamma term flipped."""
    block = {}
    for a in range(2):
        for b in range(2):
            val = gam[a, b, 1].diff(0) - gam[a, b, 0].diff(1)
            for tau in range(2):
                val = val + gam[a, tau, 0] * gam[tau, b, 1]
                val = val + gam[a, tau, 1] * gam[tau, b, 0]
            block[a, b] = val
    return block


def _ricci_is_k_times_metric(p):
    K, (E, F, G) = egregium(p)
    rep = ricci_point(p)
    return K, (rep["R11"], rep["R12"], rep["R21"], rep["R22"]) \
        == (K * E, K * F, K * F, K * G)


@LIFT_LAMBDAS
def test_ricci_equals_gauss_curvature_times_metric(lambdas):
    """In two dimensions R_ij = K g_ij, with K from the extrinsic
    geometry of the chart: an exact oracle for the whole Christoffel,
    Riemann and Ricci pipeline, and K != 0 (not Ricci flat)."""
    for p in random_admissible_points(7, 6, lambdas=lambdas):
        K, ok = _ricci_is_k_times_metric(p)
        assert ok, p
        assert not K.is_zero(), p


def test_egregium_oracle_catches_a_riemann_sign(monkeypatch):
    monkeypatch.setattr(inversion, "riemann", _riemann_sign_mutant)
    for lambdas in ((0, 0, 0, 0, 0), LAM):
        points = random_admissible_points(7, 6, lambdas=lambdas)
        assert not any(_ricci_is_k_times_metric(p)[1] for p in points)
