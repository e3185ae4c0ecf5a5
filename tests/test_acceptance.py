"""Acceptance gate: the eight headline criteria, one printed pass/fail
line each.  Tolerances are pinned to the stated targets; everything not
given a tolerance is checked in exact arithmetic.

Run standalone with: pytest tests/test_acceptance.py -v -s
"""

import random
from dataclasses import replace
from fractions import Fraction

from kummergauss import reference
from kummergauss.inversion import (ChartBPoint, dz_closed_form,
                                   quartic_check, quartic_identities,
                                   random_admissible_points, ricci_point,
                                   xyz_jets)
from kummergauss.jets import Jet
from kummergauss.quadext import QuadExtContext
from kummergauss.rings import Context, Poly, TruncatedSeries, rat
from kummergauss.sigma import (LAMBDA_NAMES, build_sigma, gauss_metric,
                               kernel_residual, kummer_det, metric_det_inverse,
                               pde_residuals, ricci_hat)
from kummergauss.sphere import (_value, chern_number, fresnel_reduce,
                                goepel_constants, kahler_conformal_check,
                                sphere_chart, sphere_einstein_check)
from kummergauss.tensor import (MetricTensor, christoffel, inverse_metric,
                                riemann)

UV = Context(("u", "v"))
LAMBDA_ZERO = dict.fromkeys(LAMBDA_NAMES, 0)


def lambda_free(series):
    """The lambda = 0 part of a symbolic series, in (u, v)."""
    return series.body.map_context(UV, LAMBDA_ZERO)


def report(num, label, ok):
    print("ACCEPTANCE %d %s: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_criterion_1_quartic_vanishing_orders(frames):
    ok = True
    for level in (3, 5, 7):
        det = kummer_det(frames[level])
        v = det.valuation()
        zero_through = det.known_order if v is None else v - 1
        ok = ok and zero_through >= level + 2
    report(1, "quartic vanishing orders 5/7/9 at levels 3/5/7", ok)


def test_criterion_2_metric_display_regression(frames):
    m = gauss_metric(frames[7])
    dhat, _ = metric_det_inverse(m)
    ok = (lambda_free(m.ghat11) == reference.GHAT11_FREE
          and lambda_free(m.ghat12) == reference.GHAT12_FREE
          and lambda_free(m.ghat22) == reference.GHAT22_FREE
          and lambda_free(dhat) == reference.DHAT_FREE)
    report(2, "metric and determinant lambda-free displays", ok)


def test_criterion_3_ricci_fingerprints(frames):
    ok = True
    for level in (3, 5, 7):
        rep = frames[level].cleared_ricci
        for name in ("R11", "R12", "R22"):
            deg, target = reference.RICCI_LOWEST[name]
            free = lambda_free(rep[name])
            ok = ok and free.valuation() == deg
            ok = ok and free.homogeneous_part(deg) == target
        ok = ok and rep["ricci_symmetry_ok"]
    # fast specialized run as well
    rep0 = ricci_hat(build_sigma(3, lambdas=(0, 0, 0, 0, 0)))
    for name in ("R11", "R12", "R22"):
        deg, target = reference.RICCI_LOWEST[name]
        lowest_deg, lowest = rep0[name].lowest_terms()
        ok = ok and lowest_deg == deg
        ok = ok and lowest == target
    report(3, "Ricci lowest-term fingerprints, all levels", ok)


def test_criterion_4_pde_and_kernel_residuals(frames):
    ok = True
    for level in (3, 5, 7):
        for r in pde_residuals(frames[level]):
            v = r.num.valuation()
            ok = ok and (v is None or v > level)
        for r in kernel_residual(frames[level]):
            v = r.num.valuation()
            ok = ok and (v is None or v > level)
    zero = build_sigma(3, lambdas=(0, 0, 0, 0, 0))
    for r in pde_residuals(zero) + kernel_residual(zero):
        ok = ok and r.num.body.is_zero()
    report(4, "wp equations and kernel residuals", ok)


def test_criterion_5_inversion_chart():
    ok = True
    # fixed witnesses
    w = ChartBPoint(1, 4)
    _, _, Z, _ = xyz_jets(w)
    ok = ok and Z.base.rational_value() == rat(16, 9)
    _, _, Z2, _ = xyz_jets(ChartBPoint(1, 4, sign2=-1))
    ok = ok and Z2.base.rational_value() == 16
    w2 = ChartBPoint(1, 2, lambdas=(1, 0, 0, 0, 0))
    for p in (w, ChartBPoint(1, 4, sign2=-1), w2):
        ok = ok and quartic_check(p).is_zero()
    # the quartic for symbolic lambda on both sheets, as one identity
    ok = ok and quartic_identities()["wp11"][1].is_zero()
    # 20 random points: derivative cross-check
    points = random_admissible_points(20260803, 20)
    for p in points:
        _, _, Zj, _ = xyz_jets(p)
        dz1, dz2 = dz_closed_form(p)
        ok = ok and (Zj.get(1, 0) - dz1).is_zero()
        ok = ok and (Zj.get(0, 1) - dz2).is_zero()
    # Ricci exactly nonzero at five of them
    for p in points[:5]:
        rep = ricci_point(p)
        for key in ("R11", "R12", "R22"):
            ok = ok and not rep[key].is_zero()
    report(5, "inversion chart witnesses, quartic, dz, nonzero Ricci", ok)


def test_criterion_6_diagonal_discrepancy():
    w = ChartBPoint(1, 4)
    adopted = quartic_check(w, variant="wp11")
    other = quartic_check(w, variant="wp22")
    ok = adopted.is_zero() and not other.is_zero()
    ok = ok and quartic_identities()["wp11"][1].is_zero()
    ok = ok and not quartic_identities()["wp22"][1].is_zero()
    report(6, "adopted diagonal passes, printed variant fails", ok)


def test_criterion_7_sphere_suite():
    sph = sphere_einstein_check()
    kah = kahler_conformal_check()
    _, c1, limit = chern_number(tolerance=1e-6)
    goe = goepel_constants(1, 1, 1, -3)
    _, fresnel_ok = fresnel_reduce()
    ok = (sph["points"] == 20
          and sph["max_einstein_dev"] == 0
          and sph["max_scalar_dev"] == 0
          and kah["max_einstein_dev"] == 0
          and kah["max_scalar_dev"] == 0
          and kah["max_conformal_dev"] == 0
          and limit == 2
          and 0 < 2 - c1 <= 1e-6
          and goe == (2, 2, 2, 0)
          and fresnel_ok)
    report(7, "sphere Einstein, Kaehler, Chern, tetrad, Fresnel", ok)


def test_criterion_8_property_suites():
    ok = True
    ctx = Context(("u", "v"), grading=2)
    rng = random.Random(20260824)

    def rand_poly():
        items = []
        for _ in range(rng.randint(0, 5)):
            exps = (rng.randint(0, 4), rng.randint(0, 4))
            items.append((exps, rat(rng.randint(-9, 9), rng.randint(1, 9))))
        return Poly.from_terms(ctx, items)

    # ring, Leibniz and order-propagation laws: 1000 randomized cases
    for _ in range(1000):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and p * (q + r) == p * q + p * r
        ok = ok and (p * q).diff("u") == p.diff("u") * q + p * q.diff("u")
        sp, sq = TruncatedSeries(p, 6), TruncatedSeries(q, 6)
        s = sp * sq
        vp, vq = sp.valuation(), sq.valuation()
        if vp is not None and vq is not None:
            ok = ok and s.known_order == min(6 + vq, 6 + vp)

    # sigma parity under (u, v) -> (-u, -v)
    sp = build_sigma(7).sigma_poly
    flipped = Poly(sp.ctx, {k: (c if sp.ctx.grading_degree(k) % 2 else -c)
                            for k, c in sp.items()})
    ok = ok and flipped == sp

    # chart swap symmetry of the induced metric diagonal
    for p in random_admissible_points(31, 3):
        g, _ = p.metric
        gs, _ = replace(p, x1=p.x2, x2=p.x1).metric
        ok = ok and g.g11.base.a == gs.g22.base.a
        ok = ok and g.g22.base.a == gs.g11.base.a

    # the lowered curvature block g_{ac} R^c_{b01} is antisymmetric in
    # (a, b), exactly, on a rational chart with three distinct entries
    exact = QuadExtContext(1, 1)
    ju = Jet.coordinate(exact, 3, Fraction(2, 5), 0)
    jv = Jet.coordinate(exact, 3, Fraction(-1, 5), 1)
    w = (ju * ju + jv * jv).add_scalar(1)
    g = MetricTensor((w * w).inverse().scale(4), (ju * jv).add_scalar(1), w)
    block = riemann(christoffel(g, inverse_metric(g)))
    low = {(a, b): g.comp(a, 0) * block[0, b] + g.comp(a, 1) * block[1, b]
           for a in range(2) for b in range(2)}
    for jet in (low[0, 0], low[1, 1], low[0, 1] + low[1, 0]):
        ok = ok and jet.coeffs == {}

    # the exact sphere Christoffel symbols at z = cos(2 atan(1/2)) = 3/5
    # against finite differences, step 1e-5
    g = sphere_chart()
    gam = christoffel(g, inverse_metric(g))
    z, h = Fraction(3, 5), 1e-5
    fd = ((1 - (z + h) ** 2) - (1 - (z - h) ** 2)) / (2 * h)
    p = float(1 - z * z)
    # Gamma^phi_{z phi} = g^{phi phi} (d_z g_{phi phi}) / 2
    ok = ok and abs(float(_value(gam[1, 0, 1], {"z": z})) - fd / (2 * p)) \
        < 1e-6
    # Gamma^z_{phi phi} = -g^{zz} (d_z g_{phi phi}) / 2
    ok = ok and abs(float(_value(gam[0, 1, 1], {"z": z})) + p * fd / 2) \
        < 1e-6

    report(8, "property suites: ring laws, parity, symmetry, curvature", ok)
