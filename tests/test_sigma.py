"""Tests for the sigma-series chart: expansion coefficients, the log
derivatives and their differential equations, the quartic kernel and the
cleared Ricci components."""

import random

import pytest

from kummergauss import reference, rings, sigma
from kummergauss.rings import Context, Poly, rat
from kummergauss.sigma import (LAMBDA_NAMES, QuotientFrame, SigmaRational,
                               SigmaSeries, build_sigma, gauss_metric,
                               kernel_residual, kummer_det, kummer_matrix,
                               metric_det_inverse, pde_residuals, ricci_hat,
                               wp2, wp3)
from kummergauss.tensor import MetricTensor, det4

UV = Context(("u", "v"))
LAMBDA_ZERO = dict.fromkeys(LAMBDA_NAMES, 0)


def lambda_free(series):
    """The lambda = 0 part of a symbolic series, in (u, v)."""
    return series.body.map_context(UV, LAMBDA_ZERO)


def wp22_det(s):
    """sigma^8 det K with the printed -l2 - 4 wp22 diagonal entry."""
    m = kummer_matrix(s.moduli, *s.xyz, s.scalar(2), s.scalar(0), "wp22")
    return det4(m).to_powers(8, 0).num


def coeff(poly, u, v, **lams):
    exps = dict(lams, u=u, v=v)
    return poly.coefficient(tuple(exps.get(n, 0) for n in poly.ctx.names))


# -- the expansion itself ---------------------------------------------

def test_sigma_collapses_at_zero_moduli():
    for level in (3, 5, 7):
        s = build_sigma(level, lambdas=(0, 0, 0, 0, 0))
        u = Poly.var(s.ctx, "u")
        v = Poly.var(s.ctx, "v")
        assert s.sigma_poly == u - v ** 3 * rat(1, 3)


def test_sigma_level_checked():
    with pytest.raises(ValueError):
        build_sigma(4)
    with pytest.raises(ValueError):
        SigmaSeries(3, lambdas=(1, 2, 3))


def test_symbolic_cubic_coefficients():
    s = build_sigma(3)
    p = s.sigma_poly
    assert coeff(p, 1, 0) == 1
    assert coeff(p, 0, 3) == rat(-1, 3)
    assert coeff(p, 3, 0, l2=1) == rat(1, 24)


def test_symbolic_quintic_coefficients():
    p = build_sigma(5).sigma_poly
    # -(1/120) * 10 l0 u^4 v and the u^5 block
    assert coeff(p, 4, 1, l0=1) == rat(-1, 12)
    assert coeff(p, 3, 2, l1=1) == rat(-1, 24)
    assert coeff(p, 2, 3, l2=1) == rat(-1, 24)
    assert coeff(p, 1, 4, l3=1) == rat(-1, 48)
    assert coeff(p, 0, 5, l4=1) == rat(-1, 60)
    assert coeff(p, 5, 0, l0=1, l4=1) == rat(-1, 240)
    assert coeff(p, 5, 0, l1=1, l3=1) == rat(1, 960)
    assert coeff(p, 5, 0, l2=2) == rat(1, 1920)


def test_symbolic_septic_coefficients():
    p = build_sigma(7).sigma_poly
    # k = 0 term: v^7 (-l3 - 2 l4^2) / 5040
    assert coeff(p, 0, 7, l3=1) == rat(-1, 5040)
    assert coeff(p, 0, 7, l4=2) == rat(-2, 5040)
    # k = 7 term carries the cubic-in-lambda block over 5040
    assert coeff(p, 7, 0, l2=3) == rat(1, 64 * 5040)
    assert coeff(p, 7, 0, l0=1, l2=1, l4=1) == rat(-15, 8 * 5040)
    # k = 6: binom 7, h6 = -11/2 l0 l2 + l1^2
    assert coeff(p, 6, 1, l0=1, l2=1) == rat(-77, 2 * 5040)
    assert coeff(p, 6, 1, l1=2) == rat(7, 5040)


def test_lambda_specialization_matches_symbolic_eval():
    lams = (rat(1), rat(-2), rat(1, 2), rat(3), rat(0))
    sym = build_sigma(7).sigma_poly
    specialized = build_sigma(7, lambdas=lams)
    mapped = sym.map_context(specialized.ctx,
                             {n: lams[i] for i, n in
                              enumerate(("l0", "l1", "l2", "l3", "l4"))})
    assert mapped == specialized.sigma_poly


# Buchstaber-Enolski-Leykin weights of (u, v, l0, ..., l4)
WEIGHTS = (3, 1) + tuple(2 * i - 10 for i in range(5))


def weights(poly):
    """The set of weights of the terms of a symbolic polynomial."""
    return {sum(w * e for w, e in zip(WEIGHTS, poly.ctx.unpack(k)))
            for k in poly.terms}


def test_sigma_has_weight_three():
    for level in (3, 5, 7):
        assert weights(build_sigma(level).sigma_poly) == {3}


@pytest.mark.parametrize("level,order", [(3, 16), (7, 12)])
def test_stage_weights(level, order):
    """Every stage up to the kernel, built from a weight-3 sigma, is
    weight homogeneous: the wp2 and wp3 numerators, the PDE residuals over
    sigma^4, and sigma^8 det K with the adopted wp11 entry.  The printed
    wp22 entry mixes two weights.  The Euclidean metric sums products of
    tangent entries 2 apart in weight (ghat11 = wp221^2 + wp211^2 +
    wp111^2 has 8, 4 and 0), so the metric, Dhat and the cleared Ricci
    each carry weights 4 apart."""
    s = build_sigma(level, order=order)
    assert [weights(w.num.body) for w in s.xyz] == [{4}, {2}, {0}]
    assert [weights(w.num.body) for w in s.wp3s] == [{6}, {4}, {2}, {0}]
    assert [weights(r.num.body) for r in pde_residuals(s)] \
        == [{8}, {6}, {4}, {2}, {0}]
    assert weights(kummer_det(s).body) == {8}
    assert weights(wp22_det(s).body) == {8, 12}
    m = s.metric
    assert [weights(g.body) for g in (m.ghat11, m.ghat12, m.ghat22)] \
        == [{0, 4, 8}, {2, 6, 10}, {4, 8, 12}]
    assert weights(s.dhat.body) == {8, 12, 16}
    assert [weights(s.cleared_ricci[k].body) for k in ("R11", "R12", "R22")] \
        == [{20, 24, 28}, {22, 26, 30}, {24, 28, 32}]


def test_sigma_parity():
    """sigma is odd under (u, v) -> (-u, -v)."""
    for level in (3, 5, 7):
        p = build_sigma(level).sigma_poly
        flipped = Poly(p.ctx, {k: (c if p.ctx.grading_degree(k) % 2
                                   else -c)
                               for k, c in p.items()})
        assert flipped == p


# -- log derivatives --------------------------------------------------

def test_wp2_at_zero_moduli():
    """sigma = u - v^3/3: sigma_u = 1, sigma_v = -v^2, sigma_vv = -2v."""
    s = build_sigma(3, lambdas=(0, 0, 0, 0, 0))
    u = Poly.var(s.ctx, "u")
    v = Poly.var(s.ctx, "v")
    assert wp2(s, 11).num.body == Poly.const(s.ctx, 1)
    assert wp2(s, 21).num.body == -(v * v)
    assert wp2(s, 22).num.body == 2 * u * v + v ** 4 * rat(1, 3)


def test_wp3_matches_derivative_of_wp2():
    """The displayed cubic numerators agree with d(wp2)/du, d/dv."""
    s = build_sigma(7)
    pairs = [("222", wp2(s, 22).diff(1)), ("221", wp2(s, 22).diff(0)),
             ("211", wp2(s, 21).diff(0)), ("111", wp2(s, 11).diff(0))]
    for key, via_diff in pairs:
        delta = wp3(s, key) - via_diff
        assert delta.is_zero_through(), key


def test_wp3_rejects_unknown_index():
    with pytest.raises(ValueError):
        wp3(build_sigma(3), "121")


def test_wp_parity():
    """sigma is odd, so the cleared wp2 and wp3 numerators are both even
    under (u, v) -> (-u, -v)."""
    s = build_sigma(5)
    for ij in (22, 21, 11):
        p = wp2(s, ij).num.body
        assert all(p.ctx.grading_degree(k) % 2 == 0 for k in p.terms)
    for ijk in ("222", "221", "211", "111"):
        p = wp3(s, ijk).num.body
        assert all(p.ctx.grading_degree(k) % 2 == 0 for k in p.terms)


# -- differential equations -------------------------------------------

def test_pde_residuals_exactly_zero_at_zero_moduli():
    s = build_sigma(3, lambdas=(0, 0, 0, 0, 0))
    for r in pde_residuals(s):
        assert r.num.body.is_zero()


def test_pde_residuals_vanish_through_level_symbolically():
    for level in (3, 5, 7):
        for r in pde_residuals(build_sigma(level)):
            v = r.num.valuation()
            assert v is not None and v == level + 1


def test_pde_residuals_catch_a_corrupted_sigma(monkeypatch):
    plain = sigma._sigma_poly

    def corrupted(ctx, lam, level):
        return plain(ctx, lam, level) + Poly.var(ctx, "v") ** 3 * rat(1, 7)
    monkeypatch.setattr(sigma, "_sigma_poly", corrupted)
    bad = SigmaSeries(3, lambdas=(0, 0, 0, 0, 0))
    rs = pde_residuals(bad)
    assert any(not r.num.body.is_zero() for r in rs)


def test_kernel_residual_orders():
    for level in (3, 5, 7):
        rows = kernel_residual(build_sigma(level))
        vals = [r.num.valuation() for r in rows]
        assert vals[:3] == [level + 1] * 3
        assert vals[3] > level + 2  # last row vanishes even further


def test_kernel_residual_exactly_zero_at_zero_moduli():
    for r in kernel_residual(build_sigma(3, lambdas=(0, 0, 0, 0, 0))):
        assert r.num.body.is_zero()


# -- the quartic ------------------------------------------------------

def test_kummer_det_zero_at_zero_moduli():
    det = kummer_det(build_sigma(3, lambdas=(0, 0, 0, 0, 0)))
    assert det.body.is_zero()


def test_kummer_det_vanishing_order_grows_with_level():
    firsts = []
    for level in (3, 5, 7):
        det = kummer_det(build_sigma(level))
        firsts.append(det.valuation())
        assert det.valuation() == level + 3  # zero through level + 2
    assert firsts == sorted(firsts)


def test_kernel_matrix_is_built_once_per_frame(monkeypatch):
    """kummer_det and kernel_residual read the frame's one kernel matrix."""
    calls = []
    plain = sigma.kummer_matrix

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(sigma, "kummer_matrix", counted)
    lam = (rat(1, 2), rat(-3), rat(2, 7), rat(5), rat(-1))
    s = build_sigma(5, lambdas=lam)
    for stage in (kummer_det, kernel_residual, kummer_det):
        stage(s)
    assert len(calls) == 1


def test_kummer_det_alternative_diagonal_fails_in_series():
    """The -l2 - 4 wp22 diagonal variant does not vanish order by order;
    only the adopted wp11 form does."""
    det = wp22_det(build_sigma(5))
    assert det.valuation() == 4  # stuck at low degree, far below level + 2
    assert lambda_free(det).valuation() == 4


# -- metric, determinant, Ricci ---------------------------------------

def test_metric_displays_match_reference():
    s = build_sigma(7)
    m = gauss_metric(s)
    assert lambda_free(m.ghat11) == reference.GHAT11_FREE
    assert lambda_free(m.ghat12) == reference.GHAT12_FREE
    assert lambda_free(m.ghat22) == reference.GHAT22_FREE
    dhat, _ = metric_det_inverse(m)
    assert lambda_free(dhat) == reference.DHAT_FREE


def test_metric_inverse_is_inverse():
    s = build_sigma(5)
    m = gauss_metric(s)
    _, ginv = metric_det_inverse(m)
    g = m.tensor
    one = g.g11 * ginv.g11 + g.g12 * ginv.g12
    off = g.g11 * ginv.g12 + g.g12 * ginv.g22
    assert (one - s.scalar(1)).is_zero_through()
    assert off.is_zero_through()


def test_quotient_inverse_takes_constant_numerators_only():
    """A constant ``Poly`` numerator inverts to its reciprocal over the
    negated powers; a series numerator (even the constant 1), a
    non-constant ``Poly`` and zero raise ``ArithmeticError``."""
    one, u = Poly.const(UV, 1), Poly.var(UV, "u")
    frame = QuotientFrame(one, one + u * u)
    x = frame.rational(one.scale(rat(-3, 4)), sig_pow=2, det_pow=-1)
    inv = x.inverse()
    assert inv.num == Poly.const(UV, rat(-4, 3))
    assert (inv.sig_pow, inv.det_pow) == (-2, 1)
    prod = x * inv
    assert (prod.num, prod.sig_pow, prod.det_pow) == (one, 0, 0)
    s = build_sigma(3)
    for bad in (s.scalar(1), s.rational(s.sigma, sig_pow=1),
                frame.rational(u, sig_pow=1), frame.scalar(0)):
        with pytest.raises(ArithmeticError):
            bad.inverse()


def test_metric_det_inverse_writes_nothing():
    s = build_sigma(3)
    m = gauss_metric(s)
    before = dict(vars(s))
    d1, _ = metric_det_inverse(m)
    d2, _ = metric_det_inverse(m)
    assert d1 == d2
    assert vars(s).keys() == before.keys()
    assert all(vars(s)[k] is v for k, v in before.items())
    assert s.dhat == d1


def test_singular_metric_rejected():
    """An all-zero metric has no inverse: its Dhat vanishes through every
    order."""
    s = build_sigma(3, lambdas=(0, 0, 0, 0, 0), order=4)
    zero = s.rational(rings.TruncatedSeries(Poly.zero(s.ctx), 4), sig_pow=6)
    g = MetricTensor(zero, zero, zero)
    with pytest.raises(sigma.SingularMetricError):
        metric_det_inverse(sigma.GaussMetric(s, g))


def test_dhat_stages_need_no_prior_call():
    """A fresh frame differentiates and renormalizes a rational over Dhat
    by itself, with the result of computing Dhat first."""
    def exercise(s):
        r = SigmaRational(s, wp2(s, 22).num, 2, 1)
        d = r.diff(0)
        return d, d.to_powers(5, 3).to_powers(3, 2)

    fresh = build_sigma(3)
    d, back = exercise(fresh)
    old = build_sigma(3)
    metric_det_inverse(gauss_metric(old))
    d_old, back_old = exercise(old)
    assert (d.sig_pow, d.det_pow) == (d_old.sig_pow, d_old.det_pow) == (3, 2)
    assert d.num == d_old.num
    assert back.num == back_old.num
    assert (back - d).is_zero_through()


@pytest.mark.parametrize("level", [3, 5, 7])
def test_ricci_fingerprints_per_level(level, frames):
    rep = frames[level].cleared_ricci
    for name in ("R11", "R12", "R22"):
        deg, target = reference.RICCI_LOWEST[name]
        free = lambda_free(rep[name])
        assert free.valuation() == deg
        assert free.homogeneous_part(deg) == target
    assert rep["ricci_symmetry_ok"]


def test_ricci_fingerprints_at_zero_moduli():
    rep = ricci_hat(build_sigma(3, lambdas=(0, 0, 0, 0, 0)))
    for name in ("R11", "R12", "R22"):
        deg, target = reference.RICCI_LOWEST[name]
        lowest_deg, lowest = rep[name].lowest_terms()
        assert lowest_deg == deg
        assert lowest == target


def test_numeric_frame_needs_no_exponent_scan(monkeypatch):
    """A numeric frame lives in the all-graded (u, v) context and caps
    every product, so ``kummer_det`` runs with the exponent scan refused
    and gives the same series."""
    lam = (rat(1, 2), -3, rat(2, 7), 5, -1)
    want = kummer_det(build_sigma(7, lambdas=lam))

    def refuse(*args):
        raise AssertionError("exponent scan ran")
    monkeypatch.setattr(rings, "_check_exponent_sums", refuse)
    assert kummer_det(build_sigma(7, lambdas=lam)) == want


def test_sigma_rational_sub_equals_add_of_negation():
    """x - y subtracts directly and equals x + (-y) in powers, numerator
    value and known order, over seeded pairs with unequal sigma and Dhat
    powers."""
    rng = random.Random(20261029)
    s = build_sigma(3, lambdas=(rat(1, 2), -3, rat(2, 7), 5, -1))
    ginv = s.metric_inverse[1]
    pool = [*s.xyz, *s.wp3s, ginv.g11, ginv.g12, ginv.g22,
            s.xyz[0].diff(1), ginv.g12.diff(0), s.scalar(rat(-5, 3))]
    for _ in range(40):
        x, y = (w.scale(rat(rng.randint(-9, 9), rng.randint(1, 9)))
                for w in rng.sample(pool, 2))
        got, want = x - y, x + (-y)
        assert (got.sig_pow, got.det_pow) == (want.sig_pow, want.det_pow)
        assert got.num == want.num


def test_sigma_rational_power_normalization():
    s = build_sigma(3)
    x = wp2(s, 22)
    prod = x * x  # sigma^4 denominator
    back = prod.to_powers(4, 0)
    assert back.sig_pow == 4
    # raise then lower again must round-trip
    raised = prod._raise_to(6, 0).to_powers(4, 0)
    assert (raised - prod).is_zero_through()


@pytest.mark.parametrize("level", [5, 7])
def test_lambda_free_part_is_the_zero_chart(level):
    """Setting lambda = 0 is a ring map: the lambda-free part of every
    symbolic stage is the same stage of the lambda = 0 chart, with the
    same known order."""
    def stages(s):
        m = s.metric
        rep = ricci_hat(s)
        return [m.ghat11, m.ghat12, m.ghat22, s.dhat,
                rep["R11"], rep["R12"], rep["R22"]]
    sym = build_sigma(level, order=12)
    zero = build_sigma(level, lambdas=(0, 0, 0, 0, 0), order=12)
    for a, b in zip(stages(sym), stages(zero)):
        assert a.known_order == b.known_order
        assert not b.body.is_zero()
        assert a.body.map_context(zero.ctx, LAMBDA_ZERO) == b.body
