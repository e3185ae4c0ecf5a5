"""Tests for the generic two-coordinate tensor pipeline, driven through
jets and the sphere charts' exact quotients, so the same code paths the
charts use are exercised."""

import itertools
import random
from fractions import Fraction

import pytest

from kummergauss.inversion import random_admissible_points, ricci_point
from kummergauss.jets import Jet
from kummergauss.quadext import QuadExtContext
from kummergauss.rings import Context, Poly, rat
from kummergauss.sphere import _value, conformal_chart, sphere_chart
from kummergauss.tensor import (MetricTensor, christoffel, det4,
                                induced_metric, inverse_metric, ricci,
                                riemann, scalar_curvature)

# rational jets inside Q(w)
EXACT = QuadExtContext(1, 1)
ORDER = 3
# theta = 2 atan(1/2): z = cos theta = 3/5 on the sphere chart
Z = {"z": Fraction(3, 5)}


def is_zero(x):
    """A chart quotient whose numerator is the zero polynomial."""
    return x.num == Poly.zero(x.num.ctx)


def skew_metric(u, v):
    """A metric with three distinct entries over exact rational jets."""
    ju = Jet.coordinate(EXACT, ORDER, Fraction(u), 0)
    jv = Jet.coordinate(EXACT, ORDER, Fraction(v), 1)
    return MetricTensor((ju * ju).add_scalar(2),
                        (ju * jv).scale(Fraction(1, 2)).add_scalar(
                            Fraction(1, 3)),
                        (jv * jv + ju).add_scalar(3))


# -- the induced metric -----------------------------------------------

def test_induced_metric_of_a_graph():
    """The graph (x, y, f) has tangents (1, 0, f_x) and (0, 1, f_y), so its
    first fundamental form is (1 + f_x^2, f_x f_y, 1 + f_y^2)."""
    ctx = Context(("x", "y"))
    x, y = Poly.var(ctx, "x"), Poly.var(ctx, "y")
    one, zero = Poly.const(ctx, 1), Poly.zero(ctx)
    f = x ** 3 * y - 2 * x * y * y + x * rat(1, 3) + 5
    fx, fy = f.diff("x"), f.diff("y")
    g = induced_metric((one, zero, fx), (zero, one, fy))
    assert g.g11 == one + fx * fx
    assert g.g12 == fx * fy
    assert g.g22 == one + fy * fy


# -- flat space -------------------------------------------------------

def test_flat_metric_has_zero_curvature():
    one = Jet.from_coeffs(EXACT, ORDER, {(0, 0): 1})
    g = MetricTensor(one, Jet.from_coeffs(EXACT, ORDER, {}), one)
    gam = christoffel(g, inverse_metric(g))
    for lam in range(2):
        for mu in range(2):
            for nu in range(2):
                assert gam[lam, mu, nu].coeffs == {}
    ric = ricci(riemann(gam))
    assert ric.r11.base == 0 and ric.r12.base == 0
    assert ric.r22.base == 0


# -- round sphere -----------------------------------------------------

def test_sphere_christoffels_closed_form():
    """On dz^2 / p + p dphi^2, p = 1 - z^2: Gamma^z_zz = z / p,
    Gamma^z_phiphi = z p and Gamma^phi_zphi = -z / p, the rest zero, as
    rational functions."""
    g = sphere_chart()
    gam = christoffel(g, inverse_metric(g))
    frame = g.g11.frame
    z = Poly.var(frame.sigma.ctx, "z")
    assert is_zero(gam[0, 0, 0] - frame.rational(z, sig_pow=1))
    assert is_zero(gam[0, 1, 1] - frame.rational(z, sig_pow=-1))
    assert is_zero(gam[1, 0, 1] + frame.rational(z, sig_pow=1))
    for key in ((0, 0, 1), (1, 0, 0), (1, 1, 1)):
        assert is_zero(gam[key])


def test_sphere_christoffels_against_finite_differences():
    """Central differences of the metric entries reproduce the exact
    connection within 1e-6 at step 1e-5."""
    z0 = float(Z["z"])
    h = 1e-5

    def g_at(z):
        p = 1 - z * z
        return [[1 / p, 0.0], [0.0, p]]

    g0 = g_at(z0)
    dg = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    gp, gm = g_at(z0 + h), g_at(z0 - h)
    for i in range(2):
        for j in range(2):
            dg[0][i][j] = (gp[i][j] - gm[i][j]) / (2 * h)  # d/dz
            # d/dphi is zero for this chart
    det = g0[0][0] * g0[1][1] - g0[0][1] ** 2
    ginv = [[g0[1][1] / det, -g0[0][1] / det],
            [-g0[0][1] / det, g0[0][0] / det]]
    expected = {}
    for lam in range(2):
        for mu in range(2):
            for nu in range(2):
                acc = 0.0
                for sig in range(2):
                    acc += ginv[lam][sig] * (dg[mu][sig][nu] + dg[nu][mu][sig]
                                             - dg[sig][mu][nu])
                expected[(lam, mu, nu)] = acc / 2.0
    g = sphere_chart()
    gam = christoffel(g, inverse_metric(g))
    for key, want in expected.items():
        assert abs(float(_value(gam[key], Z)) - want) < 1e-6, key


def test_sphere_is_einstein_with_scalar_two():
    # theta = 2 atan(3/7): z = (1 - 9/49) / (1 + 9/49)
    pt = {"z": Fraction(20, 29)}
    g = sphere_chart()
    ginv = inverse_metric(g)
    ric = ricci(riemann(christoffel(g, ginv)))
    assert _value(ric.r11, pt) == _value(g.g11, pt)
    assert _value(ric.r22, pt) == _value(g.g22, pt)
    assert _value(scalar_curvature(ginv, ric), pt) == 2


# -- conformal plane chart --------------------------------------------

def test_conformal_chart_christoffel_closed_form():
    """With q = 1 + u^2 + v^2: Gamma^u_uu = -2u/q, Gamma^u_uv = -2v/q,
    Gamma^u_vv = 2u/q and Gamma^v_uu = 2v/q, as rational functions."""
    g = conformal_chart()
    gam = christoffel(g, inverse_metric(g))
    frame = g.g11.frame
    u, v = (frame.rational(Poly.var(frame.sigma.ctx, x).scale(2),
                           sig_pow=1) for x in "uv")
    assert is_zero(gam[0, 0, 0] + u)
    assert is_zero(gam[0, 0, 1] + v)
    assert is_zero(gam[0, 1, 1] - u)
    assert is_zero(gam[1, 0, 0] - v)


# -- structural identities --------------------------------------------

def test_christoffel_differentiates_each_entry_once(monkeypatch):
    calls = []
    plain_diff = Jet.diff

    def counted_diff(self, which):
        calls.append(which)
        return plain_diff(self, which)

    g = skew_metric(Fraction(1, 3), Fraction(-2, 5))
    ginv = inverse_metric(g)
    monkeypatch.setattr(Jet, "diff", counted_diff)
    christoffel(g, ginv)
    assert sorted(calls) == [0, 0, 0, 1, 1, 1]


def test_christoffel_forms_each_first_kind_sum_once(monkeypatch):
    """One subtraction per first-kind sum [sig, mu nu], six in all; the
    two values of lam read the same sums."""
    calls = []
    plain_sub = Jet.__sub__

    def counted_sub(self, other):
        calls.append(1)
        return plain_sub(self, other)

    g = skew_metric(Fraction(1, 3), Fraction(-2, 5))
    ginv = inverse_metric(g)
    monkeypatch.setattr(Jet, "__sub__", counted_sub)
    christoffel(g, ginv)
    assert len(calls) == 6


def test_christoffel_lower_pair_is_one_object():
    g = skew_metric(Fraction(1, 3), Fraction(-2, 5))
    gam = christoffel(g, inverse_metric(g))
    assert len(gam) == 8
    for lam in range(2):
        assert gam[lam, 0, 1] is gam[lam, 1, 0]


def test_lowered_riemann_block_is_antisymmetric():
    """g_{ac} R^c_{b01} is antisymmetric in (a, b), exactly, on a metric
    with three distinct entries."""
    for u, v in ((Fraction(1, 3), Fraction(-2, 5)), (Fraction(-3, 2), 2)):
        g = skew_metric(u, v)
        block = riemann(christoffel(g, inverse_metric(g)))
        assert sorted(block) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        low = {(a, b): g.comp(a, 0) * block[0, b] + g.comp(a, 1) * block[1, b]
               for a in range(2) for b in range(2)}
        for jet in (low[0, 0], low[1, 1], low[0, 1] + low[1, 0]):
            assert jet.coeffs == {}
        assert low[0, 1].base != 0


def test_ricci_contractions_are_symmetric():
    g = skew_metric(Fraction(1, 3), Fraction(-2, 5))
    ric = ricci(riemann(christoffel(g, inverse_metric(g))))
    assert ric.r12.base == ric.r21.base
    for chart in (sphere_chart, conformal_chart):
        g = chart()
        ric = ricci(riemann(christoffel(g, inverse_metric(g))))
        assert is_zero(ric.r12 - ric.r21)


def _einstein_tensor(g):
    """The four components of R_{mu nu} - (R/2) g_{mu nu}."""
    ginv = inverse_metric(g)
    ric = ricci(riemann(christoffel(g, ginv)))
    half_r = scalar_curvature(ginv, ric).scale(Fraction(1, 2))
    return [ric.comp(i, j) - half_r * g.comp(i, j)
            for i in range(2) for j in range(2)]


def test_two_dimensional_einstein_identity():
    """R_{mu nu} - (R/2) g_{mu nu} vanishes identically in 2d: at a point
    of a skew jet metric, and as rational functions on both sphere
    charts."""
    g = skew_metric(Fraction(-3, 2), 2)
    assert all(c.base == 0 for c in _einstein_tensor(g))
    for chart in (sphere_chart, conformal_chart):
        assert all(is_zero(c) for c in _einstein_tensor(chart()))


# -- truncated jet stages ---------------------------------------------

def whole_riemann(gam):
    """The R^a_{b01} block with every Gamma.Gamma product formed through
    the full order of Gamma, as ``riemann`` did before it truncated."""
    block = {}
    for a in range(2):
        for b in range(2):
            val = gam[a, b, 1].diff(0) - gam[a, b, 0].diff(1)
            for tau in range(2):
                val = val + gam[a, tau, 0] * gam[tau, b, 1]
                val = val - gam[a, tau, 1] * gam[tau, b, 0]
            block[a, b] = val
    return block


def ricci_bases(block):
    ric = ricci(block)
    return [x.base for x in (ric.r11, ric.r12, ric.r22, ric.r21)]


@pytest.mark.parametrize("lambdas", [
    (0, 0, 0, 0, 0), (rat(3, 4), rat(1, 7), rat(5, 2), rat(1, 2), rat(-3))],
    ids=["zero", "lam"])
def test_truncated_chart_b_pipeline_changes_no_value(lambdas):
    """The point's inverse (one order below its metric) and the truncated
    Gamma factors of ``riemann`` give the Ricci values of the whole
    inverse and whole products, exactly."""
    for p in random_admissible_points(1, 5, lambdas=lambdas):
        g, _ = p.metric
        whole = christoffel(g, inverse_metric(g))
        want = ricci_bases(whole_riemann(whole))
        assert ricci_bases(riemann(whole)) == want
        rep = ricci_point(p)
        assert [rep[k] for k in ("R11", "R12", "R22", "R21")] == want


def test_chart_b_inverse_is_one_order_below_the_metric():
    """A chart-B point's metric (order 2) comes with its inverse through
    order 1 alone: the whole inverse cut to that order, with the Ricci
    and scalar curvature of the whole order-2 inverse."""
    for lambdas in ((0, 0, 0, 0, 0), (1, -3, 2, 5, -1)):
        for p in random_admissible_points(3, 3, lambdas=lambdas):
            g, ginv = p.metric
            whole = inverse_metric(g)
            entries = list(zip((ginv.g11, ginv.g12, ginv.g22),
                               (whole.g11, whole.g12, whole.g22)))
            assert [(x.order, y.order) for x, y in entries] == [(1, 2)] * 3
            assert all(x.coeffs == y.truncated(1).coeffs for x, y in entries)
            block = riemann(christoffel(g, ginv))
            block_whole = riemann(christoffel(g, whole))
            assert ricci_bases(block) == ricci_bases(block_whole)
            assert scalar_curvature(ginv, ricci(block)).base \
                == scalar_curvature(whole, ricci(block_whole)).base


def test_ricci_stages_form_only_the_orders_read(monkeypatch):
    """At an order-3 chart-B point the inverse metric is an order-1 jet,
    and ``riemann`` forms every Gamma.Gamma product through order 0 only,
    the order of the block it returns."""
    p = random_admissible_points(1, 1, lambdas=(1, -3, 2, 5, -1))[0]
    g, ginv = p.metric
    assert [x.order for x in (g.g11, g.g12, g.g22)] == [2, 2, 2]
    assert [x.order for x in (ginv.g11, ginv.g12, ginv.g22)] == [1, 1, 1]
    gam = christoffel(g, ginv)
    product, orders = Jet.__mul__, []

    def recorded(a, b):
        orders.append((a.order, b.order))
        return product(a, b)

    monkeypatch.setattr(Jet, "__mul__", recorded)
    block = riemann(gam)
    assert len(orders) == 16 and set(orders) == {(0, 0)}
    assert {x.order for x in block.values()} == {0}


# -- the shared 4x4 determinant ---------------------------------------

def leibniz_det(m, zero):
    """Determinant as the signed sum over all permutations."""
    total = zero
    for perm in itertools.permutations(range(4)):
        inversions = sum(1 for a in range(4) for b in range(a + 1, 4)
                         if perm[a] > perm[b])
        term = m[0][perm[0]]
        for row in range(1, 4):
            term = term * m[row][perm[row]]
        total = total - term if inversions % 2 else total + term
    return total


def test_shared_determinant_matches_leibniz_over_rationals():
    rng = random.Random(20261018)
    for _ in range(20):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(4)] for _ in range(4)]
        assert det4(m) == leibniz_det(m, Fraction(0))


def test_shared_determinant_matches_leibniz_over_quadratic_extension():
    rng = random.Random(20261019)
    ctx = QuadExtContext(2, -7)
    for _ in range(10):
        m = [[ctx.element(*[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(2)])
              for _ in range(4)] for _ in range(4)]
        assert det4(m) == leibniz_det(m, ctx.zero)


def test_shared_determinant_matches_leibniz_with_a_zero_in_the_last_row():
    """Shaped like the kernel matrix: symmetric, with a structural zero in
    the last row and column."""
    rng = random.Random(20261020)
    for _ in range(20):
        m = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                m[i][j] = m[j][i] = Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 5))
        m[3][3] = Fraction(0)
        assert det4(m) == leibniz_det(m, Fraction(0))
