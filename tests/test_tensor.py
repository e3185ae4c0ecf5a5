"""Tests for the generic two-coordinate tensor pipeline, driven through
jets so the same code paths the charts use are exercised."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from kummergauss.inversion import random_admissible_points, ricci_point
from kummergauss.jets import Jet
from kummergauss.quadext import QuadExtContext
from kummergauss.rings import rat
from kummergauss.sphere import (_KAHLER_POINTS, _SPHERE_TS,
                                kahler_metric_jets, sphere_metric_jets)
from kummergauss.tensor import (MetricTensor, christoffel, det4,
                                inverse_metric, ricci, riemann,
                                scalar_curvature)

# rational jets inside Q(w), as the sphere charts use
EXACT = QuadExtContext(1, 1)
ORDER = 3
# theta = 2 atan t: sin theta = 4/5, cos theta = 3/5 at t = 1/2
HALF = Fraction(1, 2)
SIN, COS = Fraction(4, 5), Fraction(3, 5)


def skew_metric(u, v):
    """A metric with three distinct entries over exact rational jets."""
    ju = Jet.coordinate(EXACT, ORDER, Fraction(u), 0)
    jv = Jet.coordinate(EXACT, ORDER, Fraction(v), 1)
    return MetricTensor((ju * ju).add_scalar(2),
                        (ju * jv).scale(Fraction(1, 2)).add_scalar(
                            Fraction(1, 3)),
                        (jv * jv + ju).add_scalar(3))


# -- flat space -------------------------------------------------------

def test_flat_metric_has_zero_curvature():
    one = Jet.constant(EXACT, ORDER, 1)
    g = MetricTensor(one, Jet.constant(EXACT, ORDER, 0), one)
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
    g = sphere_metric_jets(HALF)
    gam = christoffel(g, inverse_metric(g))
    # Gamma^theta_{phi phi} = -sin cos, Gamma^phi_{theta phi} = cot
    assert gam[0, 1, 1].base == -SIN * COS
    assert gam[1, 0, 1].base == COS / SIN
    assert gam[0, 0, 0].base == 0
    assert gam[1, 0, 0].base == 0


def test_sphere_christoffels_against_finite_differences():
    """Central differences of the metric entries reproduce the exact
    connection within 1e-6 at step 1e-5."""
    theta = 2 * math.atan(HALF)
    h = 1e-5

    def g_at(t):
        s = math.sin(t)
        return [[1.0, 0.0], [0.0, s * s]]

    g0 = g_at(theta)
    dg = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    gp, gm = g_at(theta + h), g_at(theta - h)
    for i in range(2):
        for j in range(2):
            dg[0][i][j] = (gp[i][j] - gm[i][j]) / (2 * h)  # d/dtheta
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
    g = sphere_metric_jets(HALF)
    gam = christoffel(g, inverse_metric(g))
    for key, want in expected.items():
        assert abs(float(gam[key].base.a) - want) < 1e-6, key


def test_sphere_is_einstein_with_scalar_two():
    g = sphere_metric_jets(Fraction(3, 7))
    ginv = inverse_metric(g)
    ric = ricci(riemann(christoffel(g, ginv)))
    assert ric.r11.base == g.g11.base
    assert ric.r22.base == g.g22.base
    assert scalar_curvature(g, ginv, ric).base == 2


# -- conformal plane chart --------------------------------------------

def test_conformal_chart_christoffel_closed_form():
    u, v = Fraction(2, 5), Fraction(-3, 10)
    g = kahler_metric_jets(u, v)
    gam = christoffel(g, inverse_metric(g))
    f = 1 + u * u + v * v
    assert gam[0, 0, 0].base == -2 * u / f
    assert gam[0, 0, 1].base == -2 * v / f
    assert gam[0, 1, 1].base == 2 * u / f
    assert gam[1, 0, 0].base == 2 * v / f


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
    for g in (kahler_metric_jets(Fraction(-4, 5), Fraction(1, 10)),
              skew_metric(Fraction(1, 3), Fraction(-2, 5))):
        ric = ricci(riemann(christoffel(g, inverse_metric(g))))
        assert ric.r12.base == ric.r21.base


def test_two_dimensional_einstein_identity():
    """R_{mu nu} - (R/2) g_{mu nu} vanishes identically in 2d."""
    for g in (kahler_metric_jets(0, 0),
              kahler_metric_jets(Fraction(3, 5), Fraction(-1, 5)),
              kahler_metric_jets(Fraction(3, 2), 2),
              skew_metric(Fraction(-3, 2), 2)):
        ginv = inverse_metric(g)
        ric = ricci(riemann(christoffel(g, ginv)))
        half_r = scalar_curvature(g, ginv, ric).scale(Fraction(1, 2))
        for i in range(2):
            for j in range(2):
                comp = ric.comp(i, j) - half_r * g.comp(i, j)
                assert comp.base == 0


# -- truncated jet stages ---------------------------------------------

def whole_inverse(g):
    """The inverse metric through the metric's own order, as
    ``inverse_metric`` formed it before it truncated."""
    det_inv = (g.g11 * g.g22 - g.g12 * g.g12).inverse()
    return MetricTensor(g.g22 * det_inv, -(g.g12 * det_inv),
                        g.g11 * det_inv)


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
        whole = christoffel(g, whole_inverse(g))
        want = ricci_bases(whole_riemann(whole))
        assert ricci_bases(riemann(whole)) == want
        rep = ricci_point(p)
        assert [rep[k] for k in ("R11", "R12", "R22", "R21")] == want


def _sphere_charts(order=2):
    return [sphere_metric_jets(t, order=order) for t in _SPHERE_TS[::3]] \
        + [kahler_metric_jets(u, v, order=order) for u, v in _KAHLER_POINTS]


def test_truncated_sphere_pipeline_changes_no_value():
    """The sphere charts at their default order give the Ricci and scalar
    curvature of order-3 charts through whole inverses and products."""
    for g, g3 in zip(_sphere_charts(), _sphere_charts(order=3)):
        assert (g.g11.order, g3.g11.order) == (2, 3)
        ginv, ginv3 = inverse_metric(g), whole_inverse(g3)
        block = riemann(christoffel(g, ginv))
        block3 = whole_riemann(christoffel(g3, ginv3))
        assert ricci_bases(block) == ricci_bases(block3)
        assert scalar_curvature(g, ginv, ricci(block)).base \
            == scalar_curvature(g3, ginv3, ricci(block3)).base


def test_sphere_inverse_is_one_order_below_the_metric():
    """The order-2 sphere and conformal charts are inverted through order
    1, and their Ricci and scalar curvature equal those from the whole
    order-2 inverse."""
    for g in _sphere_charts():
        ginv, whole = inverse_metric(g), whole_inverse(g)
        assert [x.order for x in (ginv.g11, ginv.g12, ginv.g22)] == [1] * 3
        assert [x.order for x in (whole.g11, whole.g12, whole.g22)] \
            == [2] * 3
        block = riemann(christoffel(g, ginv))
        block_whole = riemann(christoffel(g, whole))
        assert ricci_bases(block) == ricci_bases(block_whole)
        assert scalar_curvature(g, ginv, ricci(block)).base \
            == scalar_curvature(g, whole, ricci(block_whole)).base


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
