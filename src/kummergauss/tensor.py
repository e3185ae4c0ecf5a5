"""Two-coordinate tensor calculus over an abstract differential ring, plus
the 4x4 determinant shared by the kernel-matrix checks of both charts.

Ring elements must support +, -, *, unary -, ``.diff(i)`` for coordinate
index i in {0, 1}, ``.scale(q)`` by a rational q, and ``.inverse()`` of
det g for ``inverse_metric``.  The same code drives the
``sigma.SigmaRational`` quotients of the sigma chart (series numerators)
and of the sphere charts (``Poly`` numerators), and the inversion chart's
exact point jets.

The curvature steps pass plain components: ``christoffel`` returns the
dict of Gamma^lam_{mu nu}, ``riemann`` the dict of R^a_{b01}, and
``ricci`` contracts that block into a ``RicciTensor``.

Over jets ``riemann`` multiplies Gamma cut to the order of dGamma, so it
forms only the orders its block keeps; the inversion chart likewise
inverts its metric one order low (see ``inversion.ChartBPoint.metric``).
The sigma chart's series are multiplied whole: there a Gamma.Gamma
product decides the known order of the sum, so a lower cap would lower
validated orders.
"""

from fractions import Fraction


class MetricTensor:
    """Symmetric 2x2 metric; g21 = g12 by construction."""

    __slots__ = ("g11", "g12", "g22")

    def __init__(self, g11, g12, g22):
        self.g11 = g11
        self.g12 = g12
        self.g22 = g22

    def comp(self, i, j):
        return (self.g11, self.g12, self.g22)[i + j]


class RicciTensor:
    def __init__(self, r11, r12, r22, r21):
        self.r11 = r11
        self.r12 = r12
        self.r22 = r22
        # independently contracted value, for symmetry cross-checks
        self.r21 = r21

    def comp(self, i, j):
        return (self.r11, self.r12, self.r22)[i + j]


def det4(m):
    """Determinant of a 4x4 matrix by expansion along the last row, each
    3x3 minor along its first row.  The six 2x2 minors of rows 1-2 are
    formed once and shared by the four 3x3 minors.

    The kernel matrix has a structural zero in its last row, but its term
    is still multiplied and added.  Over series a zero product keeps the
    larger of the two known orders, and that caps the validated order of
    the sum; skipping the term would raise it past the frame's horizon."""
    pair = {(a, b): m[1][a] * m[2][b] - m[1][b] * m[2][a]
            for a in range(4) for b in range(a + 1, 4)}
    total = None
    for col in range(4):
        cols = [c for c in range(4) if c != col]
        d3 = None
        for c3 in range(3):
            term = m[0][cols[c3]] * pair[tuple(cols[:c3] + cols[c3 + 1:])]
            if c3 == 1:
                term = -term
            d3 = term if d3 is None else d3 + term
        entry = m[3][col]
        signed = d3 * entry if col % 2 == 1 else -(d3 * entry)
        total = signed if total is None else total + signed
    return total


def inverse_metric(g):
    """Inverse of a metric: the adjugate times the ring's ``inverse()`` of
    det g, whose error propagates when the determinant is not
    invertible."""
    det_inv = (g.g11 * g.g22 - g.g12 * g.g12).inverse()
    return MetricTensor(g.g22 * det_inv, -(g.g12 * det_inv),
                        g.g11 * det_inv)


def christoffel(g, ginv):
    """Levi-Civita connection from metric and verified inverse, as a dict
    keyed (lam, mu, nu); both orders of the lower pair map to one object.
    Each metric entry is differentiated once per coordinate, and each
    first-kind sum is formed once and read for both lam."""
    # dg[m][i + j] = d_m g_ij
    dg = [[x.diff(m) for x in (g.g11, g.g12, g.g22)] for m in range(2)]
    # first[sig, mu, nu] = d_mu g_{sig nu} + d_nu g_{mu sig} - d_sig g_{mu nu}
    first = {(sig, mu, nu): dg[mu][sig + nu] + dg[nu][mu + sig]
             - dg[sig][mu + nu]
             for sig in range(2) for mu in range(2) for nu in range(mu, 2)}
    gam = {}
    for lam in range(2):
        for mu in range(2):
            for nu in range(mu, 2):
                acc = None
                for sig in range(2):
                    term = ginv.comp(lam, sig) * first[sig, mu, nu]
                    acc = term if acc is None else acc + term
                gam[lam, mu, nu] = gam[lam, nu, mu] = \
                    acc.scale(Fraction(1, 2))
    return gam


def riemann(gam):
    """The block {(a, b): R^a_{b01}}; in two dimensions it is the whole
    curvature tensor, since R^a_{b10} = -R^a_{b01} and R^a_{b00} =
    R^a_{b11} = 0."""
    dgam = {(a, b): gam[a, b, 1].diff(0) - gam[a, b, 0].diff(1)
            for a in range(2) for b in range(2)}
    # The one dispatch on the ring: a jet carries its order, and a jet sum
    # keeps the lower order of its terms, so Gamma cut to the highest order
    # of dGamma forms no product term the sum would drop.  Elements without
    # an order (the quotients of the sigma and sphere charts) are
    # multiplied whole.
    if hasattr(dgam[0, 0], "order"):
        n = max(d.order for d in dgam.values())
        gam = {k: x.truncated(n) for k, x in gam.items()}
    block = {}
    for (a, b), val in dgam.items():
        for tau in range(2):
            val = val + gam[a, tau, 0] * gam[tau, b, 1]
            val = val - gam[a, tau, 1] * gam[tau, b, 0]
        block[a, b] = val
    return block


def ricci(block):
    """R_{mu nu} = R^a_{mu a nu} from the R^a_{b01} block; both
    off-diagonal contractions kept."""
    return RicciTensor(-block[1, 0], block[0, 0], block[0, 1], -block[1, 1])


def scalar_curvature(ginv, ric):
    """R = g^{mu nu} R_{mu nu}."""
    acc = None
    for mu in range(2):
        for nu in range(2):
            term = ginv.comp(mu, nu) * ric.comp(mu, nu)
            acc = term if acc is None else acc + term
    return acc

