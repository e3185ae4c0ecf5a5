"""Frozen regression targets: the lambda-free parts of the surface metric
and its determinant, and the lowest-term Ricci fingerprints.

These coefficients come from the published displays and double as oracles
for the tests; everything here depends only on the lambda-free part of the
sigma expansion (u - v^3/3), so the targets hold at every sigma level.
"""

from .rings import Poly, rat
from .sigma import _NUMERIC_CTX as _CTX


def _poly(items):
    return Poly.from_terms(_CTX, [((i, j), rat(p, q))
                                  for (i, j, p, q) in items])


# lambda-free parts of ghat_ij = sigma^6 g_ij  (entries (u-exp, v-exp, p, q))
GHAT11_FREE = _poly([
    (0, 0, 4, 1), (2, 2, 4, 1), (0, 4, 4, 1), (1, 5, 16, 3), (0, 8, 16, 9),
])

GHAT12_FREE = _poly([
    (0, 2, -4, 1), (3, 1, -4, 1), (1, 3, -4, 1), (2, 4, -12, 1),
    (0, 6, -8, 3), (1, 7, -20, 3), (0, 10, -8, 27),
])

GHAT22_FREE = _poly([
    (4, 0, 4, 1), (2, 2, 4, 1), (0, 4, 4, 1), (3, 3, 56, 3), (1, 5, 16, 3),
    (2, 6, 68, 3), (0, 8, 16, 9), (1, 9, 56, 27), (0, 12, 4, 81),
])

# lambda-free part of Dhat = sigma^12 det g
DHAT_FREE = _poly([
    (4, 0, 16, 1), (2, 2, 16, 1), (3, 3, 128, 3), (1, 5, -32, 3),
    (2, 6, 32, 3), (0, 8, 16, 9), (1, 9, -640, 27), (2, 10, 16, 1),
    (0, 12, 400, 81), (1, 13, -32, 3), (0, 16, 16, 9),
])

# lowest lambda-free terms of the cleared Ricci numerators Rhat_ij, with
# R_ij = Rhat_ij / (sigma^2 Dhat^2): -2^10 u^5 v^5, +2^10 u^5 v^7 and
# -2^10 u^5 v^5 (u^4 + u^2 v^2 + v^4)
RICCI_LOWEST = {
    "R11": (10, _poly([(5, 5, -1024, 1)])),
    "R12": (12, _poly([(5, 7, 1024, 1)])),
    "R22": (14, _poly([(9, 5, -1024, 1), (7, 7, -1024, 1),
                       (5, 9, -1024, 1)])),
}
