"""Seeded workload generators.

A workload is a list of calls to ``kummergauss.cli.run``, each given as a
plain dict (command, lambdas as "p/q" strings or None for symbolic, sigma
level, seed, points).  The benchmark seed only decides the generated lambda
tuples and the ``seed`` passed on to the point commands; the program never
sees the benchmark seed in any other way.
"""

import random
from fractions import Fraction

LAMBDA_NUM_MAX = 9   # lambda_i = p/q with |p| <= 9 and 1 <= q <= 9
LAMBDA_DEN_MAX = 9
# lambda tuples per specialized-suite workload run; the cost of a tuple
# depends on its entries, and fewer tuples let run time follow the seed
SUITE_TUPLES = 32
CHART_POINTS = 20    # the CLI default


def make_call(command, lambdas=None, sigma_level=7, seed=None, points=None):
    call = {"command": command, "lambdas": lambdas, "sigma_level": sigma_level}
    if seed is not None:
        call["seed"] = seed
    if points is not None:
        call["points"] = points
    return call


def _draw_lambdas(rng):
    return [str(Fraction(rng.randint(-LAMBDA_NUM_MAX, LAMBDA_NUM_MAX),
                         rng.randint(1, LAMBDA_DEN_MAX)))
            for _ in range(5)]


def _rng(workload, seed):
    # str seeds hash through sha512, so the stream is stable across
    # interpreters and PYTHONHASHSEED values
    return random.Random("%s/%d" % (workload, seed))


def symbolic_ricci(seed):
    """One ricci-leading call at sigma level 7, symbolic lambda, CLI
    default order: the headline end-to-end case.  Nothing here depends on
    the seed."""
    return [make_call("ricci-leading")]


def specialized_suite(seed):
    """SUITE_TUPLES seeded lambda tuples; for each, the quartic, PDE and
    kernel checks at levels 3, 5 and 7 and the metric report at level 7."""
    rng = _rng("specialized-suite", seed)
    calls = []
    for _ in range(SUITE_TUPLES):
        lam = _draw_lambdas(rng)
        for level in (3, 5, 7):
            for command in ("quartic-verify", "pde-verify", "kernel-verify"):
                calls.append(make_call(command, lam, level))
        calls.append(make_call("metric-report", lam, 7))
    return calls


def point_charts(seed):
    """The inversion-chart commands at lambda = 0 and at one seeded nonzero
    lambda, then the double-sphere suite."""
    rng = _rng("point-charts", seed)
    lam = _draw_lambdas(rng)
    while all(x == "0" for x in lam):
        lam = _draw_lambdas(rng)
    calls = []
    for lambdas in (["0"] * 5, lam):
        for command in ("inversion-verify", "ricci-point", "dz-check"):
            calls.append(make_call(command, lambdas, seed=seed,
                                   points=CHART_POINTS))
    for command in ("sphere-verify", "kahler-verify", "chern"):
        calls.append(make_call(command))
    return calls


WORKLOADS = {
    "symbolic-ricci": symbolic_ricci,
    "specialized-suite": specialized_suite,
    "point-charts": point_charts,
}
