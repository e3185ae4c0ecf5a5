"""Self-tests of the benchmark itself (not part of the repository's test
suite, which they would slow down).

    python3 perfbench/selftest.py

Checks that the seeded generators are deterministic per seed and differ
between seeds, that the tracer restores every attribute it patches, that
a traced pass gives the same report digests as an untraced one, and that
the speed sampler integrates reference time and puts its signal handler
back.
"""

import inspect
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from child import make_config, run_calls  # noqa: E402
from speed import PERIOD_S, SpeedSampler  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, make_call  # noqa: E402

# small calls that reach every traced layer in a few seconds
SMALL_CALLS = [
    make_call("quartic-verify", ["1/2", "-3", "0", "5/7", "2"], 5),
    make_call("pde-verify", ["1/2", "-3", "0", "5/7", "2"], 3),
    make_call("kernel-verify", None, 3),
    make_call("metric-report", None, 3),
    make_call("ricci-leading", ["0"] * 5, 3),
    make_call("ricci-point", ["0"] * 5, seed=3, points=2),
    make_call("inversion-verify", ["1", "0", "0", "0", "0"], seed=3, points=1),
    make_call("sphere-verify"),
    make_call("kahler-verify"),
    make_call("chern"),
]


def _attributes():
    """Every attribute of every kummergauss module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE
                               or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for ckey, cvalue in vars(value).items():
                    snap[(name, key, ckey)] = cvalue
    return snap


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, gen in WORKLOADS.items():
            self.assertEqual(gen(7), gen(7), name)

    def test_seeds_give_different_inputs(self):
        for name in ("specialized-suite", "point-charts"):
            gen = WORKLOADS[name]
            self.assertNotEqual(gen(1), gen(2), name)
            self.assertEqual(len(gen(1)), len(gen(2)), name)

    def test_symbolic_ricci_uses_cli_defaults(self):
        (call,) = WORKLOADS["symbolic-ricci"](1)
        cfg = make_config(call)
        self.assertIsNone(cfg.lambdas)
        self.assertEqual(cfg.sigma_level, 7)
        from kummergauss.sigma import DEFAULT_ORDER
        self.assertEqual(cfg.max_order, DEFAULT_ORDER)

    def test_lambdas_in_range_and_point_lambda_nonzero(self):
        from fractions import Fraction
        for seed in range(20):
            for gen in (WORKLOADS["specialized-suite"],
                        WORKLOADS["point-charts"]):
                for call in gen(seed):
                    for x in call["lambdas"] or ():
                        q = Fraction(x)
                        self.assertLessEqual(abs(q.numerator), 9)
                        self.assertLessEqual(q.denominator, 9)
            seeded = WORKLOADS["point-charts"](seed)[3]["lambdas"]
            self.assertTrue(any(Fraction(x) for x in seeded))


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        before = _attributes()
        tracer = Tracer()
        tracer.install()
        patched = _attributes()
        tracer.uninstall()
        after = _attributes()
        self.assertNotEqual(before, patched)
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_traced_digests_equal_untraced(self):
        configs = [make_config(c) for c in SMALL_CALLS]
        plain = run_calls(configs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_calls([make_config(c) for c in SMALL_CALLS])
            # no CLI command divides today; reach the sigma binding directly
            from kummergauss import rings, sigma
            u = rings.Poly.var(sigma._NUMERIC_CTX, "u")
            v = rings.Poly.var(sigma._NUMERIC_CTX, "v")
            num = rings.TruncatedSeries((u + v * v) * (u + v), 10)
            quot = sigma.exact_divide(num, rings.TruncatedSeries(u + v * v,
                                                                 10))
            self.assertEqual(quot.body, u + v)
        finally:
            tracer.uninstall()
        for p, t in zip(plain, traced):
            self.assertIsNone(p["raised"], p["raised"])
            self.assertEqual(p["exit_code"], 0)
            self.assertEqual(p["digest"], t["digest"], p["command"])
        for name, (calls, total, self_s) in tracer.stats.items():
            self.assertGreater(calls, 0, name)
            self.assertLessEqual(self_s, total + 1e-9, name)
        self.assertEqual(tracer.stats["cli.run"][0], len(SMALL_CALLS))
        spans = tracer.span_records()
        self.assertTrue(all(s["start"] <= s["end"] for s in spans))
        roots = [s for s in spans if s["parent"] is None]
        self.assertEqual([s["name"] for s in roots],
                         ["cli.run"] * len(SMALL_CALLS))


class SpeedSamplerTest(unittest.TestCase):
    def test_reference_time_follows_wall_time(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = SpeedSampler()
        sampler.start()
        readings = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * PERIOD_S:
            readings.append(sampler.ref_now())
            sum(range(1000))
        wall = time.perf_counter() - t0
        sampler.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(sampler.samples, 5)
        self.assertEqual(readings, sorted(readings))
        # within a factor of 4 of wall time on any machine speed
        ref = readings[-1] - readings[0]
        self.assertTrue(wall / 4 < ref < wall * 4, (ref, wall))


if __name__ == "__main__":
    unittest.main()
