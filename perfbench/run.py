#!/usr/bin/env python3
"""kummergauss benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (see workloads.py) through the public
``kummergauss.cli.run`` entry point.  Each workload run is a fresh child
interpreter, as each ``kummer-verify`` invocation is, started one at a time
from this process.  Workload runs repeat while the next one is expected
to end within ``--seconds``; at least one always runs.

With ``--trace 0`` it prints the end-to-end metrics: those BENCHMARK.json
gates, given at a reference CPU speed (speed.py), then the same in wall
seconds; with ``--trace 1`` it alternates untraced and traced
workload runs and prints the per-layer metrics (tracer.py).  Every call
must exit with 0 and report no failing check, and every workload run must
produce the same report digests.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Details of each
run go to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

SETUP_PROBES = 11     # extra children that only start up, for setup_s
RUN_DEADLINE_S = 170  # no child may run past this point of the benchmark


class BenchError(RuntimeError):
    pass


def speed_probe():
    """Median seconds of a fixed Fraction multiply-add loop on the current
    CPU.  It uses no repository code, so it shows machine drift next to
    each set of runs."""
    a = [Fraction((1 << 61) - 1 - 7 * i, (1 << 59) + 3 * i + 1)
         for i in range(64)]
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for i in range(3000):
            a[i & 63] * a[(i * 7) & 63] + a[(i * 13) & 63]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """The highest percentile of ``values`` with at least ten samples beyond
    it, but never below p90 (nearest rank): with under 100 samples the
    rule alone would fall towards the median.  Returns (value, note)."""
    s = sorted(values)
    n = len(s)
    k = n - 11 if n >= 100 else math.ceil(0.9 * n) - 1
    return s[k], "p%.1f (nearest rank) of %d calls; %d beyond it" % (
        100.0 * (k + 1) / n, n, n - 1 - k)


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.calls = WORKLOADS[workload](seed)
        self.started = time.monotonic()
        self.env = dict(os.environ)
        # the variable silently changes the CLI default order
        self.env.pop("KUMMER_MAX_ORDER", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path
                                             else "")
        self.n_spans = 0

    def child(self, calls, trace=False):
        """Run one child interpreter; returns its result dict with the
        parent-side wall time and set-up time added."""
        job = {"calls": calls, "trace": trace, "spans_path": None}
        if trace:
            self.n_spans += 1
            job["spans_path"] = str(OUT / ("spans-%s-seed%d-%d.json" % (
                self.workload, self.seed, self.n_spans)))
        left = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before starting a child")
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD)], cwd=str(ROOT),
                                env=self.env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(json.dumps(job), timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("child still running at the %d s deadline"
                             % RUN_DEADLINE_S)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            raise BenchError("child exited with %d:\n%s"
                             % (proc.returncode, err[-2000:]))
        res = json.loads(out.strip().splitlines()[-1])
        res["wall_s"] = wall
        res["setup_s"] = res["ready_at"] - t0
        # the stretch before the first speed sample counts at its speed
        res["setup_ref_s"] = ((res["sampled_at"] - t0) * res["first_speed"]
                              + res["ready_ref_s"])
        return res

    def repeat(self, seconds, unit):
        """Call unit() once, then again while the next call is expected to
        end within ``seconds`` of the first."""
        t0 = time.monotonic()
        done = []
        while True:
            done.append(unit(len(done)))
            elapsed = time.monotonic() - t0
            if elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def tally(results):
    attempted = failed = 0
    for res in results:
        for r in res["records"]:
            if r["raised"] is not None:
                attempted += 1
                failed += 1
            else:
                attempted += r["checks"]
                # exit code 1 means a failing check; count one at least
                failed += max(r["failed_checks"], r["exit_code"] != 0)
    return attempted, failed


def digest_of(res):
    digests = [r.get("digest", "raised") for r in res["records"]]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def ref_run_s(res):
    """Reference seconds of one workload run: set-up plus its calls."""
    return res["setup_ref_s"] + sum(rec["ref_s"] for rec in res["records"])


def measure(runner, seconds):
    """Untraced pass: end-to-end metrics as {name: (value, unit, note)}.
    The gated times are at the reference CPU speed (speed.py): on a machine
    shared with other tenants the speed of one CPU halves for seconds or
    minutes at a time, which medians of wall time cannot filter out.  The
    same figures in wall seconds follow with the suffix ``.wall``."""
    runner.child([])  # fills __pycache__; not recorded
    probes = [runner.child([]) for _ in range(SETUP_PROBES)]
    iters = runner.repeat(seconds, lambda i: runner.child(runner.calls))
    metrics = {}
    for suffix, run_of, call_key, setup_key in (
            ("", ref_run_s, "ref_s", "setup_ref_s"),
            (".wall", lambda r: r["wall_s"], "wall_s", "setup_s")):
        run_s = [run_of(r) for r in iters]
        call_s = [rec[call_key] for r in iters for rec in r["records"]]
        setup_s = [r[setup_key] for r in probes + iters]
        tail_v, tail_note = tail(call_s)
        metrics.update({
            "run_s" + suffix: (
                statistics.median(run_s), "s",
                "median of %d workload runs; q1 %.4f, q3 %.4f"
                % ((len(run_s),) + quartiles(run_s))),
            "call_s.p50" + suffix: (
                statistics.median(call_s), "s",
                "median of %d cli.run calls" % len(call_s)),
            "call_s.tail" + suffix: (tail_v, "s", tail_note),
            "setup_s" + suffix: (
                statistics.median(setup_s), "s",
                "median of %d child starts; q1 %.4f, q3 %.4f"
                % ((len(setup_s),) + quartiles(setup_s))),
        })
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in iters), "MB",
                              "max over %d workload runs" % len(iters))
    # a diagnostic, not a metric: a parallel program may raise it above 1
    wall = sum(rec["wall_s"] for r in iters for rec in r["records"])
    print("diag cpu_s/wall_s of the calls: %.4f"
          % (sum(r["cpu_s"] for r in iters) / wall))
    print("diag speed samples: %d, probe time %.4f s of %.4f s of calls"
          % (sum(r["speed_samples"] for r in iters),
             sum(r["probe_s"] for r in iters), wall))
    return iters, metrics


def measure_traced(runner, seconds):
    """Traced pass: per-layer metrics as {name: (value, unit, note)}.  Traced
    and untraced workload runs alternate; which goes first alternates too."""
    runner.child([])

    def pair(i):
        first = bool((i + runner.seed) % 2)
        done = {t: runner.child(runner.calls, trace=t)
                for t in (first, not first)}
        return done[False], done[True]

    pairs = runner.repeat(seconds, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    note = "median of %d traced workload runs" % len(traced)
    metrics = {}
    for key in traced[0]["layers"]:
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (statistics.median(t["layers"][key] for t in traced),
                        unit, note)
    metrics["trace.overhead_ratio"] = (
        statistics.median(ref_run_s(t) for t in traced)
        / statistics.median(ref_run_s(p) for p in plain), "ratio",
        "traced over untraced run_s, %d pairs" % len(pairs))
    return plain + traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        ap.error("seed must fit in 64 bits")
    if args.seconds < 1:
        ap.error("seconds must be at least 1")
    if not (SRC / "kummergauss" / "cli.py").is_file():
        print("perfbench: no kummergauss sources under %s" % SRC,
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace
                                                else "end_to_end"]}

    runner = Runner(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    print("perfbench workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    speed_before = speed_probe()
    try:
        results, metrics = (measure_traced if args.trace else measure)(
            runner, args.seconds)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    env = dict(results[0]["env"], nproc=len(os.sched_getaffinity(0)),
               machine=platform.machine(),
               speed_probe_s=[speed_before, speed_probe()])
    print("env %s" % json.dumps(env, sort_keys=True))

    for call, rec in zip(runner.calls, results[0]["records"]):
        print("call %s %s" % (call["command"],
                              json.dumps(rec.get("config"), sort_keys=True)))
    digests = sorted({digest_of(r) for r in results})
    for d in digests:
        print("digest %s %s" % (args.workload, d))
    for r in results:
        for rec in r["records"]:
            if rec["raised"]:
                print("raised:\n%s" % rec["raised"], file=sys.stderr)
    attempted, failed = tally(results)
    correct = failed == 0 and len(digests) == 1
    print("metric %-40s %14.6f %-7s %d failed of %d checks attempted"
          % ("fail_ratio", failed / attempted, "ratio", failed, attempted))
    missing = [m for m in units if m not in metrics]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    shown = metrics if not args.trace else {m: metrics[m] for m in units}
    for name, (value, unit, note) in shown.items():
        print("metric %-40s %14.6f %-7s %s"
              % (name, value, units.get(name, unit), note))

    out = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "env": env,
           "calls": runner.calls, "digests": digests,
           "attempted": attempted, "failed": failed,
           "metrics": {k: v for k, (v, _, _) in metrics.items()},
           "runs": [{"wall_s": r["wall_s"], "setup_s": r["setup_s"],
                     "setup_ref_s": r["setup_ref_s"], "cpu_s": r["cpu_s"],
                     "peak_rss_mb": r["peak_rss_mb"],
                     "call_s": [rec["wall_s"] for rec in r["records"]],
                     "call_ref_s": [rec["ref_s"] for rec in r["records"]]}
                    for r in results]}
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                         args.trace))).write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": u}
                    for m, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
