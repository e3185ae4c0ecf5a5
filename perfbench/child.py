"""One workload run in a fresh interpreter.

Imports kummergauss (and numpy, which ``kummergauss.sphere`` imports
anyway) and reads a JSON job from stdin: {"calls": [...], "trace": bool,
"spans_path": str or null}.  Optionally installs the tracer, runs every
call through ``kummergauss.cli.run`` and prints one JSON result line on
stdout.  ``ready_at`` is the ``time.monotonic()`` reading just before the
first call and ``sampled_at`` the one just before the first speed sample;
monotonic time is system-wide on Linux, so the parent subtracts its own
spawn reading from them to get the set-up time.

The CPU speed is sampled (speed.py) before and after each of the heavy
imports, so that set-up time can be given at the reference speed too, and
from a timer while the calls run.
"""

import hashlib
import json
import platform
import resource
import sys
import time
import traceback

from speed import SpeedSampler

SAMPLED_AT = time.monotonic()
SAMPLER = SpeedSampler()
SAMPLER.sample()

import numpy as np  # noqa: E402

SAMPLER.sample()

from kummergauss import cli  # noqa: E402
from kummergauss.rings import parse_rational, rat  # noqa: E402
from tracer import Tracer  # noqa: E402

SAMPLER.sample()


def report_digest(report):
    """sha256 of the canonical report without its timing field."""
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def make_config(call):
    lam = call["lambdas"]
    kwargs = {k: call[k] for k in ("seed", "points") if k in call}
    return cli.RunConfig(command=call["command"],
                     lambdas=None if lam is None else tuple(
                         parse_rational(x) for x in lam),
                     sigma_level=call["sigma_level"], **kwargs)


def run_calls(configs, sampler=None):
    """Run each config through cli.run; one record per call.  With a
    running SpeedSampler, each record also has ``ref_s``, the call's time
    at the reference CPU speed."""
    records = []
    ref = sampler.ref_now if sampler is not None else (lambda: None)
    for cfg in configs:
        r0 = ref()
        t0 = time.perf_counter()
        try:
            # looked up on the module so a traced cli.run is used
            report, code = cli.run(cfg)
        except Exception:
            records.append({"wall_s": time.perf_counter() - t0,
                            "raised": traceback.format_exc(), "checks": 0,
                            "failed_checks": 0, "exit_code": None})
            continue
        wall = time.perf_counter() - t0
        ref_s = None if r0 is None else ref() - r0
        statuses = [c["status"] for c in report["checks"]]
        records.append({
            "wall_s": wall, "ref_s": ref_s, "raised": None,
            "exit_code": code,
            "checks": len(statuses), "failed_checks": statuses.count("fail"),
            "digest": report_digest(report), "config": report["config"],
            "command": report["command"],
            "ricci_values": sum(len(c.get("values", ())) for c in
                                report["checks"]
                                if c["name"] == "ricci-point-nonzero"),
        })
    return records


def layer_metrics(tracer, calls, records):
    """Flat per-layer numbers for one traced workload run."""
    out = {}
    for name, (n, total_s, self_s) in tracer.stats.items():
        out[name + ".calls"] = n
        out[name + ".total_s"] = total_s
        out[name + ".self_s"] = self_s
    out["rings.Poly.mul.terms_out"] = tracer.terms_out
    out["rings.coeff_bits.max"] = tracer.coeff_bits_max
    points = sum(c.get("points", 0) for c in calls
                 if c["command"] in ("inversion-verify", "ricci-point",
                                     "dz-check"))
    xyz = tracer.stats["inversion.xyz_jets"][0]
    out["inversion.xyz_jets.per_point"] = xyz / points if points else 0.0
    rp = tracer.stats["inversion.ricci_point"][0]
    useful = sum(r.get("ricci_values", 0) for r in records)
    out["inversion.ricci_point.useful_ratio"] = useful / rp if rp else 0.0
    return out


def environment():
    return {"python": platform.python_version(),
            "rational_backend": type(rat(1, 2)).__module__,
            "numpy": np.__version__,
            "longdouble_nmant": int(np.finfo(np.longdouble).nmant)}


def main():
    job = json.loads(sys.stdin.read())
    configs = [make_config(c) for c in job["calls"]]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    ready_at = time.monotonic()
    ready_ref_s = SAMPLER.ref_now()
    SAMPLER.start()
    cpu0 = time.process_time()
    records = run_calls(configs, SAMPLER)
    cpu_s = time.process_time() - cpu0
    SAMPLER.stop()
    result = {"sampled_at": SAMPLED_AT, "first_speed": SAMPLER.first_speed,
              "ready_at": ready_at, "ready_ref_s": ready_ref_s,
              "records": records, "cpu_s": cpu_s,
              "speed_samples": SAMPLER.samples, "probe_s": SAMPLER.probe_s,
              "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, job["calls"], records)
        if job.get("spans_path"):
            with open(job["spans_path"], "w") as fh:
                json.dump(tracer.span_records(), fh)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
