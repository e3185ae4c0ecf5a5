"""Command-line verification driver.

Each subcommand runs one verification and emits a report, as canonical
JSON (sorted keys, exact rationals as "p/q" strings) or as an aligned
text table.  Exit status: 0 when every check passes, 1 when any check
fails, 2 on a configuration error or when the report cannot be written.
"""

import json
import math
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import __version__, reference
from .inversion import (ChartBPoint, dz_closed_form, quartic_check,
                        quartic_identities, random_admissible_points,
                        ricci_point)
from .rings import format_rational, parse_rational
from .sigma import (DEFAULT_ORDER, build_sigma, kernel_residual, kummer_det,
                    pde_residuals)
from .sphere import (MIN_TOLERANCE, chern_number, fresnel_reduce,
                     goepel_constants, kahler_conformal_check,
                     sphere_einstein_check)

MAX_ORDER_LIMIT = 20
# the commands that build a sigma frame, at --sigma-level
_SIGMA_COMMANDS = ("quartic-verify", "pde-verify", "kernel-verify",
                   "metric-report", "ricci-leading")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    lambdas: object = None            # None = symbolic, else 5 rationals
    sigma_level: int = 7
    max_order: int = DEFAULT_ORDER
    seed: int = 20260803
    points: int = 20
    tolerance: float = 1e-6

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError("unknown command %r" % self.command)
        # a bool is an int, and 7.0 == 7: neither may stand for an int
        for name in ("sigma_level", "max_order", "seed", "points"):
            if type(getattr(self, name)) is not int:
                raise ConfigError("%s must be an integer" % name)
        if self.sigma_level not in (3, 5, 7):
            raise ConfigError("sigma level must be 3, 5 or 7")
        if not 0 <= self.max_order <= MAX_ORDER_LIMIT:
            raise ConfigError("max order must be 0 to %d" % MAX_ORDER_LIMIT)
        levels = self.levels()
        if self.reads_zero_chart() and self.max_order < max(levels) + 2:
            raise ConfigError("max order must be at least %d, the highest "
                              "sigma level run + 2" % (max(levels) + 2))
        if self.points < 1:
            raise ConfigError("points must be at least 1")
        if self.lambdas is not None:
            if not isinstance(self.lambdas, (tuple, list)) \
                    or len(self.lambdas) != 5:
                raise ConfigError("lambda wants exactly five rationals")
            # a float would compare equal to a memoised rational frame
            if not all(type(x) in (int, Fraction) for x in self.lambdas):
                raise ConfigError("lambda entries must be integers or "
                                  "fractions")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must fit in 64 bits")
        # the report echoes the tolerance as a JSON number
        if type(self.tolerance) not in (int, float) \
                or not math.isfinite(self.tolerance) \
                or self.tolerance < MIN_TOLERANCE:
            raise ConfigError("tolerance must be a finite number >= 1e-10")

    def lambda_echo(self):
        if self.lambdas is None:
            return "symbolic"
        return [format_rational(x) for x in self.lambdas]

    def levels(self):
        """The sigma levels the command runs: all three for ``all``, none
        for the inversion-chart and double-sphere commands."""
        if self.command == "all":
            return (3, 5, 7)
        return (self.sigma_level,) if self.command in _SIGMA_COMMANDS else ()

    def reads_zero_chart(self):
        """Whether the run reads the lambda = 0 chart, the only frame built
        at --max-order: every sigma command at lambda = 0, and the
        symbolic metric-report, ricci-leading and all."""
        if self.lambdas is None:
            return self.command in ("metric-report", "ricci-leading", "all")
        return bool(self.levels()) and not self.nonzero_lambda()

    def nonzero_lambda(self):
        """Numeric moduli, not all zero: they fold into every coefficient,
        so the lambda-free regressions do not apply."""
        return self.lambdas is not None and any(x != 0 for x in self.lambdas)


def _frame(level, lambdas, order):
    """The sigma frame of (level, lambda tuple or None, order), built once
    per process by the function bound to ``build_sigma`` here.  A frame's
    stages are pure and filled on first use, so a later run reads the same
    objects; a wrapper bound in its place (a tracer, a test's counter)
    builds its own frames, so it sees every frame its runs read."""
    return _built_frame(build_sigma, level, lambdas, order)


@lru_cache(maxsize=4)
def _built_frame(build, level, lambdas, order):
    """Four frames are the most one run builds: a symbolic ``all`` reads
    three levels and the zero chart."""
    return build(level, lambdas=lambdas, order=order)


@lru_cache(maxsize=1)
def _identities(build):
    """Both quartic identities, built once per process by the function
    bound to ``quartic_identities`` here, as ``_frame`` keeps frames."""
    return build()


@lru_cache(maxsize=1)
def _drawn_points(draw, seed, count, lambdas):
    """The points of (seed, count, lambda tuple) and those among them whose
    jet dZ differs from the closed form, drawn, lifted and dZ-checked once
    per process by the function bound to ``random_admissible_points``
    here, as ``_frame`` keeps frames.  A point keeps its lift and metric,
    so a later run reads the same objects.  One set serves every chart
    command of one invocation, which reads one (seed, points, lambda)."""
    points = tuple(draw(seed, count, lambdas=lambdas))
    bad = []
    for p in points:
        Z = p.lift[2]
        dz1, dz2 = dz_closed_form(p)
        if not (Z.get(1, 0) - dz1).is_zero() \
                or not (Z.get(0, 1) - dz2).is_zero():
            bad.append(p)
    return points, tuple(bad)


# The runners share frames and points only through the process memos
# above: ``_frame`` and ``_drawn_points`` are the one sharing layer.

def _zero_chart(cfg):
    """The lambda = 0 frame at --max-order.  There sigma is exactly
    u - v^3/3 at every level (by weight), so the chart is exact at any
    order; every lambda-free regression reads it."""
    return _frame(3, (0, 0, 0, 0, 0), cfg.max_order)


def _frames(cfg):
    """A frame per level the command runs.  A lambda-dependent sigma
    truncated at level L matches the true one only through degree L + 1,
    so its frame stops there and the ledger carries that horizon into
    every validated order; at lambda = 0 every level is the zero chart."""
    if cfg.lambdas is not None and not cfg.nonzero_lambda():
        return {level: _zero_chart(cfg) for level in cfg.levels()}
    lambdas = None if cfg.lambdas is None else tuple(cfg.lambdas)
    return {level: _frame(level, lambdas, level + 1)
            for level in cfg.levels()}


def _points(cfg):
    """(points, dZ failures) of the run's seed, count and lambda; the
    inversion-chart commands have no symbolic mode, so symbolic lambda
    draws at lambda = 0."""
    lambdas = (0, 0, 0, 0, 0) if cfg.lambdas is None else tuple(cfg.lambdas)
    return _drawn_points(random_admissible_points, cfg.seed, cfg.points,
                         lambdas)


def _check(name, ok, qualified=False, **data):
    status = "pass" if ok else ("qualified" if qualified else "fail")
    rec = {"name": name, "status": status}
    rec.update(data)
    return rec


def _zero_through(series):
    """Largest order the series is zero through (known order if it has no
    terms at all)."""
    v = series.valuation()
    return series.known_order if v is None else v - 1


# -- sigma-chart commands ---------------------------------------------

def run_quartic(cfg):
    out = []
    for level, s in _frames(cfg).items():
        det = kummer_det(s)
        expected = level + 2
        z = _zero_through(det)
        out.append(_check("quartic-level-%d" % level, z >= expected,
                          expected_order=expected, zero_through=z,
                          validated_order=det.known_order,
                          first_nonzero_degree=det.valuation()))
    return out


def _residual_checks(prefix, residuals, cfg):
    """One check per residual at every level: it must vanish through the
    sigma level."""
    out = []
    for level, s in _frames(cfg).items():
        for i, r in enumerate(residuals(s), start=1):
            num = r.num
            z = _zero_through(num)
            out.append(_check("%s-%d-level-%d" % (prefix, i, level),
                              z >= level, expected_order=level,
                              zero_through=z, validated_order=num.known_order))
    return out


def run_pde(cfg):
    return _residual_checks("pde", pde_residuals, cfg)


def run_kernel(cfg):
    return _residual_checks("kernel-row", kernel_residual, cfg)


def run_metric(cfg):
    nonzero = cfg.nonzero_lambda()
    s = _frames(cfg)[cfg.sigma_level] if nonzero else _zero_chart(cfg)
    m = s.metric
    targets = [("ghat11", m.ghat11, reference.GHAT11_FREE),
               ("ghat12", m.ghat12, reference.GHAT12_FREE),
               ("ghat22", m.ghat22, reference.GHAT22_FREE),
               ("dhat", s.dhat, reference.DHAT_FREE)]
    out = []
    for name, series, target in targets:
        if nonzero:
            # specialized nonzero moduli fold into every coefficient; the
            # display regression only applies symbolically or at zero
            out.append(_check("metric-%s" % name, False, qualified=True,
                              note="display regression needs symbolic or "
                                   "zero lambda",
                              lowest_terms=str(series.lowest_terms()[1]),
                              validated_order=series.known_order))
            continue
        # only coefficients inside the validated order are comparable
        want = target.truncated(series.known_order)
        ok = series.body == want
        out.append(_check("metric-%s" % name, ok,
                          lambda_free=str(series.body), expected=str(want),
                          compared_through=series.known_order,
                          complete=want == target))
    return out


def _ricci_checks(level, rep, zero):
    """Fingerprint checks at one level: ``rep`` is the cleared Ricci of the
    level's frame, ``zero`` that of the zero chart (None for nonzero
    lambda, where no lambda-free regression applies)."""
    out = []
    for name in ("R11", "R12", "R22"):
        if zero is None:
            series = rep[name]
            degree, lowest = series.lowest_terms()
            out.append(_check("ricci-%s-level-%d" % (name, level), False,
                              qualified=True,
                              note="fingerprint regression needs symbolic "
                                   "or zero lambda",
                              lowest_degree=degree, lowest_terms=str(lowest),
                              validated_order=series.known_order))
            continue
        expected_deg, target = reference.RICCI_LOWEST[name]
        degree, lowest = zero[name].lowest_terms()
        ok = degree == expected_deg and lowest == target
        out.append(_check("ricci-%s-level-%d" % (name, level), ok,
                          expected_degree=expected_deg,
                          lowest_degree=degree, lowest_terms=str(lowest),
                          expected=str(target)))
    out.append(_check("ricci-symmetry-level-%d" % level,
                      rep["ricci_symmetry_ok"]
                      and (zero is None or zero["ricci_symmetry_ok"])))
    return out


def run_ricci_leading(cfg):
    zero = None if cfg.nonzero_lambda() else _zero_chart(cfg).cleared_ricci
    return [c for level, s in _frames(cfg).items()
            for c in _ricci_checks(level, s.cleared_ricci, zero)]


# -- inversion-chart commands -----------------------------------------

_WITNESSES = (
    ChartBPoint(1, 4),
    ChartBPoint(1, 4, sign2=-1),
    ChartBPoint(1, 2, lambdas=(1, 0, 0, 0, 0)),
)


def _point_echo(p):
    return {"x1": format_rational(p.x1), "x2": format_rational(p.x2),
            "signs": [p.sign1, p.sign2],
            "lambdas": [format_rational(x) for x in p.lambdas]}


def _dz_check(name, cfg):
    """Whether the jet dZ of every drawn point equals the closed form; the
    echoes of the points where it does not are built afresh per report."""
    points, bad = _points(cfg)
    return _check(name, not bad, points=len(points),
                  failures=[_point_echo(p) for p in bad])


def run_inversion(cfg):
    # fixed witnesses, including the two Z sheet values; each run lifts
    # its own copies
    witnesses = [replace(w) for w in _WITNESSES]
    w, w2 = witnesses[:2]
    X, Y, Z, _ = w.lift
    z = format_rational(Z.base.rational_value())
    z2 = format_rational(w2.lift[2].base.rational_value())
    out = [_check("inversion-witness-z", z == "16/9", point=_point_echo(w),
                  X=format_rational(X.base.a), Y=format_rational(Y.base.a),
                  Z=z),
           _check("inversion-witness-z-sheet", z2 == "16/1",
                  point=_point_echo(w2), Z=z2)]
    for i, w in enumerate(witnesses):
        val = quartic_check(w)
        out.append(_check("inversion-witness-%d-quartic" % (i + 1),
                          val.is_zero(), point=_point_echo(w),
                          value=str(val)))
    # the quartic as one identity in symbolic lambda on both sheets
    det, reduced = _identities(quartic_identities)["wp11"]
    out.append(_check("inversion-quartic-identity", reduced.is_zero(),
                      terms=len(det.terms), reduced_terms=len(reduced.terms),
                      **{"lambda": "symbolic"}))
    out.append(_dz_check("inversion-random-dz", cfg))
    # the discrepancy resolution: the alternative diagonal entry must fail
    _, alt = _identities(quartic_identities)["wp22"]
    val = quartic_check(witnesses[0], variant="wp22")
    out.append(_check("inversion-variant-wp22-fails", not alt.is_zero(),
                      point=_point_echo(witnesses[0]), value=str(val),
                      reduced_terms=len(alt.terms)))
    return out


def run_ricci_point(cfg):
    points = _points(cfg)[0]
    all_nonzero = True
    values = []
    for p in points:
        rep = ricci_point(p)
        nz = all(not rep[k].is_zero() for k in ("R11", "R12", "R22"))
        sym = (rep["R12"] - rep["R21"]).is_zero()
        all_nonzero = all_nonzero and nz and sym
        values.append({"point": _point_echo(p),
                       "R11": str(rep["R11"]), "R12": str(rep["R12"]),
                       "R22": str(rep["R22"]), "nonzero": nz,
                       "symmetric": sym})
    return [_check("ricci-point-nonzero", all_nonzero,
                   points=len(points), values=values)]


def run_dz(cfg):
    return [_dz_check("dz-closed-form", cfg)]


# -- double-sphere commands -------------------------------------------

def _exact_zero_checks(prefix, rep):
    """One check per ``max_<name>_dev`` field of an exact chart report; it
    passes only when that residual is exactly zero."""
    return [_check("%s-%s" % (prefix, key[len("max_"):-len("_dev")]),
                   dev == 0, points=rep["points"],
                   **{key: format_rational(dev)})
            for key, dev in rep.items() if key.startswith("max_")]


def run_sphere(cfg):
    return _exact_zero_checks("sphere", sphere_einstein_check())


def run_kahler(cfg):
    return _exact_zero_checks("kahler", kahler_conformal_check())


def run_chern(cfg):
    tol = cfg.tolerance
    radius, c1, limit = chern_number(tolerance=tol)
    remainder = 2 - c1
    return [_check("chern-number", limit == 2 and remainder <= tol,
                   tolerance=tol, radius=format_rational(radius),
                   c1=format_rational(c1),
                   remainder=format_rational(remainder),
                   limit=None if limit is None else format_rational(limit))]


def run_goepel(cfg):
    a, b, c, d = goepel_constants(1, 1, 1, -3)
    ok = (a, b, c, d) == (2, 2, 2, 0)
    return [_check("goepel-constants", ok,
                   input=["1/1", "1/1", "1/1", "-3/1"],
                   constants=[format_rational(x) for x in (a, b, c, d)])]


def run_fresnel(cfg):
    quartic, identity = fresnel_reduce()
    return [_check("fresnel-double-sphere", identity,
                   quartic=str(quartic))]


def run_all(cfg):
    """Every other command's checks, the sigma ones at levels 3, 5 and 7;
    the runners share frames and points through the process memos."""
    return [c for name, runner in _RUNNERS.items() if name != "all"
            for c in runner(cfg)]


_RUNNERS = {
    "quartic-verify": run_quartic,
    "pde-verify": run_pde,
    "kernel-verify": run_kernel,
    "metric-report": run_metric,
    "ricci-leading": run_ricci_leading,
    "inversion-verify": run_inversion,
    "ricci-point": run_ricci_point,
    "dz-check": run_dz,
    "sphere-verify": run_sphere,
    "kahler-verify": run_kahler,
    "chern": run_chern,
    "goepel": run_goepel,
    "fresnel": run_fresnel,
    "all": run_all,
}
COMMANDS = tuple(_RUNNERS)


def run(cfg):
    """Execute the configured command; returns (report dict, exit code)."""
    cfg.validate()
    start = time.monotonic()
    checks = _RUNNERS[cfg.command](cfg)
    checks.sort(key=lambda c: c["name"])
    failed = any(c["status"] == "fail" for c in checks)
    report = {
        "command": cfg.command,
        "config": {
            "lambda": cfg.lambda_echo(),
            "sigma_level": cfg.sigma_level,
            "max_order": cfg.max_order,
            "seed": cfg.seed,
            "points": cfg.points,
            "tolerance": cfg.tolerance,
        },
        "checks": checks,
        "status": "fail" if failed else "pass",
        "versions": {"kummergauss": __version__,
                     "python": "%d.%d" % sys.version_info[:2]},
        "wall_time_s": round(time.monotonic() - start, 3),
    }
    return report, (1 if failed else 0)


def render_text(report):
    lines = ["command: %s" % report["command"],
             "status:  %s" % report["status"], ""]
    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        extra = {k: v for k, v in c.items() if k not in ("name", "status")}
        detail = " ".join("%s=%s" % (k, v) for k, v in sorted(extra.items()))
        lines.append("%-*s  %-9s  %s" % (width, c["name"], c["status"],
                                         detail))
    lines.append("")
    lines.append("wall time: %ss" % report["wall_time_s"])
    return "\n".join(lines) + "\n"


def _parse_lambda(text):
    if text == "symbolic":
        return None
    parts = text.split(",")
    if len(parts) != 5:
        raise ConfigError(
            "lambda wants 'symbolic' or five comma-separated rationals")
    try:
        return tuple(parse_rational(p) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError("bad rational in lambda: %s" % e)


def build_parser():
    # imported here, so that importing the module for ``run`` skips it
    import argparse
    ap = argparse.ArgumentParser(
        prog="kummer-verify",
        description="exact verification suite for the Kummer-surface "
                    "Gauss-metric computation")
    ap.add_argument("command", nargs="+", choices=COMMANDS,
                    help="one or more commands, run in order with the same "
                         "flags; they share the sigma frames and random "
                         "points they read")
    ap.add_argument("--lambda", dest="lam", default="symbolic",
                    help="'symbolic' or five comma-separated rationals "
                         "l0,l1,l2,l3,l4 (default symbolic)")
    ap.add_argument("--sigma-level", type=int, default=RunConfig.sigma_level,
                    help="sigma truncation level: 3, 5 or 7 (default %d)"
                         % RunConfig.sigma_level)
    ap.add_argument("--max-order", type=int, default=RunConfig.max_order,
                    help="order of the exact lambda = 0 chart, which every "
                         "lambda-free regression reads, at most %d "
                         "(default %d); a run that reads it needs at least "
                         "sigma-level+2, and all needs 9.  Frames that "
                         "depend on lambda (symbolic or nonzero) stop at "
                         "sigma-level+1, the last degree the truncated "
                         "sigma shares with the true one, and do not read "
                         "this order"
                         % (MAX_ORDER_LIMIT, RunConfig.max_order))
    ap.add_argument("--seed", type=int, default=RunConfig.seed,
                    help="seed for the random point streams")
    ap.add_argument("--points", type=int, default=RunConfig.points,
                    help="random point count for the chart checks")
    ap.add_argument("--tol", type=float, default=RunConfig.tolerance,
                    help="largest remainder 2 - c1(R) the exact Chern "
                         "number may leave (at least 1e-10)")
    ap.add_argument("--output", default="-",
                    help="report destination path, '-' for stdout")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    return ap


def configs_from_args(args):
    """One config per command named on the command line, all with the
    same flags."""
    return [RunConfig(command=command, lambdas=_parse_lambda(args.lam),
                      sigma_level=args.sigma_level,
                      max_order=args.max_order, seed=args.seed,
                      points=args.points, tolerance=args.tol)
            for command in args.command]


def main(argv=None):
    """Run each command given; one command writes its report, several
    write a JSON list of reports (or the text reports one after another).
    Every config is validated before the first run."""
    args = build_parser().parse_args(argv)
    try:
        cfgs = configs_from_args(args)
        for cfg in cfgs:
            cfg.validate()
        results = [run(cfg) for cfg in cfgs]
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    reports = [report for report, _ in results]
    code = max(code for _, code in results)
    if args.format == "json":
        doc = reports[0] if len(reports) == 1 else reports
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(render_text(report) for report in reports)
    if args.output == "-":
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as e:
        print("write error: %s" % e, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
