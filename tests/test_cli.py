"""Tests for the command-line driver: exit codes, report determinism and
JSON round-trips."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import kummergauss
from kummergauss import cli, inversion
from kummergauss.cli import ConfigError, RunConfig, configs_from_args, run
from kummergauss.sigma import DEFAULT_ORDER

LAM = cli._parse_lambda("1/2,-3,2/7,5,-1")
ZERO = (0, 0, 0, 0, 0)


def quick_cfg(command, **kw):
    base = dict(command=command, sigma_level=3, max_order=8, points=2,
                seed=11)
    base.update(kw)
    return RunConfig(**base)


# -- config validation ------------------------------------------------

def test_order_floor_enforced():
    """The zero chart is built at --max-order, so a run that reads it needs
    at least its sigma level + 2."""
    with pytest.raises(ConfigError):
        quick_cfg("quartic-verify", sigma_level=7, max_order=8,
                  lambdas=(0, 0, 0, 0, 0)).validate()
    with pytest.raises(ConfigError):
        quick_cfg("ricci-leading", sigma_level=7, max_order=8).validate()


def test_all_order_floor_is_its_top_level():
    """``all`` runs level 7 whatever --sigma-level says, so its floor is 9."""
    with pytest.raises(ConfigError):
        quick_cfg("all", sigma_level=3, max_order=8).validate()
    assert cli.main(["all", "--sigma-level", "3", "--max-order", "5"]) == 2


def test_order_floor_only_for_sigma_commands():
    """Only the zero chart reads --max-order, so the level + 2 floor
    applies to the runs that read it: every sigma command at lambda = 0,
    and the symbolic metric-report, ricci-leading and all.  Commands that
    build no sigma frame run no sigma level, and lambda-dependent frames
    stop at level + 1 whatever the order."""
    sigma = ("quartic-verify", "pde-verify", "kernel-verify",
             "metric-report", "ricci-leading", "all")
    symbolic_zero_chart = ("metric-report", "ricci-leading", "all")
    for command in cli.COMMANDS:
        assert bool(quick_cfg(command).levels()) == (command in sigma)
        for lam in (None, (0, 0, 0, 0, 0), LAM):
            cfg = quick_cfg(command, max_order=1, lambdas=lam)
            floored = command in sigma and (
                lam == (0, 0, 0, 0, 0)
                or (lam is None and command in symbolic_zero_chart))
            if floored:
                with pytest.raises(ConfigError):
                    cfg.validate()
            else:
                cfg.validate()
    assert cli.main(["chern", "--max-order", "5", "--output",
                     os.devnull]) == 0


def test_lambda_frames_ignore_max_order(tmp_path):
    """A run on lambda-dependent frames only echoes --max-order: below the
    old floor it exits 0 with the report it gives at the floor."""
    reports = []
    for order in ("8", "9"):
        out = tmp_path / ("pde-%s.json" % order)
        assert cli.main(["pde-verify", "--lambda", "1/2,-3,2/7,5,-1",
                         "--max-order", order, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"].pop("max_order") == int(order)
        rep.pop("wall_time_s")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_order_cap_enforced():
    with pytest.raises(ConfigError):
        quick_cfg("quartic-verify", max_order=24).validate()


def test_negative_order_rejected():
    """No command reads a negative order, even one that builds no frame."""
    with pytest.raises(ConfigError):
        quick_cfg("chern", max_order=-1).validate()
    assert cli.main(["chern", "--max-order", "-1"]) == 2


def test_non_finite_tolerance_rejected():
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            quick_cfg("chern", tolerance=tol).validate()
    assert cli.main(["chern", "--tol", "inf"]) == 2
    assert cli.main(["chern", "--tol", "nan"]) == 2


def test_bad_level_rejected():
    with pytest.raises(ConfigError):
        quick_cfg("quartic-verify", sigma_level=4).validate()


def test_points_floor():
    with pytest.raises(ConfigError):
        quick_cfg("dz-check", points=0).validate()


@pytest.mark.parametrize("kw", [
    dict(command="nope"), dict(seed=1 << 64),
    # integer fields take an int that is not a bool
    dict(command="metric-report", lambdas=(0,) * 5, max_order=16.0),
    dict(sigma_level=7.0), dict(points=2.5), dict(seed=1.5),
    dict(points=True),
    dict(lambdas=(True, 0, 0, 0, 0)),
    # the report echoes the tolerance as a JSON number
    dict(tolerance=True), dict(tolerance=Fraction(1, 10 ** 6)),
], ids=["unknown-command", "seed-past-64-bits", "float-max-order",
        "float-sigma-level", "float-points", "float-seed", "bool-points",
        "bool-lambda", "bool-tolerance", "fraction-tolerance"])
def test_config_rejected(kw):
    with pytest.raises(ConfigError):
        RunConfig(**{"command": "chern", **kw}).validate()


def test_seed_past_64_bits_exits_two(capsys):
    assert cli.main(["chern", "--seed", str(1 << 64)]) == 2
    assert "64 bits" in capsys.readouterr().err


def test_bad_lambda_count():
    with pytest.raises(ConfigError):
        quick_cfg("quartic-verify", lambdas=(1, 2)).validate()


def test_float_lambda_rejected():
    """0.5 == 1/2 would reuse the rational frame, so only exact entries
    are accepted, with a config error rather than a failure inside the
    ring layer."""
    with pytest.raises(ConfigError):
        quick_cfg("quartic-verify", lambdas=(0.5, 1, 2, 3, 4)).validate()
    with pytest.raises(ConfigError):
        run(quick_cfg("quartic-verify", lambdas=(1, 2, 3, 4, 5.0)))


def test_lambda_list_runs_like_its_tuple(monkeypatch):
    """A lambda list is keyed as its tuple: it reports what the tuple does
    and reuses the tuple's frame."""
    frames = []
    _counted(monkeypatch, cli, "build_sigma", frames)
    tuple_body, list_body = [
        _report_body(quick_cfg("quartic-verify", lambdas=lambdas))
        for lambdas in (LAM, list(LAM))]
    assert tuple_body == list_body
    assert _frame_keys(frames) == [(3, LAM, 4)]


def test_lambda_parsing():
    assert cli._parse_lambda("symbolic") is None
    vals = cli._parse_lambda("1,1/2,-3,0,2/7")
    assert [str(v) for v in vals] == ["1", "1/2", "-3", "0", "2/7"]
    with pytest.raises(ConfigError):
        cli._parse_lambda("1,2,3")
    with pytest.raises(ConfigError):
        cli._parse_lambda("a,b,c,d,e")


def test_parser_defaults_are_the_config_defaults():
    """A command given alone runs the RunConfig defaults."""
    for command in cli.COMMANDS:
        args = cli.build_parser().parse_args([command])
        assert configs_from_args(args)[0] == RunConfig(command)


def test_environment_does_not_set_max_order(monkeypatch):
    """Only --max-order sets the working order; the environment does not."""
    args = cli.build_parser().parse_args(["quartic-verify"])
    monkeypatch.setenv("KUMMER_MAX_ORDER", "12")
    assert [cfg.max_order for cfg in configs_from_args(args)] == [
        DEFAULT_ORDER]


# -- exit codes -------------------------------------------------------

def test_main_exit_zero_on_pass(capsys):
    code = cli.main(["goepel"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "pass"


def test_main_exit_two_on_config_error(capsys):
    assert cli.main(["quartic-verify", "--max-order", "30"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-thing"])
    assert exc.value.code == 2


def test_run_exit_one_on_failing_check(monkeypatch):
    def always_fail(cfg):
        return [cli._check("synthetic", False, detail="forced")]
    monkeypatch.setitem(cli._RUNNERS, "fresnel", always_fail)
    report, code = run(quick_cfg("fresnel"))
    assert code == 1
    assert report["status"] == "fail"


def test_dz_mismatch_fails_with_the_point_echo(monkeypatch):
    """A point whose jet dZ differs from the closed form fails
    dz-closed-form with that point's echo alone, and the run exits 1."""
    real, seen = cli.dz_closed_form, []

    def off_at_first_point(p):
        seen.append(p)
        dz1, dz2 = real(p)
        return (dz1 + dz1.ctx.one if len(seen) == 1 else dz1), dz2
    monkeypatch.setattr(cli, "dz_closed_form", off_at_first_point)
    # the memo keeps each point set with its dZ failures
    cli._drawn_points.cache_clear()
    try:
        report, code = run(quick_cfg("dz-check", points=3))
    finally:
        cli._drawn_points.cache_clear()
    assert (code, report["status"], len(seen)) == (1, "fail", 3)
    [check] = report["checks"]
    assert check["status"] == "fail" and check["points"] == 3
    assert check["failures"] == [cli._point_echo(seen[0])]


def test_qualified_checks_still_exit_zero():
    cfg = quick_cfg("ricci-leading",
                    lambdas=cli._parse_lambda("1,0,0,0,0"))
    report, code = run(cfg)
    assert code == 0
    statuses = {c["status"] for c in report["checks"]}
    assert "qualified" in statuses and "fail" not in statuses


# -- report shape and determinism -------------------------------------

def test_report_round_trips_through_json():
    report, code = run(quick_cfg("inversion-verify"))
    assert code == 0
    text = json.dumps(report, sort_keys=True, indent=2)
    assert json.loads(text) == report


def test_reports_identical_for_same_config():
    r1, _ = run(quick_cfg("ricci-point"))
    r2, _ = run(quick_cfg("ricci-point"))
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_checks_sorted_by_name():
    report, _ = run(quick_cfg("pde-verify"))
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_rationals_serialized_decimal_free():
    report, _ = run(quick_cfg("goepel"))
    rec = report["checks"][0]
    assert rec["constants"] == ["2/1", "2/1", "2/1", "0/1"]


def test_output_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["fresnel", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["command"] == "fresnel"


def test_unwritable_output_exits_two(tmp_path, capsys):
    """A report that cannot be written is one error line and exit 2, not
    a traceback: exit 1 means a check failed."""
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["goepel", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("write error: ")
        assert captured.err.count("\n") == 1


def test_text_format_renders_table(capsys):
    code = cli.main(["goepel", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "goepel-constants" in out and "pass" in out


def test_quartic_report_orders():
    report, code = run(quick_cfg("quartic-verify", sigma_level=3))
    assert code == 0
    rec = report["checks"][0]
    assert rec["expected_order"] == 5
    assert rec["zero_through"] >= 5


def test_all_covers_every_family():
    cfg = quick_cfg("all", points=2, max_order=9)
    report, code = run(cfg)
    assert code == 0
    names = " ".join(c["name"] for c in report["checks"])
    for stem in ("quartic", "pde", "kernel", "metric", "ricci", "inversion",
                 "dz", "sphere", "kahler", "chern", "goepel", "fresnel"):
        assert stem in names, stem


def test_runs_without_numpy():
    """No runtime dependency: with numpy unimportable every module still
    imports and the double-sphere commands pass."""
    script = textwrap.dedent("""
        import importlib, pkgutil, sys
        sys.modules["numpy"] = None
        import kummergauss
        for mod in pkgutil.iter_modules(kummergauss.__path__):
            importlib.import_module("kummergauss." + mod.name)
        from kummergauss.cli import RunConfig, run
        for command in ("sphere-verify", "kahler-verify", "chern"):
            report, code = run(RunConfig(command=command))
            assert code == 0, report
    """)
    src = os.path.dirname(os.path.dirname(kummergauss.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- shared stages: one frame per level, one draw, one lift per point ---

def _counted(monkeypatch, module, name, calls):
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def _frame_keys(calls):
    """(level, lambdas, order) of each recorded ``build_sigma`` call."""
    return [(args[0], kw["lambdas"], kw["order"]) for args, kw in calls]


def test_all_shares_frames_and_points(monkeypatch):
    """One symbolic frame per level, each stopping at level + 1, plus one
    zero chart at --max-order; one draw of points."""
    frames, draws = [], []
    _counted(monkeypatch, cli, "build_sigma", frames)
    _counted(monkeypatch, cli, "random_admissible_points", draws)
    _, code = run(quick_cfg("all", max_order=9))
    assert code == 0
    assert sorted(_frame_keys(frames), key=str) == [
        (3, (0, 0, 0, 0, 0), 9), (3, None, 4), (5, None, 6), (7, None, 8)]
    assert len(draws) == 1


def test_numeric_frames_by_lambda(monkeypatch):
    """At lambda = 0 sigma is the same at every level: one exact frame
    at --max-order serves them all.  Nonzero moduli build no zero chart,
    since no lambda-free regression applies."""
    frames = []
    _counted(monkeypatch, cli, "build_sigma", frames)
    _, code = run(quick_cfg("all", max_order=9, lambdas=(0, 0, 0, 0, 0)))
    assert code == 0
    assert _frame_keys(frames) == [(3, (0, 0, 0, 0, 0), 9)]
    frames.clear()
    _, code = run(quick_cfg("all", max_order=9, lambdas=LAM))
    assert code == 0
    assert _frame_keys(frames) == [(3, LAM, 4), (5, LAM, 6), (7, LAM, 8)]


def test_frames_outlive_the_run(monkeypatch):
    """A run repeated at the same (level, lambda, order) builds no frame;
    a changed lambda does, and so does a changed --max-order for the zero
    chart."""
    frames = []
    _counted(monkeypatch, cli, "build_sigma", frames)
    for command in ("quartic-verify", "pde-verify", "quartic-verify"):
        assert run(quick_cfg(command, lambdas=LAM))[1] == 0
    assert _frame_keys(frames) == [(3, LAM, 4)]
    other = (1, 0, 0, 0, 0)
    assert run(quick_cfg("quartic-verify", lambdas=other))[1] == 0
    for order in (8, 9, 8):
        assert run(quick_cfg("quartic-verify", lambdas=ZERO,
                             max_order=order))[1] == 0
    assert _frame_keys(frames) == [(3, LAM, 4), (3, other, 4),
                                   (3, ZERO, 8), (3, ZERO, 9)]


def test_a_new_builder_starts_cold(monkeypatch):
    """Frames are memoised per function bound to ``cli.build_sigma``: a
    wrapper bound after other runs filled the memo sees the builds of its
    own runs, once per frame."""
    assert run(quick_cfg("quartic-verify", lambdas=LAM))[1] == 0
    frames = []
    _counted(monkeypatch, cli, "build_sigma", frames)
    for command in ("quartic-verify", "kernel-verify"):
        assert run(quick_cfg(command, lambdas=LAM))[1] == 0
    assert _frame_keys(frames) == [(3, LAM, 4)]


def test_commands_of_one_invocation_share_frames(monkeypatch, capsys):
    """Several commands in one invocation build each frame once and write
    a JSON list of the reports each would write alone."""
    argv = ["quartic-verify", "pde-verify", "kernel-verify", "metric-report",
            "--lambda", "1/2,-3,2/7,5,-1", "--sigma-level", "3"]
    frames = []
    _counted(monkeypatch, cli, "build_sigma", frames)
    assert cli.main(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    assert _frame_keys(frames) == [(3, LAM, 4)]
    assert [r["command"] for r in reports] == argv[:4]
    for report in reports:
        report.pop("wall_time_s")
        assert cli.main([report["command"]] + argv[4:]) == 0
        alone = json.loads(capsys.readouterr().out)
        alone.pop("wall_time_s")
        assert alone == report


def test_commands_of_one_invocation_exit_and_render(capsys):
    """The exit code is the worst of the runs, a config error in any
    command stops the invocation before the first run, and the text format
    renders each report in turn."""
    assert cli.main(["goepel", "fresnel", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.count("command: ") == 2
    assert out.index("goepel-constants") < out.index("command: fresnel")
    assert cli.main(["goepel", "quartic-verify", "--lambda", "0,0,0,0,0",
                     "--max-order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


def _report_body(cfg):
    report, code = run(cfg)
    assert code == 0
    report.pop("wall_time_s")
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("lambdas", [None, ZERO, LAM],
                         ids=["symbolic", "zero", "numeric"])
def test_reports_identical_cold_and_warm(lambdas):
    """A report does not depend on what earlier runs left in the memoised
    frames and points: each command reports the same from empty memos as
    after other commands filled the stages of its frames in another order
    and runs at other configs came between.  The runners of one ``all``
    share frames and points only through those memos."""
    inputs = [quick_cfg(command, lambdas=lambdas)
              for command in ("quartic-verify", "pde-verify",
                              "kernel-verify", "metric-report",
                              "ricci-leading")]
    inputs.append(quick_cfg("all", lambdas=lambdas, max_order=9))
    cold = []
    for cfg in inputs:
        cli._built_frame.cache_clear()
        cli._drawn_points.cache_clear()
        cold.append(_report_body(cfg))
    cli._built_frame.cache_clear()
    run(quick_cfg("ricci-leading", lambdas=lambdas))
    run(quick_cfg("pde-verify", sigma_level=5, lambdas=(1, 0, 0, 0, 0)))
    warm = [_report_body(cfg) for cfg in reversed(inputs)]
    assert warm[::-1] == cold


# -- honest horizons: lambda-dependent frames stop at level + 1 --------

@pytest.mark.parametrize("lambdas", [None, LAM], ids=["symbolic", "numeric"])
@pytest.mark.parametrize("level", [3, 5, 7])
def test_quartic_validated_through_the_horizon(level, lambdas):
    report, code = run(RunConfig(command="quartic-verify", sigma_level=level,
                                 lambdas=lambdas))
    assert code == 0
    rec, = report["checks"]
    assert rec["validated_order"] == level + 2
    assert rec["first_nonzero_degree"] is None


def test_zero_chart_validates_past_the_horizon():
    """At lambda = 0 the chart is exact, so the order is --max-order's."""
    report, code = run(RunConfig(command="quartic-verify",
                                 lambdas=(0, 0, 0, 0, 0)))
    assert code == 0
    assert report["checks"][0]["validated_order"] == DEFAULT_ORDER + 1


@pytest.mark.parametrize("command", ["pde-verify", "kernel-verify"])
def test_residual_reports_claim_only_the_ledger(command):
    """No field claims an exact zero beyond the known order: a residual
    with no term inside it reads zero_through == validated_order."""
    report, code = run(RunConfig(command=command, sigma_level=3))
    assert code == 0
    for rec in report["checks"]:
        assert set(rec) == {"name", "status", "expected_order",
                            "zero_through", "validated_order"}


def test_numeric_ricci_records_give_their_horizon():
    """A null lowest degree reads as "beyond the validated order"."""
    expect = {3: {"R11": (None, 8), "R12": (None, 10), "R22": (None, 10)},
              5: {"R11": (10, 10), "R12": (12, 12), "R22": (None, 12)},
              7: {"R11": (10, 12), "R12": (12, 14), "R22": (14, 14)}}
    for level, want in expect.items():
        report, code = run(RunConfig(command="ricci-leading",
                                     sigma_level=level, lambdas=LAM))
        assert code == 0
        got = {c["name"].split("-")[1]: (c["lowest_degree"],
                                         c["validated_order"])
               for c in report["checks"] if c["status"] == "qualified"}
        assert got == want, level


@pytest.mark.parametrize("lambdas", [(0, 0, 0, 0, 0), LAM],
                         ids=["zero", "numeric"])
def test_inversion_reports_the_quartic_identity(lambdas):
    """The quartic is one identity in symbolic lambda, whatever the run's
    lambda; the printed wp22 entry leaves a nonzero normal form."""
    report, code = run(quick_cfg("inversion-verify", lambdas=lambdas))
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert "inversion-random-quartic" not in checks
    assert checks["inversion-quartic-identity"] == {
        "name": "inversion-quartic-identity", "status": "pass",
        "lambda": "symbolic", "terms": 189, "reduced_terms": 0}
    alt = checks["inversion-variant-wp22-fails"]
    assert alt["status"] == "pass" and alt["reduced_terms"] == 264
    assert alt["value"] != "(0 + 0*y1 + 0*y2 + 0*y1y2)"


def _lifts(monkeypatch):
    """Records (point, order of its Z jet) for every ``xyz_jets`` call."""
    out, lift = [], inversion.xyz_jets

    def recorded(p):
        jets = lift(p)
        out.append((p, jets[2].order))
        return jets
    monkeypatch.setattr(inversion, "xyz_jets", recorded)
    return out


def _drawn(lifts):
    """The recorded lifts of drawn points, not of the witnesses."""
    return [p for p, _ in lifts if p not in cli._WITNESSES]


@pytest.mark.parametrize("command,witnesses", [
    ("ricci-point", 0), ("dz-check", 0), ("inversion-verify", 3), ("all", 3),
], ids=["ricci-point", "dz-check", "inversion-verify", "all"])
def test_lifts_at_the_order_each_command_reads(monkeypatch, command,
                                               witnesses):
    """Every command lifts each drawn point once, at JET_ORDER, the order
    Ricci reads; inversion-verify also lifts its three witnesses."""
    # an earlier test may have left this point set, lifted, in the memo
    cli._drawn_points.cache_clear()
    lifts = _lifts(monkeypatch)
    _, code = run(quick_cfg(command, max_order=9, points=3))
    assert code == 0
    drawn = _drawn(lifts)
    assert len(drawn) >= 3 and len(set(drawn)) == len(drawn)
    assert len(lifts) - len(drawn) == witnesses
    assert {order for _, order in lifts} == {inversion.JET_ORDER}


def test_all_checks_dz_once_per_point(monkeypatch):
    """inversion-random-dz and dz-closed-form share one dZ check."""
    cli._drawn_points.cache_clear()
    calls = []
    _counted(monkeypatch, cli, "dz_closed_form", calls)
    _, code = run(quick_cfg("all", max_order=9, points=3))
    assert code == 0
    assert len(calls) == 3


def test_point_sets_outlive_the_run(monkeypatch):
    """Runs of any chart command at the same (seed, points, lambda) draw,
    lift and dZ-check the points once; inversion-verify lifts its
    witnesses afresh in each run.  A changed seed, point count or lambda
    draws again and checks dZ once per point."""
    draws, dz = [], []
    # a draw function bound here is a new memo key: the test starts cold
    _counted(monkeypatch, cli, "random_admissible_points", draws)
    lifts = _lifts(monkeypatch)
    _counted(monkeypatch, cli, "dz_closed_form", dz)
    assert run(quick_cfg("dz-check", lambdas=LAM))[1] == 0
    assert (len(draws), len(dz)) == (1, 2)
    assert _drawn(lifts)
    lifts.clear()
    for command in ("dz-check", "inversion-verify", "ricci-point", "all",
                    "inversion-verify"):
        assert run(quick_cfg(command, lambdas=LAM))[1] == 0
    assert (len(draws), len(dz), _drawn(lifts)) == (1, 2, [])
    assert [p for p, _ in lifts] == list(cli._WITNESSES) * 3
    changed = [dict(seed=12), dict(points=3), dict(lambdas=(1, 0, 0, 0, 0))]
    for n, kw in enumerate(changed, start=2):
        kw = {"lambdas": LAM, **kw}
        dz.clear()
        assert run(quick_cfg("dz-check", **kw))[1] == 0
        assert len(draws) == n, kw
        assert len(dz) == kw.get("points", 2), kw
    assert [args[:2] + (kw["lambdas"],) for args, kw in draws] == [
        (11, 2, LAM), (12, 2, LAM), (11, 3, LAM), (11, 2, (1, 0, 0, 0, 0))]


@pytest.mark.parametrize("lambdas", [ZERO, LAM], ids=["zero", "numeric"])
def test_point_reports_identical_cold_and_warm(lambdas):
    """A chart report does not depend on what earlier runs left in the
    memoised point sets: each command reports the same from an empty memo
    as after the other commands lifted and dZ-checked the same points."""
    commands = ("inversion-verify", "ricci-point", "dz-check")
    cold = []
    for command in commands:
        cli._drawn_points.cache_clear()
        cold.append(_report_body(quick_cfg(command, lambdas=lambdas)))
    cli._drawn_points.cache_clear()
    run(quick_cfg("all", lambdas=lambdas, max_order=9))
    warm = [_report_body(quick_cfg(command, lambdas=lambdas))
            for command in reversed(commands)]
    assert warm[::-1] == cold


def test_chart_commands_of_one_invocation_share_points(monkeypatch,
                                                       capsys):
    """inversion-verify, ricci-point and dz-check in one invocation lift
    each point once, check dZ once per point, and report what each
    reports alone."""
    argv = ["inversion-verify", "ricci-point", "dz-check",
            "--lambda", "1/2,-3,2/7,5,-1", "--points", "3", "--seed", "11"]
    dz = []
    # a new draw function: the points are drawn in this invocation
    _counted(monkeypatch, cli, "random_admissible_points", [])
    lifts = _lifts(monkeypatch)
    _counted(monkeypatch, cli, "dz_closed_form", dz)
    assert cli.main(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    drawn = _drawn(lifts)
    assert len(drawn) >= 3 and len(set(drawn)) == len(drawn)
    assert len(lifts) - len(drawn) == 3
    assert {order for _, order in lifts} == {inversion.JET_ORDER}
    assert len(dz) == 3
    assert [r["command"] for r in reports] == argv[:3]
    for report in reports:
        report.pop("wall_time_s")
        cli._drawn_points.cache_clear()
        assert cli.main([report["command"]] + argv[3:]) == 0
        alone = json.loads(capsys.readouterr().out)
        alone.pop("wall_time_s")
        assert alone == report


def test_all_equals_union_of_single_commands():
    kw = dict(lambdas=LAM, max_order=9, points=3, seed=11)
    report, code = run(RunConfig(command="all", **kw))
    assert code == 0
    per_level = ("quartic-verify", "pde-verify", "kernel-verify",
                 "ricci-leading")
    singles = []
    for command in cli.COMMANDS:
        if command == "all":
            continue
        for level in (3, 5, 7) if command in per_level else (7,):
            cfg = RunConfig(command=command, sigma_level=level, **kw)
            singles += run(cfg)[0]["checks"]
    singles.sort(key=lambda c: c["name"])
    assert json.dumps(report["checks"], sort_keys=True) \
        == json.dumps(singles, sort_keys=True)
