"""Config documents, artifact files, and command-line behavior."""

import json
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

import trackmpc.config as config_mod
import trackmpc.controllers as controllers_mod
from trackmpc import (
    ConfigError,
    ControlError,
    VARIANTS,
    VehicleParams,
    apply_overrides,
    parse_config,
    serialize_config,
    steer_from_slip,
)
from trackmpc.cli import (
    DEFAULT_ALPHAS,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    main,
    read_trace,
    rise_time,
    run_compare,
    sweep_alpha,
)

SINE_DOC = textwrap.dedent("""
    [scenario]
    kind = sine
    duration = 4
    amplitude = 1
    wavelength = 40

    [disturbance]
    kind = gaussian_output
    amplitude = 0.05
    seed = 42
""")


# --- parsing ------------------------------------------------------------------

def test_empty_document_is_the_default_scenario():
    cfg = parse_config("")
    assert cfg.kind == "straight"
    assert cfg.duration == 30.0
    assert cfg.variant == "baseline"
    assert cfg.variants == ("baseline", "weight_tuned", "position_sl", "velocity_sl")
    assert cfg.disturbance.kind == "none"
    ctrl = cfg.controller_config("baseline")
    assert (ctrl.ts, ctrl.horizon, ctrl.control_horizon) == (0.2, 10, 5)
    assert (ctrl.w_y, ctrl.w_u, ctrl.w_du) == (10.0, 0.0, 0.1)
    assert ctrl.alpha == 2.8
    assert ctrl.rate_limit == 0.5


def test_full_document_with_comments():
    cfg = parse_config(textwrap.dedent("""
        # experiment header comment
        [scenario]
        name = wiggle
        kind = sine
        duration = 8      # [s] inline comment
        amplitude = 0.5
        wavelength = 25

        ; alternate comment style
        [vehicle]
        lf = 1.2
        lr = 1.6
        v = 8

        [controller]
        variant = position_sl
        variants = baseline, position_sl
        alpha = 1.4
        w_du = 0.2
        rate_limit = 0.4

        [disturbance]
        kind = gaussian_output
        amplitude = 0.01
        seed = 9
        apply_to_x = true

        [output]
        directory = artifacts
    """))
    assert cfg.name == "wiggle"
    assert (cfg.kind, cfg.duration, cfg.amplitude, cfg.wavelength) == ("sine", 8.0, 0.5, 25.0)
    assert (cfg.vehicle.lf, cfg.vehicle.lr, cfg.vehicle.v) == (1.2, 1.6, 8.0)
    assert cfg.variant == "position_sl"
    assert cfg.variants == ("baseline", "position_sl")
    assert (cfg.alpha, cfg.w_du, cfg.rate_limit) == (1.4, 0.2, 0.4)
    assert cfg.disturbance.kind == "gaussian_output"
    assert cfg.disturbance.apply_to_x is True
    assert cfg.out_dir == "artifacts"


@pytest.mark.parametrize("doc,lineno,needle", [
    ("[nosuch]\n", 1, "unknown section"),
    ("[scenario]\nbogus = 1\n", 2, "unknown key"),
    ("kind = sine\n", 1, "outside of any"),
    ("[scenario]\njust words\n", 2, "key = value"),
    ("[scenario]\nkind = zigzag\n", 2, "kind must be one of"),
    ("[scenario]\nduration = -2\n", 2, "duration must be positive"),
    ("[scenario]\nduration = soon\n", 2, "expects a number"),
    ("[scenario]\nperiods = 0\n", 2, "periods"),
    ("[controller]\nvariant = pid\n", 2, "variant must be one of"),
    ("[controller]\nvariants = baseline, pid\n", 2, "unknown variant"),
    ("[controller]\nhorizon = ten\n", 2, "expects an integer"),
    ("[disturbance]\nkind = uniform\n", 2, "disturbance"),
    ("[disturbance]\napply_to_x = maybe\n", 2, "true/false"),
    ("[vehicle]\nlf = 0\n", 2, "lf"),
    ("[controller]\nrate_limit = -1\n", 2, "rate limit"),
    ("[controller]\nw_du = 0\n", 2, "move weight"),
    ("[scenario]\nkind = complete\nlead_in = 0\n", 3, "positive segment lengths"),
    ("[scenario]\nduration = nan\n", 2, "finite"),
    ("[vehicle]\nv = inf\n", 2, "finite"),
    ("[controller]\nrate_limit = -inf\n", 2, "finite"),
    ("[scenario]\nkind = step\nkind = sine\n", 3, "already set on line 2"),
    ("[scenario]\nduration = 1e9\n", 2, "more than 100000 path samples"),
    ("[scenario]\nkind = complete\nwavelength = 1e-6\n", 3, "more than 1000000 arc-length grid"),
    ("[controller]\nhorizon = 501\n", 2, "M <= N <= 500"),
    ("[scenario]\nkind = step\namplitude = 1e10\n", 3, "path coordinate bound of 1e+09 m"),
    ("[vehicle]\nv = 1e9\n", 2, "path coordinate bound of 1e+09 m"),
])
def test_errors_carry_their_line(doc, lineno, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.line == lineno
    assert str(err.value).startswith(f"line {lineno}:")
    assert needle in str(err.value)


def test_prediction_window_must_fit_the_run():
    doc = "[scenario]\nkind = straight\nduration = 1.0\n"
    with pytest.raises(ConfigError, match="prediction window"):
        parse_config(doc)  # baseline looks 2 s ahead


def test_complete_scenario_rejects_explicit_duration():
    doc = "[scenario]\nkind = complete\nduration = 10\n"
    with pytest.raises(ConfigError, match="derive"):
        parse_config(doc)


def test_serialize_round_trips():
    cfg = parse_config(SINE_DOC)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_overrides_win_and_add_missing_keys():
    cfg = parse_config(SINE_DOC)
    out = apply_overrides(cfg, ["scenario.duration=6", "controller.ts=0.1",
                                "output.directory=elsewhere"])
    assert out.duration == 6.0
    assert out.ts == 0.1  # serializer omits unset ts; override must add it
    assert out.out_dir == "elsewhere"
    assert apply_overrides(cfg, []) == cfg


@pytest.mark.parametrize("bad,needle", [
    ("scenario.duration", "section.key=value"),
    ("duration=6", "section.key"),
    ("scenario.nosuch=1", "unknown key"),
    ("nowhere.duration=6", "unknown"),
    ("controller.rate_limit=-1", r"--set controller\.rate_limit=-1: .*rate limit must be positive"),
    ("scenario.duration=nan", r"--set scenario\.duration=nan: duration expects a finite number"),
    ("scenario.duration=inf", "finite"),
    ("vehicle.v=inf", "finite"),
    ("controller.w_y=nan", "finite"),
    ("disturbance.amplitude=nan", "finite"),
    ("controller.rate_limit=inf", "finite"),
    ("output.directory=runs#2", r"--set output\.directory=runs#2: .*'#'"),
    ("scenario.name=a # b", r"--set scenario\.name=a # b: .*'#'"),
    ("scenario.name=a\nb", "line break"),
    ("controller.alpha=1e200", r"--set controller\.alpha=1e200: .*square to finite"),
    ("controller.w_du=1e200", "square to finite"),
    ("controller.w_y=1e160", "square to finite"),
    ("controller.w_u=1e200", "square to finite"),
    ("controller.w_y=-1", r"--set controller\.w_y=-1: .*weights must be nonnegative"),
    ("controller.w_u=-0.5", "weights must be nonnegative"),
    ("controller.w_du=-0.1", "weights must be nonnegative"),
    ("controller.alpha=0", r"--set controller\.alpha=0: .*alpha must be positive"),
    ("controller.alpha=-2.8", "alpha must be positive"),
])
def test_override_errors(bad, needle):
    # overrides have no source line: every error is anchored at line 0,
    # never at a line of the internally re-serialized document
    cfg = parse_config("")
    with pytest.raises(ConfigError, match=needle) as caught:
        apply_overrides(cfg, [bad])
    assert caught.value.line == 0


def test_override_can_switch_to_a_complete_path():
    # the duration the normalized document carries is not the user's, so a
    # switch to a complete path drops it; an explicit one is still an error
    assert apply_overrides(parse_config(""), ["scenario.kind=complete"]) == \
        parse_config("[scenario]\nkind = complete\n")
    complete_sine = SINE_DOC.replace("kind = sine", "kind = complete").replace("duration = 4\n", "")
    assert apply_overrides(parse_config(SINE_DOC), ["scenario.kind=complete"]) == \
        parse_config(complete_sine)
    with pytest.raises(ConfigError, match="derive duration") as caught:
        apply_overrides(parse_config(""), ["scenario.kind=complete", "scenario.duration=10"])
    assert caught.value.line == 0


@pytest.mark.parametrize("extra,amplitude", [([], 0.05), (["disturbance.amplitude=0.0"], 0.0),
                                             (["disturbance.amplitude=0.2"], 0.2)])
def test_override_switching_noise_on_gets_the_default_amplitude(extra, amplitude):
    # the noise-free document's amplitude 0 was never the user's, so noise
    # switched on by --set gets the document default of 0.05 m unless an
    # amplitude is given too
    doc = (ROOT / "scenarios" / "straight.cfg").read_text()
    cfg = apply_overrides(parse_config(doc), ["disturbance.kind=gaussian_output", *extra])
    assert (cfg.disturbance.kind, cfg.disturbance.amplitude) == ("gaussian_output", amplitude)
    if not extra:
        assert cfg == parse_config(doc.replace("kind = none", "kind = gaussian_output"))


def test_override_keeps_the_amplitude_of_noise_already_on():
    doc = (ROOT / "scenarios" / "sine_disturbed.cfg").read_text()
    base = parse_config(doc)
    assert base.disturbance.kind == "gaussian_output"
    cfg = apply_overrides(base, ["disturbance.kind=gaussian_output", "disturbance.seed=7"])
    assert cfg.disturbance.amplitude == base.disturbance.amplitude


def test_repeated_override_is_last_wins():
    cfg = apply_overrides(parse_config(""), ["output.directory=a", "scenario.name=x",
                                             "output.directory=b"])
    assert (cfg.out_dir, cfg.name) == ("b", "x")


# --- artifact files -------------------------------------------------------------

def test_run_writes_trace_and_manifest(tmp_path):
    cfg_file = tmp_path / "scen.cfg"
    cfg_file.write_text(SINE_DOC)
    rc = main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    trace_file = tmp_path / "out" / "trace_baseline.csv"
    assert trace_file.exists()
    cols = read_trace(trace_file)
    n = int(math.ceil(4.0 / 0.2)) + 1
    assert len(cols["t"]) == n
    assert len(cols["u"]) == n - 1  # final sample has no applied move
    np.testing.assert_allclose(np.diff(cols["t"]), 0.2, atol=1e-12)
    np.testing.assert_allclose(cols["delta_f"],
                               [steer_from_slip(b, VehicleParams()) for b in cols["beta"]],
                               atol=1e-12)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert set(manifest["versions"]) == {"python", "numpy", "trackmpc"}
    assert parse_config(manifest["config"]).kind == "sine"


def test_trace_header_is_locked(tmp_path):
    bad = tmp_path / "trace.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="columns"):
        read_trace(bad)
    assert TRACE_COLUMNS == ("t", "x", "y", "psi", "beta", "delta_f", "x_ref", "y_ref", "u")


def test_compare_orders_summary_by_ssd(tmp_path):
    cfg = apply_overrides(parse_config(SINE_DOC),
                          [f"output.directory={tmp_path / 'cmp'}"])
    rows, failures = run_compare(cfg)
    assert failures == []
    assert [r.model for r in rows] == sorted(
        (r.model for r in rows), key=lambda m: [r.ssd for r in rows if r.model == m][0])
    ssds = [r.ssd for r in rows]
    assert ssds == sorted(ssds)
    assert {r.model for r in rows} == set(cfg.variants)
    # summary ssd must be a pure recompute of the written trace
    lines = (tmp_path / "cmp" / "summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    for row in rows:
        cols = read_trace(tmp_path / "cmp" / f"trace_{row.model}.csv")
        ssd = float(np.sum((cols["x"] - cols["x_ref"]) ** 2 + (cols["y"] - cols["y_ref"]) ** 2))
        assert ssd == pytest.approx(row.ssd, abs=1e-9)


def test_compare_is_reproducible(tmp_path):
    cfg_file = tmp_path / "scen.cfg"
    cfg_file.write_text(SINE_DOC)
    out = tmp_path / "out"
    assert main(["compare", str(cfg_file), "--output-dir", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()
             if p.name.startswith("trace_") or p.name == "manifest.json"}
    assert len(first) == 5
    assert main(["compare", str(cfg_file), "--output-dir", str(out)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, f"{name} changed between identical runs"


ROOT = Path(__file__).resolve().parents[1]
# Workload -> shipped scenario, as recorded in perfbench/reference/.
REFERENCE_RUNS = {"course": "complete.cfg", "straight": "straight.cfg",
                  "noisy_sine": "sine_disturbed.cfg", "step": "step.cfg"}


def _compare_shipped(name, out, *overrides):
    doc = (ROOT / "scenarios" / name).read_text()
    return run_compare(apply_overrides(parse_config(doc), [f"output.directory={out}", *overrides]))


@pytest.mark.parametrize("workload", REFERENCE_RUNS)
def test_shipped_scenarios_match_recorded_closed_loop(workload, tmp_path):
    # every shipped run's SSD and state trace must stay within the
    # benchmark's drift gate (1e-9 relative plus 1e-12 absolute) of the
    # recorded references: a faster path may not move the closed loop
    _assert_matches_reference(workload, tmp_path)


def _assert_matches_reference(workload, tmp_path):
    reference = ROOT / "perfbench" / "reference"
    ssd = json.loads((reference / "ssd.json").read_text())[workload]
    with np.load(reference / "states.npz") as stored:
        states = {v: stored[f"{workload}.{v}"] for v in ssd}
    rows, failures = _compare_shipped(REFERENCE_RUNS[workload], tmp_path)
    assert failures == []
    assert {row.model for row in rows} == set(ssd)

    def close(actual, expected):
        return bool(np.all(np.abs(actual - expected) <= 1e-12 + 1e-9 * np.abs(expected)))

    for row in rows:
        assert close(row.ssd, ssd[row.model]), (row.model, row.ssd, ssd[row.model])
        cols = read_trace(tmp_path / f"trace_{row.model}.csv")
        got = np.column_stack([cols["x"], cols["y"], cols["psi"], cols["beta"]])
        assert got.shape == states[row.model].shape, row.model
        assert close(got, states[row.model]), row.model


def test_weights_too_large_for_the_qp_name_their_scale(tmp_path, capsys):
    # (w_y * alpha)^2 = 7.8e300 is finite, so the config is valid; but the
    # condensed Hessian then reaches 1e301 to 1e305, and the solver's KKT
    # tolerance is absolute, so no variant's first QP converges. Each
    # failure names that weight scale instead of a bare residual.
    step = str(ROOT / "scenarios" / "step.cfg")
    big = ["--set", "controller.w_y=1e150"]
    assert main(["validate-config", step, *big]) == 0
    capsys.readouterr()
    assert main(["compare", step, *big, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4
    for line in err:
        assert "QP stopped at inaccurate with KKT residual" in line
        assert "at weight scale max|H| = " in line
        assert line.endswith("((w_y*alpha)^2 = 7.840e+300, (w_du*alpha)^2 = 7.840e-02)")


def test_compares_in_one_process_share_nothing(tmp_path):
    # nothing a run reuses from step to step outlives the run. A straight
    # compare with fewer moves leaves models that a course compare meets
    # again on its straight lead-in: the course still matches its recorded
    # references, and a second straight compare after it writes the same
    # bytes as the first
    out = tmp_path / "straight"

    def straight():
        rows, failures = _compare_shipped("straight.cfg", out, "controller.control_horizon=4")
        assert failures == []
        # summary.csv holds wall times, which vary from run to run
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.csv"}

    first = straight()
    assert sorted(first) == ["manifest.json", *(f"trace_{v}.csv" for v in sorted(VARIANTS))]
    _assert_matches_reference("course", tmp_path / "course")
    assert straight() == first


# --- rise time ------------------------------------------------------------------

def test_rise_time_interpolates():
    t = np.array([0.0, 1.0, 2.0])
    assert rise_time(t, np.array([0.0, 0.5, 1.0]), 1.0) == pytest.approx(1.8)
    assert rise_time(t, np.array([0.0, -0.5, -1.0]), -1.0) == pytest.approx(1.8)
    assert rise_time(t, np.array([2.0, 2.0, 2.0]), 1.0) == 0.0  # already there
    assert math.isnan(rise_time(t, np.array([0.0, 0.1, 0.2]), 1.0))


def test_sweep_alpha_writes_records(tmp_path):
    doc = textwrap.dedent("""
        [scenario]
        kind = step
        duration = 3

        [controller]
        w_u = 200
    """)
    cfg = apply_overrides(parse_config(doc), [f"output.directory={tmp_path}"])
    records = sweep_alpha(cfg, (0.7, 2.8))
    assert [a for a, _, _ in records] == [0.7, 2.8]
    rise_07, rise_28 = records[0][1], records[1][1]
    assert rise_28 < rise_07  # more aggressive tuning reaches the step sooner
    lines = (tmp_path / "sweep_alpha.csv").read_text().splitlines()
    assert lines[0] == "alpha,rise_time,ssd"
    assert len(lines) == 3


# --- exit codes -------------------------------------------------------------------

def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_non_utf8_config_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "utf16.cfg"
    bad.write_bytes(b"\xff\xfe[\x00s\x00")
    rc = main(["validate-config", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config:") and "utf-8" in err
    assert len(err.splitlines()) == 1


def test_overflowing_weight_in_a_file_is_a_line_anchored_error(tmp_path, capsys):
    doc = tmp_path / "big.cfg"
    doc.write_text("[scenario]\nkind = step\n\n[controller]\nw_y = 1e160\n")
    assert main(["validate-config", str(doc)]) == 1
    assert main(["compare", str(doc), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: line ") and "square to finite" in line for line in err)
    assert err[0].startswith("error: line 5:")
    assert not (tmp_path / "out").exists()


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nkind = zigzag\n")
    rc = main(["validate-config", str(bad)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_bad_override_exits_one(capsys):
    rc = main(["run", "--set", "scenario.kind=zigzag"])
    assert rc == 1
    assert "kind" in capsys.readouterr().err
    # a zero move weight is a config error, not a failure at the first step
    rc = main(["validate-config", "--set", "controller.w_du=0"])
    assert rc == 1
    assert "move weight" in capsys.readouterr().err
    # '#' would start a comment in the manifest's config echo
    rc = main(["validate-config", "--output-dir", "runs#2"])
    assert rc == 1
    assert "output.directory=runs#2" in capsys.readouterr().err


_HUGE_INT = "1" + "0" * 400  # more than a float can hold


@pytest.mark.parametrize("scenario,assignment,needle", [
    ("straight.cfg", "scenario.duration=1e9", "path samples"),
    ("straight.cfg", "controller.ts=1e-9", "path samples"),
    ("complete.cfg", "scenario.wavelength=1e-6", "grid points"),
    ("complete.cfg", "scenario.lead_in=1e12", "grid points"),
    ("complete.cfg", "scenario.tail=1e12", "grid points"),
    ("complete.cfg", "scenario.periods=1000000000", "grid points"),
    ("complete.cfg", f"scenario.periods={_HUGE_INT}", "grid points"),
    ("complete.cfg", "vehicle.v=1e-9", "path samples"),
    ("complete.cfg", "controller.ts=1e-7", "path samples"),
    ("straight.cfg", "controller.horizon=100000", "M <= N <= 500"),
    ("straight.cfg", f"controller.horizon={_HUGE_INT}", "M <= N <= 500"),
])
def test_oversize_scenario_is_rejected_before_allocating(scenario, assignment, needle,
                                                         capsys, monkeypatch):
    # sizes are bounded before any array is built; numpy.arange refuses more
    # than 1e7 elements here, so a missing bound fails instead of exhausting
    # memory
    real_arange = np.arange

    def bounded_arange(*args, **kwargs):
        start, stop, step = {1: (0, args[0], 1), 2: (*args, 1), 3: args}[len(args)]
        if not (stop - start) / step <= 1e7:
            raise AssertionError(f"numpy.arange{args} would build more than 1e7 elements")
        return real_arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", bounded_arange)
    doc = str(ROOT / "scenarios" / scenario)
    assert main(["validate-config", doc, "--set", assignment]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: line 0: ") and needle in err[0]


@pytest.mark.parametrize("verb", ["validate-config", "compare"])
@pytest.mark.parametrize("assignments,needle", [
    (["vehicle.v=1e307"],
     "v = 1e+307 m/s over 30 s carries the path past the path coordinate bound of 1e+09 m"),
    (["scenario.kind=sine", "scenario.amplitude=1e308"],
     "amplitude 1e+308 m exceeds the path coordinate bound of 1e+09 m"),
])
def test_path_past_the_coordinate_bound_is_one_error_line(verb, assignments, needle,
                                                          capsys, tmp_path):
    # past the coordinate bound, a huge speed or amplitude is one config
    # error before any run: not a traceback from the path's own checks, nor
    # overflowing squared distances reported as a weight problem
    args = [verb, str(ROOT / "scenarios" / "straight.cfg")]
    for assignment in assignments + [f"output.directory={tmp_path}"]:
        args += ["--set", assignment]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: line 0: ") and needle in err[0]
    assert not list(tmp_path.iterdir())


def test_sweep_preconditions_exit_one(tmp_path, capsys):
    step_doc = tmp_path / "step.cfg"
    step_doc.write_text("[scenario]\nkind = step\nduration = 3\n")
    sine_doc = tmp_path / "sine.cfg"
    sine_doc.write_text(SINE_DOC)
    assert main(["sweep-alpha", str(sine_doc), "--output-dir", str(tmp_path)]) == 1
    assert "step scenario" in capsys.readouterr().err
    assert main(["sweep-alpha", str(step_doc), "--output-dir", str(tmp_path),
                 "--set", "controller.variant=position_sl"]) == 1
    assert "baseline or weight_tuned" in capsys.readouterr().err
    assert main(["sweep-alpha", str(step_doc), "--output-dir", str(tmp_path),
                 "--alphas", "1,fast"]) == 1
    assert "--alphas" in capsys.readouterr().err
    assert main(["sweep-alpha", str(step_doc), "--output-dir", str(tmp_path),
                 "--alphas", ","]) == 1
    assert "--alphas lists no values" in capsys.readouterr().err
    # each alpha meets the config's own rules before the first run
    for bad, needle in [("-1", "alpha must be positive"), ("0", "alpha must be positive"),
                        ("nan", "finite"), ("inf", "finite"), ("2.8,1e200", "square to finite")]:
        assert main(["sweep-alpha", str(step_doc), "--output-dir", str(tmp_path),
                     f"--alphas={bad}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --alphas: ") and needle in err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "sweep_alpha.csv").exists()


def test_sweep_alpha_verb_prints_one_line_per_alpha(tmp_path, capsys):
    step_doc = tmp_path / "step.cfg"
    step_doc.write_text("[scenario]\nkind = step\nduration = 3\n\n[controller]\nw_u = 200\n")
    out = tmp_path / "out"
    assert main(["sweep-alpha", str(step_doc), "--output-dir", str(out),
                 "--alphas", "0.7,2.8"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["alpha=0.7", "alpha=2.8"]
    lines = (out / "sweep_alpha.csv").read_text().splitlines()
    assert lines[0] == "alpha,rise_time,ssd"
    assert len(lines) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.7, 2.8]
    assert (out / "manifest.json").exists()


def test_validate_config_echoes_normalized_document(tmp_path, capsys):
    cfg_file = tmp_path / "scen.cfg"
    cfg_file.write_text(SINE_DOC)
    rc = main(["validate-config", str(cfg_file), "--set", "scenario.amplitude=2"])
    assert rc == 0
    echoed = parse_config(capsys.readouterr().out)
    assert echoed.amplitude == 2.0
    assert echoed.kind == "sine"


GOLDEN = ROOT / "tests" / "golden" / "validate_config"
# golden file -> validate-config arguments after the verb
GOLDEN_RUNS = {
    "complete": ["scenarios/complete.cfg"],
    "sine_disturbed": ["scenarios/sine_disturbed.cfg"],
    "step": ["scenarios/step.cfg"],
    "straight": ["scenarios/straight.cfg"],
    "empty": [],
    "step_overridden": ["scenarios/step.cfg", "--set", "controller.ts=0.1",
                        "--set", "scenario.name=stepped",
                        "--set", "controller.variants=position_sl,baseline",
                        "--set", "disturbance.kind=gaussian_output", "--set", "vehicle.v=8",
                        "--output-dir", "runs/x"],
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_validate_config_output_is_pinned(name, capsys, monkeypatch):
    # the normalized document is also the manifest's config echo, so its
    # exact bytes are part of every run's artifacts
    monkeypatch.chdir(ROOT)
    assert main(["validate-config", *GOLDEN_RUNS[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_readme_documents_every_key():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config(block)
    documented = {(section, key) for _, section, key, _ in config_mod._scan(block)}
    assert documented == set(config_mod._FIELDS)


def test_failed_run_exits_two(tmp_path, capsys, monkeypatch):
    def doomed(ctrl, plant, path, cfg, params):
        raise ControlError("deliberate failure")

    monkeypatch.setitem(controllers_mod.CONTROLLER_STEPS, "baseline", doomed)
    cfg_file = tmp_path / "scen.cfg"
    cfg_file.write_text(SINE_DOC)
    rc = main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "deliberate failure" in capsys.readouterr().err
    # the truncated trace is still written for post-mortems
    assert (tmp_path / "out" / "trace_baseline.csv").exists()


def test_compare_reports_partial_failure(tmp_path, capsys, monkeypatch):
    def doomed(ctrl, plant, path, cfg, params):
        raise ControlError("deliberate failure")

    monkeypatch.setitem(controllers_mod.CONTROLLER_STEPS, "velocity_sl", doomed)
    cfg_file = tmp_path / "scen.cfg"
    cfg_file.write_text(SINE_DOC)
    rc = main(["compare", str(cfg_file), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "velocity_sl" in err and "deliberate failure" in err
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 4  # header + the three surviving variants


def test_default_alphas_match_documentation():
    assert DEFAULT_ALPHAS == (0.7, 2.8, 11.2)
