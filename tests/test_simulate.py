"""Reference-path generators, the disturbance stream, and the run harness."""

import importlib.util
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trackmpc.controllers as controllers_mod
import trackmpc.simulate as simulate_mod
from trackmpc import (
    ControlError,
    DisturbanceSpec,
    ReferencePath,
    VehicleParams,
    VehicleState,
    config_for,
    default_initial_state,
    gaussian_noise,
    make_complete_path,
    make_sine_path,
    make_step_path,
    make_straight_path,
    run_closed_loop,
    ssd_from_traces,
)

PARAMS = VehicleParams()
NO_NOISE = DisturbanceSpec()
# a complete path's geometry (lengths in m), every builder argument besides ts and v
COURSE = {"lead_in": 50.0, "amplitude": 4.0, "wavelength": 50.0, "periods": 2, "tail": 50.0}


# --- path generators ---------------------------------------------------------

def test_step_path_shape():
    path = make_step_path(1.5, 6.0, 0.2)
    assert len(path) == 31
    assert path.y[0] == 0.0
    np.testing.assert_allclose(path.y[1:], 1.5)
    np.testing.assert_allclose(path.x, 2.0 * np.arange(31))
    assert path.ts == 0.2
    assert path.heading0 == 0.0  # travel direction, not the jump


def test_sine_path_profile():
    path = make_sine_path(1.0, 40.0, 8.0, 0.05)
    np.testing.assert_allclose(path.x, 10.0 * path.ts * np.arange(len(path)), atol=1e-12)
    np.testing.assert_allclose(path.y, np.sin(2.0 * math.pi * path.x / 40.0), atol=1e-12)
    assert path.heading0 == pytest.approx(math.atan(2.0 * math.pi / 40.0))


def test_straight_path_is_flat():
    path = make_straight_path(30.0, 0.2)
    np.testing.assert_allclose(path.y, 0.0)
    assert len(path) == 151


def test_complete_path_geometry():
    path = make_complete_path(**COURSE, ts=0.05)
    # straight in, two full sine periods, straight out: flat at both ends
    assert path.y[0] == 0.0
    assert abs(path.y[-1]) < 1e-9
    assert path.x[0] == 0.0
    assert path.x[-1] <= 200.0
    assert np.max(np.abs(path.y)) == pytest.approx(4.0, abs=1e-2)
    # arc-length sampling: every chord is one sample of travel (the
    # inversion works on a finite grid, hence the small slack)
    chords = np.hypot(np.diff(path.x), np.diff(path.y))
    assert np.max(chords) <= 0.5 + 1e-6
    assert np.min(chords) >= 0.5 * 0.98


def test_complete_path_zero_amplitude_is_straight():
    path = make_complete_path(**dict(COURSE, amplitude=0.0), ts=0.05)
    np.testing.assert_allclose(path.y, 0.0)
    np.testing.assert_allclose(np.diff(path.x), 0.5, atol=1e-9)


def test_complete_path_validation():
    with pytest.raises(ValueError):
        make_complete_path(**dict(COURSE, periods=0), ts=0.05)
    with pytest.raises(ValueError):
        make_complete_path(**dict(COURSE, lead_in=0.0), ts=0.05)
    # sizes are checked before anything is built
    with pytest.raises(ValueError, match="more than 1000000 arc-length grid points"):
        make_complete_path(**dict(COURSE, wavelength=1e-6), ts=0.05)
    with pytest.raises(ValueError, match="more than 100000 path samples"):
        make_complete_path(**COURSE, ts=1e-9)


def test_path_sample_count_is_bounded():
    assert len(make_straight_path(49999.5, 0.5)) == 100_000
    with pytest.raises(ValueError, match="more than 100000 path samples"):
        make_straight_path(50000.0, 0.5)
    with pytest.raises(ValueError, match="more than 100000 path samples"):
        make_step_path(1.0, 1e9, 0.05)


@pytest.mark.parametrize("build,bound", [
    (lambda: make_step_path(1.0, 30.0, 0.05, v=1e307), "path coordinate bound of 1e+09 m"),
    (lambda: make_sine_path(1.0, 5e-324, 8.0, 0.05), "phase 2 pi x / wavelength overflow"),
    (lambda: make_complete_path(**dict(COURSE, amplitude=1e308), ts=0.05),
     "path coordinate bound of 1e+09 m"),
    (lambda: make_step_path(1e300, 6.0, 0.05), "path coordinate bound of 1e+09 m"),
    (lambda: make_complete_path(**COURSE, ts=10.0, v=1e308), "fewer than 2 path samples"),
    (lambda: make_step_path(1.0, 5e-324, 10.0, v=1e308), "fewer than 2 path samples"),
], ids=["step-speed", "sine-phase", "complete-amplitude", "step-amplitude", "complete-samples",
        "step-samples"])
def test_builders_bound_their_size_and_reach(build, bound):
    # each builder checks its own sizes and reach before it builds an array,
    # so an input past a bound is one ValueError naming it, never a numpy
    # overflow or NaN warning (an error here) nor a path with y = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(bound)):
            build()


def test_sample_count_and_sine_reject_nonpositive_sizes():
    assert simulate_mod.sample_count(6.0, 0.2) == 31
    with pytest.raises(ValueError, match="duration must be positive, got 0"):
        simulate_mod.sample_count(0.0, 0.05)
    with pytest.raises(ValueError, match="sample time must be positive, got 0"):
        simulate_mod.sample_count(6.0, 0.0)
    with pytest.raises(ValueError, match="wavelength must be positive, got 0"):
        make_sine_path(1.0, 0.0, 8.0, 0.05)


def test_path_validation():
    t = np.arange(5) * 0.1
    with pytest.raises(ValueError, match="matching"):
        ReferencePath(x=np.zeros(4), y=np.zeros(5), ts=0.1, heading0=0.0)
    with pytest.raises(ValueError, match="finite"):
        ReferencePath(x=np.full(5, np.nan), y=np.zeros(5), ts=0.1, heading0=0.0)
    with pytest.raises(ValueError, match="sample time"):
        ReferencePath(x=t, y=np.zeros(5), ts=0.0, heading0=0.0)


def test_path_is_frozen_after_its_checks():
    # init_state copies the path into its reference stack while velocity_sl
    # reads it again every step, so a path must not change mid-run; the
    # caller's own arrays are copied, not frozen
    given = {name: np.arange(5) * 0.1 for name in ("x", "y")}
    path = ReferencePath(**given, ts=0.1, heading0=0.0)
    for name, values in given.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(path, name)[0] = 1.0
        values[0] = 1.0
        assert getattr(path, name)[0] == 0.0


# --- disturbance stream --------------------------------------------------------

SPEC = DisturbanceSpec(kind="gaussian_output", amplitude=0.05, seed=42)


def test_noise_is_a_pure_function_of_seed_and_counter():
    a = gaussian_noise(SPEC, 7)
    b = gaussian_noise(SPEC, 7)
    assert a == b
    assert gaussian_noise(SPEC, 8) != a
    assert gaussian_noise(replace(SPEC, seed=43), 7) != a


def test_noise_vectorized_matches_scalar():
    ks = np.arange(200)
    vec = gaussian_noise(SPEC, ks)
    scal = np.array([gaussian_noise(SPEC, int(k)) for k in ks])
    np.testing.assert_array_equal(vec, scal)


def test_noise_zero_amplitude():
    spec = DisturbanceSpec(kind="gaussian_output", amplitude=0.0, seed=1)
    assert gaussian_noise(spec, 3) == 0.0


def test_noise_moments():
    draws = gaussian_noise(SPEC, np.arange(20000))
    assert abs(np.mean(draws)) < 4.0 * 0.05 / math.sqrt(20000)
    assert np.std(draws) == pytest.approx(0.05, rel=0.03)


def test_noise_streams_are_distinct():
    # the x-position stream lives at a far counter offset; it must decorrelate
    # from the y stream sample by sample
    n = 20000
    y_stream = gaussian_noise(SPEC, np.arange(n))
    x_stream = gaussian_noise(SPEC, np.arange(n) + (1 << 48))
    assert not np.any(y_stream == x_stream)
    rho = np.corrcoef(y_stream, x_stream)[0, 1]
    assert abs(rho) < 0.05


def test_noise_requires_gaussian_spec():
    with pytest.raises(ValueError, match="disturbance"):
        gaussian_noise(NO_NOISE, 0)


def test_disturbance_validation():
    with pytest.raises(ValueError, match="kind"):
        DisturbanceSpec(kind="uniform")
    with pytest.raises(ValueError, match="amplitude"):
        DisturbanceSpec(kind="gaussian_output", amplitude=-0.1)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_disturbance_rejects_non_finite_amplitude(amplitude):
    # its draws would make the measured state non-finite where the harness
    # builds it, outside the step whose errors end a run as "failed"
    with pytest.raises(ValueError, match="amplitude must be finite"):
        DisturbanceSpec(kind="gaussian_output", amplitude=amplitude, seed=1)


# --- closed-loop harness --------------------------------------------------------

def test_run_requires_matching_sample_times():
    cfg = config_for("baseline")  # ts = 0.2
    path = make_straight_path(10.0, 0.05)
    with pytest.raises(ValueError, match="sample time"):
        run_closed_loop(cfg, path, NO_NOISE, PARAMS)


def test_straight_run_is_exact():
    for variant in ("baseline", "velocity_sl"):
        cfg = config_for(variant)
        path = make_straight_path(10.0, cfg.ts)
        result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
        assert result.status == "ok"
        assert result.ssd == 0.0
        np.testing.assert_array_equal(result.inputs, 0.0)


def test_trace_shapes_and_timing():
    cfg = config_for("baseline")
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    k = len(path) - 1
    assert result.states.shape == (k + 1, 4)
    assert result.inputs.shape == (k,)
    assert result.t.shape == (k + 1,)
    assert result.x_ref.shape == (k + 1,)
    assert result.iter_times.shape == (k,)
    np.testing.assert_array_equal(result.t, np.arange(len(path)) * path.ts)


def _seen_positions(monkeypatch, variant):
    """The (x, y) of the plant argument of every step of variant, as the run calls it."""
    seen = []
    real = controllers_mod.CONTROLLER_STEPS[variant]

    def recorder(ctrl, plant, cfg, params):
        seen.append((plant.x, plant.y))
        return real(ctrl, plant, cfg, params)

    monkeypatch.setitem(controllers_mod.CONTROLLER_STEPS, variant, recorder)
    return seen


def test_disturbance_hits_measurement_not_plant(monkeypatch):
    cfg = config_for("baseline")
    path = make_sine_path(1.0, 40.0, 6.0, cfg.ts)
    spec = DisturbanceSpec(kind="gaussian_output", amplitude=0.05, seed=42)
    seen = _seen_positions(monkeypatch, "baseline")
    result = run_closed_loop(cfg, path, spec, PARAMS)
    assert result.status == "ok"
    # measured y = true y + the exact keyed draw; measured x untouched
    measured = np.array(seen)
    draws = gaussian_noise(spec, np.arange(len(result.inputs)))
    assert measured.shape == (len(result.inputs), 2)
    np.testing.assert_allclose(measured[:, 1], result.states[:-1, 1] + draws, atol=1e-15)
    np.testing.assert_array_equal(measured[:, 0], result.states[:-1, 0])
    # the true trajectory is the noiseless integration of the applied inputs
    state = VehicleState(x=result.states[0, 0], y=result.states[0, 1],
                         psi=result.states[0, 2], beta=result.states[0, 3])
    from trackmpc import step_nonlinear
    for k, u in enumerate(result.inputs):
        state = step_nonlinear(state, float(u), cfg.ts, PARAMS)
        np.testing.assert_allclose(result.states[k + 1], [state.x, state.y, state.psi, state.beta],
                                   atol=1e-12)


def test_disturbance_on_x_uses_its_own_stream(monkeypatch):
    cfg = config_for("baseline")
    path = make_sine_path(1.0, 40.0, 6.0, cfg.ts)
    spec = DisturbanceSpec(kind="gaussian_output", amplitude=0.05, seed=42, apply_to_x=True)
    seen = _seen_positions(monkeypatch, "baseline")
    result = run_closed_loop(cfg, path, spec, PARAMS)
    assert result.status == "ok"
    measured = np.array(seen)
    k = np.arange(len(result.inputs))
    assert measured.shape == (k.size, 2)
    # x draws sit 2**48 counters above the y stream, which is unchanged
    np.testing.assert_array_equal(measured[:, 0],
                                  result.states[:-1, 0] + gaussian_noise(spec, k + 2**48))
    np.testing.assert_array_equal(measured[:, 1], result.states[:-1, 1] + gaussian_noise(spec, k))


def test_run_is_bit_reproducible():
    cfg = config_for("weight_tuned")
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    spec = DisturbanceSpec(kind="gaussian_output", amplitude=0.05, seed=7)
    a = run_closed_loop(cfg, path, spec, PARAMS)
    b = run_closed_loop(cfg, path, spec, PARAMS)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    assert a.ssd == b.ssd


def test_ssd_matches_direct_recompute():
    cfg = config_for("baseline")
    path = make_sine_path(1.0, 40.0, 6.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    direct = float(np.sum((result.states[:, 0] - result.x_ref) ** 2
                          + (result.states[:, 1] - result.y_ref) ** 2))
    assert result.ssd == pytest.approx(direct, abs=1e-12)


def test_ssd_hand_values():
    states = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]])
    assert ssd_from_traces(states, np.array([0.0, 0.0]), np.array([0.0, 0.0])) == 5.0
    assert ssd_from_traces(states, np.array([0.0, 1.0]), np.array([0.0, 2.0])) == 0.0


@pytest.mark.parametrize("build", [
    lambda ts: make_straight_path(4.0, ts),
    lambda ts: make_step_path(1.5, 4.0, ts),
    lambda ts: make_sine_path(1.0, 40.0, 4.0, ts),
    lambda ts: make_complete_path(**COURSE, ts=ts),
], ids=["straight", "step", "sine", "complete"])
def test_run_starts_on_the_first_sample_heading_along_the_path(build):
    # every run starts at the path's first sample, heading along it at zero
    # slip, bit for bit (the sine's heading0 is not zero)
    cfg = config_for("baseline")
    path = build(cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    start = np.array([path.x[0], path.y[0], path.heading0, 0.0])
    assert result.states[0].tobytes() == start.tobytes()


def test_harness_rejects_rate_breaking_controller(monkeypatch):
    # the harness re-checks every applied move against the rate limit,
    # independent of the controller's own constraint handling
    def rogue(ctrl, plant, cfg, params):
        return 1.0, ctrl

    monkeypatch.setitem(controllers_mod.CONTROLLER_STEPS, "baseline", rogue)
    cfg = config_for("baseline")
    path = make_straight_path(4.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status.startswith("failed:")
    assert "rate limit" in result.status
    assert result.inputs.size == 0
    assert result.states.shape == (1, 4)


def test_failed_run_keeps_consistent_partial_trace(monkeypatch):
    calls = {"n": 0}
    real = controllers_mod.CONTROLLER_STEPS["baseline"]

    def flaky(ctrl, plant, cfg, params):
        calls["n"] += 1
        if calls["n"] > 5:
            raise ControlError("deliberate mid-run failure")
        return real(ctrl, plant, cfg, params)

    monkeypatch.setitem(controllers_mod.CONTROLLER_STEPS, "baseline", flaky)
    cfg = config_for("baseline")
    path = make_straight_path(10.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status == "failed: deliberate mid-run failure"
    assert result.inputs.size == 5
    assert result.states.shape == (6, 4)
    assert result.t.size == 6
    assert result.x_ref.size == 6
    # the recorded ssd covers exactly the surviving samples
    assert result.ssd == pytest.approx(
        ssd_from_traces(result.states, result.x_ref, result.y_ref), abs=1e-15)


# --- the benchmark's patch points ---------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("variant", ["baseline", "velocity_sl"])
def test_harness_looks_up_the_plant_step_once_per_move(variant, monkeypatch):
    # perfbench times the controller by running a kernel after each plant
    # step, patched in as trackmpc.simulate.step_nonlinear: the harness must
    # look it up by that name on every step and call it once per applied
    # move. The counter is patched in during the first controller step, so
    # a plant step bound before the loop would miss it
    calls = []
    real = simulate_mod.step_nonlinear
    real_step = controllers_mod.CONTROLLER_STEPS[variant]

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    def patching(*args):
        monkeypatch.setattr(simulate_mod, "step_nonlinear", counting)
        return real_step(*args)

    monkeypatch.setitem(controllers_mod.CONTROLLER_STEPS, variant, patching)
    cfg = config_for(variant)
    path = make_sine_path(1.0, 40.0, 3.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status == "ok" and result.inputs.size == len(path) - 1
    assert calls == result.inputs.tolist()


def test_every_traced_name_resolves_on_the_package():
    # perfbench/tracing.py wraps each function where it is looked up at call
    # time; every (module, attribute) it names must exist there, and so must
    # the step table whose entries it wraps
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, (module, attrs) in tracing.TRACED.items():
        for attr in attrs:
            owner = importlib.import_module(f"trackmpc.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (name, module, attr)
    assert tuple(controllers_mod.CONTROLLER_STEPS) == controllers_mod.VARIANTS
