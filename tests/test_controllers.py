"""Controller-level behavior: configs, fixed points, references, rate bounds.

Steady-state checks use closed-form geometry (a constant-radius turn pins
the slip angle at asin(lr/R)); everything else is checked one step at a
time against hand-worked values.
"""

import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trackmpc.controllers
import trackmpc.qp
from trackmpc import (
    CONTROLLER_STEPS,
    ControlError,
    ControllerConfig,
    DEFAULT_ALPHA,
    DEFAULT_RATE_LIMIT,
    DisturbanceSpec,
    ReferencePath,
    VARIANTS,
    VehicleParams,
    VehicleState,
    apply_overrides,
    config_for,
    default_initial_state,
    generate_delta_refs,
    init_state,
    make_complete_path,
    make_sine_path,
    make_step_path,
    make_straight_path,
    parse_config,
    run_closed_loop,
    scan_table,
    ssd_from_traces,
    step_nonlinear,
)
from trackmpc.cli import run_compare

PARAMS = VehicleParams()
NO_NOISE = DisturbanceSpec()


# --- configuration ----------------------------------------------------------

def test_variant_default_windows():
    expected = {
        "baseline": (0.2, 10, 5),
        "weight_tuned": (0.05, 20, 5),
        "position_sl": (0.05, 20, 20),
        "velocity_sl": (0.05, 20, 20),
    }
    for variant, (ts, n, m) in expected.items():
        cfg = config_for(variant)
        assert cfg.ts == ts
        assert (cfg.horizon, cfg.control_horizon) == (n, m)
        assert (cfg.alpha, cfg.w_y, cfg.w_u, cfg.w_du) == (DEFAULT_ALPHA, 10.0, 0.0, 0.1)
        assert cfg.rate_limit == DEFAULT_RATE_LIMIT
        assert cfg.u_target == 0.0


def test_config_overrides_win():
    cfg = config_for("baseline", ts=0.1, horizon=12, control_horizon=3, alpha=1.0, w_du=0.5)
    assert (cfg.ts, cfg.horizon, cfg.control_horizon) == (0.1, 12, 3)
    assert (cfg.alpha, cfg.w_du) == (1.0, 0.5)


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        config_for("pid")
    with pytest.raises(ValueError, match="unknown variant 'pid'"):
        ControllerConfig("pid", 0.05, 20, 5)


def test_config_validation():
    with pytest.raises(ValueError, match="sample time"):
        ControllerConfig(variant="baseline", ts=0.0, horizon=10, control_horizon=5)
    with pytest.raises(ValueError, match="M <= N"):
        ControllerConfig(variant="baseline", ts=0.2, horizon=4, control_horizon=5)
    with pytest.raises(ValueError, match="M <= N <= 500, got N=501"):
        ControllerConfig(variant="baseline", ts=0.2, horizon=501, control_horizon=5)
    with pytest.raises(ValueError, match="rate limit"):
        ControllerConfig(variant="baseline", ts=0.2, horizon=10, control_horizon=5,
                         rate_limit=0.0)
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        ControllerConfig(variant="baseline", ts=0.2, horizon=10, control_horizon=5,
                         q_heading=-1.0)
    for negative in (dict(w_y=-1.0), dict(w_u=-1.0), dict(w_du=-0.1)):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            config_for("baseline", **negative)
    for alpha in (0.0, -2.8):
        with pytest.raises(ValueError, match="alpha must be positive"):
            config_for("baseline", alpha=alpha)
    # a zero move weight would fail every step (the QP needs r > 0), so the
    # config rejects it up front
    with pytest.raises(ValueError, match="move weight"):
        config_for("velocity_sl", w_du=0.0)
    # nor may the squared move weight underflow, since init_state builds the
    # horizon weights before the first step
    with pytest.raises(ValueError, match="move weight"):
        config_for("baseline", w_du=1e-170)
    # nor may any alpha-scaled weight overflow when squared
    for big in (dict(alpha=1e200), dict(w_du=1e200), dict(w_y=1e160), dict(w_u=1e200),
                dict(w_u=1.0, alpha=1e-160)):
        with pytest.raises(ValueError, match="square to finite"):
            config_for("baseline", **big)


_LINEARIZE = {
    "baseline": "linearize_initial",
    "weight_tuned": "linearize_initial",
    "position_sl": "linearize_position",
    "velocity_sl": "linearize_velocity",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_dispatches_through_module_globals(variant, monkeypatch):
    # every variant looks its stages up as globals of trackmpc.controllers
    # at call time (tracing wrappers patch them there). What depends only on
    # (cfg, path, params) is built once by init_state: the horizon weights,
    # the reference stack, the slew box, and for the fixed absolute-slip
    # model its linearization, prediction and condensed cost. Each step then
    # builds one fresh TrackingQp and solves it at most once: not at all when
    # it is the previous step's QP bit for bit, which no step on this sine
    # path is.
    calls = Counter()
    solved = []

    def counting(name):
        inner = getattr(trackmpc.controllers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "solve_box_qp":
                solved.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(trackmpc.controllers, name, wrapper)

    for name in (*set(_LINEARIZE.values()), "build_prediction", "condense_cost",
                 "region_table", "horizon_weights", "build_tracking_qp", "solve_box_qp",
                 "generate_delta_refs"):
        counting(name)

    cfg = config_for(variant, w_u=50.0, u_target=0.01)
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    plant = default_initial_state(path)
    ctrl = init_state(cfg, plant, path, PARAMS)
    fixed_model = variant in ("baseline", "weight_tuned")
    per_run = {"horizon_weights": 1}
    if fixed_model:
        per_run.update({"linearize_initial": 1, "build_prediction": 1, "condense_cost": 1,
                        "region_table": 1})
    assert calls == Counter(per_run)

    # Three steps from one plant, then one from a turned plant. A
    # re-linearizing variant linearizes and builds its prediction and
    # condensed cost once per distinct operating point (psi, beta): twice here.
    calls.clear()
    plants = (plant, plant, plant, replace(plant, psi=plant.psi + 0.1))
    for measured in plants:
        _, ctrl = CONTROLLER_STEPS[variant](ctrl, measured, path, cfg, PARAMS)
    steps = len(plants)
    per_step = {"build_tracking_qp": steps, "solve_box_qp": steps}
    if not fixed_model:
        per_step.update({_LINEARIZE[variant]: 2, "build_prediction": 2, "condense_cost": 2})
    if variant == "velocity_sl":
        per_step["generate_delta_refs"] = steps
    assert calls == Counter(per_step)
    assert all(type(qp) is trackmpc.qp.TrackingQp for qp in solved)
    assert len({id(qp) for qp in solved}) == steps


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class _Captured(Exception):
    """Raised by a stand-in build_tracking_qp once it has recorded its reference."""


def _stage_refs_built_per_step(path, cursor, n, first_stage=None):
    """The stage references as a step used to build them, cursor being the
    position variants' ref_cursor or velocity_sl's picked sample."""
    last = len(path) - 1
    refs = np.zeros(3 * n)
    if first_stage is None:  # positions of stages cursor+1 .. cursor+n
        idx = np.minimum(cursor + 1 + np.arange(n), last)
        refs[0::3] = path.x[idx]
        refs[1::3] = path.y[idx]
        return refs
    ahead = np.minimum(cursor + np.arange(1, n), last)
    refs[0], refs[1] = first_stage
    refs[3::3] = path.x[ahead] - path.x[ahead - 1]
    refs[4::3] = path.y[ahead] - path.y[ahead - 1]
    return refs


@pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.cfg")))
def test_run_reference_stacks_give_the_per_step_references(scenario, monkeypatch):
    # init_state builds the reference stack a variant reads once per run; at
    # every cursor of the path, horizons running past its final sample
    # included, the stage references a step hands build_tracking_qp are
    # byte for byte the ones the step used to build itself. The stack is
    # read-only and a position variant's references are a view of it
    seen = []

    def capture(pred, cost, x0, x_ref, box, input_target=None):
        seen.append(x_ref)
        raise _Captured

    first_stage = (0.25, -0.5)
    picked = {}

    def pick(plant, table, cursor, params, ts):
        return (*first_stage, picked["cursor"])

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", capture)
    monkeypatch.setattr(trackmpc.controllers, "generate_delta_refs", pick)
    scenario_cfg = parse_config((SCENARIOS / scenario).read_text())
    for variant in VARIANTS:
        cfg = scenario_cfg.controller_config(variant)
        path = scenario_cfg.build_path(cfg.ts)
        plant = default_initial_state(path)
        ctrl = init_state(cfg, plant, path, PARAMS)
        assert not ctrl.refs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ctrl.refs[0] = 1.0
        difference_state = variant == "velocity_sl"
        # a position variant steps from ref_cursor, which a run takes to
        # len(path) - 2; velocity_sl from the sample generate_delta_refs picks
        cursors = range(len(path) + (0 if difference_state else 2))
        for cursor in cursors:
            seen.clear()
            picked["cursor"] = cursor
            with pytest.raises(_Captured):
                CONTROLLER_STEPS[variant](ctrl._replace(ref_cursor=cursor), plant, path, cfg,
                                          PARAMS)
            (x_ref,) = seen
            expected = _stage_refs_built_per_step(
                path, cursor, cfg.horizon, first_stage if difference_state else None)
            assert _same_bytes(x_ref, expected), (variant, cursor)
            if not difference_state:
                assert x_ref.base is ctrl.refs.base and not x_ref.flags.writeable


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_qp_of_a_run_shares_the_slew_box(variant, monkeypatch):
    # the slew box is built once per run: every QP a run poses takes the
    # same two read-only arrays as its bounds, the bytes of
    # np.full(M, -+rate_limit * ts), and no step allocates a box of its own
    built = []
    real = trackmpc.controllers.build_tracking_qp

    def building(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", building)
    cfg = config_for(variant)
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status == "ok" and len(built) == result.inputs.size
    lb, ub = built[0].lb, built[0].ub
    assert all(qp.lb is lb and qp.ub is ub for qp in built)
    bound = cfg.rate_limit * cfg.ts
    assert _same_bytes(lb, np.full(cfg.control_horizon, -bound))
    assert _same_bytes(ub, np.full(cfg.control_horizon, bound))
    assert not (lb.flags.writeable or ub.flags.writeable)


def _same_bytes(a, b):
    if isinstance(a, dict):  # RegionTable.blocks, whose memory layout is part of the bits
        return a.keys() == b.keys() and all(
            _same_bytes(x, y) and x.strides == y.strides for k in a for x, y in zip(a[k], b[k]))
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_fixed_model_record_carries_the_region_table_of_its_qps(variant, monkeypatch):
    # the fixed model's table is region_table of its H and slew box, handed
    # to every solve; a re-linearizing variant and a fixed model past
    # MAX_TABLE_MOVES moves hand the solver none
    handed = []
    real = trackmpc.controllers.solve_box_qp

    def recording(qp, **kwargs):
        handed.append((qp, kwargs["table"]))
        return real(qp, **kwargs)

    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", recording)
    fixed_model = variant in ("baseline", "weight_tuned")
    for m in (trackmpc.qp.MAX_TABLE_MOVES - 1, trackmpc.qp.MAX_TABLE_MOVES + 1):
        cfg = config_for(variant, control_horizon=m)
        path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
        plant = VehicleState(x=0.1, y=0.2, psi=0.05, beta=0.01)
        ctrl = init_state(cfg, plant, path, PARAMS)
        handed.clear()
        for _ in range(3):
            _, ctrl = CONTROLLER_STEPS[variant](ctrl, plant, path, cfg, PARAMS)
        table = ctrl.model.table
        assert all(t is table for _, t in handed)
        if not fixed_model or m > trackmpc.qp.MAX_TABLE_MOVES:
            assert table is None
            continue
        qp = handed[0][0]
        expected = trackmpc.qp.region_table(qp.h, qp.lb, qp.ub)
        for name in expected._fields:
            assert _same_bytes(getattr(table, name), getattr(expected, name)), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_repeated_model_reuses_a_bit_identical_prediction(variant, monkeypatch):
    # a step whose model repeats keeps the previous step's prediction and
    # condensed cost; they, and the QP built from them, are byte for byte
    # what a fresh build of the same model gives. The fixed model never
    # changes, so its record stays the one init_state built.
    qps = []
    real = trackmpc.controllers.solve_box_qp

    def recording(qp, **kwargs):
        qps.append(qp)
        return real(qp, **kwargs)

    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", recording)
    cfg = config_for(variant)
    step = CONTROLLER_STEPS[variant]
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    plant = VehicleState(x=0.1, y=0.2, psi=0.05, beta=0.01)
    ctrl = init_state(cfg, plant, path, PARAMS)
    fixed_model = variant in ("baseline", "weight_tuned")
    built = ctrl.model
    assert (built is not None) == fixed_model
    _, ctrl = step(ctrl, plant, path, cfg, PARAMS)
    first = ctrl.model
    _, hit = step(ctrl, plant, path, cfg, PARAMS)
    assert hit.model is first
    if fixed_model:
        assert first is built
        fresh_record = init_state(cfg, plant, path, PARAMS).model
        _, miss = step(ctrl._replace(model=fresh_record), plant, path, cfg, PARAMS)
    else:
        _, miss = step(ctrl._replace(model=None), plant, path, cfg, PARAMS)
    assert miss.model is not first

    linearize = getattr(trackmpc.controllers, _LINEARIZE[variant])
    model = linearize(PARAMS, cfg.ts) if fixed_model else linearize(plant, PARAMS, cfg.ts)
    fresh = trackmpc.qp.build_prediction(model, cfg.horizon, cfg.control_horizon)
    moves = fresh
    if fixed_model:
        t_low = np.tril(np.ones((cfg.control_horizon, cfg.control_horizon)))
        moves = trackmpc.qp.PredictionMatrices(fresh.sx, fresh.su @ t_low, fresh.sk)
    cost = trackmpc.qp.condense_cost(moves, ctrl.weights)
    for stored in (first, miss.model):
        assert stored.key == miss.model.key
        for name in ("sx", "su", "sk"):
            assert _same_bytes(getattr(stored.pred, name), getattr(fresh, name)), name
        assert _same_bytes(stored.cost.suq, cost.suq)
        assert _same_bytes(stored.cost.h, cost.h)
    hit_qp, miss_qp = qps[1:]
    assert _same_bytes(hit_qp.h, miss_qp.h) and _same_bytes(hit_qp.f, miss_qp.f)

    if fixed_model:
        for measured in (replace(plant, psi=-0.1), replace(plant, beta=0.2), plant):
            _, hit = step(hit, measured, path, cfg, PARAMS)
        assert hit.model is built


@pytest.mark.parametrize("variant", ["position_sl", "velocity_sl"])
@pytest.mark.parametrize("nudge", ["sign_of_zero", "one_ulp"])
def test_model_differing_in_any_byte_gets_its_own_build(variant, nudge, monkeypatch):
    # the reuse key is the bytes of the measured (psi, beta): -0.0 against
    # +0.0, or one ulp, in either is a new operating point with a model and
    # prediction of its own, while a step that moves only (x, y) builds nothing
    builds = Counter()
    real_build = trackmpc.controllers.build_prediction

    def counting(*args, **kwargs):
        builds["n"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(trackmpc.controllers, "build_prediction", counting)
    cfg = config_for(variant)
    step = CONTROLLER_STEPS[variant]
    linearize = getattr(trackmpc.controllers, _LINEARIZE[variant])
    path = make_straight_path(4.0, cfg.ts)
    start = default_initial_state(path)
    nudged = -0.0 if nudge == "sign_of_zero" else float(np.nextafter(0.0, 1.0))
    for field in ("psi", "beta"):
        assert _same_bytes(np.array(getattr(start, field)), np.array(0.0))
        plant = replace(start, **{field: nudged})
        builds.clear()
        _, ctrl = step(init_state(cfg, start, path, PARAMS), start, path, cfg, PARAMS)
        first = ctrl.model
        _, ctrl = step(ctrl, plant, path, cfg, PARAMS)
        assert builds["n"] == 2, field
        assert ctrl.model is not first and ctrl.model.key != first.key
        fresh = real_build(linearize(plant, PARAMS, cfg.ts), cfg.horizon, cfg.control_horizon)
        for name in ("sx", "su", "sk"):
            assert _same_bytes(getattr(ctrl.model.pred, name), getattr(fresh, name)), name
        built = ctrl.model
        _, ctrl = step(ctrl, replace(plant, x=plant.x + 0.5, y=plant.y - 0.25), path, cfg,
                       PARAMS)
        assert builds["n"] == 2 and ctrl.model is built, field


@pytest.mark.parametrize("variant", VARIANTS)
def test_unconverged_solve_is_a_control_error(variant, monkeypatch):
    # a QP that stops short of the KKT tolerance never yields a move: the
    # step raises, naming variant, status and residual, and the harness
    # ends the run there with a trace of the completed steps only
    real = trackmpc.controllers.solve_box_qp
    solves = Counter()
    starved_qps = []

    def starved(qp, **kwargs):
        solves["n"] += 1
        sol = real(qp, **kwargs)
        if solves["n"] <= 3:
            return sol
        starved_qps.append(qp)
        return trackmpc.qp.QpSolution(u=sol.u, iterations=sol.iterations, status="max_iter",
                                      kkt_residual=1.25e-3)

    def expected():
        # the residual's tolerance is absolute, so the weight scale is named
        # too: (10 * 2.8)^2 and (0.1 * 2.8)^2 by default
        h_max = float(np.abs(starved_qps[-1].h).max())
        return (f"{variant} QP stopped at max_iter with KKT residual 1.250e-03 at weight "
                f"scale max|H| = {h_max:.3e} ((w_y*alpha)^2 = 7.840e+02, "
                f"(w_du*alpha)^2 = 7.840e-02)")

    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", starved)
    cfg = config_for(variant)
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    seen = []  # the plant argument of every step the run calls
    real_step = CONTROLLER_STEPS[variant]

    def recorder(ctrl, plant, path, cfg, params):
        seen.append(plant)
        return real_step(ctrl, plant, path, cfg, params)

    monkeypatch.setitem(CONTROLLER_STEPS, variant, recorder)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status == f"failed: {expected()}"
    assert result.inputs.shape == (3,)
    assert result.iter_times.shape == (3,)
    assert result.states.shape == (4, 4)
    np.testing.assert_array_equal(result.t, np.arange(4) * path.ts)
    # without noise, each step saw the true state, the failing fourth too
    np.testing.assert_array_equal([(p.x, p.y, p.psi, p.beta) for p in seen], result.states)
    assert result.ssd == ssd_from_traces(result.states, path.x[:4], path.y[:4])

    plant = default_initial_state(path)
    with pytest.raises(ControlError) as err:
        CONTROLLER_STEPS[variant](init_state(cfg, plant, path, PARAMS), plant, path, cfg, PARAMS)
    assert str(err.value) == expected()


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_qp_is_a_control_error(variant, monkeypatch):
    # a gradient gone NaN passes the solver's violation test; its residual
    # does not, so the step raises instead of applying a NaN move
    real = trackmpc.controllers.build_tracking_qp

    def poisoned(*args, **kwargs):
        qp = real(*args, **kwargs)
        return qp._replace(f=np.full_like(qp.f, np.nan))

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", poisoned)
    cfg = config_for(variant)
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    plant = default_initial_state(path)
    with pytest.raises(ControlError, match=f"{variant} QP stopped at .* KKT residual nan"):
        CONTROLLER_STEPS[variant](init_state(cfg, plant, path, PARAMS), plant, path, cfg, PARAMS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_reference_names_the_gradient(variant):
    # a reference gone NaN after the path's own checks makes the QP gradient
    # NaN: the failure names that gradient, not the weight scale. A path is
    # read-only after its checks, so the test unfreezes it to write the NaN
    cfg = config_for(variant)
    path = make_sine_path(1.0, 40.0, 4.0, cfg.ts)
    plant = default_initial_state(path)
    path.y.flags.writeable = True
    path.y[1:] = np.nan
    ctrl = init_state(cfg, plant, path, PARAMS)
    with pytest.raises(ControlError) as err:
        CONTROLLER_STEPS[variant](ctrl, plant, path, cfg, PARAMS)
    message = str(err.value)
    assert message.startswith(f"{variant} QP stopped at inaccurate with KKT residual nan")
    assert "non-finite gradient f" in message and "weight scale" not in message


def test_step_carries_the_start_outside_equality(monkeypatch):
    # each step hands the solver the partition the previous step's QP
    # accepted after its guess missed (None after a guess that held), which
    # the last solve's solution holds
    cfg = config_for("velocity_sl")
    path = make_step_path(1.0, 6.0, cfg.ts)
    plant = default_initial_state(path)
    ctrl = init_state(cfg, plant, path, PARAMS)
    assert ctrl.last_solve is None
    real = trackmpc.controllers.solve_box_qp
    handed, returned = [], []

    def recording(qp, **kwargs):
        sol = real(qp, **kwargs)
        handed.append(kwargs["start"])
        returned.append(sol.start)
        return sol

    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", recording)
    for _ in range(5):
        u, ctrl = CONTROLLER_STEPS["velocity_sl"](ctrl, plant, path, cfg, PARAMS)
        assert ctrl.last_solve.solution.start is returned[-1]
        assert ctrl.last_solve.start is handed[-1]
        plant = step_nonlinear(plant, u, cfg.ts, PARAMS)
    assert len(handed) == 5
    assert handed[0] is None
    assert all(a is b for a, b in zip(handed[1:], returned))
    assert any(start is not None for start in returned)


def _same_solution(a, b):
    """Every QpSolution field alike, arrays and the residual byte for byte."""
    return (_same_bytes(a.u, b.u) and a.iterations == b.iterations and a.status == b.status
            and np.float64(a.kkt_residual).tobytes() == np.float64(b.kkt_residual).tobytes()
            and a.primal_iterations == b.primal_iterations
            and (a.start is b.start is None
                 or a.start is not None and b.start is not None
                 and _same_bytes(a.start, b.start)))


@pytest.mark.parametrize("scenario,reused", [
    ("complete.cfg", 30), ("sine_disturbed.cfg", 0), ("step.cfg", 0), ("straight.cfg", 1946)])
def test_reused_solutions_are_what_a_fresh_solve_returns(scenario, reused, tmp_path,
                                                         monkeypatch):
    # a step whose QP is the previous one bit for bit returns the stored
    # solution without a solve. On every shipped run, each reused solution
    # is field for field what a fresh solve of the step's QP returns from
    # the start the step handed in
    real_step = trackmpc.controllers.controller_step
    real_build = trackmpc.controllers.build_tracking_qp
    real_solve = trackmpc.controllers.solve_box_qp
    built, steps = [], []
    solves = Counter()

    def building(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def solving(qp, **kwargs):
        solves["n"] += 1
        return real_solve(qp, **kwargs)

    def stepping(ctrl, *args):
        u, out = real_step(ctrl, *args)
        steps.append((ctrl.last_solve, out.last_solve, built[-1], u))
        return u, out

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", building)
    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", solving)
    for variant in VARIANTS:
        monkeypatch.setitem(CONTROLLER_STEPS, variant, stepping)
    cfg = apply_overrides(parse_config((SCENARIOS / scenario).read_text()),
                          [f"output.directory={tmp_path}"])
    rows, failures = run_compare(cfg)
    assert failures == [] and len(rows) == 4
    hits = [(before, after, qp, u) for before, after, qp, u in steps if after is before]
    assert len(hits) == reused
    assert solves["n"] == len(steps) - reused
    for before, after, qp, u in hits:
        fresh = real_solve(qp, start=before.solution.start)
        assert _same_solution(after.solution, fresh)
        assert u == fresh.u[0]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("change", [
    None, "f_one_ulp", "f_sign_of_zero", "start", "h_equal_copy"])
def test_only_a_bit_identical_qp_reuses_the_last_solve(variant, change, monkeypatch):
    # on a straight path every step's QP is the first one's (f = 0). One
    # ulp or the sign of a zero in f, another start handed in or an H of the
    # same bytes that is a new object makes a new QP, which is solved and
    # stored in place of the last solve; the bounds are the run's box, the
    # same for every QP
    cfg = config_for(variant)
    path = make_straight_path(4.0, cfg.ts)
    plant = default_initial_state(path)
    _, ctrl = CONTROLLER_STEPS[variant](init_state(cfg, plant, path, PARAMS), plant, path, cfg, PARAMS)
    stored = ctrl.last_solve
    assert stored.solution.start is None and not np.frombuffer(stored.f).any()

    real_build = trackmpc.controllers.build_tracking_qp
    real_solve = trackmpc.controllers.solve_box_qp
    built, solved = [], []

    def changed(*args, **kwargs):
        qp = real_build(*args, **kwargs)
        h, f = qp.h, qp.f.copy()
        if change == "f_one_ulp":
            f[0] = np.nextafter(f[0], np.inf)
        elif change == "f_sign_of_zero":
            f[0] = -f[0]
        elif change == "h_equal_copy":
            h = h.copy()
        built.append(trackmpc.qp.TrackingQp(h, f, qp.lb, qp.ub))
        return built[-1]

    def solving(qp, **kwargs):
        solved.append(kwargs["start"])
        return real_solve(qp, **kwargs)

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", changed)
    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", solving)
    if change == "start":
        handed = np.zeros(cfg.control_horizon, dtype=np.int8)
        ctrl = ctrl._replace(last_solve=stored._replace(
            solution=stored.solution._replace(start=handed)))
    u, after = CONTROLLER_STEPS[variant](ctrl, plant, path, cfg, PARAMS)
    if change is None:
        assert solved == [] and after.last_solve is ctrl.last_solve
        return
    assert len(solved) == 1 and after.last_solve is not ctrl.last_solve
    assert solved[0] is ctrl.last_solve.solution.start
    fresh = real_solve(built[-1], start=solved[0])
    assert _same_solution(after.last_solve.solution, fresh)
    assert after.last_solve.h is built[-1].h and after.last_solve.f == built[-1].f.tobytes()
    assert u == fresh.u[0]


def test_a_repeat_whose_guess_missed_is_reused_once_its_start_repeats(monkeypatch):
    # a QP whose guess misses hands on the partition it accepted. The same
    # QP is then solved once more, since it gets that start where it got
    # None, and returns the same partition; from then on it is reused
    cfg = config_for("velocity_sl")
    path = make_step_path(1.0, 6.0, cfg.ts)
    plant = default_initial_state(path)
    real_build = trackmpc.controllers.build_tracking_qp
    real_solve = trackmpc.controllers.solve_box_qp
    built, handed = [], []

    def building(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", building)
    ctrl = init_state(cfg, plant, path, PARAMS)
    while ctrl.last_solve is None or ctrl.last_solve.solution.start is None:
        u, ctrl = CONTROLLER_STEPS["velocity_sl"](ctrl, plant, path, cfg, PARAMS)
        plant = step_nonlinear(plant, u, cfg.ts, PARAMS)
    missed = built[-1]

    def solving(qp, **kwargs):
        handed.append(kwargs["start"])
        return real_solve(qp, **kwargs)

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", lambda *a, **k: missed)
    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", solving)
    ctrl = init_state(cfg, plant, path, PARAMS)
    states = []
    for _ in range(4):
        _, ctrl = CONTROLLER_STEPS["velocity_sl"](ctrl, plant, path, cfg, PARAMS)
        states.append(ctrl.last_solve)
    assert len(handed) == 2 and handed[0] is None
    first, second = states[:2]
    assert handed[1] is first.solution.start
    assert _same_bytes(second.solution.start, first.solution.start)
    assert states[2] is states[3] is second
    assert _same_solution(second.solution, real_solve(missed, start=second.solution.start))


def test_a_step_that_raises_stores_no_solve(monkeypatch):
    # a solve that stops short raises before the step returns a state, so
    # the caller's state keeps its last solve, and the same QP is solved
    # (and fails) again on the next try, never reused
    cfg = config_for("baseline")
    path = make_straight_path(4.0, cfg.ts)
    plant = default_initial_state(path)
    _, ctrl = CONTROLLER_STEPS["baseline"](init_state(cfg, plant, path, PARAMS), plant, path, cfg,
                                           PARAMS)
    stored = ctrl.last_solve
    real_build = trackmpc.controllers.build_tracking_qp
    real_solve = trackmpc.controllers.solve_box_qp
    solves = Counter()

    def nudged(*args, **kwargs):
        qp = real_build(*args, **kwargs)
        return qp._replace(f=qp.f + 1.0)

    def starved(qp, **kwargs):
        solves["n"] += 1
        sol = real_solve(qp, **kwargs)
        return trackmpc.qp.QpSolution(u=sol.u, iterations=sol.iterations, status="max_iter",
                                      kkt_residual=1.25e-3)

    monkeypatch.setattr(trackmpc.controllers, "build_tracking_qp", nudged)
    monkeypatch.setattr(trackmpc.controllers, "solve_box_qp", starved)
    for attempt in (1, 2):
        with pytest.raises(ControlError, match="baseline QP stopped at max_iter"):
            CONTROLLER_STEPS["baseline"](ctrl, plant, path, cfg, PARAMS)
        assert solves["n"] == attempt
        assert ctrl.last_solve is stored


def test_step_table_covers_all_variants():
    assert tuple(CONTROLLER_STEPS) == VARIANTS


# --- zero-error fixed point -------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_on_path_start_commands_zero(variant):
    # a plant sitting exactly on a straight path with matching heading has
    # nothing to correct; the very first move must be (numerically) zero
    cfg = config_for(variant)
    path = make_straight_path(10.0, cfg.ts)
    plant = default_initial_state(path)
    ctrl = init_state(cfg, plant, path, PARAMS)
    u, _ = CONTROLLER_STEPS[variant](ctrl, plant, path, cfg, PARAMS)
    assert abs(u) < 1e-12


def test_velocity_backward_initialization():
    cfg = config_for("velocity_sl")
    plant = VehicleState(x=3.0, y=-1.0, psi=0.3, beta=0.05)
    ctrl = init_state(cfg, plant, make_straight_path(4.0, cfg.ts), PARAMS)
    prev = ctrl.prev_state
    assert prev is not None
    heading = 0.3 + 0.05
    assert prev.x == pytest.approx(3.0 - 10.0 * math.cos(heading) * 0.05)
    assert prev.y == pytest.approx(-1.0 - 10.0 * math.sin(heading) * 0.05)
    assert prev.psi == pytest.approx(0.3 - 10.0 / PARAMS.lr * math.sin(0.05) * 0.05)
    assert prev.beta == 0.05


# --- hand-worked single steps -----------------------------------------------

def test_step_reference_saturates_first_move():
    # a 1 m lateral jump is far outside what one rate-limited move can do,
    # so the first command sits exactly on the box: 0.5 rad/s * 0.2 s
    cfg = config_for("baseline")
    path = make_step_path(1.0, 6.0, cfg.ts)
    plant = default_initial_state(path)
    ctrl = init_state(cfg, plant, path, PARAMS)
    u, after = CONTROLLER_STEPS["baseline"](ctrl, plant, path, cfg, PARAMS)
    assert u == pytest.approx(cfg.rate_limit * cfg.ts, abs=1e-12)
    assert after.ref_cursor == 1


def test_input_target_pulls_slip():
    # with a single-stage horizon the compromise between tracking and the
    # input target has a closed form: starting on the path at zero slip,
    #   J(u) = wy^2 (B_y u)^2 + wdu^2 u^2 + wu^2 (u - c)^2,  B_y = v*ts
    # so u* = wu^2 c / ((v*ts)^2 wy^2 + wdu^2 + wu^2)
    path = make_straight_path(10.0, 0.2)
    plant = default_initial_state(path)
    step = CONTROLLER_STEPS["baseline"]
    cfg_plain = config_for("baseline", alpha=1.0)
    u_plain, _ = step(init_state(cfg_plain, plant, path, PARAMS), plant, path, cfg_plain, PARAMS)
    assert abs(u_plain) < 1e-12

    wy, wdu, wu, c = 10.0, 0.1, 50.0, 0.02
    expected = wu**2 * c / (4.0 * wy**2 + wdu**2 + wu**2)
    for sign in (1.0, -1.0):
        cfg = config_for("baseline", alpha=1.0, w_u=wu, u_target=sign * c,
                         horizon=1, control_horizon=1)
        u, _ = step(init_state(cfg, plant, path, PARAMS), plant, path, cfg, PARAMS)
        assert u == pytest.approx(sign * expected, abs=1e-9)


@pytest.mark.parametrize("variant", ["position_sl", "velocity_sl"])
def test_input_target_is_ignored_by_relinearizing_variants(variant):
    # only the fixed absolute-slip model carries the w_u term; the
    # re-linearizing variants stay at the zero-error fixed point
    cfg = config_for(variant, alpha=1.0, w_u=50.0, u_target=0.02)
    path = make_straight_path(10.0, cfg.ts)
    plant = default_initial_state(path)
    u, _ = CONTROLLER_STEPS[variant](init_state(cfg, plant, path, PARAMS), plant, path, cfg, PARAMS)
    assert abs(u) < 1e-12


# --- displacement references -----------------------------------------------

def test_delta_refs_straight_line():
    path = make_straight_path(5.0, 0.05)  # samples 0.5 m apart
    plant = default_initial_state(path)
    dx, dy, cursor = generate_delta_refs(plant, scan_table(path), 0, PARAMS, 0.05)
    assert (dx, dy, cursor) == (0.5, 0.0, 1)


def test_delta_refs_zero_ts_stays_put():
    path = make_straight_path(5.0, 0.05)
    plant = default_initial_state(path)
    dx, dy, cursor = generate_delta_refs(plant, scan_table(path), 3, PARAMS, 0.0)
    assert (dx, dy, cursor) == (0.0, 0.0, 3)


def test_delta_refs_vertical_travel():
    # path climbing straight up, vehicle pointing straight up: the estimate
    # lands on the next sample and the reference has no x component
    n = 20
    path = ReferencePath(x=np.zeros(n), y=0.5 * np.arange(n), ts=0.05, heading0=math.pi / 2)
    plant = VehicleState(x=0.0, y=0.0, psi=math.pi / 2, beta=0.0)
    dx, dy, cursor = generate_delta_refs(plant, scan_table(path), 0, PARAMS, 0.05)
    assert dx == 0.0
    assert dy == pytest.approx(0.5)
    assert cursor == 1


def test_delta_refs_cursor_never_retreats():
    path = make_sine_path(1.0, 40.0, 8.0, 0.05)
    rng = np.random.default_rng(7)
    for _ in range(50):
        cursor = int(rng.integers(0, len(path) - 1))
        plant = VehicleState(
            x=float(path.x[cursor] + rng.normal(scale=0.5)),
            y=float(path.y[cursor] + rng.normal(scale=0.5)),
            psi=float(rng.normal(scale=0.3)),
            beta=float(rng.uniform(-0.2, 0.2)),
        )
        _, _, j = generate_delta_refs(plant, scan_table(path), cursor, PARAMS, 0.05)
        assert j >= cursor


def test_delta_refs_end_of_path():
    path = make_straight_path(2.0, 0.1)
    plant = default_initial_state(path)
    with pytest.raises(ControlError, match="reference cursor 20 is at the final sample 20"):
        generate_delta_refs(plant, scan_table(path), len(path) - 1, PARAMS, 0.1)
    with pytest.raises(ValueError, match="cursor"):
        generate_delta_refs(plant, scan_table(path), -1, PARAMS, 0.1)


class _CountingSequence:
    """A sequence that counts the reads of its items."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, j):
        self.reads += 1
        return self.items[j]


@pytest.mark.parametrize("build", [
    lambda: make_straight_path(4999.0, 0.05),
    lambda: make_step_path(1.0, 4999.0, 0.05),
    lambda: make_sine_path(1.0, 40.0, 4999.0, 0.05),
    lambda: make_complete_path(0.01, periods=185),
], ids=["straight", "step", "sine", "complete"])
def test_delta_refs_read_a_few_samples_of_a_long_path(build):
    # on a path near MAX_PATH_SAMPLES long, the cursor scan reads at most 8
    # items of each column of the scan table per call, wherever the cursor
    # sits and with the plant heading along the path, and it picks what an
    # argmin over the whole rest of the path picks
    path = build()
    assert 98_000 <= len(path) <= 100_000
    table = scan_table(path)
    for cursor in np.linspace(0, len(path) - 2, 50).astype(int).tolist():
        psi = math.atan2(path.y[cursor + 1] - path.y[cursor],
                         path.x[cursor + 1] - path.x[cursor])
        plant = VehicleState(x=float(path.x[cursor]), y=float(path.y[cursor]), psi=psi, beta=0.0)
        counted = table._make(map(_CountingSequence, table))
        _, _, j = generate_delta_refs(plant, counted, cursor, PARAMS, path.ts)
        reads = {name: column.reads for name, column in zip(table._fields, counted)}
        assert max(reads.values()) <= 8, (cursor, reads)
        x_est = path.x[cursor] + PARAMS.v * math.cos(psi) * path.ts
        y_est = path.y[cursor] + PARAMS.v * math.sin(psi) * path.ts
        dx, dy = path.x[cursor:] - x_est, path.y[cursor:] - y_est
        assert j == cursor + int(np.argmin(dx * dx + dy * dy))


# --- steady-state geometry ---------------------------------------------------

def _circle_path(radius: float, duration: float, ts: float, v: float = 10.0) -> ReferencePath:
    """Left turn of constant radius, sampled every v*ts along the arc."""
    k = np.arange(int(round(duration / ts)) + 1)
    chi = v * ts * k / radius  # [rad] arc angle per sample
    return ReferencePath(x=radius * np.sin(chi), y=radius * (1.0 - np.cos(chi)),
                         ts=ts, heading0=0.0)


def test_constant_radius_turn_settles_at_geometric_slip():
    cfg = config_for("position_sl")
    path = _circle_path(30.0, 10.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status == "ok"
    # the commanded slip chatters inside the rate box, but its running mean
    # must sit on the turn geometry once the entry transient has died; stay
    # clear of the final samples where the reference stack clamps
    target = math.asin(PARAMS.lr / 30.0)
    assert np.mean(result.states[60:110, 3]) == pytest.approx(target, abs=2e-3)
    assert np.mean(result.states[110:160, 3]) == pytest.approx(target, abs=2e-3)


# --- rate-limit conformance ---------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_moves_respect_rate_limit_on_curves(variant):
    cfg = config_for(variant)
    path = make_sine_path(1.0, 40.0, 6.0, cfg.ts)
    result = run_closed_loop(cfg, path, NO_NOISE, PARAMS)
    assert result.status == "ok"
    bound = cfg.rate_limit * cfg.ts + 1e-9
    assert np.max(np.abs(result.inputs)) <= bound
    # applied moves are exactly the slip increments of the true trajectory
    np.testing.assert_allclose(np.diff(result.states[:, 3]), result.inputs, atol=1e-12)
