"""Property tests for the scenario document round-trips and path validation.

The manifest echoes serialize_config's document so that a run can be
regenerated from its artifacts, so every valid ScenarioConfig must come
back from parse_config unchanged. The same document, applied to the empty
scenario one `--set` per line, must rebuild it too: apply_overrides merges
coerced values into what the normalized document holds. Floats are written
with repr, which round-trips exactly, so the checks are plain equality.

Validation builds each variant's reference path, so a draw of the path keys
is accepted exactly when its path builds and holds the prediction window.
"""

import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from trackmpc import (  # noqa: E402
    VARIANTS,
    ConfigError,
    DisturbanceSpec,
    ScenarioConfig,
    VehicleParams,
    apply_overrides,
    parse_config,
    serialize_config,
)
from trackmpc.config import KIND_DURATIONS, PATH_KINDS  # noqa: E402

# Values the document format carries verbatim: no '#', '=', newline or
# surrounding blanks.
WORDS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-./",
                min_size=1, max_size=16)


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_configs(draw):
    kind = draw(st.sampled_from(PATH_KINDS))
    # a complete path derives its duration, and parses to the default
    duration = KIND_DURATIONS.get(kind, 30.0) if kind == "complete" else draw(_floats(2.5, 60.0))
    noisy = draw(st.booleans())
    ts = draw(st.none() | _floats(0.01, 0.2))
    return ScenarioConfig(
        name=draw(WORDS),
        kind=kind,
        duration=duration,
        amplitude=draw(_floats(0.0, 5.0)),
        wavelength=draw(_floats(1.0, 100.0)),
        lead_in=draw(_floats(0.0, 100.0)),
        periods=draw(st.integers(1, 3)),
        tail=draw(_floats(0.0, 100.0)),
        vehicle=VehicleParams(lf=draw(_floats(0.5, 3.0)), lr=draw(_floats(0.5, 3.0)),
                              v=draw(_floats(1.0, 30.0))),
        variant=draw(st.sampled_from(VARIANTS)),
        variants=tuple(draw(st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=4,
                                     unique=True))),
        alpha=draw(_floats(0.1, 20.0)),
        w_y=draw(_floats(0.0, 50.0)),
        w_u=draw(_floats(0.0, 50.0)),
        w_du=draw(_floats(0.01, 5.0)),
        rate_limit=draw(_floats(0.01, 2.0)),
        q_heading=draw(_floats(0.0, 10.0)),
        u_target=draw(_floats(-0.5, 0.5)),
        ts=ts,
        horizon=draw(st.none() | st.integers(1, 10)),
        control_horizon=draw(st.none() | st.integers(1, 5)),
        disturbance=DisturbanceSpec(
            kind="gaussian_output" if noisy else "none",
            amplitude=draw(_floats(0.0, 0.5)) if noisy else 0.0,
            seed=draw(st.integers(0, 2**31)),
            apply_to_x=draw(st.booleans()),
        ),
        out_dir=draw(WORDS),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=scenario_configs())
def test_serialize_parse_round_trip(cfg):
    text = serialize_config(cfg)
    try:
        parsed = parse_config(text)
    except ConfigError:
        # not a valid scenario (e.g. a control horizon longer than the
        # prediction horizon); those are out of scope
        assume(False)
    assert parsed == cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=scenario_configs())
def test_overrides_rebuild_every_config(cfg):
    text = serialize_config(cfg)
    try:
        parse_config(text)
    except ConfigError:
        assume(False)
    assignments, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, _, value = line.partition(" = ")
            assignments.append(f"{section}.{key}={value}")
    assert apply_overrides(parse_config(""), assignments) == cfg


def _magnitudes():
    """Positive floats, log-uniform from the smallest subnormal up to 1e308."""
    exponents = st.floats(-323.3, 308.0) | st.floats(-3.0, 3.0)
    return exponents.map(lambda e: 10.0 ** e) | st.sampled_from([5e-324, 1e-310])


@st.composite
def path_draws(draw):
    """--set key -> value for the keys a path and its prediction window read."""
    kind = draw(st.sampled_from(PATH_KINDS))
    values = {"scenario.kind": kind, "scenario.amplitude": draw(st.just(0.0) | _magnitudes()),
              "scenario.wavelength": draw(_magnitudes()), "vehicle.v": draw(_magnitudes()),
              "controller.ts": draw(_magnitudes()),
              "controller.horizon": draw(st.integers(1, 500)), "controller.control_horizon": 1}
    if kind == "complete":
        values["scenario.lead_in"] = draw(_magnitudes())
        values["scenario.tail"] = draw(_magnitudes())
        values["scenario.periods"] = draw(st.integers(1, 3) | st.integers(1, 2 * 10**6)
                                          | st.just(10**400))
    else:
        values["scenario.duration"] = draw(_magnitudes())
    return values


def _path_holds_the_window(values):
    """Whether the drawn path builds and lasts the prediction window ts * horizon."""
    scenario = {key.partition(".")[2]: value for key, value in values.items()
                if key.startswith("scenario.")}
    cfg = ScenarioConfig(**scenario, vehicle=VehicleParams(v=values["vehicle.v"]))
    ts = values["controller.ts"]
    try:
        path = cfg.build_path(ts)
    except ValueError:
        return False
    span = (len(path) - 1) * ts if cfg.kind == "complete" else cfg.duration
    return ts * values["controller.horizon"] <= span + 1e-9


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=path_draws())
# a complete path at ts = 0.001 ends at 0.18 s, past the 0.17 s window
@example(values={"scenario.kind": "complete", "controller.ts": 0.001, "vehicle.v": 1000.0,
                 "controller.horizon": 170, "controller.control_horizon": 5})
def test_validation_accepts_exactly_the_paths_that_build(values):
    # every variant runs at the drawn ts, so each builds this one path: the
    # config is accepted exactly when it builds and holds the window, and
    # neither side may warn (a numpy overflow is an error here)
    assignments = [f"{key}={value}" for key, value in values.items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _path_holds_the_window(values)
        try:
            apply_overrides(parse_config(""), assignments)
        except ConfigError:
            accepted = False
        else:
            accepted = True
    assert accepted == expected
