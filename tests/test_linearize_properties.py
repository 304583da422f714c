"""Property tests: the one-step models against central finite differences.

At any operating point and sample time, linearize_position and
linearize_velocity must be the Jacobians of step_nonlinear in the
coordinates they claim (criterion 1 checks 100 fixed draws):

* B, shared by both models, is d(x+, y+, psi+)/du at u = 0;
* the velocity model's heading column A[:, 2] is d(x+, y+, psi+)/dpsi;
* the position model keeps A = I, which is the step's Jacobian in (x, y),
  and its drift K is the zero-input step itself.

Both models also read nothing of the state but (psi, beta), which the
controllers' model reuse keys on.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_linearize import _pose, state_matrix  # noqa: E402
from trackmpc import (  # noqa: E402
    VehicleParams,
    VehicleState,
    linearize_position,
    linearize_velocity,
    step_nonlinear,
)

PARAMS = VehicleParams()
EPS = 1e-6
REL_TOL = 1e-6  # criterion 1's cap, relative to the largest entry


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def operating_states(draw):
    """A plant state, the operating point at its (psi, beta), and a sample time."""
    psi = draw(_floats(-math.pi, math.pi))
    beta = draw(_floats(-1.4, 1.4))  # the slip stays inside (-pi/2, pi/2) under +-EPS
    state = VehicleState(x=draw(_floats(-100.0, 100.0)), y=draw(_floats(-100.0, 100.0)),
                         psi=psi, beta=beta)
    return state, VehicleState(psi=psi, beta=beta), draw(_floats(0.01, 0.5))


def _central(plus: VehicleState, minus: VehicleState) -> np.ndarray:
    return (_pose(plus) - _pose(minus)) / (2.0 * EPS)


def _assert_close(model_part: np.ndarray, fd: np.ndarray) -> None:
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    assert float(np.max(np.abs(model_part - fd))) <= REL_TOL * scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operating_states())
def test_input_column_matches_finite_differences(case):
    state, op, ts = case
    fd = _central(step_nonlinear(state, EPS, ts, PARAMS), step_nonlinear(state, -EPS, ts, PARAMS))
    for linearize in (linearize_position, linearize_velocity):
        _assert_close(linearize(op, PARAMS, ts).b, fd)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operating_states())
def test_velocity_heading_column_matches_finite_differences(case):
    state, op, ts = case
    fd = _central(step_nonlinear(replace(state, psi=state.psi + EPS), 0.0, ts, PARAMS),
                  step_nonlinear(replace(state, psi=state.psi - EPS), 0.0, ts, PARAMS))
    _assert_close(state_matrix(linearize_velocity(op, PARAMS, ts))[:, 2], fd)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operating_states())
def test_position_model_matches_the_step_in_x_y_and_drift(case):
    state, op, ts = case
    model = linearize_position(op, PARAMS, ts)
    for col, field in enumerate(("x", "y")):
        value = getattr(state, field)
        fd = _central(step_nonlinear(replace(state, **{field: value + EPS}), 0.0, ts, PARAMS),
                      step_nonlinear(replace(state, **{field: value - EPS}), 0.0, ts, PARAMS))
        _assert_close(state_matrix(model)[:, col], fd)
    drift = _pose(step_nonlinear(state, 0.0, ts, PARAMS)) - _pose(state)
    np.testing.assert_allclose(model.k, drift, rtol=0, atol=1e-12 * (1.0 + np.abs(_pose(state)).max()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operating_states(), _floats(-1e6, 1e6), _floats(-1e6, 1e6))
def test_models_read_only_heading_and_slip(case, x, y):
    # controller_step keys a re-linearized model by the bytes of (psi, beta)
    # alone: moving the state in (x, y) must not change a byte of the model
    state, _, ts = case
    moved = replace(state, x=x, y=y)
    for linearize in (linearize_position, linearize_velocity):
        here, there = linearize(state, PARAMS, ts), linearize(moved, PARAMS, ts)
        for name in here._fields:
            assert getattr(here, name).tobytes() == getattr(there, name).tobytes(), name
