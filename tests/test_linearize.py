"""Linear model tests: frozen matrices plus finite-difference Jacobian oracles.

The one-step models must be the exact Jacobians of the nonlinear step with
respect to their own input and state coordinates, so central differences of
step_nonlinear are the reference for every entry.
"""

import math

import numpy as np
import pytest

from trackmpc import (
    VehicleParams,
    VehicleState,
    linearize_initial,
    linearize_position,
    linearize_velocity,
    step_nonlinear,
)

PARAMS = VehicleParams()


def state_matrix(model) -> np.ndarray:
    """A model's full (3, 3) state matrix A = I + c e3'."""
    a = np.eye(3)
    a[:2, 2] = model.c
    return a


def _pose(state: VehicleState) -> np.ndarray:
    return np.array([state.x, state.y, state.psi])


def test_initial_model_frozen_matrices():
    model = linearize_initial(PARAMS, 0.2)
    assert np.array_equal(state_matrix(model), [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(model.b, [0.0, 2.0, 1.1507479861910241], atol=1e-15)
    np.testing.assert_allclose(model.k, [2.0, 0.0, 0.0], atol=0)


@pytest.mark.parametrize("ts,b_last", [(0.1, 0.5753739930955121), (0.05, 0.28768699654775604)])
def test_initial_model_scales_with_ts(ts, b_last):
    model = linearize_initial(PARAMS, ts)
    np.testing.assert_allclose(model.b, [0.0, ts * 10, b_last], atol=1e-15)
    assert state_matrix(model)[1, 2] == pytest.approx(ts * 10)


def test_position_model_frozen_at_operating_point():
    op = VehicleState(psi=0.3, beta=0.05)
    model = linearize_position(op, PARAMS, 0.05)
    assert np.array_equal(state_matrix(model), np.eye(3))
    np.testing.assert_allclose(
        model.b,
        [-0.17144890372772567, 0.46968635642368944, 0.2873274627143171],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        model.k,
        [0.46968635642368944, 0.17144890372772567, 0.014378357097433351],
        atol=1e-15,
    )


def test_velocity_model_structure():
    op = VehicleState(psi=0.3, beta=0.05)
    model = linearize_velocity(op, PARAMS, 0.05)
    theta = 0.35
    expected_a = np.array(
        [
            [1.0, 0.0, -0.5 * math.sin(theta)],
            [0.0, 1.0, 0.5 * math.cos(theta)],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(state_matrix(model), expected_a, atol=1e-15)
    # same forced response as the position model
    pos = linearize_position(op, PARAMS, 0.05)
    np.testing.assert_allclose(model.b, pos.b, atol=1e-15)
    # the drift cancels in the differencing: exactly zero, not just small
    assert np.array_equal(model.k, np.zeros(3))


def test_position_b_is_exact_input_jacobian():
    # central difference of the nonlinear step in u, evaluated at u=0
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(25):
        psi = float(rng.uniform(-1.2, 1.2))
        beta = float(rng.uniform(-0.4, 0.4))
        ts = float(rng.uniform(0.02, 0.3))
        state = VehicleState(0.0, 0.0, psi, beta)
        hi = _pose(step_nonlinear(state, eps, ts, PARAMS))
        lo = _pose(step_nonlinear(state, -eps, ts, PARAMS))
        fd = (hi - lo) / (2 * eps)
        model = linearize_position(VehicleState(psi=psi, beta=beta), PARAMS, ts)
        np.testing.assert_allclose(model.b, fd, rtol=1e-6, atol=1e-9)


def test_position_affine_term_is_zero_input_step():
    # K must reproduce the nonlinear drift at the operating point: with u=0
    # the predicted state is x + K exactly
    op = VehicleState(psi=-0.2, beta=0.1)
    ts = 0.1
    model = linearize_position(op, PARAMS, ts)
    state = VehicleState(4.0, 2.0, op.psi, op.beta)
    nxt = step_nonlinear(state, 0.0, ts, PARAMS)
    np.testing.assert_allclose(
        _pose(state) + model.k, _pose(nxt), atol=1e-12
    )


def test_velocity_a_third_column_is_heading_jacobian():
    # column 3 of A is the sensitivity of the next displacement to the
    # current heading; oracle by central difference over psi
    eps = 1e-6
    for psi, beta, ts in [(0.0, 0.0, 0.2), (0.5, 0.1, 0.05), (-0.8, -0.2, 0.1)]:
        def displacement(p):
            state = VehicleState(0.0, 0.0, p, beta)
            nxt = step_nonlinear(state, 0.0, ts, PARAMS)
            return np.array([nxt.x, nxt.y, nxt.psi - p])

        fd = (displacement(psi + eps) - displacement(psi - eps)) / (2 * eps)
        fd[2] += 1.0  # d(psi+)/d(psi) includes the carried heading itself
        model = linearize_velocity(VehicleState(psi=psi, beta=beta), PARAMS, ts)
        np.testing.assert_allclose(state_matrix(model)[:, 2], fd, rtol=1e-6, atol=1e-9)


def test_initial_model_is_small_angle_limit():
    # at the origin operating point the position model collapses onto the
    # fixed model's B column
    model0 = linearize_initial(PARAMS, 0.2)
    pos0 = linearize_position(VehicleState(psi=0.0, beta=0.0), PARAMS, 0.2)
    np.testing.assert_allclose(model0.b, pos0.b, atol=1e-15)


def test_zero_ts_degenerates_to_identity():
    model = linearize_position(VehicleState(psi=0.4, beta=0.1), PARAMS, 0.0)
    np.testing.assert_allclose(model.b, np.zeros(3), atol=0)
    np.testing.assert_allclose(model.k, np.zeros(3), atol=0)


@pytest.mark.parametrize("build", [
    lambda ts: linearize_initial(PARAMS, ts),
    lambda ts: linearize_position(VehicleState(psi=0.4, beta=0.1), PARAMS, ts),
], ids=["initial", "slip_column"])
def test_negative_ts_is_rejected(build):
    # the fixed model and the slip column shared by the re-linearized models
    # each check the sample time they are handed
    with pytest.raises(ValueError, match="sample time must be nonnegative, got -0.05"):
        build(-0.05)
