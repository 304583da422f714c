"""Plant model tests: the steer-from-slip map, continuous-time rates, and the Euler step."""

import math

import numpy as np
import pytest

from trackmpc import (
    VehicleParams,
    VehicleState,
    ct_derivative,
    steer_from_slip,
    step_nonlinear,
)


def test_ct_derivative_straight():
    state = VehicleState(0.0, 0.0, 0.0, 0.0)
    rates = ct_derivative(state, VehicleParams())
    assert np.allclose(rates, [10.0, 0.0, 0.0])


def test_ct_derivative_rotated_quarter_turn():
    state = VehicleState(0.0, 0.0, math.pi / 2, 0.0)
    rates = ct_derivative(state, VehicleParams())
    assert abs(rates[0]) < 1e-15
    assert rates[1] == pytest.approx(10.0)
    assert rates[2] == 0.0


def test_ct_derivative_with_slip():
    params = VehicleParams(lf=1.105, lr=1.7, v=10.0)
    state = VehicleState(0.0, 0.0, 0.0, 0.1)
    rates = ct_derivative(state, params)
    assert rates[0] == pytest.approx(10 * math.cos(0.1), abs=1e-15)
    assert rates[1] == pytest.approx(10 * math.sin(0.1), abs=1e-15)
    assert rates[2] == pytest.approx(10 / 1.7 * math.sin(0.1), abs=1e-15)


def test_step_straight_advances_by_speed_times_ts():
    nxt = step_nonlinear(VehicleState(0.0, 0.0, 0.0, 0.0), 0.0, 0.2, VehicleParams())
    assert (nxt.x, nxt.y, nxt.psi, nxt.beta) == (2.0, 0.0, 0.0, 0.0)


def test_step_applies_input_before_integrating():
    params = VehicleParams(lf=1.105, lr=1.7, v=10.0)
    nxt = step_nonlinear(VehicleState(0.0, 0.0, 0.0, 0.0), 0.1, 0.1, params)
    assert nxt.beta == pytest.approx(0.1)
    assert nxt.x == pytest.approx(10 * math.cos(0.1) * 0.1)
    assert nxt.y == pytest.approx(10 * math.sin(0.1) * 0.1)
    assert nxt.psi == pytest.approx(10 / 1.7 * math.sin(0.1) * 0.1)


def test_step_frozen_point():
    # one step from a mid-maneuver state; values frozen from the closed forms
    # x+ = x + v cos(psi+beta+u) Ts etc. evaluated independently
    params = VehicleParams()
    nxt = step_nonlinear(VehicleState(3.0, -1.0, 0.3, 0.05), 0.02, 0.05, params)
    assert nxt.x == pytest.approx(3.466163672803017, abs=1e-15)
    assert nxt.y == pytest.approx(-0.819192284017519, abs=1e-15)
    assert nxt.psi == pytest.approx(0.32012164768053303, abs=1e-15)
    assert nxt.beta == pytest.approx(0.07, abs=1e-16)


def test_two_straight_steps_commute_with_one_double_step():
    params = VehicleParams()
    one = step_nonlinear(VehicleState(0, 0, 0, 0), 0.0, 0.2, params)
    two = step_nonlinear(one, 0.0, 0.2, params)
    double = step_nonlinear(VehicleState(0, 0, 0, 0), 0.0, 0.4, params)
    assert two.x == pytest.approx(double.x, abs=1e-15)
    assert two.y == pytest.approx(double.y, abs=1e-15)


def test_displacement_magnitude_is_exactly_v_ts():
    rng = np.random.default_rng(7)
    params = VehicleParams()
    for _ in range(50):
        state = VehicleState(
            float(rng.normal(scale=5)),
            float(rng.normal(scale=5)),
            float(rng.uniform(-3, 3)),
            float(rng.uniform(-0.5, 0.5)),
        )
        u = float(rng.uniform(-0.05, 0.05))
        ts = float(rng.uniform(0.01, 0.3))
        nxt = step_nonlinear(state, u, ts, params)
        dist = math.hypot(nxt.x - state.x, nxt.y - state.y)
        assert dist == pytest.approx(params.v * ts, abs=1e-12)


def test_zero_input_gives_constant_curvature():
    params = VehicleParams()
    state = VehicleState(0.0, 0.0, 0.0, 0.12)
    increments = []
    for _ in range(5):
        nxt = step_nonlinear(state, 0.0, 0.1, params)
        increments.append(nxt.psi - state.psi)
        state = nxt
    assert np.ptp(increments) < 1e-15
    assert state.beta == 0.12


def test_forward_difference_matches_ct_derivative():
    # the step holds one heading over the interval, so with u=0 the forward
    # difference equals the continuous-time rate up to float roundoff
    params = VehicleParams()
    state = VehicleState(1.0, 2.0, 0.4, 0.1)
    exact = ct_derivative(state, params)
    for ts in (1e-2, 1e-3, 1e-4):
        nxt = step_nonlinear(state, 0.0, ts, params)
        diff = (np.array([nxt.x, nxt.y, nxt.psi]) - np.array([state.x, state.y, state.psi])) / ts
        assert np.max(np.abs(diff - exact)) < 1e-9


def test_euler_converges_to_exact_circular_flow():
    # at constant slip the continuous dynamics trace a circle with an exact
    # closed-form flow; repeated Euler steps must approach it linearly in Ts
    params = VehicleParams()
    beta, psi0, total = 0.08, 0.2, 0.7
    omega = params.v / params.lr * math.sin(beta)
    exact_dx = params.v / omega * (math.sin(psi0 + omega * total + beta) - math.sin(psi0 + beta))
    exact_dy = -params.v / omega * (math.cos(psi0 + omega * total + beta) - math.cos(psi0 + beta))
    assert exact_dx == pytest.approx(6.303186720312513, abs=1e-12)
    assert exact_dy == pytest.approx(2.97460444847917, abs=1e-12)

    def euler_error(steps):
        ts = total / steps
        state = VehicleState(0.0, 0.0, psi0, beta)
        for _ in range(steps):
            state = step_nonlinear(state, 0.0, ts, params)
        return math.hypot(state.x - exact_dx, state.y - exact_dy)

    coarse, fine = euler_error(64), euler_error(128)
    assert coarse / fine == pytest.approx(2.0, rel=0.2)


def slip_from_steer(delta_f: float, params: VehicleParams) -> float:
    """Slip angle a front steering angle produces: the map steer_from_slip inverts.

    beta = atan(lr / (lf + lr) * tan(delta_f)), |beta| <= |delta_f| because the
    rear axle does not steer.
    """
    return math.atan(params.lr / (params.lf + params.lr) * math.tan(delta_f))


def test_slip_steer_maps_frozen_values():
    params = VehicleParams()
    assert slip_from_steer(0.1, params) == pytest.approx(0.061260451341252194, abs=1e-15)
    assert steer_from_slip(0.05, params) == pytest.approx(0.08167553699515437, abs=1e-15)


def test_slip_steer_round_trip():
    params = VehicleParams()
    for delta in (-1.2, -0.3, 0.0, 0.4, 1.0):
        assert steer_from_slip(slip_from_steer(delta, params), params) == pytest.approx(delta, abs=1e-12)


@pytest.mark.parametrize("angle", [math.pi / 2, -math.pi / 2])
def test_slip_steer_maps_reject_a_right_angle(angle):
    params = VehicleParams()
    with pytest.raises(ValueError, match="slip angle must stay inside"):
        steer_from_slip(angle, params)


def test_slip_zero_maps_to_zero():
    params = VehicleParams()
    assert slip_from_steer(0.0, params) == 0.0
    assert steer_from_slip(0.0, params) == 0.0


def test_step_rejects_nonpositive_ts():
    with pytest.raises(ValueError, match="sample time"):
        step_nonlinear(VehicleState(0, 0, 0, 0), 0.0, 0.0, VehicleParams())


def test_step_rejects_slip_leaving_domain():
    with pytest.raises(ValueError, match="slip"):
        step_nonlinear(VehicleState(0, 0, 0, 1.5), 0.2, 0.1, VehicleParams())


def test_params_validate_positive():
    with pytest.raises(ValueError):
        VehicleParams(lf=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(v=0.0)
    with pytest.raises(ValueError, match="v/lr must be finite"):
        VehicleParams(lr=5e-324)  # positive, but v/lr overflows


def test_state_rejects_nonfinite_and_wild_slip():
    with pytest.raises(ValueError):
        VehicleState(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        VehicleState(0, 0, 0, 1.6)
