"""QP pipeline tests: weights, condensing, and the box-constrained solver.

Solver answers are checked against independent oracles: exhaustive grid
search in one and two dimensions, first-order optimality certificates
against random feasible points, and the closed-form unconstrained solution
when it is interior.
"""

import math
from functools import partial
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

import trackmpc.controllers as controllers_mod
import trackmpc.qp as qp_mod
from qp_reference import box_qp, reference_solve_box_qp
from test_linearize import state_matrix
from trackmpc import (
    AffineLtiModel,
    HorizonWeights,
    PredictionMatrices,
    TrackingQp,
    VehicleParams,
    VehicleState,
    apply_overrides,
    build_prediction,
    build_tracking_qp,
    config_for,
    horizon_weights,
    linearize_initial,
    linearize_position,
    linearize_velocity,
    move_box,
    parse_config,
    solve_box_qp,
)
from trackmpc.cli import run_compare
from trackmpc.controllers import VARIANT_DEFAULTS
from trackmpc.qp import MAX_TABLE_MOVES, RegionTable, _seed, condense_cost, region_table

PARAMS = VehicleParams()


# --- weight handling -------------------------------------------------------

def _weights(**settings) -> HorizonWeights:
    return horizon_weights(config_for("baseline", **settings))


def _tracking_qp(pred, x0, x_ref, hw, du_bounds, input_target=None):
    """Condense the cost, box the moves and assemble the QP in one call."""
    cost = condense_cost(pred, hw, None if input_target is None else input_target[:2])
    return build_tracking_qp(pred, cost, x0, x_ref, move_box(pred.su.shape[1], du_bounds),
                             input_target)


def test_scaling_alpha_one_is_identity():
    hw = _weights(w_y=10.0, w_u=3.0, w_du=0.1, alpha=1.0)
    assert (hw.q[0], hw.q[1], hw.target, hw.r) == (10.0 ** 2, 10.0 ** 2, 3.0 ** 2, 0.1 ** 2)


def test_scaling_table_defaults():
    hw = _weights(w_y=10.0, w_u=0.0, w_du=0.1, alpha=2.8)
    assert hw.q[0] == pytest.approx(28.0 ** 2)
    assert hw.target is None
    assert hw.r == pytest.approx(0.28 ** 2)


def test_scaling_group_inverse():
    once = _weights(w_y=7.0, w_u=3.0, w_du=0.5, alpha=4.0)
    back = _weights(w_y=math.sqrt(once.q[0]), w_u=math.sqrt(once.target),
                    w_du=math.sqrt(once.r), alpha=0.25)
    assert back.q[0] == pytest.approx(7.0 ** 2)
    assert back.target == pytest.approx(3.0 ** 2)
    assert back.r == pytest.approx(0.5 ** 2)


def test_horizon_weights_squares_scaled_weights():
    hw = _weights(w_y=10.0, w_u=0.0, w_du=0.1, alpha=2.8, q_heading=0.0)
    np.testing.assert_allclose(hw.q, [28.0**2, 28.0**2, 0.0])
    assert hw.r == pytest.approx(0.28**2)
    assert _weights(q_heading=1.5).q[2] == 1.5
    # the input-target term is on whenever the scaled w_u is positive, even
    # where its square underflows to zero
    assert _weights(w_u=1e-170, alpha=1.0).target == 0.0


# --- condensed prediction --------------------------------------------------

def test_prediction_single_step_is_model():
    model = linearize_initial(PARAMS, 0.2)
    pred = build_prediction(model, 1, 1)
    np.testing.assert_allclose(pred.sx, state_matrix(model), atol=0)
    np.testing.assert_allclose(pred.su[:, 0], model.b, atol=0)
    np.testing.assert_allclose(pred.sk, model.k, atol=0)


def test_prediction_identity_model_hand_unrolled():
    model = linearize_position(VehicleState(psi=0.3, beta=0.05), PARAMS, 0.05)
    pred = build_prediction(model, 3, 3)
    b, k = model.b, model.k
    # A = I: input j contributes B to every stage >= j
    for stage in range(3):
        for move in range(3):
            block = pred.su[3 * stage:3 * stage + 3, move]
            expect = b if move <= stage else np.zeros(3)
            np.testing.assert_allclose(block, expect, atol=0)
    np.testing.assert_allclose(pred.sk, np.concatenate([k, 2 * k, 3 * k]), atol=1e-15)


def test_prediction_hold_accumulates_last_move():
    model = linearize_position(VehicleState(psi=0.0, beta=0.0), PARAMS, 0.1)
    pred = build_prediction(model, 3, 2)
    b = model.b
    # move 2 is held through stage 3, so its block doubles there (A = I)
    np.testing.assert_allclose(pred.su[6:9, 1], 2 * b, atol=1e-15)
    np.testing.assert_allclose(pred.su[3:6, 1], b, atol=0)
    np.testing.assert_allclose(pred.su[0:3, 1], np.zeros(3), atol=0)


def test_prediction_zero_model_repeats_state():
    model = linearize_position(VehicleState(psi=0.2, beta=0.0), PARAMS, 0.0)
    pred = build_prediction(model, 4, 2)
    x0 = np.array([1.0, -2.0, 0.3])
    stacked = pred.sx @ x0 + pred.su @ np.zeros(2) + pred.sk
    np.testing.assert_allclose(stacked, np.tile(x0, 4), atol=0)


def test_prediction_rejects_bad_horizons():
    model = linearize_initial(PARAMS, 0.2)
    with pytest.raises(ValueError):
        build_prediction(model, 2, 3)
    with pytest.raises(ValueError):
        build_prediction(model, 0, 0)


def test_condensing_matches_iterated_rollout():
    # the stacked prediction must equal stepping the linear recursion, to
    # machine precision, for random models and horizons
    rng = np.random.default_rng(3)
    for case in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, n + 1))
        ts = float(rng.uniform(0.02, 0.3))
        op = VehicleState(psi=float(rng.uniform(-1, 1)), beta=float(rng.uniform(-0.4, 0.4)))
        model = (
            linearize_velocity(op, PARAMS, ts)
            if case % 3 == 0
            else linearize_position(op, PARAMS, ts)
            if case % 3 == 1
            else linearize_initial(PARAMS, ts)
        )
        pred = build_prediction(model, n, m)
        x0 = rng.normal(size=3)
        moves = rng.normal(scale=0.1, size=m)
        x = x0.copy()
        rolled = []
        for stage in range(n):
            u = moves[min(stage, m - 1)]
            x = state_matrix(model) @ x + model.b * u + model.k
            rolled.append(x.copy())
        stacked = pred.sx @ x0 + pred.su @ moves + pred.sk
        assert np.max(np.abs(stacked - np.concatenate(rolled))) <= 1e-12


# --- tracking QP assembly --------------------------------------------------

def test_tracking_qp_scalar_example():
    # Q=I, R=1, N=M=1, A=I, B=[0,1,0], K=0, x0=0, ref=[0,1,0]:
    # H = BᵀB + 1 = 2, f = -Bᵀref = -1, minimizer 0.5
    tiny = AffineLtiModel(c=np.zeros(2), b=np.array([0.0, 1.0, 0.0]), k=np.zeros(3))
    pred = build_prediction(tiny, 1, 1)
    hw = HorizonWeights(q=np.ones(3), r=1.0, target=None)
    qp = _tracking_qp(pred, np.zeros(3), np.array([0.0, 1.0, 0.0]), hw, (-10.0, 10.0))
    assert qp.h == pytest.approx(np.array([[2.0]]))
    assert qp.f == pytest.approx(np.array([-1.0]))
    sol = solve_box_qp(qp)
    assert sol.u[0] == pytest.approx(0.5, abs=1e-9)
    # an input target 0.5*w*(T u + c)^2 with w=3, T=1, c=0.5 adds w to H and
    # w*c to f: H = 5, f = 0.5, minimizer -0.1
    target = (3.0, np.eye(1), np.array([0.5]))
    qp = _tracking_qp(pred, np.zeros(3), np.array([0.0, 1.0, 0.0]), hw, (-10.0, 10.0), target)
    assert qp.h == pytest.approx(np.array([[5.0]]))
    assert qp.f == pytest.approx(np.array([0.5]))
    assert solve_box_qp(qp).u[0] == pytest.approx(-0.1, abs=1e-9)


def test_tracking_qp_free_response_reference_gives_zero_moves():
    model = linearize_initial(PARAMS, 0.2)
    pred = build_prediction(model, 4, 2)
    x0 = np.array([0.5, -0.2, 0.1])
    free = pred.sx @ x0 + pred.sk
    hw = _weights(w_y=10.0, w_u=0.0, w_du=0.1, alpha=1.0)
    qp = _tracking_qp(pred, x0, free, hw, (-0.1, 0.1))
    np.testing.assert_allclose(qp.f, np.zeros(2), atol=1e-12)
    sol = solve_box_qp(qp)
    np.testing.assert_allclose(sol.u, np.zeros(2), atol=1e-9)


def test_tracking_qp_joint_weight_scaling_keeps_argmin():
    model = linearize_initial(PARAMS, 0.2)
    pred = build_prediction(model, 5, 3)
    x0 = np.array([0.0, 0.4, -0.05])
    ref = np.tile([1.0, 0.5, 0.0], 5)
    base = _weights(w_y=10.0, w_u=0.0, w_du=0.1, alpha=1.0)
    scaled = base._replace(q=7.3 * base.q, r=7.3 * base.r)
    u1 = solve_box_qp(_tracking_qp(pred, x0, ref, base, (-0.1, 0.1))).u
    u2 = solve_box_qp(_tracking_qp(pred, x0, ref, scaled, (-0.1, 0.1))).u
    np.testing.assert_allclose(u1, u2, atol=1e-9)


def test_alpha_rescale_without_input_target_keeps_argmin():
    # Eqs.-13-15 style scaling multiplies both squared weights by alpha^2
    # when w_u = 0, so the optimizer must not move
    model = linearize_initial(PARAMS, 0.05)
    pred = build_prediction(model, 8, 4)
    x0 = np.array([0.0, -0.3, 0.08])
    ref = np.tile([0.5, 0.2, 0.0], 8)
    for alpha in (0.7, 2.8, 11.2):
        hw = _weights(w_y=10.0, w_u=0.0, w_du=0.1, alpha=alpha)
        u = solve_box_qp(_tracking_qp(pred, x0, ref, hw, (-0.025, 0.025))).u
        if alpha == 0.7:
            reference_solution = u
        else:
            np.testing.assert_allclose(u, reference_solution, atol=1e-9)


# Reference condensing: the straightforward triple loop and the dense
# kron(I, Q) assembly. The fast path must reproduce them bit for bit, so
# that solver inputs, pivot counts and traces cannot move.

def _reference_prediction(model, n, m):
    a, b, k = state_matrix(model), model.b, model.k
    a_pow = [np.eye(3)]
    for _ in range(n):
        a_pow.append(a_pow[-1] @ a)
    sx = np.zeros((3 * n, 3))
    su = np.zeros((3 * n, m))
    sk = np.zeros(3 * n)
    drift = np.zeros(3)
    for i in range(1, n + 1):
        rows = slice(3 * (i - 1), 3 * i)
        sx[rows] = a_pow[i]
        drift = a @ drift + k
        sk[rows] = drift
        for j in range(1, m + 1):
            if j < m:
                if i >= j:
                    su[rows, j - 1] = a_pow[i - j] @ b
            else:
                col = np.zeros(3)
                for l in range(m - 1, i):
                    col += a_pow[i - 1 - l] @ b
                su[rows, j - 1] = col
    return sx, su, sk


def _reference_qp(su, sx, sk, x0, x_ref, hw, input_target=None):
    n3, m = su.shape
    qbar = np.kron(np.eye(n3 // 3), np.diag(hw.q))
    h = su.T @ qbar @ su + hw.r * np.eye(m)
    h = 0.5 * (h + h.T)
    f = su.T @ qbar @ (sx @ x0 + sk - x_ref)
    if input_target is not None:
        w, t_map, offset = input_target
        h = h + w * (t_map.T @ t_map)
        f = f + w * (t_map.T @ offset)
    return 0.5 * (h + h.T), f


def _random_model(rng, kind, ts):
    op = VehicleState(psi=float(rng.uniform(-3.0, 3.0)), beta=float(rng.uniform(-0.6, 0.6)))
    if kind == "initial":
        return linearize_initial(PARAMS, ts)
    if kind == "position":
        return linearize_position(op, PARAMS, ts)
    return linearize_velocity(op, PARAMS, ts)


@pytest.mark.parametrize("kind", ["initial", "position", "velocity"])
@pytest.mark.parametrize("ts,n,m", sorted(set(VARIANT_DEFAULTS.values())) + [(0.1, 7, 3), (0.3, 4, 1)])
def test_fast_condensing_is_bit_identical_to_reference(kind, ts, n, m):
    rng = np.random.default_rng(n * 100 + m)
    for _ in range(20):
        model = _random_model(rng, kind, ts * float(rng.uniform(0.5, 1.5)))
        pred = build_prediction(model, n, m)
        sx, su, sk = _reference_prediction(model, n, m)
        assert np.array_equal(pred.sx, sx)
        assert np.array_equal(pred.su, su)
        assert np.array_equal(pred.sk, sk)
        # down to the sign of every zero
        assert (pred.sx.tobytes(), pred.su.tobytes(), pred.sk.tobytes()) == \
            (sx.tobytes(), su.tobytes(), sk.tobytes())

        hw = _weights(w_y=float(rng.uniform(1.0, 20.0)),
                      w_du=float(rng.uniform(0.05, 1.0)),
                      alpha=float(rng.uniform(0.5, 12.0)),
                      q_heading=float(rng.choice([0.0, rng.uniform(0.0, 5.0)])))
        x0 = rng.normal(size=3)
        x_ref = rng.normal(size=3 * n)
        qp = _tracking_qp(pred, x0, x_ref, hw, (-0.1, 0.1))
        h, f = _reference_qp(su, sx, sk, x0, x_ref, hw)
        assert np.array_equal(qp.h, h)
        assert np.array_equal(qp.f, f)


@pytest.mark.parametrize("linearize", [linearize_position, linearize_velocity])
@pytest.mark.parametrize("psi,beta", [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)])
def test_structured_prediction_keeps_the_sign_of_zero(linearize, psi, beta):
    # straight-ahead operating points put signed zeros into A's psi column
    # and into K; the cumsum forms must give every zero the recursion's sign
    model = linearize(VehicleState(psi=psi, beta=beta), PARAMS, 0.05)
    for n, m in [(20, 20), (10, 5), (4, 1)]:
        pred = build_prediction(model, n, m)
        sx, su, sk = _reference_prediction(model, n, m)
        assert (pred.sx.tobytes(), pred.su.tobytes(), pred.sk.tobytes()) == \
            (sx.tobytes(), su.tobytes(), sk.tobytes())


@pytest.mark.parametrize("kind", ["initial", "position", "velocity"])
@pytest.mark.parametrize("n,m", [(20, 20), (6, 6), (20, 5), (40, 20), (7, 1)])
def test_prediction_and_cost_keep_the_layout_their_bits_depend_on(kind, n, m):
    # GEMM and GEMV round by their operands' memory order, so the bits of H
    # and f hold only while Su, Sx, Sk, Su' Qbar and H are C-ordered; Su is
    # copied out of a strided view of a buffer and shares memory with no
    # other array of the prediction or the cost
    model = _random_model(np.random.default_rng(10 * n + m), kind, 0.05)
    pred = build_prediction(model, n, m)
    cost = condense_cost(pred, _weights(q_heading=0.5))
    arrays = {"sx": pred.sx, "su": pred.su, "sk": pred.sk, "suq": cost.suq, "h": cost.h}
    assert [name for name, a in arrays.items() if not a.flags.c_contiguous] == []
    assert not cost.h.flags.writeable
    assert not np.shares_memory(pred.su, pred.sx) and not np.shares_memory(pred.su, pred.sk)
    assert not np.shares_memory(pred.su, cost.suq)


def test_prediction_rejects_drift_through_the_heading_coupling():
    # K[2] != 0 turns the heading drift into position drift through c, which
    # the running sum of K does not model; no linearization builds this
    coupled = linearize_velocity(VehicleState(psi=0.4, beta=0.1), PARAMS, 0.05)
    drifting = linearize_position(VehicleState(psi=0.4, beta=0.1), PARAMS, 0.05)
    with pytest.raises(ValueError, match="heading coupling"):
        build_prediction(AffineLtiModel(c=coupled.c, b=coupled.b, k=drifting.k), 8, 3)
    # a drift that leaves the heading alone is still a running sum
    model = AffineLtiModel(c=coupled.c, b=coupled.b, k=np.array([0.3, -0.2, -0.0]))
    pred = build_prediction(model, 8, 3)
    assert (pred.sx.tobytes(), pred.su.tobytes(), pred.sk.tobytes()) == \
        tuple(part.tobytes() for part in _reference_prediction(model, 8, 3))


@pytest.mark.parametrize("ts,n,m", [VARIANT_DEFAULTS["baseline"], VARIANT_DEFAULTS["weight_tuned"]])
def test_fixed_model_condensing_with_input_target_is_bit_identical(ts, n, m):
    # the fixed absolute-slip model's QP over cumulative moves, with its
    # w_u term, both assembled in one call and from a cost condensed once
    rng = np.random.default_rng(m)
    pred = build_prediction(linearize_initial(PARAMS, ts), n, m)
    t_low = np.tril(np.ones((m, m)))
    hw = _weights(w_u=3.0, alpha=1.0)
    w = float(rng.uniform(0.5, 30.0)) ** 2
    moves = PredictionMatrices(sx=pred.sx, su=pred.su @ t_low, sk=pred.sk)
    cost = condense_cost(moves, hw, (w, t_low))
    for _ in range(20):
        last_beta = float(rng.uniform(-0.3, 0.3))
        sk_mv = pred.sk + pred.su @ np.full(m, last_beta)
        step = PredictionMatrices(sx=pred.sx, su=moves.su, sk=sk_mv)
        target = (w, t_low, np.full(m, last_beta - float(rng.uniform(-0.1, 0.1))))
        x0 = rng.normal(size=3)
        x_ref = rng.normal(size=3 * n)
        h, f = _reference_qp(moves.su, pred.sx, sk_mv, x0, x_ref, hw, target)
        for qp in (_tracking_qp(step, x0, x_ref, hw, (-0.1, 0.1), target),
                   build_tracking_qp(step, cost, x0, x_ref, move_box(m, (-0.1, 0.1)), target)):
            assert np.array_equal(qp.h, h)
            assert np.array_equal(qp.f, f)


def test_tracking_qp_rejects_a_short_reference_stack_and_an_inverted_box():
    pred = build_prediction(linearize_initial(PARAMS, 0.1), 4, 2)
    cost = condense_cost(pred, _weights(w_y=1.0, w_u=0.0, w_du=1.0, alpha=1.0))
    with pytest.raises(ValueError, match="reference stack must have 12 entries, got 9"):
        build_tracking_qp(pred, cost, np.zeros(3), np.zeros(9), move_box(2, (-0.1, 0.1)))
    with pytest.raises(ValueError, match="need du_bounds low <= high"):
        build_tracking_qp(pred, cost, np.zeros(3), np.zeros(12), move_box(2, (0.1, -0.1)))


def test_qp_problem_allows_infinite_bounds():
    qp = box_qp(h=2.0 * np.eye(2), f=np.array([-4.0, 1.0]),
                lb=np.array([-np.inf, 0.0]), ub=np.array([np.inf, np.inf]))
    sol = solve_box_qp(qp)
    assert sol.status == "converged" and sol.kkt_residual <= 1e-8
    np.testing.assert_array_equal(sol.u, [2.0, 0.0])


# --- box QP solver ---------------------------------------------------------

def test_solver_interior_optimum():
    qp = box_qp(h=np.array([[2.0]]), f=np.array([-4.0]),
                lb=np.array([-10.0]), ub=np.array([10.0]))
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    assert sol.u[0] == pytest.approx(2.0, abs=1e-9)


def test_solver_clipped_at_bound():
    qp = box_qp(h=np.array([[2.0]]), f=np.array([-4.0]),
                lb=np.array([-1.0]), ub=np.array([1.0]))
    sol = solve_box_qp(qp)
    assert sol.u[0] == pytest.approx(1.0, abs=1e-12)


def _grid_minimum(h, f, lb, ub, res=1e-3):
    """Exhaustive search over the box at the given resolution."""
    axes = [np.arange(lb[i], ub[i] + res / 2, res) for i in range(len(f))]
    if len(axes) == 1:
        pts = axes[0][None, :]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.vstack([g0.ravel(), g1.ravel()])
    cost = 0.5 * np.sum(pts * (h @ pts), axis=0) + f @ pts
    return pts[:, int(np.argmin(cost))]


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        m = rng.normal(size=(n, n))
        h = m.T @ m + 0.3 * np.eye(n)
        f = rng.normal(size=n)
        lb = rng.uniform(-0.4, -0.05, size=n)
        ub = rng.uniform(0.05, 0.4, size=n)
        qp = box_qp(h=h, f=f, lb=lb, ub=ub)
        sol = solve_box_qp(qp)
        grid = _grid_minimum(h, f, lb, ub)
        assert np.max(np.abs(sol.u - grid)) <= 2e-3


def test_solver_kkt_and_certificate_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        m = rng.normal(size=(n, n))
        h = m.T @ m + 0.05 * np.eye(n)
        f = rng.normal(size=n)
        lb = rng.uniform(-1.0, -0.01, size=n)
        ub = rng.uniform(0.01, 1.0, size=n)
        qp = box_qp(h=h, f=f, lb=lb, ub=ub)
        sol = solve_box_qp(qp)
        assert sol.status == "converged"
        assert sol.kkt_residual <= 1e-8
        assert np.all(sol.u >= lb) and np.all(sol.u <= ub)
        # first-order certificate against random feasible points
        w = rng.uniform(lb, ub, size=(1000, n))
        cost_star = 0.5 * sol.u @ h @ sol.u + f @ sol.u
        costs = 0.5 * np.sum(w * (w @ h.T), axis=1) + w @ f
        slack = 1e-8 * np.sum(np.abs(w - sol.u), axis=1)
        assert np.all(cost_star <= costs + slack + 1e-12)


def test_solver_unconstrained_agreement():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = rng.normal(size=(n, n))
        h = m.T @ m + 0.5 * np.eye(n)
        x_opt = rng.uniform(-0.5, 0.5, size=n)
        f = -(h @ x_opt)
        qp = box_qp(h=h, f=f, lb=-np.ones(n), ub=np.ones(n))
        sol = solve_box_qp(qp)
        assert np.max(np.abs(sol.u - x_opt)) <= 1e-7


def test_solver_pinned_variables():
    h = np.array([[3.0, 0.5], [0.5, 2.0]])
    qp = box_qp(h=h, f=np.array([1.0, -2.0]),
                lb=np.array([0.25, -1.0]), ub=np.array([0.25, 1.0]))
    sol = solve_box_qp(qp)
    assert sol.u[0] == 0.25
    # the free coordinate minimizes given the pinned one
    assert sol.u[1] == pytest.approx((2.0 - 0.5 * 0.25) / 2.0, abs=1e-9)


def test_solver_scaling_invariance():
    h = np.array([[4.0, 1.0], [1.0, 3.0]])
    f = np.array([-1.0, 2.0])
    lb, ub = -np.ones(2) * 0.2, np.ones(2) * 0.2
    u1 = solve_box_qp(box_qp(h=h, f=f, lb=lb, ub=ub)).u
    u2 = solve_box_qp(box_qp(h=250 * h, f=250 * f, lb=lb, ub=ub)).u
    np.testing.assert_allclose(u1, u2, atol=1e-9)


def test_solver_deterministic():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(6, 6))
    h = m.T @ m + 0.1 * np.eye(6)
    f = rng.normal(size=6)
    qp = box_qp(h=h, f=f, lb=-0.3 * np.ones(6), ub=0.3 * np.ones(6))
    a = solve_box_qp(qp)
    b = solve_box_qp(qp)
    assert np.array_equal(a.u, b.u)
    assert a.iterations == b.iterations


def test_solver_reports_exhausted_budget(monkeypatch):
    # starve the solver on an instance known to need several pivots; it must
    # hand back its best iterate labeled honestly rather than pretending
    rng = np.random.default_rng(11)
    found = False
    for _ in range(300):
        n = int(rng.integers(3, 12))
        m = rng.normal(size=(n, n))
        h = m.T @ m + 0.05 * np.eye(n)
        f = rng.normal(size=n) * 2.0
        lb = rng.uniform(-0.5, -0.01, size=n)
        ub = rng.uniform(0.01, 0.5, size=n)
        qp = box_qp(h=h, f=f, lb=lb, ub=ub)
        if solve_box_qp(qp).iterations < 3:
            continue
        with monkeypatch.context() as budget:
            budget.setattr(qp_mod, "MAX_ITERATIONS", 1)
            starved = solve_box_qp(qp)
        if starved.status == "max_iter":
            assert starved.kkt_residual > 1e-8
            assert np.all(starved.u >= lb) and np.all(starved.u <= ub)
            found = True
            break
    assert found, "no instance exercised the iteration cap"


def test_status_follows_the_residual():
    # nothing checks a TrackingQp's f for finiteness; a non-finite one gives
    # a partition with no violations, but it is no solution
    qp = TrackingQp(np.eye(2), np.array([np.nan, 0.0]), -np.ones(2), np.ones(2))
    sol = solve_box_qp(qp)
    assert sol.status == "inaccurate"
    assert np.isnan(sol.kkt_residual)


def test_start_is_kept_only_when_the_guess_missed():
    # the guess (both on the upper bound) holds: one iteration, no start
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    held = solve_box_qp(box_qp(h=h, f=np.array([-9.0, -9.0]), lb=-np.ones(2), ub=np.ones(2)))
    assert held.iterations == 1 and held.start is None
    # the unconstrained minimizer (3, 0.5) guesses (upper, free), but pinning
    # coordinate 0 pushes coordinate 1 past its bound too
    missed = solve_box_qp(box_qp(h=h, f=np.array([-6.5, -4.0]), lb=-np.ones(2), ub=np.ones(2)))
    assert missed.iterations == 2
    assert missed.start.dtype == np.int8
    np.testing.assert_array_equal(missed.start, [1, 1])


def test_start_from_the_accepted_partition_returns_at_its_probe():
    # a QP whose cold search takes several iterations, solved again from its
    # own accepted partition: the guess misses at iteration 1, the start's
    # probe holds at iteration 2, and the bits are the cold solve's
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(4, 12))
        m = rng.normal(size=(n, n))
        qp = box_qp(h=m.T @ m + 0.05 * np.eye(n), f=2.0 * rng.normal(size=n),
                    lb=rng.uniform(-0.5, -0.01, size=n), ub=rng.uniform(0.01, 0.5, size=n))
        cold = solve_box_qp(qp)
        if cold.iterations >= 4:
            break
    else:
        pytest.fail("no instance needed four iterations")
    warm = solve_box_qp(qp, start=cold.start)
    assert warm.iterations == 2
    assert np.array_equal(warm.u, cold.u)
    np.testing.assert_array_equal(warm.start, cold.start)

    def partition(x):
        return np.where(x <= qp.lb, -1, np.where(x >= qp.ub, 1, 0)).astype(np.int8)

    # a start equal to the first partition, the guess or, where the guess
    # pins more than half the coordinates (as here), the seed's, is not
    # tried: the cold path runs
    x_unc = np.linalg.solve(qp.h, -qp.f)
    assert 2 * np.count_nonzero(partition(x_unc)) > x_unc.size
    same = solve_box_qp(qp, start=partition(_seed(qp.h, qp.f, qp.lb, qp.ub, x_unc)))
    assert same.iterations == cold.iterations and np.array_equal(same.u, cold.u)


def test_start_must_match_the_variable_count():
    # checked before the first partition; here the guess misses
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    qp = box_qp(h=h, f=np.array([-6.5, -4.0]), lb=-np.ones(2), ub=np.ones(2))
    with pytest.raises(ValueError, match="start"):
        solve_box_qp(qp, start=np.zeros(3, dtype=np.int8))


@pytest.mark.parametrize("start", [np.zeros(4, dtype=np.int8), np.zeros((1, 3), dtype=np.int8),
                                   np.array([2, 0, 0], dtype=np.int8)])
def test_solver_checks_the_start_whatever_the_path(start):
    # this QP's guess holds at once, so no partition search ever reads the
    # start; a start of the wrong shape or with an entry outside {-1, 0, 1}
    # is still rejected
    qp = box_qp(h=np.eye(3), f=np.array([0.1, -0.2, 0.0]), lb=-np.ones(3), ub=np.ones(3))
    assert solve_box_qp(qp).iterations == 1
    with pytest.raises(ValueError, match="start"):
        solve_box_qp(qp, start=start)


@pytest.mark.parametrize("pinned_as", [0, 1])
def test_start_pins_equality_pinned_coordinates_back(pinned_as):
    # a start that frees an lb == ub coordinate, or puts it on its upper
    # bound, is pinned back to -1 there before its probe: the answer is the
    # cold solve's and the partition handed on holds -1 on every such one
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(5, 12))
        m = rng.normal(size=(n, n))
        lb = rng.uniform(-0.5, -0.01, size=n)
        ub = rng.uniform(0.01, 0.5, size=n)
        pinned = np.zeros(n, dtype=bool)
        pinned[rng.choice(n, size=2, replace=False)] = True
        lb[pinned] = ub[pinned] = rng.uniform(-0.3, 0.3, size=2)
        qp = box_qp(h=m.T @ m + 0.05 * np.eye(n), f=2.0 * rng.normal(size=n), lb=lb, ub=ub)
        cold = solve_box_qp(qp)
        if cold.iterations >= 4:
            break
    else:
        pytest.fail("no instance needed four iterations")
    assert cold.status == "converged"
    np.testing.assert_array_equal(cold.start[pinned], -1)
    start = cold.start.copy()
    start[pinned] = pinned_as
    warm = solve_box_qp(qp, start=start)
    assert np.array_equal(warm.u, cold.u)
    assert warm.start is not None
    np.testing.assert_array_equal(warm.start[pinned], -1)


def test_ill_conditioned_tracking_instance():
    # weights like the shipped step scenario produce H with condition around
    # 1e6; the solver must still meet the KKT contract
    model = linearize_initial(PARAMS, 0.2)
    pred = build_prediction(model, 10, 5)
    hw = _weights(w_y=10.0, w_u=0.0, w_du=0.1, alpha=2.8)
    x0 = np.zeros(3)
    ref = np.tile([0.0, 1.0, 0.0], 10)
    qp = _tracking_qp(pred, x0, ref, hw, (-0.1, 0.1))
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    assert sol.kkt_residual <= 1e-8
    assert sol.u[0] == pytest.approx(0.1, abs=1e-12)  # saturated first move


# --- the solver against its earlier self on every shipped QP ----------------

SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"


class Recorded(NamedTuple):
    qp: TrackingQp
    start: np.ndarray | None
    table: RegionTable | None
    variant: str


def _recorded_qps(scenario, tmp_path, overrides=()):
    """Every QP run_compare solves on a shipped scenario, in order, with the
    start and the region table the controller handed the solver and the
    variant that posed it; overrides are --set assignments."""
    qps = []
    posing = [None]

    def recording(qp, *args, **kwargs):
        qps.append(Recorded(qp, kwargs.get("start"), kwargs.get("table"), posing[0]))
        return solve_box_qp(qp, *args, **kwargs)

    def tagged(variant, step):
        def stepping(*args):
            posing[0] = variant
            return step(*args)
        return stepping

    steps = controllers_mod.CONTROLLER_STEPS
    cfg = apply_overrides(parse_config((SHIPPED / scenario).read_text()),
                          [f"output.directory={tmp_path}", *overrides])
    with mock.patch.object(controllers_mod, "solve_box_qp", recording), \
            mock.patch.dict(steps, {v: tagged(v, step) for v, step in steps.items()}):
        rows, failures = run_compare(cfg)
    assert failures == [] and len(rows) == 4
    return qps


def _counting_solves(solver, qps, starts=None):
    """Each QP's solution and the np.linalg.solve calls all of them made."""
    calls = 0
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    with mock.patch.object(np.linalg, "solve", counted):
        if starts is None:
            sols = [solver(qp) for qp in qps]
        else:
            sols = [solver(qp, start=start) for qp, start in zip(qps, starts)]
    return sols, calls


# Per variant, the iterations of one compare's solves as its steps call the
# solver (with their start and table), before the projected-gradient seed.
_UNSEEDED_ITERATIONS = {
    "complete.cfg": {"baseline": 43, "weight_tuned": 162, "position_sl": 1161,
                     "velocity_sl": 306},
    "straight.cfg": {"baseline": 1, "weight_tuned": 1, "position_sl": 1, "velocity_sl": 1},
    "sine_disturbed.cfg": {"baseline": 40, "weight_tuned": 160, "position_sl": 1054,
                           "velocity_sl": 1254},
    "step.cfg": {"baseline": 30, "weight_tuned": 120, "position_sl": 161, "velocity_sl": 265},
}
# position_sl's ceilings with the seed, where its minimizer lies far outside the box
_SEEDED_CEILINGS = {"complete.cfg": 800, "sine_disturbed.cfg": 550}
# velocity_sl's ceilings with the dual phase, where its block swaps stall most
_DUAL_CEILINGS = {"sine_disturbed.cfg": 1000}
# Per variant, the iterations of the narrow-box runs' solves, as their steps call the solver
_NARROW_ITERATIONS = {
    "step.cfg": {"baseline": 30, "weight_tuned": 120, "position_sl": 178, "velocity_sl": 312},
    "complete.cfg": {"baseline": 43, "weight_tuned": 162, "position_sl": 503,
                     "velocity_sl": 1191},
}


def _assert_normal_form(qp, where):
    """qp is a TrackingQp in the normal form the solver relies on: H finite,
    exactly symmetric, positive definite, C-ordered and read-only (the
    all-free refine runs on H itself), f and lb <= ub flat float64 of H's size."""
    assert type(qp) is TrackingQp, where
    h = qp.h
    n = h.shape[0]
    assert h.dtype == np.float64 and h.shape == (n, n), where
    assert h.flags.c_contiguous and not h.flags.writeable, where
    assert np.isfinite(h).all() and np.array_equal(h, h.T), where
    np.linalg.cholesky(h)  # raises unless H is positive definite
    for vec in (qp.f, qp.lb, qp.ub):
        assert vec.dtype == np.float64 and vec.shape == (n,), where
    assert np.all(qp.lb <= qp.ub), where


@pytest.mark.parametrize("scenario,fewer_solves", [
    ("complete.cfg", True), ("straight.cfg", False),
    ("sine_disturbed.cfg", True), ("step.cfg", False)])
def test_shipped_qps_match_the_reference_solver_bit_for_bit(scenario, fewer_solves, tmp_path):
    # the search may take any path, but the exact finish of the partition it
    # accepts must return the reference solver's bits on every shipped QP,
    # with fewer linear solves where the block swaps used to stall; as the
    # steps call it, no variant needs more iterations than before the seed,
    # and position_sl needs far fewer where it seeds most, velocity_sl where
    # its searches stall
    recorded = _recorded_qps(scenario, tmp_path)
    for i, r in enumerate(recorded):
        _assert_normal_form(r.qp, (scenario, i))
    totals = dict.fromkeys(_UNSEEDED_ITERATIONS[scenario], 0)
    for r in recorded:
        totals[r.variant] += solve_box_qp(r.qp, start=r.start, table=r.table).iterations
    for variant, total in totals.items():
        assert total <= _UNSEEDED_ITERATIONS[scenario][variant], (scenario, variant)
    if scenario in _SEEDED_CEILINGS:
        assert totals["position_sl"] <= _SEEDED_CEILINGS[scenario]
    if scenario in _DUAL_CEILINGS:
        assert totals["velocity_sl"] <= _DUAL_CEILINGS[scenario]
    qps = [r.qp for r in recorded]
    ours, our_calls = _counting_solves(solve_box_qp, qps)
    theirs, their_calls = _counting_solves(reference_solve_box_qp, qps)
    for i, (sol, ref) in enumerate(zip(ours, theirs)):
        assert np.array_equal(sol.u, ref.u), (scenario, i)
        assert sol.status == "converged" and sol.kkt_residual <= 1e-8, (scenario, i)
    assert our_calls <= their_calls
    if fewer_solves:
        assert our_calls < their_calls
    # no workload may need more than 1% more iterations in total
    assert sum(s.iterations for s in ours) <= 1.01 * sum(s.iterations for s in theirs)


@pytest.mark.parametrize("scenario,fewer_solves", [
    ("complete.cfg", True), ("straight.cfg", False),
    ("sine_disturbed.cfg", False), ("step.cfg", True)])
def test_warm_start_keeps_every_shipped_qp_bit_for_bit(scenario, fewer_solves, tmp_path):
    # each QP solved from the start its run carried (the last accepted
    # partition where the guess missed) returns the cold solve's bits, a
    # guess that holds cold still holds at once, and the linear solves drop
    # where the controllers stay on the same bounds from step to step
    qps, starts, _, _ = zip(*_recorded_qps(scenario, tmp_path))
    assert any(start is not None for start in starts) == (scenario != "straight.cfg")
    warm, warm_calls = _counting_solves(solve_box_qp, qps, starts)
    cold, cold_calls = _counting_solves(solve_box_qp, qps)
    for i, (qp, w, c) in enumerate(zip(qps, warm, cold)):
        assert np.array_equal(w.u, c.u), (scenario, i)
        assert np.array_equal(w.u, reference_solve_box_qp(qp).u), (scenario, i)
        assert w.status == "converged" and w.kkt_residual <= 1e-8, (scenario, i)
        if c.iterations == 1:
            assert w.iterations == 1, (scenario, i)
    assert warm_calls <= cold_calls
    if fewer_solves:
        assert warm_calls < cold_calls


@pytest.mark.parametrize("scenario", ["complete.cfg", "straight.cfg", "sine_disturbed.cfg",
                                      "step.cfg"])
def test_region_table_finds_every_fixed_model_partition(scenario, tmp_path):
    # each fixed-model run builds one table and hands it to every solve; the
    # table names the first partition before any linear solve and the solver
    # finishes it at once, so every solve takes 1 iteration and exactly 2
    # linear solves (that partition's reduced solve, the unconstrained one
    # where it is all free, and the refinement), and the answer keeps the
    # reference bits
    recorded = _recorded_qps(scenario, tmp_path)
    tables = {id(r.table) for r in recorded if r.table is not None}
    assert len(tables) == 2  # baseline and weight_tuned
    for i, (qp, start, table, _) in enumerate(recorded):
        if table is None:
            continue
        [sol], calls = _counting_solves(partial(solve_box_qp, table=table), [qp], [start])
        assert np.array_equal(sol.u, reference_solve_box_qp(qp).u), (scenario, i)
        assert sol.status == "converged" and sol.kkt_residual <= 1e-8, (scenario, i)
        assert sol.iterations == 1 and calls == 2, (scenario, i)


@pytest.mark.parametrize("scenario,rate_limit", [("step.cfg", 0.05), ("complete.cfg", 0.1)])
def test_narrow_boxes_take_the_seed_and_keep_the_reference_bits(scenario, rate_limit, tmp_path):
    # a slew box this narrow puts most re-linearizing QPs' minimizer far
    # outside it, so their solves start from the seed's partition; every
    # variant still runs ok, every QP returns the reference solver's bits
    # and no variant needs more iterations than it does today
    recorded = _recorded_qps(scenario, tmp_path, [f"controller.rate_limit={rate_limit}"])
    seeded = dict.fromkeys(("position_sl", "velocity_sl"), 0)
    totals = dict.fromkeys(_NARROW_ITERATIONS[scenario], 0)
    for i, r in enumerate(recorded):
        with mock.patch.object(qp_mod, "_seed", wraps=qp_mod._seed) as seed, \
                mock.patch.object(qp_mod, "_reduced", wraps=qp_mod._reduced) as reduced:
            sol = solve_box_qp(r.qp, start=r.start, table=r.table)
        assert np.array_equal(sol.u, reference_solve_box_qp(r.qp).u), (scenario, i)
        assert sol.status == "converged" and sol.kkt_residual <= 1e-8, (scenario, i)
        assert reduced.call_count == sol.iterations, (scenario, i)
        totals[r.variant] += sol.iterations
        if r.variant in seeded:
            seeded[r.variant] += seed.call_count
    for variant, total in totals.items():
        assert total <= _NARROW_ITERATIONS[scenario][variant], (scenario, variant, total)
    posed = {v: sum(r.variant == v for r in recorded) for v in seeded}
    for variant, count in seeded.items():
        assert 2 * count > posed[variant], (scenario, variant)
    if scenario == "step.cfg":
        assert seeded["velocity_sl"] == posed["velocity_sl"]


def test_region_table_is_only_a_hint():
    # a table built from another H, or another box, points the search at a
    # wrong partition; the exact finish rejects it and the search goes on
    # from there to the reference bits, counting every reduced solve
    rng = np.random.default_rng(5)
    steered = 0
    for _ in range(200):
        n = int(rng.integers(2, MAX_TABLE_MOVES + 1))
        m = rng.normal(size=(n, n))
        qp = box_qp(h=m.T @ m + 0.05 * np.eye(n), f=2.0 * rng.normal(size=n),
                    lb=rng.uniform(-0.5, -0.01, size=n), ub=rng.uniform(0.01, 0.5, size=n))
        other = rng.normal(size=(n, n))
        for table in (region_table(other.T @ other + np.eye(n), qp.lb, qp.ub),
                      region_table(qp.h, 0.1 * qp.lb, 3.0 * qp.ub)):
            with mock.patch.object(qp_mod, "_reduced", wraps=qp_mod._reduced) as reduced:
                sol = solve_box_qp(qp, table=table)
            assert np.array_equal(sol.u, reference_solve_box_qp(qp).u)
            assert sol.status == "converged" and sol.kkt_residual <= 1e-8
            assert reduced.call_count == sol.iterations  # a failed finish counts too
            steered += sol.iterations > 1
    assert steered > 50


def test_region_table_locates_the_reference_partition():
    # where no bound is weakly active, the region that holds f is the
    # partition of the reference solution
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, MAX_TABLE_MOVES + 1))
        m = rng.normal(size=(n, n))
        qp = box_qp(h=m.T @ m + 0.05 * np.eye(n), f=2.0 * rng.normal(size=n),
                    lb=rng.uniform(-0.5, -0.01, size=n), ub=rng.uniform(0.01, 0.5, size=n))
        u = reference_solve_box_qp(qp).u
        expected = np.where(u <= qp.lb, -1, np.where(u >= qp.ub, 1, 0))
        np.testing.assert_array_equal(region_table(qp.h, qp.lb, qp.ub).locate(qp.f), expected)


def test_region_table_is_built_only_where_it_applies():
    h = np.eye(MAX_TABLE_MOVES + 1)
    box = np.ones(MAX_TABLE_MOVES + 1)
    assert region_table(h, -box, box) is None  # too many moves
    h, box = h[1:, 1:], box[1:]
    table = region_table(h, -box, box)
    assert table.parts.shape == (3 ** MAX_TABLE_MOVES, MAX_TABLE_MOVES)
    zero_width = box.copy()
    zero_width[2] = 0.0
    assert region_table(h, -zero_width, zero_width) is None  # lb == ub (-0.0 == 0.0)
    unbounded = box.copy()
    unbounded[0] = np.inf
    assert region_table(h, -box, unbounded) is None
