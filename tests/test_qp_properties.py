"""Property tests for the box-QP solver on random strictly convex instances.

The partition search (block swaps, then the primal active-set phase when
they stall) is the solver's only path, so every instance it can be handed
must converge within the default iteration budget to the 1e-8 KKT
contract. Small instances are also checked against a brute-force oracle
that tries every partition of the coordinates into lower bound, free and
upper bound (3^n of them) and keeps the cheapest feasible point; for a
strictly convex QP that point is the unique minimizer. Random QPs up to
n = 20, and those where the primal phase runs, are also held bit for bit to
the earlier solver kept in tests/qp_reference.py.

The condensed prediction feeding those QPs is held bit for bit, down to
the sign of every zero, to the plain recursions of _reference_prediction
for all three linearizations at drawn vehicles, sample times, operating
points and horizons; and the condensed cost built from it by diagonal
scaling to the dense product with kron(I, diag(q)).
"""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from qp_reference import reference_solve_box_qp  # noqa: E402
from test_qp import _reference_prediction  # noqa: E402
from trackmpc import (  # noqa: E402
    PredictionMatrices,
    QpProblem,
    VehicleParams,
    VehicleState,
    build_prediction,
    config_for,
    horizon_weights,
    linearize_initial,
    linearize_position,
    linearize_velocity,
    solve_box_qp,
)
from trackmpc.qp import condense_cost  # noqa: E402

KKT_TOL = 1e-8


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def box_qps(draw, max_n: int = 8):
    """H = M'M + shift*I with wide, narrow or pinned (lb == ub) coordinates."""
    n = draw(st.integers(1, max_n))
    m = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    shift = draw(_floats(1e-3, 1.0))
    h = m.reshape(n, n).T @ m.reshape(n, n) + shift * np.eye(n)
    f = np.array(draw(st.lists(_floats(-5.0, 5.0), min_size=n, max_size=n)))
    lb, ub = np.empty(n), np.empty(n)
    for i in range(n):
        center = draw(_floats(-1.0, 1.0))
        kind = draw(st.sampled_from(("wide", "narrow", "pinned")))
        width = {"wide": _floats(1e-2, 2.0), "narrow": _floats(1e-6, 1e-3),
                 "pinned": st.just(0.0)}[kind]
        lb[i] = center
        ub[i] = center + draw(width)
    return QpProblem(h=h, f=f, lb=lb, ub=ub)


def _brute_force_minimizer(qp: QpProblem) -> np.ndarray:
    h, f, lb, ub = qp.h, qp.f, qp.lb, qp.ub
    best, best_cost = None, np.inf
    for part in itertools.product((-1, 0, 1), repeat=f.size):
        part = np.array(part)
        z = np.where(part < 0, lb, ub)
        free = part == 0
        if free.any():
            rhs = -(f[free] + h[free][:, ~free] @ z[~free])
            z[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
            if np.any(z < lb - 1e-12) or np.any(z > ub + 1e-12):
                continue
        z = np.clip(z, lb, ub)
        cost = 0.5 * z @ h @ z + f @ z
        if cost < best_cost:
            best, best_cost = z, cost
    return best


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_qps())
def test_pivoting_meets_kkt_contract(qp):
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    assert sol.kkt_residual <= KKT_TOL
    assert np.all(sol.u >= qp.lb) and np.all(sol.u <= qp.ub)
    pinned = qp.lb == qp.ub
    assert np.array_equal(sol.u[pinned], qp.lb[pinned])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_qps(max_n=4))
def test_pivoting_matches_brute_force_oracle(qp):
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)


# --- the primal active-set phase --------------------------------------------
#
# Block swaps stall most on the fixed-slip-model structure: H = T'DT + rI with
# T the cumulative-move map (each command is the running sum of the moves),
# strongly graded stage weights D and boxes narrow against the gradient.
# That is where the solver hands over to its primal phase.

@st.composite
def move_qps(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    t_map = np.tril(np.ones((n, n)))
    d = 10.0 ** np.array(draw(st.lists(_floats(-1.0, 3.0), min_size=n, max_size=n)))
    h = t_map.T @ (d[:, None] * t_map) + draw(_floats(1e-3, 0.1)) * np.eye(n)
    f = np.array(draw(st.lists(_floats(-5.0, 5.0), min_size=n, max_size=n)))
    center = np.array(draw(st.lists(_floats(-0.1, 0.1), min_size=n, max_size=n)))
    half = 10.0 ** np.array(draw(st.lists(_floats(-3.0, -1.0), min_size=n, max_size=n)))
    return QpProblem(h=h, f=f, lb=center - half, ub=center + half)


def _random_move_qp(rng, n):
    t_map = np.tril(np.ones((n, n)))
    d = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
    h = t_map.T @ (d[:, None] * t_map) + rng.uniform(1e-3, 0.1) * np.eye(n)
    center = rng.uniform(-0.1, 0.1, size=n)
    half = 10.0 ** rng.uniform(-3.0, -1.0, size=n)
    return QpProblem(h=h, f=rng.uniform(-5.0, 5.0, size=n), lb=center - half, ub=center + half)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(move_qps())
def test_move_structure_meets_kkt_contract(qp):
    sol = solve_box_qp(qp)
    event(f"primal phase reached: {sol.primal_iterations > 0}")
    assert sol.status == "converged"
    assert sol.kkt_residual <= KKT_TOL
    assert np.all(sol.u >= qp.lb) and np.all(sol.u <= qp.ub)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(move_qps(max_n=4))
def test_move_structure_matches_brute_force_oracle(qp):
    sol = solve_box_qp(qp)
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)


def test_primal_phase_matches_the_oracles_where_it_runs():
    # only a few percent of draws stall the block swaps, so seeded draws of
    # the same shape are taken until 25 small ones reached the primal phase
    rng = np.random.default_rng(7)
    stalled = 0
    for _ in range(20000):
        qp = _random_move_qp(rng, int(rng.integers(2, 5)))
        sol = solve_box_qp(qp)
        if sol.primal_iterations == 0:
            continue
        stalled += 1
        assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
        np.testing.assert_allclose(sol.u, _brute_force_minimizer(qp), rtol=0, atol=1e-7)
        assert np.array_equal(sol.u, reference_solve_box_qp(qp).u)
        if stalled == 25:
            break
    assert stalled == 25


# --- warm starts ---------------------------------------------------------
#
# A start is only a place for the search to begin: whatever partition it
# names, pinned coordinates included, the exact finish of the partition the
# search accepts must return the cold solve's bits.

@st.composite
def started_qps(draw, qps):
    qp = draw(qps)
    start = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=qp.f.size, max_size=qp.f.size))
    return qp, np.array(start, dtype=np.int8)


def _assert_warm_matches_cold(qp, start):
    sol = solve_box_qp(qp, start=start)
    cold = solve_box_qp(qp)
    event(f"cold guess held: {cold.iterations == 1}")
    assert np.array_equal(sol.u, cold.u)
    assert sol.status == "converged"
    assert sol.kkt_residual <= KKT_TOL
    assert np.all(sol.u >= qp.lb) and np.all(sol.u <= qp.ub)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(started_qps(box_qps()))
def test_any_start_returns_the_cold_bits(case):
    _assert_warm_matches_cold(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(started_qps(move_qps()))
def test_any_start_returns_the_cold_bits_on_move_structure(case):
    _assert_warm_matches_cold(*case)


# --- bit identity with the reference solver ------------------------------
#
# Whatever path the search takes, its answer is the exact finish of the
# partition it accepts, so at every size the controllers use (n <= 20) it
# keeps the bits of the earlier solver in tests/qp_reference.py, cold and
# from any start. Those bits also depend on the memory order of the blocks
# of H the finish multiplies with: a C-ordered copy of the pinned block,
# with the same values, rounds its product differently.

def _assert_reference_bits(qp, start):
    ref = reference_solve_box_qp(qp).u
    assert np.array_equal(solve_box_qp(qp).u, ref)
    assert np.array_equal(solve_box_qp(qp, start=start).u, ref)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(started_qps(box_qps(max_n=20)))
def test_random_qps_keep_the_reference_bits(case):
    _assert_reference_bits(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(started_qps(move_qps(max_n=20)))
def test_move_structure_keeps_the_reference_bits(case):
    _assert_reference_bits(*case)


# A weight_tuned QP of the shipped course (scenarios/complete.cfg): the
# reference solver's single swaps take 48 iterations on its 5 moves.
_COURSE_H = (
    "0x1.4dfc2c4c24f9cp+22 0x1.2aa5a2998967fp+22 0x1.095b67ef1cc2dp+22 0x1.d43ed31b43446p+21 "
    "0x1.99e6268029706p+21 0x1.2aa5a2998967fp+22 0x1.0b4d33b2baa37p+22 0x1.db7a3a02c34a7p+21 "
    "0x1.a3ef1bd4d0bdcp+21 0x1.6ffce75d22d09p+21 0x1.095b67ef1cc2dp+22 0x1.db7a3a02c34a7p+21 "
    "0x1.a7562c6331200p+21 0x1.764aa51dd27cdp+21 0x1.485c02fc7b446p+21 0x1.d43ed31b43446p+21 "
    "0x1.a3ef1bd4d0bdcp+21 0x1.764aa51dd27cdp+21 0x1.4b516f96d8af6p+21 0x1.2303795e32cbep+21 "
    "0x1.99e6268029706p+21 0x1.6ffce75d22d09p+21 0x1.485c02fc7b446p+21 0x1.2303795e32cbep+21 "
    "0x1.ffe69645b329cp+20")
_COURSE_F = ("0x1.ec661877206eep+16 0x1.b9f4d94d02f0bp+16 0x1.8a5426d96a4acp+16 "
             "0x1.5d73278707ccap+16 0x1.33477341f9a3cp+16")
_COURSE_U = ("-0x1.d35a80fa4030cp-7 0x1.999999999999ap-6 0x1.1eaa9083745c5p-9 "
             "-0x1.999999999999ap-6 -0x1.999999999999ap-6")


def _from_hex(text: str) -> np.ndarray:
    return np.array([float.fromhex(word) for word in text.split()])


def test_recorded_course_qp_finishes_in_the_primal_phase():
    qp = QpProblem(h=_from_hex(_COURSE_H).reshape(5, 5), f=_from_hex(_COURSE_F),
                   lb=np.full(5, -0.025), ub=np.full(5, 0.025))
    ref = reference_solve_box_qp(qp)
    sol = solve_box_qp(qp)
    assert ref.iterations == 48
    assert sol.status == "converged" and sol.kkt_residual <= KKT_TOL
    assert 0 < sol.primal_iterations < sol.iterations < ref.iterations
    assert np.array_equal(sol.u, ref.u)
    assert sol.u.tobytes() == _from_hex(_COURSE_U).tobytes()  # the move the course applied


def _angles(lo: float, hi: float):
    return st.one_of(st.sampled_from((0.0, -0.0)), _floats(lo, hi))


@st.composite
def prediction_cases(draw):
    """A linearization at a drawn vehicle, ts, (psi, beta) and 1 <= M <= N <= 25."""
    params = VehicleParams(lf=draw(_floats(0.3, 4.0)), lr=draw(_floats(0.3, 4.0)),
                           v=draw(_floats(0.1, 50.0)))
    ts = draw(st.one_of(st.just(0.0), _floats(1e-3, 0.5)))
    state = VehicleState(psi=draw(_angles(-2.0 * math.pi, 2.0 * math.pi)),
                         beta=draw(_angles(-1.5, 1.5)))
    kind = draw(st.sampled_from(("initial", "position", "velocity")))
    event(kind)
    if kind == "initial":
        model = linearize_initial(params, ts)
    else:
        model = (linearize_position if kind == "position" else linearize_velocity)(state, params, ts)
    n = draw(st.integers(1, 25))
    return model, n, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prediction_cases())
def test_prediction_matches_the_reference_recursions_bit_for_bit(case):
    model, n, m = case
    pred = build_prediction(model, n, m)
    sx, su, sk = _reference_prediction(model, n, m)
    assert (pred.sx.tobytes(), pred.su.tobytes(), pred.sk.tobytes()) == \
        (sx.tobytes(), su.tobytes(), sk.tobytes())


def _weight(rng, zero_ok: bool) -> float:
    """0 (where allowed), an ordinary weight, or a tiny or huge one."""
    kind = rng.integers(4 if zero_ok else 3)
    if kind == 0:
        return float(rng.uniform(0.01, 30.0))
    if kind == 1:
        return float(10.0 ** rng.uniform(-148.0, -2.0))
    if kind == 2:
        return float(10.0 ** rng.uniform(2.0, 148.0))
    return 0.0


def test_diagonal_condensing_is_byte_identical_to_the_dense_product():
    # condense_cost scales each stage of Su by diag(Q); on every drawn model
    # its Su' Qbar and H keep the bytes of Su' kron(I, diag(q)) and of the
    # Hessian built from that, the input-target term included
    rng = np.random.default_rng(2018)
    kinds = ("initial", "position", "velocity")
    for draw in range(10_000):
        kind = kinds[draw % 3]
        params = VehicleParams(lf=float(rng.uniform(0.5, 3.0)), lr=float(rng.uniform(0.5, 3.0)),
                               v=float(rng.uniform(1.0, 30.0)))
        ts = float(rng.uniform(0.01, 0.3))
        n = int(rng.integers(1, 26))
        m = int(rng.integers(1, n + 1))
        cfg = config_for("baseline", horizon=n, control_horizon=m, alpha=float(10.0 ** rng.uniform(-2, 2)),
                         w_y=_weight(rng, True), w_u=_weight(rng, True), w_du=_weight(rng, False),
                         q_heading=float(rng.choice([0.0, 10.0 ** rng.uniform(-100.0, 100.0)])))
        hw = horizon_weights(cfg)
        input_weight = None
        if kind == "initial":
            pred = build_prediction(linearize_initial(params, ts), n, m)
            t_low = np.tril(np.ones((m, m)))
            pred = PredictionMatrices(sx=pred.sx, su=pred.su @ t_low, sk=pred.sk)
            if hw.target is not None:
                input_weight = (hw.target, t_low)
        else:
            state = VehicleState(psi=float(rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0)])),
                                 beta=float(rng.choice([0.0, -0.0, rng.uniform(-0.6, 0.6)])))
            linearize = linearize_position if kind == "position" else linearize_velocity
            pred = build_prediction(linearize(state, params, ts), n, m)

        cost = condense_cost(pred, hw, input_weight)
        suq = pred.su.T @ np.kron(np.eye(n), np.diag(hw.q))
        h = suq @ pred.su + hw.r * np.eye(m)
        h = 0.5 * (h + h.T)
        if input_weight is not None:
            w, t_map = input_weight
            h = h + w * (t_map.T @ t_map)
        assert cost.suq.tobytes() == suq.tobytes(), (draw, kind, n, m)
        assert cost.h.tobytes() == h.tobytes(), (draw, kind, n, m)
