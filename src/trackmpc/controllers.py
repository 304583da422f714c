"""Receding-horizon steering laws over one shared prediction/QP pipeline.

Four variants, differing in the model they predict with and the reference
they consume, not in the QP machinery:

* baseline: fixed small-angle model, never re-derived. Decision variables
  are the slip moves, so the rate limit is a plain box and consecutive
  in-horizon commands also respect it.
* weight_tuned: identical pipeline to baseline with the faster sample time
  and longer horizon.
* position_sl: re-linearizes the position model at the measured operating
  point every step; input is the slip change with a direct rate box.
* velocity_sl: difference-state model over per-sample displacements,
  tracking displacement references selected by a monotone path cursor.

controller_step runs every variant; it takes and returns an explicit
ControllerState, returns the single applied move, and leaves the plant
untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .linearize import linearize_initial, linearize_position, linearize_velocity
from .qp import (
    CondensedCost,
    HorizonWeights,
    PredictionMatrices,
    build_prediction,
    build_tracking_qp,
    condense_cost,
    solve_box_qp,
)
from .vehicle import VehicleParams, VehicleState

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import ReferencePath

VARIANTS = ("baseline", "weight_tuned", "position_sl", "velocity_sl")
FIXED_MODEL_VARIANTS = ("baseline", "weight_tuned")  # predict with linearize_initial

DEFAULT_RATE_LIMIT = 0.5  # [rad/s] slip slew bound
DEFAULT_ALPHA = 2.8
MAX_HORIZON = 500  # prediction horizon N: Su alone is 3N x M floats

# Per-variant (ts [s], horizon N, control horizon M).
VARIANT_DEFAULTS = {
    "baseline": (0.2, 10, 5),
    "weight_tuned": (0.05, 20, 5),
    "position_sl": (0.05, 20, 20),
    "velocity_sl": (0.05, 20, 20),
}


class ControlError(RuntimeError):
    """A controller step could not produce a valid move."""


@dataclass(frozen=True)
class ControllerConfig:
    variant: str
    ts: float
    horizon: int
    control_horizon: int
    alpha: float = DEFAULT_ALPHA            # aggressiveness, see _scaled_weights
    w_y: float = 10.0                       # tracked positions
    w_u: float = 0.0                        # input target; bites on baseline and weight_tuned only
    w_du: float = 0.1                       # moves
    rate_limit: float = DEFAULT_RATE_LIMIT  # [rad/s]
    q_heading: float = 0.0                  # heading weight in Q (positions tracked by default)
    u_target: float = 0.0                   # [rad] slip pulled toward this when w_u > 0 (ditto)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not self.ts > 0.0:
            raise ValueError(f"sample time must be positive, got {self.ts}")
        if not 1 <= self.control_horizon <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"need 1 <= M <= N <= {MAX_HORIZON}, "
                             f"got N={self.horizon}, M={self.control_horizon}")
        if not self.rate_limit > 0.0:
            raise ValueError(f"rate limit must be positive, got {self.rate_limit}")
        if min(self.w_y, self.w_u, self.w_du, self.q_heading) < 0.0:
            raise ValueError(f"weights must be nonnegative, got w_y={self.w_y}, w_u={self.w_u}, "
                             f"w_du={self.w_du}, q_heading={self.q_heading}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        # The QP squares the alpha-scaled weights: no square may overflow, and
        # the move weight r = (w_du * alpha)^2 must not underflow.
        scaled = _scaled_weights(self)
        if not all(math.isfinite(w * w) for w in scaled):
            raise ValueError(f"alpha-scaled weights must square to finite numbers, got w_y="
                             f"{self.w_y}, w_u={self.w_u}, w_du={self.w_du}, alpha={self.alpha}")
        if not scaled[2] ** 2 > 0.0:
            raise ValueError(f"move weight w_du must be positive with (w_du * alpha)^2 > 0, "
                             f"got w_du={self.w_du}, alpha={self.alpha}")


def _scaled_weights(cfg: ControllerConfig) -> tuple[float, float, float]:
    """The aggressiveness factor applied: (w_y*alpha, w_u/alpha, w_du*alpha)."""
    return cfg.w_y * cfg.alpha, cfg.w_u / cfg.alpha, cfg.w_du * cfg.alpha


def horizon_weights(cfg: ControllerConfig) -> HorizonWeights:
    """Q = diag(w_y^2, w_y^2, q_heading), r = w_du^2 and the w_u^2 term, alpha-scaled.

    The w_u term is on when the scaled w_u is positive, even if its square underflows.
    """
    w_y, w_u, w_du = _scaled_weights(cfg)
    return HorizonWeights(q=np.array([w_y ** 2, w_y ** 2, float(cfg.q_heading)]), r=w_du ** 2,
                          target=w_u ** 2 if w_u > 0.0 else None)


def config_for(variant: str, ts: float | None = None, horizon: int | None = None,
               control_horizon: int | None = None, **settings) -> ControllerConfig:
    """A ControllerConfig with the variant's default ts, N and M unless given."""
    if variant not in VARIANT_DEFAULTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    d_ts, d_n, d_m = VARIANT_DEFAULTS[variant]
    return ControllerConfig(variant, d_ts if ts is None else ts,
                            d_n if horizon is None else horizon,
                            d_m if control_horizon is None else control_horizon, **settings)


@dataclass(frozen=True, eq=False)
class FixedModelQp:
    """What the fixed absolute-slip model's QPs share across a run.

    pred predicts over absolute slip commands. The QP is posed over the slip
    moves du via beta_j = beta + sum(du_0..du_j) from the measured slip beta,
    i.e. the commands are beta + T du with the cumulative-move map T, so
    su_moves is Su T.
    input_weight is (w, T) of the w_u term, or None when w_u is zero; cost
    condenses the tracking cost over the moves, including w T'T.
    """

    pred: PredictionMatrices
    su_moves: np.ndarray
    input_weight: tuple[float, np.ndarray] | None
    cost: CondensedCost


class RelinearizedQp(NamedTuple):
    """A re-linearized model's prediction and condensed cost, keyed by its bytes.

    key is the bytes of the model's c, b and k, so the sign of a zero tells
    two models apart. pred and cost are a pure function of the key and of
    the run constants (N, M, weights), so a step whose model has the same
    key reuses them as they are and forms only f. A tuple, since a miss
    builds one on the step's path.
    """

    key: bytes
    pred: PredictionMatrices
    cost: CondensedCost


@dataclass(frozen=True)
class ControllerState:
    """What a controller carries between steps."""

    ref_cursor: int = 0
    prev_state: VehicleState | None = None  # previous measured state (velocity variant)
    # Per-run constants, built once by init_state from (cfg, params).
    weights: HorizonWeights | None = field(default=None, compare=False)
    fixed: FixedModelQp | None = field(default=None, compare=False)  # baseline, weight_tuned
    # The last QP's accepted partition when its guess missed: the next start.
    start: np.ndarray | None = field(default=None, compare=False)
    # The last re-linearized model's QP data (position_sl, velocity_sl).
    last_model: RelinearizedQp | None = field(default=None, compare=False)


def init_state(cfg: ControllerConfig, plant: VehicleState, params: VehicleParams) -> ControllerState:
    """Initial controller state for a plant starting at rest on its path.

    Builds what depends only on (cfg, params) once: the horizon weights of
    every variant, and for the fixed absolute-slip model its prediction and
    condensed cost, so that each step forms only the QP gradient.

    The velocity variant needs a previous sample to difference against; the
    plant is assumed to have been cruising, so the initial state is
    integrated backward one step at zero input. That keeps an on-path start
    an exact zero-error fixed point from the very first step.
    """
    n, m = cfg.horizon, cfg.control_horizon
    hw = horizon_weights(cfg)
    fixed = None
    if cfg.variant in FIXED_MODEL_VARIANTS:
        pred = build_prediction(linearize_initial(params, cfg.ts), n, m)
        t_low = np.tril(np.ones((m, m)))
        su_moves = pred.su @ t_low
        input_weight = None if hw.target is None else (hw.target, t_low)
        moves = PredictionMatrices(sx=pred.sx, su=su_moves, sk=pred.sk)
        fixed = FixedModelQp(pred=pred, su_moves=su_moves, input_weight=input_weight,
                             cost=condense_cost(moves, hw, input_weight))
    prev = None
    if cfg.variant == "velocity_sl":
        heading = plant.psi + plant.beta
        prev = VehicleState(
            x=plant.x - params.v * math.cos(heading) * cfg.ts,
            y=plant.y - params.v * math.sin(heading) * cfg.ts,
            psi=plant.psi - params.v / params.lr * math.sin(plant.beta) * cfg.ts,
            beta=plant.beta,
        )
    return ControllerState(ref_cursor=0, prev_state=prev, weights=hw, fixed=fixed)


def _stack_position_refs(path: "ReferencePath", cursor: int, n: int) -> np.ndarray:
    """Stage references (x, y, psi=0) for stages cursor+1 .. cursor+n, clamped at the end."""
    last = len(path) - 1
    idx = np.minimum(cursor + 1 + np.arange(n), last)
    refs = np.zeros(3 * n)
    refs[0::3] = path.x[idx]
    refs[1::3] = path.y[idx]
    return refs


class EndOfPath(ControlError):
    """The reference cursor has no sample left to aim for."""


def generate_delta_refs(plant: VehicleState, path: "ReferencePath", cursor: int,
                        params: VehicleParams, ts: float) -> tuple[float, float, int]:
    """Per-sample displacement reference for the velocity controller.

    Estimates where the vehicle would be after one sample if it kept its
    current velocity direction, starting from the current reference point;
    picks the path sample nearest to that estimate (never behind the
    cursor); and returns the displacement from the current reference point
    to the picked sample together with the new cursor.
    """
    last = len(path) - 1
    if cursor >= last:
        raise EndOfPath(f"reference cursor {cursor} is at the final sample {last}")
    if cursor < 0:
        raise ValueError(f"cursor must be nonnegative, got {cursor}")
    heading = plant.psi + plant.beta
    x_est = path.x[cursor] + params.v * math.cos(heading) * ts
    y_est = path.y[cursor] + params.v * math.sin(heading) * ts
    dx = path.x[cursor:] - x_est
    dy = path.y[cursor:] - y_est
    j = cursor + int(np.argmin(dx * dx + dy * dy))
    return (
        float(path.x[j] - path.x[cursor]),
        float(path.y[j] - path.y[cursor]),
        j,
    )


def controller_step(ctrl: ControllerState, plant: VehicleState, path: "ReferencePath",
                    cfg: ControllerConfig, params: VehicleParams) -> tuple[float, ControllerState]:
    """One receding-horizon step of any variant.

    Every variant predicts with a linear model, condenses the tracking cost
    into one box QP over the slip moves and applies the first move. Two
    facts of the variant pick the rest:

    * fixed absolute-slip model (baseline, weight_tuned): the model is
      linearize_initial, whose input is the absolute slip angle. The QP is
      posed over the slip moves du via beta_j = beta + sum(du_0..du_j) from
      the measured slip, which turns the slew bound into a box on every
      move, and the w_u term pulls those absolute commands toward u_target.
      Its prediction and condensed cost come from init_state; a step forms
      only f.
    * difference state (velocity_sl): the measured state is the backward
      difference of the last two measured plant states. The first-stage
      displacement reference comes from generate_delta_refs; later stages
      chain the per-sample displacements along the path from the picked
      sample onward (the final displacement repeats if the path runs out).
      Heading-difference references are zero, which is unweighted under the
      default Q.

    position_sl is neither: it re-linearizes the pose model at the measured
    (psi, beta) every call and tracks the indexed position stack with slip
    changes bounded directly by the rate limit.

    A re-linearizing variant builds its prediction and condensed cost only
    when its model's bytes differ from the previous step's (a straight
    stretch repeats the same operating point); otherwise it reuses them
    from ControllerState.last_model.
    """
    fixed_model = cfg.variant in FIXED_MODEL_VARIANTS
    difference_state = cfg.variant == "velocity_sl"
    if difference_state and ctrl.prev_state is None:
        raise ControlError("velocity controller state has no previous sample; use init_state")
    if ctrl.weights is None or (fixed_model and ctrl.fixed is None):
        raise ControlError(f"{cfg.variant} controller state has no run constants; use init_state")
    n, m = cfg.horizon, cfg.control_horizon
    input_target = None
    last_model = ctrl.last_model
    if fixed_model:
        # The held beta of the commands beta + T du moves into the drift; the
        # moves act through Su T.
        fixed = ctrl.fixed
        sk_mv = fixed.pred.sk + fixed.pred.su @ np.full(m, plant.beta)
        pred = PredictionMatrices(sx=fixed.pred.sx, su=fixed.su_moves, sk=sk_mv)
        if fixed.input_weight is not None:
            input_target = (*fixed.input_weight, np.full(m, plant.beta - cfg.u_target))
        cost = fixed.cost
    else:
        linearize = linearize_velocity if difference_state else linearize_position
        model = linearize(plant, params, cfg.ts)
        key = model.c.tobytes() + model.b.tobytes() + model.k.tobytes()
        if last_model is None or last_model.key != key:
            pred = build_prediction(model, n, m)
            last_model = RelinearizedQp(key, pred, condense_cost(pred, ctrl.weights))
        pred, cost = last_model.pred, last_model.cost

    if difference_state:
        prev = ctrl.prev_state
        x0 = np.array([plant.x - prev.x, plant.y - prev.y, plant.psi - prev.psi])
        dx_ref, dy_ref, cursor = generate_delta_refs(plant, path, ctrl.ref_cursor, params, cfg.ts)
        last = len(path) - 1
        ahead = np.minimum(cursor + np.arange(1, n), last)
        x_ref = np.zeros(3 * n)
        x_ref[0], x_ref[1] = dx_ref, dy_ref
        x_ref[3::3] = path.x[ahead] - path.x[ahead - 1]
        x_ref[4::3] = path.y[ahead] - path.y[ahead - 1]
    else:
        x0 = np.array([plant.x, plant.y, plant.psi])
        x_ref = _stack_position_refs(path, ctrl.ref_cursor, n)
        cursor = ctrl.ref_cursor + 1

    bound = cfg.rate_limit * cfg.ts
    qp = build_tracking_qp(pred, cost, x0, x_ref, (-bound, bound), input_target)
    sol = solve_box_qp(qp, start=ctrl.start)
    if sol.status != "converged":
        if not np.isfinite(qp.f).all():
            raise ControlError(
                f"{cfg.variant} QP stopped at {sol.status} with KKT residual "
                f"{sol.kkt_residual:.3e} and a non-finite gradient f: the tracking error "
                f"from the reference and the measured state, times the weights, leaves the "
                f"float range")
        # The KKT tolerance is absolute while H grows with the squared
        # weights, so name their scale: large weights alone can cause this.
        hw = ctrl.weights
        raise ControlError(
            f"{cfg.variant} QP stopped at {sol.status} with KKT residual {sol.kkt_residual:.3e} "
            f"at weight scale max|H| = {float(np.abs(qp.h).max()):.3e} "
            f"((w_y*alpha)^2 = {hw.q[0]:.3e}, (w_du*alpha)^2 = {hw.r:.3e})")
    u = float(sol.u[0])
    return u, ControllerState(ref_cursor=cursor, prev_state=plant, weights=ctrl.weights,
                              fixed=ctrl.fixed, start=sol.start, last_model=last_model)


CONTROLLER_STEPS = dict.fromkeys(VARIANTS, controller_step)
