"""Receding-horizon steering laws over one shared prediction/QP pipeline.

Four variants, differing in the model they predict with and the reference
they consume, not in the QP machinery:

* baseline: fixed small-angle model, never re-derived. Decision variables
  are the slip moves, so the rate limit is a plain box and consecutive
  in-horizon commands also respect it.
* weight_tuned: identical pipeline to baseline with the faster sample time
  and longer horizon.
* position_sl: re-linearizes the position model whenever the measured
  operating point changes; input is the slip change with a direct rate box.
* velocity_sl: difference-state model over per-sample displacements,
  tracking displacement references selected by a monotone path cursor.

controller_step runs every variant; it takes and returns an explicit
ControllerState, returns the single applied move, and leaves the plant
untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .linearize import linearize_initial, linearize_position, linearize_velocity
from .qp import (
    CondensedCost,
    HorizonWeights,
    PredictionMatrices,
    QpSolution,
    RegionTable,
    build_prediction,
    build_tracking_qp,
    condense_cost,
    move_box,
    region_table,
    solve_box_qp,
)
from .vehicle import ParameterError, VehicleParams, VehicleState, ct_derivative

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
            raise ParameterError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}",
                                 "variant")
        if not self.ts > 0.0:
            raise ParameterError(f"sample time must be positive, got {self.ts}", "ts")
        if not 1 <= self.control_horizon <= self.horizon <= MAX_HORIZON:
            raise ParameterError(f"need 1 <= M <= N <= {MAX_HORIZON}, got N={self.horizon}, "
                                 f"M={self.control_horizon}", "horizon", "control_horizon")
        if not self.rate_limit > 0.0:
            raise ParameterError(f"rate limit must be positive, got {self.rate_limit}",
                                 "rate_limit")
        negative = [name for name in ("w_y", "w_u", "w_du", "q_heading")
                    if getattr(self, name) < 0.0]
        if negative:
            raise ParameterError(f"weights must be nonnegative, got w_y={self.w_y}, w_u="
                                 f"{self.w_u}, w_du={self.w_du}, q_heading={self.q_heading}",
                                 *negative)
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}", "alpha")
        # The QP squares the alpha-scaled weights: no square may overflow, and
        # the move weight r = (w_du * alpha)^2 must not underflow.
        scaled = dict(zip(("w_y", "w_u", "w_du"), _scaled_weights(self)))
        overflowing = [name for name, w in scaled.items() if not math.isfinite(w * w)]
        if overflowing:
            raise ParameterError(f"alpha-scaled weights must square to finite numbers, got "
                                 f"w_y={self.w_y}, w_u={self.w_u}, w_du={self.w_du}, "
                                 f"alpha={self.alpha}", "alpha", *overflowing)
        if not scaled["w_du"] ** 2 > 0.0:
            raise ParameterError(f"move weight w_du must be positive with (w_du * alpha)^2 > 0, "
                                 f"got w_du={self.w_du}, alpha={self.alpha}", "w_du", "alpha")


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
        raise ParameterError(f"unknown variant {variant!r}, expected one of {VARIANTS}", "variant")
    d_ts, d_n, d_m = VARIANT_DEFAULTS[variant]
    return ControllerConfig(variant, d_ts if ts is None else ts,
                            d_n if horizon is None else horizon,
                            d_m if control_horizon is None else control_horizon, **settings)


class ModelQp(NamedTuple):
    """One model's prediction and condensed cost, keyed by its operating point.

    A re-linearized model's key is the 16 bytes of the measured (psi, beta)
    as float64, all that its linearization reads of the state, so the sign
    of a zero counts; pred and cost are a pure function of the key and the
    run constants, input_weight and table are None, and a step replaces the
    record only when the key changes. init_state builds the fixed model's
    record once, key None: pred predicts over the absolute slip commands
    beta + T du, with T the cumulative-move map, so cost condenses over the
    moves' Su T, input_weight is (w, T) of the w_u term, None when w_u is
    zero, and table is the RegionTable of (cost.h, the run's slew box
    ControllerState.box), which every QP of the run shares and from which
    the solver takes its bound partition without a search (None where
    region_table builds none).
    """

    key: bytes | None
    pred: PredictionMatrices
    cost: CondensedCost
    input_weight: tuple[float, np.ndarray] | None
    table: RegionTable | None


class LastSolve(NamedTuple):
    """The last QP solve, keyed by what it is a pure function of.

    h is the QP's Hessian object, the read-only cost.h shared while a model
    is reused, f the bytes of its gradient, and start the partition it was
    handed. The bounds are the run's ControllerState.box, the same for
    every QP, so they are no part of the key. solution.start is the next
    step's start, so a step whose QP has the same h object and f bytes, and
    whose start has the bytes of start, is handed solution as it stands.
    """

    h: np.ndarray
    f: bytes
    start: np.ndarray | None
    solution: QpSolution


def _same_start(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return a is b or (a is not None and b is not None and a.tobytes() == b.tobytes())


class ScanTable(NamedTuple):
    """The path as generate_delta_refs scans it, one tuple of Python floats each.

    x and y are the path samples; x_min[j], x_max[j], y_min[j] and y_max[j]
    bound the samples from j on, x[j:] and y[j:], so the box they span holds
    every sample the scan has yet to read.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    x_min: tuple[float, ...]
    x_max: tuple[float, ...]
    y_min: tuple[float, ...]
    y_max: tuple[float, ...]


def scan_table(path: "ReferencePath") -> ScanTable:
    """The ScanTable of path: its samples and the bounding box of every suffix."""

    def suffix(bound: np.ufunc, a: np.ndarray) -> tuple[float, ...]:
        return tuple(bound.accumulate(a[::-1])[::-1].tolist())

    x, y = path.x, path.y
    return ScanTable(tuple(x.tolist()), tuple(y.tolist()), suffix(np.minimum, x),
                     suffix(np.maximum, x), suffix(np.minimum, y), suffix(np.maximum, y))


class ControllerState(NamedTuple):
    """What a controller carries between steps; init_state builds the first."""

    ref_cursor: int
    prev_state: VehicleState | None  # previous measured state (velocity variant)
    # Per-run constants, built once by init_state from (cfg, path, params), all
    # read-only: the horizon weights, the flat reference stack the variant
    # slices its stage references from (see _reference_stack), the slew box
    # (lb, ub) that every QP of the run takes as its bounds, and velocity_sl's
    # ScanTable of the path, which its cursor scans (None for the other
    # variants).
    weights: HorizonWeights
    refs: np.ndarray
    box: tuple[np.ndarray, np.ndarray]
    scan: ScanTable | None
    # The model's QP data: the fixed model's from init_state, else the last step's.
    model: ModelQp | None
    # The last solve; its solution's start is the next solve's start.
    last_solve: LastSolve | None


def _reference_stack(path: "ReferencePath", n: int, displacements: bool) -> np.ndarray:
    """A run's stage references as one flat read-only array of rows (x, y, 0).

    Row j is path sample j, or with displacements the step from sample j-1
    to sample j (row 0, before the first sample, is zero); N more rows
    repeat the last, so a horizon that runs past the final sample is clamped
    to it. A step slices its N stage references out of this stack.
    """
    last = len(path) - 1
    idx = np.minimum(np.arange(last + 1 + n), last)
    rows = np.zeros((idx.size, 3))
    if displacements:
        ahead = idx[1:]
        rows[1:, 0] = path.x[ahead] - path.x[ahead - 1]
        rows[1:, 1] = path.y[ahead] - path.y[ahead - 1]
    else:
        rows[:, 0] = path.x[idx]
        rows[:, 1] = path.y[idx]
    refs = rows.reshape(-1)
    refs.flags.writeable = False
    return refs


def init_state(cfg: ControllerConfig, plant: VehicleState, path: "ReferencePath",
               params: VehicleParams) -> ControllerState:
    """Initial controller state for a plant starting at rest on its path.

    Builds what depends only on (cfg, path, params) once, all read-only: the
    horizon weights, the variant's reference stack over path (positions, or
    per-sample displacements for velocity_sl; see _reference_stack), the slew
    box +-rate_limit*ts of every move, velocity_sl's ScanTable of path, and
    for the fixed absolute-slip model its ModelQp, region table included, so
    that each step forms only the QP gradient.

    The velocity variant needs a previous sample to difference against; the
    plant is assumed to have been cruising, so the initial state is
    integrated backward one step at zero input. That keeps an on-path start
    an exact zero-error fixed point from the very first step.
    """
    n, m = cfg.horizon, cfg.control_horizon
    hw = horizon_weights(cfg)
    difference_state = cfg.variant == "velocity_sl"
    refs = _reference_stack(path, n, difference_state)
    bound = cfg.rate_limit * cfg.ts
    box = move_box(m, (-bound, bound))
    model_qp = None
    if cfg.variant in FIXED_MODEL_VARIANTS:
        model = linearize_initial(params, cfg.ts)
        pred = build_prediction(model, n, m)
        t_low = np.tril(np.ones((m, m)))
        input_weight = None if hw.target is None else (hw.target, t_low)
        moves = PredictionMatrices(pred.sx, pred.su @ t_low, pred.sk)
        cost = condense_cost(moves, hw, input_weight)
        model_qp = ModelQp(None, pred, cost, input_weight, region_table(cost.h, *box))
    prev = scan = None
    if difference_state:
        dx, dy, dpsi = (cfg.ts * ct_derivative(plant, params)).tolist()
        prev = VehicleState(plant.x - dx, plant.y - dy, plant.psi - dpsi, plant.beta)
        scan = scan_table(path)
    return ControllerState(0, prev, hw, refs, box, scan, model_qp, None)


def generate_delta_refs(plant: VehicleState, table: ScanTable, cursor: int,
                        params: VehicleParams, ts: float) -> tuple[float, float, int]:
    """Per-sample displacement reference for the velocity controller.

    Estimates where the vehicle would be after one sample if it kept its
    current velocity direction, starting from the current reference point;
    picks the path sample nearest to that estimate (never behind the
    cursor), the first of equal squared distances (ex*ex + ey*ey in floats);
    and returns the displacement from the current reference point to the
    picked sample together with the new cursor.

    The path is the run's ScanTable (see scan_table). The scan walks forward
    from the cursor and stops at the first sample j whose suffix box, the
    box around samples j onward, lies no nearer to the estimate than the
    best sample so far. Rounding is monotone, so no later sample's distance
    falls below the box's, and none could win: the pick is the full scan's.
    On a path that doubles back on both axes the box can stay loose, and
    the scan read on to the end, as a full scan does.
    """
    xs, ys, x_min, x_max, y_min, y_max = table
    last = len(xs) - 1
    if cursor >= last:
        raise ControlError(f"reference cursor {cursor} is at the final sample {last}")
    if cursor < 0:
        raise ValueError(f"cursor must be nonnegative, got {cursor}")
    heading = plant.psi + plant.beta
    x0, y0 = xs[cursor], ys[cursor]
    x_est = x0 + params.v * math.cos(heading) * ts
    y_est = y0 + params.v * math.sin(heading) * ts
    best, best_d = cursor, math.inf
    for j in range(cursor, last + 1):
        lo, hi = x_min[j], x_max[j]
        gx = lo - x_est if x_est < lo else x_est - hi if x_est > hi else 0.0
        lo, hi = y_min[j], y_max[j]
        gy = lo - y_est if y_est < lo else y_est - hi if y_est > hi else 0.0
        if gx * gx + gy * gy >= best_d:
            break
        ex, ey = xs[j] - x_est, ys[j] - y_est
        d = ex * ex + ey * ey
        if d < best_d:  # strict: the first of equal distances wins
            best, best_d = j, d
    return xs[best] - x0, ys[best] - y0, best


def controller_step(ctrl: ControllerState, plant: VehicleState, cfg: ControllerConfig,
                    params: VehicleParams) -> tuple[float, ControllerState]:
    """One receding-horizon step of any variant.

    Every variant predicts with a linear model, condenses the tracking cost
    into one box QP over the slip moves and applies the first move. Two
    facts of the variant pick the rest:

    * fixed absolute-slip model (baseline, weight_tuned): the model is
      linearize_initial, whose input is the absolute slip angle. The QP is
      posed over the slip moves du via beta_j = beta + sum(du_0..du_j) from
      the measured slip, which turns the slew bound into a box on every
      move, and the w_u term pulls those absolute commands toward u_target.
      Its ModelQp comes from init_state and is never replaced; a step forms
      only the drift of the held slip and f, and the solver is handed the
      record's region table: unless the unconstrained minimizer lies inside
      the box, it locates the QP's bound partition, which the solver
      finishes without a search.
    * difference state (velocity_sl): the measured state is the backward
      difference of the last two measured plant states. The first-stage
      displacement reference comes from generate_delta_refs; later stages
      chain the per-sample displacements along the path from the picked
      sample onward (the final displacement repeats if the path runs out).
      They are a copy of the run's displacement stack from the picked
      sample on, whose first stage the picked displacement overwrites.
      Heading-difference references are zero, which is unweighted under the
      default Q.

    position_sl is neither: it re-linearizes the pose model at the measured
    (psi, beta) and tracks the indexed position stack with slip changes
    bounded directly by the rate limit.

    The reference stack, the slew box, the weights and velocity_sl's scan
    table are init_state's run constants: a position variant's stage
    references are a view of the run's position stack from sample
    ref_cursor + 1 on (clamped at the final sample), every QP takes the
    run's box objects as its bounds, and generate_delta_refs scans the
    table.

    A re-linearizing variant linearizes and builds a new ModelQp only when
    the measured (psi, beta) differs in a byte from the previous step's (a
    straight stretch repeats it); otherwise it reuses ControllerState.model.

    Each step hands the solver the partition the previous solve accepted
    after its guess missed (a solve finished from the table takes one
    iteration and hands on none). solve_box_qp is a pure function of (H, f, the
    bounds, start, table); the table goes with the H object and the bounds
    are the run's box, so a step whose QP is the previous one bit for bit
    (the same H object and f bytes, with the same start handed in) reuses
    ControllerState.last_solve's solution without calling it; every field,
    start included, is what the call would return.
    """
    fixed_model = cfg.variant in FIXED_MODEL_VARIANTS
    difference_state = cfg.variant == "velocity_sl"
    n, m = cfg.horizon, cfg.control_horizon
    model_qp = ctrl.model
    if not fixed_model:
        key = np.array([plant.psi, plant.beta]).tobytes()
        if model_qp is None or model_qp.key != key:
            linearize = linearize_velocity if difference_state else linearize_position
            pred = build_prediction(linearize(plant, params, cfg.ts), n, m)
            model_qp = ModelQp(key, pred, condense_cost(pred, ctrl.weights), None, None)
    _, pred, cost, input_weight, table = model_qp
    if fixed_model:
        # The held beta of the commands beta + T du moves into the drift; the
        # moves act through Su T, which cost condenses.
        pred = PredictionMatrices(pred.sx, pred.su, pred.sk + pred.su @ np.full(m, plant.beta))
    input_target = None
    if input_weight is not None:
        input_target = (*input_weight, np.full(m, plant.beta - cfg.u_target))

    refs, box = ctrl.refs, ctrl.box
    if difference_state:
        prev = ctrl.prev_state
        x0 = np.array([plant.x - prev.x, plant.y - prev.y, plant.psi - prev.psi])
        dx_ref, dy_ref, cursor = generate_delta_refs(plant, ctrl.scan, ctrl.ref_cursor, params,
                                                     cfg.ts)
        x_ref = refs[3 * cursor:3 * (cursor + n)].copy()
        x_ref[0], x_ref[1] = dx_ref, dy_ref
    else:
        x0 = np.array([plant.x, plant.y, plant.psi])
        cursor = ctrl.ref_cursor + 1
        first = min(3 * cursor, refs.size - 3 * n)  # past the final sample, all stages sit on it
        x_ref = refs[first:first + 3 * n]

    qp = build_tracking_qp(pred, cost, x0, x_ref, box, input_target)
    last_solve = ctrl.last_solve
    start = None if last_solve is None else last_solve.solution.start
    f_bytes = qp.f.tobytes()
    repeat = (last_solve is not None and last_solve.h is qp.h and last_solve.f == f_bytes
              and _same_start(last_solve.start, start))
    sol = last_solve.solution if repeat else solve_box_qp(qp, start=start, table=table)
    if sol.status != "converged":
        if not np.isfinite(qp.f).all():
            raise ControlError(
                f"{cfg.variant} QP stopped at {sol.status} with KKT residual "
                f"{sol.kkt_residual:.3e} and a non-finite gradient f: the tracking error "
                f"from the reference and the measured state, times the weights, leaves the "
                f"float range")
        # The KKT tolerance scales with the gradient, but not once the
        # gradient's roundoff swamps the slew box, which large weights alone
        # reach; so name their scale.
        hw = ctrl.weights
        raise ControlError(
            f"{cfg.variant} QP stopped at {sol.status} with KKT residual {sol.kkt_residual:.3e} "
            f"at weight scale max|H| = {float(np.abs(qp.h).max()):.3e} "
            f"((w_y*alpha)^2 = {hw.q[0]:.3e}, (w_du*alpha)^2 = {hw.r:.3e})")
    if not repeat:
        last_solve = LastSolve(qp.h, f_bytes, start, sol)
    return float(sol.u[0]), ControllerState(cursor, plant, ctrl.weights, refs, box, ctrl.scan,
                                            model_qp, last_solve)


CONTROLLER_STEPS = dict.fromkeys(VARIANTS, controller_step)
