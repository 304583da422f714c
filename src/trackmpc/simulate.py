"""Reference paths, measurement disturbance, and the closed-loop harness.

Paths are uniformly sampled point sequences (x_k, y_k) at times k*ts; a
controller is expected to run at the same sample time the path was generated
with. The disturbance is applied to the measured output only, never to the
true plant state, and is generated by a keyed counter hash so runs are
bit-reproducible across platforms and independent of call order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .vehicle import ParameterError, VehicleParams, VehicleState, step_nonlinear
from . import controllers as _controllers

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)

# Counter offset separating the x-noise stream from the y-noise stream.
_X_STREAM_OFFSET = 1 << 48

# Size bounds, checked before any array is built: the shipped scenarios need
# at most 601 path samples and about 12000 grid points (complete.cfg).
MAX_PATH_SAMPLES = 100_000  # samples of one reference path
MAX_GRID_POINTS = 1_000_000  # points of a complete path's arc-length grid
# |x| and |y| of any path sample [m]: squared distances between the path and
# the vehicle, and the tracking errors the QP squares, stay finite far past it
MAX_PATH_COORDINATE = 1e9


@dataclass(frozen=True)
class ReferencePath:
    """Uniformly sampled planar reference with its sample time.

    heading0 is the travel direction at the first sample, which every
    builder knows exactly (step paths point along x regardless of the jump).
    Sample k lies at time k*ts. x and y are read-only float copies of the
    arrays given, so a path cannot change after its checks, and the caller's
    arrays stay writeable.
    """

    x: np.ndarray
    y: np.ndarray
    ts: float
    heading0: float

    def __post_init__(self):
        x, y = np.array(self.x, dtype=float), np.array(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("path needs matching 1-d x/y arrays with at least 2 samples")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("path samples must be finite")
        if not self.ts > 0.0:
            raise ValueError(f"path sample time must be positive, got {self.ts}")
        for name, values in (("x", x), ("y", y)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return self.x.size


def _counted(steps: float, rounding, what: str, *names: str) -> int:
    """rounding(steps) + 1 path samples, checked to be 2 to MAX_PATH_SAMPLES (NaN and inf fail)."""
    if not steps <= MAX_PATH_SAMPLES - 1:
        raise ParameterError(f"{what} needs more than {MAX_PATH_SAMPLES} path samples", *names)
    n = rounding(steps) + 1
    if n < 2:
        raise ParameterError(f"{what} gives fewer than 2 path samples", *names)
    return n


def sample_count(duration: float, ts: float) -> int:
    """Samples of a path over duration [s] at sample time ts, bounded."""
    if not duration > 0.0:
        raise ParameterError(f"duration must be positive, got {duration}", "duration")
    if not ts > 0.0:
        raise ParameterError(f"sample time must be positive, got {ts}", "ts")
    return _counted(duration / ts, math.ceil, f"{duration:g} s at sample time {ts:g} s",
                    "duration", "ts")


def _within_reach(amplitude: float, v: float = 0.0, t_last: float = 0.0) -> float:
    """The last x, v*t_last, of a path whose x advances at v; it and the amplitude bounded."""
    if not abs(amplitude) <= MAX_PATH_COORDINATE:
        raise ParameterError(f"amplitude {amplitude:g} m exceeds the path coordinate bound of "
                             f"{MAX_PATH_COORDINATE:g} m", "amplitude")
    x_last = v * t_last  # a Python float product overflows to inf without numpy's warning
    if not abs(x_last) <= MAX_PATH_COORDINATE:
        raise ParameterError(f"v = {v:g} m/s over {t_last:g} s carries the path past the path "
                             f"coordinate bound of {MAX_PATH_COORDINATE:g} m",
                             "v", "duration", "ts")  # t_last is sample_count(duration, ts)'s
    return x_last


def make_step_path(amplitude: float, duration: float, ts: float,
                   v: float = 10.0) -> ReferencePath:
    """Lateral step: y jumps from 0 to amplitude right after t = 0.

    x advances at v*ts per sample; the pre-step travel direction is along x,
    so heading0 = 0 even though the first segment jumps sideways.
    """
    n = sample_count(duration, ts)
    _within_reach(amplitude, v, ts * (n - 1))
    k = np.arange(n)
    x = v * ts * k
    y = np.where(k >= 1, float(amplitude), 0.0)
    return ReferencePath(x=x, y=y, ts=ts, heading0=0.0)


def make_sine_path(amplitude: float, wavelength: float, duration: float, ts: float,
                   v: float = 10.0) -> ReferencePath:
    """Sine profile y(x) = amplitude*sin(2 pi x / wavelength) sampled along x = v*t."""
    if not wavelength > 0.0:
        raise ParameterError(f"wavelength must be positive, got {wavelength}", "wavelength")
    n = sample_count(duration, ts)
    x_last = _within_reach(amplitude, v, ts * (n - 1))
    # the phase is largest at the last x, where a subnormal wavelength overflows it
    if not math.isfinite(2.0 * math.pi * x_last / wavelength):
        raise ParameterError(f"wavelength {wavelength:g} m makes the sine's phase 2 pi x / "
                             f"wavelength overflow by x = {x_last:g} m",
                             "wavelength", "v", "duration", "ts")
    t = np.arange(n) * ts
    x = v * t
    y = amplitude * np.sin(2.0 * math.pi * x / wavelength)
    slope0 = amplitude * 2.0 * math.pi / wavelength
    return ReferencePath(x=x, y=y, ts=ts, heading0=math.atan(slope0))


def make_complete_path(lead_in: float, amplitude: float, wavelength: float, periods: int,
                       tail: float, ts: float, v: float = 10.0) -> ReferencePath:
    """Straight lead-in, sine section, straight tail, sampled by arc length.

    Samples advance v*ts along the curve, so a constant-speed vehicle can sit
    on every sample exactly; the profile is C0 at the joins because the sine
    starts and ends on whole periods. The fine x grid the arc length is
    integrated on is bounded before it is built, and x is bounded by it.
    """
    _within_reach(amplitude)
    geometry = {"lead_in": lead_in > 0.0, "tail": tail > 0.0, "wavelength": wavelength > 0.0,
                "periods": periods >= 1}
    if not all(geometry.values()):
        raise ParameterError("complete path needs positive segment lengths and at least one "
                             "period", *(name for name, ok in geometry.items() if not ok))
    # a period spans 2000 grid steps or more: a larger count fails unmultiplied
    sine_len = periods * wavelength if periods <= MAX_GRID_POINTS else math.inf
    x_end = lead_in + sine_len + tail
    dx = min(0.01, wavelength / 2000.0)  # 0 where a subnormal wavelength underflows
    if not (dx > 0.0 and (x_end + dx) / dx <= MAX_GRID_POINTS):
        raise ParameterError(f"a complete path over {x_end:g} m needs more than "
                             f"{MAX_GRID_POINTS} arc-length grid points at a step of {dx:g} m",
                             *geometry)
    xg = np.arange(0.0, x_end + dx, dx)
    yg = _complete_profile(xg, lead_in, amplitude, wavelength, sine_len)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(xg), np.diff(yg)))])
    # invert s at v*ts apart; a Python float quotient overflows to inf without
    # numpy's warning
    step = v * ts
    arc = float(s[-1])
    n = _counted(arc / step if step > 0.0 else math.inf, math.floor,
                 f"a {arc:g} m path at v*ts = {step:g} m", "amplitude", *geometry, "v", "ts")
    sk = np.arange(n) * step
    xs = np.interp(sk, s, xg)
    ys = _complete_profile(xs, lead_in, amplitude, wavelength, sine_len)
    return ReferencePath(x=xs, y=ys, ts=ts, heading0=0.0)


def _complete_profile(x: np.ndarray, lead_in: float, amplitude: float,
                      wavelength: float, sine_len: float) -> np.ndarray:
    y = np.zeros_like(x)
    in_sine = (x >= lead_in) & (x < lead_in + sine_len)
    y[in_sine] = amplitude * np.sin(2.0 * math.pi * (x[in_sine] - lead_in) / wavelength)
    return y


def make_straight_path(duration: float, ts: float, v: float = 10.0) -> ReferencePath:
    """Level straight line along x, exactly followable at constant speed."""
    return make_step_path(0.0, duration, ts, v)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Measurement disturbance description; kind "none" disables it."""

    kind: str = "none"            # "none" or "gaussian_output"
    amplitude: float = 0.0        # standard deviation [m]
    seed: int = 0
    apply_to_x: bool = False      # also disturb the measured x position

    def __post_init__(self):
        if self.kind not in ("none", "gaussian_output"):
            raise ParameterError(f"unknown disturbance kind {self.kind!r}", "kind")
        if not 0.0 <= self.amplitude < math.inf:
            raise ParameterError(f"amplitude must be finite and nonnegative, got "
                                 f"{self.amplitude}", "amplitude")


def _mix64(z: np.ndarray) -> np.ndarray:
    """64-bit finalizer (splitmix64 output function) on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MULT1
    z = (z ^ (z >> np.uint64(27))) * _MULT2
    return z ^ (z >> np.uint64(31))


def gaussian_noise(spec: DisturbanceSpec, k):
    """Standard-normal draw(s) scaled by the amplitude, keyed by (seed, k).

    Two 64-bit words are hashed out of the counter and folded through the
    Box-Muller cosine branch, so sample k is a pure function of the spec:
    bit-identical across platforms and independent of evaluation order.
    The draws have the shape of the counters k.
    """
    if spec.kind != "gaussian_output":
        raise ValueError(f"noise requested from a {spec.kind!r} disturbance")
    kk = np.asarray(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seed_h = _mix64(np.uint64(spec.seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA)
        c = kk * np.uint64(2)
        w1 = _mix64(seed_h ^ _mix64((c + np.uint64(1)) * _GAMMA))
        w2 = _mix64(seed_h ^ _mix64((c + np.uint64(2)) * _GAMMA))
    u1 = (w1 >> np.uint64(11)).astype(np.float64) / _TWO53
    u2 = (w2 >> np.uint64(11)).astype(np.float64) / _TWO53
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
    return spec.amplitude * z


@dataclass
class SimResult:
    """Closed-loop run record.

    states has one row per sample (K+1 rows for K control steps); inputs has
    one applied slip change per step. ssd sums squared planar errors of the
    true states against the reference over all samples.
    """

    variant: str
    t: np.ndarray            # (K+1,) k*ts
    states: np.ndarray       # (K+1, 4) true x, y, psi, beta
    inputs: np.ndarray       # (K,) applied slip changes
    x_ref: np.ndarray        # (K+1,)
    y_ref: np.ndarray        # (K+1,)
    ssd: float               # [m^2]
    iter_times: np.ndarray   # (K,) controller wall-clock per step [s]
    status: str              # "ok" or "failed: ..."


def ssd_from_traces(states: np.ndarray, x_ref: np.ndarray, y_ref: np.ndarray) -> float:
    """Sum of squared planar deviations between true states and the reference."""
    dx = states[:, 0] - x_ref
    dy = states[:, 1] - y_ref
    return float(np.sum(dx * dx + dy * dy))


def default_initial_state(path: ReferencePath) -> VehicleState:
    """First reference point, heading along the path tangent, zero slip."""
    return VehicleState(x=float(path.x[0]), y=float(path.y[0]),
                        psi=path.heading0, beta=0.0)


def run_closed_loop(cfg, path: ReferencePath, disturbance: DisturbanceSpec,
                    params: VehicleParams) -> SimResult:
    """Run one controller variant against the plant along a reference path.

    The run starts at default_initial_state(path): on the first sample,
    heading along the path, at zero slip. The controller only ever sees the
    measured state (true state plus output disturbance on the measured
    position); the plant integrates the true state. Each applied move is
    checked against the rate limit here in the harness, independent of the
    controller's own constraint handling. A controller failure ends the run
    early with a truncated trace and a "failed" status rather than raising.
    """
    if abs(cfg.ts - path.ts) > 1e-12:
        raise ValueError(f"controller ts {cfg.ts} does not match path sample time {path.ts}")
    steps = len(path) - 1
    state = default_initial_state(path)
    ctrl = _controllers.init_state(cfg, state, path, params)
    step_fn = _controllers.CONTROLLER_STEPS[cfg.variant]
    noisy = disturbance.kind == "gaussian_output"
    if noisy:
        # Each stream's draws for the whole run at once: draw k is a pure
        # function of (seed, k), so one array call gives every step's.
        counters = np.arange(steps, dtype=np.uint64)
        noise_y = gaussian_noise(disturbance, counters).tolist()
        if disturbance.apply_to_x:
            noise_x = gaussian_noise(disturbance, counters + np.uint64(_X_STREAM_OFFSET)).tolist()

    # One (x, y, psi, beta) row per sample, stacked once after the loop.
    rows = [(state.x, state.y, state.psi, state.beta)]
    inputs: list[float] = []
    iter_times: list[float] = []
    status = "ok"
    rate_cap = cfg.rate_limit * cfg.ts + 1e-9

    for k in range(steps):
        meas = state
        if noisy:
            x_m = state.x + noise_x[k] if disturbance.apply_to_x else state.x
            meas = VehicleState(x_m, state.y + noise_y[k], state.psi, state.beta)
        try:
            tic = time.perf_counter()
            u, ctrl = step_fn(ctrl, meas, cfg, params)
            elapsed = time.perf_counter() - tic
            if abs(u) > rate_cap:
                raise _controllers.ControlError(
                    f"move {u} exceeds rate limit {cfg.rate_limit} rad/s at step {k}")
            state = step_nonlinear(state, u, cfg.ts, params)
        except (_controllers.ControlError, ValueError) as exc:
            status = f"failed: {exc}"
            break
        iter_times.append(elapsed)
        inputs.append(u)
        rows.append((state.x, state.y, state.psi, state.beta))

    n_samples = len(rows)
    states = np.array(rows, dtype=float)
    return SimResult(
        variant=cfg.variant,
        t=np.arange(n_samples) * path.ts,
        states=states,
        inputs=np.array(inputs),
        x_ref=path.x[:n_samples].copy(),
        y_ref=path.y[:n_samples].copy(),
        ssd=ssd_from_traces(states, path.x[:n_samples], path.y[:n_samples]),
        iter_times=np.array(iter_times),
        status=status,
    )
