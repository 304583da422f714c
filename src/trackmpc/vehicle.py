"""Kinematic bicycle model: geometry, steer-from-slip map, continuous rates, discrete step.

The vehicle is reduced to its center of mass moving at constant speed v. The
pose is (x, y, psi) and the velocity vector is rotated off the heading by the
slip angle beta, which the low-level steering loop realizes through the front
axle. Continuous dynamics:

    xdot   = v * cos(psi + beta)
    ydot   = v * sin(psi + beta)
    psidot = (v / lr) * sin(beta)

The control input everywhere in this package is the per-sample slip change
u = beta(k+1) - beta(k); the discrete plant applies u first and then
integrates the pose one forward-Euler step with the updated slip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Default geometry (compact test vehicle) and cruise speed.
DEFAULT_LF = 1.105    # [m] center of mass to front axle
DEFAULT_LR = 1.738    # [m] center of mass to rear axle
DEFAULT_SPEED = 10.0  # [m/s]

_HALF_PI = math.pi / 2.0


class ParameterError(ValueError):
    """A check rejected a parameter value; names are the parameters the check read."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


@dataclass(frozen=True)
class VehicleParams:
    """Fixed vehicle geometry and the held longitudinal speed."""

    lf: float = DEFAULT_LF    # [m]
    lr: float = DEFAULT_LR    # [m]
    v: float = DEFAULT_SPEED  # [m/s]

    def __post_init__(self):
        if not (self.lf > 0.0 and self.lr > 0.0):
            raise ParameterError(f"axle distances must be positive, got lf={self.lf}, lr={self.lr}",
                                 *(name for name in ("lf", "lr") if not getattr(self, name) > 0.0))
        if not self.v > 0.0:
            raise ParameterError(f"speed must be positive, got v={self.v}", "v")
        if not math.isfinite(self.v / self.lr):
            raise ParameterError(f"yaw rate scale v/lr must be finite, got v={self.v}, "
                                 f"lr={self.lr}", "v", "lr")


@dataclass(frozen=True)
class VehicleState:
    """Planar pose plus slip angle of the velocity vector."""

    x: float = 0.0     # [m]
    y: float = 0.0     # [m]
    psi: float = 0.0   # [rad] heading
    beta: float = 0.0  # [rad] slip angle, |beta| < pi/2

    def __post_init__(self):
        vals = (self.x, self.y, self.psi, self.beta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"state components must be finite, got {vals}")
        if abs(self.beta) >= _HALF_PI:
            raise ValueError(f"slip angle must stay inside (-pi/2, pi/2), got {self.beta}")


def steer_from_slip(beta: float, params: VehicleParams) -> float:
    """Front steering angle delta_f realizing slip beta = atan(lr / (lf + lr) * tan(delta_f))."""
    if abs(beta) >= _HALF_PI:
        raise ValueError(f"slip angle must stay inside (-pi/2, pi/2), got {beta}")
    ratio = (params.lf + params.lr) / params.lr
    return math.atan(ratio * math.tan(beta))


def ct_derivative(state: VehicleState, params: VehicleParams) -> np.ndarray:
    """Continuous-time pose rates (xdot, ydot, psidot) at the given state."""
    heading = state.psi + state.beta
    return np.array([
        params.v * math.cos(heading),
        params.v * math.sin(heading),
        params.v / params.lr * math.sin(state.beta),
    ])


def step_nonlinear(state: VehicleState, u: float, ts: float, params: VehicleParams) -> VehicleState:
    """Advance the plant one sample of length ts under the slip change u.

    The slip update beta+ = beta + u is applied before the pose integration,
    so the step is exactly one forward-Euler sample taken at the new slip and
    its Jacobian with respect to u is available in closed form. The planar
    displacement per step is v*ts regardless of input.

    Raises ValueError if ts is not positive or the updated slip leaves
    (-pi/2, pi/2).
    """
    if not ts > 0.0:
        raise ValueError(f"sample time must be positive, got {ts}")
    beta = state.beta + u
    if abs(beta) >= _HALF_PI:
        raise ValueError(f"slip change {u} drives slip angle to {beta}, outside (-pi/2, pi/2)")
    heading = state.psi + beta
    return VehicleState(
        x=state.x + params.v * math.cos(heading) * ts,
        y=state.y + params.v * math.sin(heading) * ts,
        psi=state.psi + params.v / params.lr * math.sin(beta) * ts,
        beta=beta,
    )
