"""One-step linear models of the bicycle dynamics for predictive control.

Three model builders, all over the sample time ts and column input u:

* linearize_initial: small-angle model about the straight-and-level initial
  condition (psi = beta = 0). Input is the absolute slip angle. Constant, so
  a controller built on it never has to re-derive matrices.
* linearize_position: first-order expansion of the nonlinear step about an
  arbitrary operating point (psi_o, beta_o). State is (x, y, psi), input is
  the slip change away from beta_o, plus an affine drift K.
* linearize_velocity: the same expansion written over per-sample state
  differences (dx, dy, dpsi). The drift cancels in the differencing, leaving
  a homogeneous model (K = 0).

State order is always (x, y, psi); the slip angle is carried by the input
channel rather than the state vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vehicle import VehicleParams

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class OperatingPoint:
    """Heading/slip pair a model is expanded about."""

    psi: float = 0.0   # [rad]
    beta: float = 0.0  # [rad]

    def __post_init__(self):
        if not (math.isfinite(self.psi) and math.isfinite(self.beta)):
            raise ValueError(f"operating point must be finite, got ({self.psi}, {self.beta})")
        if abs(self.beta) >= _HALF_PI:
            raise ValueError(f"operating slip angle must stay inside (-pi/2, pi/2), got {self.beta}")


@dataclass(frozen=True)
class AffineLtiModel:
    """x(k+1) = A x(k) + B u(k) + K over the pose (x, y, psi) or its differences."""

    a: np.ndarray      # (3, 3)
    b: np.ndarray      # (3,)
    k: np.ndarray      # (3,) affine drift per step


def linearize_initial(params: VehicleParams, ts: float) -> AffineLtiModel:
    """Fixed small-angle model about psi = beta = 0.

    With sin(a) ~ a and cos(a) ~ 1 the Euler step becomes

        x+   = x + v*ts                      (drift only)
        y+   = y + v*ts*psi + v*ts*beta
        psi+ = psi + (v*ts/lr)*beta

    Input is the absolute slip angle. Valid while heading and slip stay small.
    """
    if ts < 0.0:
        raise ValueError(f"sample time must be nonnegative, got {ts}")
    c = params.v * ts
    a = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, c],
        [0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, c, c / params.lr])
    k = np.array([c, 0.0, 0.0])
    return AffineLtiModel(a=a, b=b, k=k)


def linearize_position(op: OperatingPoint, params: VehicleParams, ts: float) -> AffineLtiModel:
    """Affine expansion of the Euler step about (psi_o, beta_o).

    A is the identity: the expansion keeps the pose sensitivities in the
    drift and input columns,

        B = ts * [-v*sin(psi_o+beta_o), v*cos(psi_o+beta_o), (v/lr)*cos(beta_o)]
        K = ts * [ v*cos(psi_o+beta_o), v*sin(psi_o+beta_o), (v/lr)*sin(beta_o)]

    so the zero-input step reproduces the nonlinear step exactly when the
    plant sits at the operating point. Input is the slip change off beta_o.
    """
    if ts < 0.0:
        raise ValueError(f"sample time must be nonnegative, got {ts}")
    v = params.v
    heading = op.psi + op.beta
    a = np.eye(3)
    b = ts * np.array([
        -v * math.sin(heading),
        v * math.cos(heading),
        v / params.lr * math.cos(op.beta),
    ])
    k = ts * np.array([
        v * math.cos(heading),
        v * math.sin(heading),
        v / params.lr * math.sin(op.beta),
    ])
    return AffineLtiModel(a=a, b=b, k=k)


def linearize_velocity(op: OperatingPoint, params: VehicleParams, ts: float) -> AffineLtiModel:
    """Difference-state expansion about (psi_o, beta_o).

    Subtracting consecutive affine steps cancels the drift and promotes the
    heading difference to a state coupling:

        A = [[1, 0, -v*sin(psi_o+beta_o)*ts],
             [0, 1,  v*cos(psi_o+beta_o)*ts],
             [0, 0,  1]]
        B = ts * [-v*sin(psi_o+beta_o), v*cos(psi_o+beta_o), (v/lr)*cos(beta_o)]

    Input is the per-sample slip change; the drift K is zero.
    """
    if ts < 0.0:
        raise ValueError(f"sample time must be nonnegative, got {ts}")
    v = params.v
    heading = op.psi + op.beta
    a = np.array([
        [1.0, 0.0, -v * math.sin(heading) * ts],
        [0.0, 1.0, v * math.cos(heading) * ts],
        [0.0, 0.0, 1.0],
    ])
    b = ts * np.array([
        -v * math.sin(heading),
        v * math.cos(heading),
        v / params.lr * math.cos(op.beta),
    ])
    return AffineLtiModel(a=a, b=b, k=np.zeros(3))
