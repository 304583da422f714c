"""One-step linear models of the bicycle dynamics for predictive control.

Three model builders, all over the sample time ts and column input u:

* linearize_initial: small-angle model about the straight-and-level initial
  condition (psi = beta = 0). Input is the absolute slip angle. Constant, so
  a controller built on it never has to re-derive matrices.
* linearize_position: first-order expansion of the nonlinear step about a
  measured state's heading and slip (psi_o, beta_o). State is (x, y, psi),
  input is the slip change away from beta_o, plus an affine drift K.
* linearize_velocity: the same expansion written over per-sample state
  differences (dx, dy, dpsi). The drift cancels in the differencing, leaving
  a homogeneous model (K = 0).

State order is always (x, y, psi); the slip angle is carried by the input
channel rather than the state vector. All three share one shape,
A = I + c e3', which build_prediction relies on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .vehicle import VehicleParams, VehicleState, ct_derivative

_UNCOUPLED = np.zeros(2)  # c of a model whose A is the identity
_UNCOUPLED.flags.writeable = False
_NO_DRIFT = np.zeros(3)
_NO_DRIFT.flags.writeable = False


class AffineLtiModel(NamedTuple):
    """x(k+1) = A x(k) + B u(k) + K over the pose (x, y, psi) or its differences.

    Every model here has A = I + c e3': the identity except in its heading
    column, whose position entries (A[0,2], A[1,2]) are c. The heading
    itself moves only through B and K.
    """

    c: np.ndarray      # (2,) heading-column coupling
    b: np.ndarray      # (3,)
    k: np.ndarray      # (3,) affine drift per step


def _slip_column(state: VehicleState, params: VehicleParams, ts: float) -> np.ndarray:
    """B = ts * [-v*sin(psi+beta), v*cos(psi+beta), (v/lr)*cos(beta)] at the state."""
    if ts < 0.0:
        raise ValueError(f"sample time must be nonnegative, got {ts}")
    v = params.v
    heading = state.psi + state.beta
    return ts * np.array([
        -v * math.sin(heading),
        v * math.cos(heading),
        v / params.lr * math.cos(state.beta),
    ])


def linearize_initial(params: VehicleParams, ts: float) -> AffineLtiModel:
    """Fixed small-angle model about psi = beta = 0.

    With sin(a) ~ a and cos(a) ~ 1 the Euler step becomes

        x+   = x + v*ts                      (drift only)
        y+   = y + v*ts*psi + v*ts*beta
        psi+ = psi + (v*ts/lr)*beta

    so c = (0, v*ts). Input is the absolute slip angle. Valid while heading
    and slip stay small.
    """
    if ts < 0.0:
        raise ValueError(f"sample time must be nonnegative, got {ts}")
    c = params.v * ts
    return AffineLtiModel(c=np.array([0.0, c]), b=np.array([0.0, c, c / params.lr]),
                          k=np.array([c, 0.0, 0.0]))


def linearize_position(state: VehicleState, params: VehicleParams, ts: float) -> AffineLtiModel:
    """Affine expansion of the Euler step about the state's (psi, beta).

    A is the identity (c = 0): the expansion keeps the pose sensitivities
    in the input and drift columns,

        B = ts * [-v*sin(psi+beta), v*cos(psi+beta), (v/lr)*cos(beta)]
        K = ts * [ v*cos(psi+beta), v*sin(psi+beta), (v/lr)*sin(beta)]

    so the zero-input step reproduces the nonlinear step exactly when the
    plant sits at the operating point. Input is the slip change off beta.
    """
    b = _slip_column(state, params, ts)
    return AffineLtiModel(_UNCOUPLED, b, ts * ct_derivative(state, params))


def linearize_velocity(state: VehicleState, params: VehicleParams, ts: float) -> AffineLtiModel:
    """Difference-state expansion about the state's (psi, beta).

    Subtracting consecutive affine steps cancels the drift and promotes the
    heading difference to a state coupling equal to B's position rows:

        c = ts * [-v*sin(psi+beta), v*cos(psi+beta)] = B[:2]

    with B as in linearize_position. Input is the per-sample slip change;
    the drift K is zero.
    """
    b = _slip_column(state, params, ts)
    return AffineLtiModel(b[:2], b, _NO_DRIFT)
