"""Trajectory-tracking MPC testbed for a kinematic bicycle vehicle."""

from .vehicle import (
    VehicleParams,
    VehicleState,
    ct_derivative,
    steer_from_slip,
    step_nonlinear,
)
from .linearize import (
    AffineLtiModel,
    linearize_initial,
    linearize_position,
    linearize_velocity,
)
from .qp import (
    HorizonWeights,
    PredictionMatrices,
    QpSolution,
    TrackingQp,
    build_prediction,
    build_tracking_qp,
    move_box,
    solve_box_qp,
)
from .controllers import (
    CONTROLLER_STEPS,
    DEFAULT_ALPHA,
    DEFAULT_RATE_LIMIT,
    VARIANTS,
    ControlError,
    ControllerConfig,
    ControllerState,
    config_for,
    generate_delta_refs,
    horizon_weights,
    init_state,
)
from .simulate import (
    DisturbanceSpec,
    ReferencePath,
    SimResult,
    default_initial_state,
    gaussian_noise,
    make_complete_path,
    make_sine_path,
    make_step_path,
    make_straight_path,
    run_closed_loop,
    ssd_from_traces,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)

__version__ = "0.1.0"
