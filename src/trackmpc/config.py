"""Scenario configuration: plain key=value documents with [section] headers.

A scenario document describes one experiment: the reference path, the
vehicle, the controller family and its overrides, the disturbance, and
where to write outputs.  Every key has a documented default, so the empty
document is a valid scenario (straight path, baseline controller, no
disturbance).  Parse errors carry the offending line number.
"""

from dataclasses import dataclass, field

from .controllers import (
    DEFAULT_ALPHA,
    DEFAULT_RATE_LIMIT,
    VARIANTS,
    ControllerConfig,
    config_for,
)
from .simulate import (
    DisturbanceSpec,
    ReferencePath,
    make_complete_path,
    make_sine_path,
    make_step_path,
    make_straight_path,
)
from .vehicle import DEFAULT_LF, DEFAULT_LR, DEFAULT_SPEED, VehicleParams

PATH_KINDS = ("straight", "step", "sine", "complete")

# default simulated duration per path kind [s]; the complete path derives
# its duration from the geometry and speed instead
KIND_DURATIONS = {"straight": 30.0, "step": 6.0, "sine": 8.0}


class ConfigError(ValueError):
    """Scenario document rejected; message carries the offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved experiment description."""

    name: str = "scenario"
    kind: str = "straight"
    duration: float = 30.0  # [s]; ignored for kind=complete (derived)
    amplitude: float = 1.0  # [m] step height or sine amplitude
    wavelength: float = 40.0  # [m] sine wavelength
    lead_in: float = 50.0  # [m] complete-path entry straight
    periods: int = 2  # complete-path sine periods
    tail: float = 50.0  # [m] complete-path exit straight
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    variant: str = "baseline"
    variants: tuple = VARIANTS
    alpha: float = DEFAULT_ALPHA
    w_y: float = 10.0
    w_u: float = 0.0
    w_du: float = 0.1
    rate_limit: float = DEFAULT_RATE_LIMIT  # [rad/s]
    q_heading: float = 0.0
    u_target: float = 0.0  # [rad]
    ts: float | None = None  # [s] override for every variant
    horizon: int | None = None
    control_horizon: int | None = None
    disturbance: DisturbanceSpec = field(
        default_factory=lambda: DisturbanceSpec(kind="none", amplitude=0.0, seed=0)
    )
    out_dir: str = "out"

    def controller_config(self, variant: str) -> ControllerConfig:
        """Resolve the effective controller configuration for one variant."""
        return config_for(
            variant,
            alpha=self.alpha,
            w_y=self.w_y,
            w_u=self.w_u,
            w_du=self.w_du,
            rate_limit=self.rate_limit,
            ts=self.ts,
            horizon=self.horizon,
            control_horizon=self.control_horizon,
            q_heading=self.q_heading,
            u_target=self.u_target,
        )

    def build_path(self, ts: float) -> ReferencePath:
        """Construct the reference path for this scenario at sample time ts."""
        v = self.vehicle.v
        if self.kind == "straight":
            return make_straight_path(self.duration, ts, v)
        if self.kind == "step":
            return make_step_path(self.amplitude, self.duration, ts, v)
        if self.kind == "sine":
            return make_sine_path(self.amplitude, self.wavelength, self.duration, ts, v)
        if self.kind == "complete":
            return make_complete_path(
                ts,
                v,
                lead_in=self.lead_in,
                amplitude=self.amplitude,
                wavelength=self.wavelength,
                periods=self.periods,
                tail=self.tail,
            )
        raise ValueError(f"unknown path kind {self.kind!r}")


# schema: section -> key -> coercion kind
_SCHEMA = {
    "scenario": {
        "name": "str",
        "kind": "str",
        "duration": "float",
        "amplitude": "float",
        "wavelength": "float",
        "lead_in": "float",
        "periods": "int",
        "tail": "float",
    },
    "vehicle": {"lf": "float", "lr": "float", "v": "float"},
    "controller": {
        "variant": "str",
        "variants": "list",
        "alpha": "float",
        "w_y": "float",
        "w_u": "float",
        "w_du": "float",
        "rate_limit": "float",
        "q_heading": "float",
        "u_target": "float",
        "ts": "float",
        "horizon": "int",
        "control_horizon": "int",
    },
    "disturbance": {
        "kind": "str",
        "amplitude": "float",
        "seed": "int",
        "apply_to_x": "bool",
    },
    "output": {"directory": "str"},
}

_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "on": True,
    "1": True,
    "false": False,
    "no": False,
    "off": False,
    "0": False,
}


def _coerce(kind: str, raw: str, line: int, key: str):
    if kind == "str":
        return raw
    if kind == "list":
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigError(line, f"{key} must list at least one item")
        return tuple(items)
    if kind == "bool":
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(line, f"{key} expects true/false, got {raw!r}")
        return _BOOL_WORDS[word]
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(line, f"{key} expects {'an integer' if kind == 'int' else 'a number'}, got {raw!r}") from None


def _scan(text: str):
    """Yield (line_number, section, key, raw_value) for each assignment."""
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(lineno, f"expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(lineno, "key outside of any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(lineno, f"unknown key {key!r} in section [{section}]")
        yield lineno, section, key, raw


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario document into a validated ScenarioConfig.

    Unknown sections or keys, malformed values, and inconsistent settings
    all raise ConfigError with the offending line number.
    """
    values = {}  # (section, key) -> coerced value
    lines = {}  # (section, key) -> line number
    duration_given = False
    for lineno, section, key, raw in _scan(text):
        values[(section, key)] = _coerce(_SCHEMA[section][key], raw, lineno, key)
        lines[(section, key)] = lineno
        if (section, key) == ("scenario", "duration"):
            duration_given = True

    def got(section, key, default):
        return values.get((section, key), default)

    def line_of(*candidates):
        for section, key in candidates:
            if (section, key) in lines:
                return lines[(section, key)]
        return 0

    kind = got("scenario", "kind", "straight")
    if kind not in PATH_KINDS:
        raise ConfigError(line_of(("scenario", "kind")),
                          f"kind must be one of {PATH_KINDS}, got {kind!r}")

    duration = got("scenario", "duration", KIND_DURATIONS.get(kind, 30.0))
    if duration <= 0:
        raise ConfigError(line_of(("scenario", "duration")),
                          f"duration must be positive, got {duration}")

    for key in ("amplitude", "wavelength", "lead_in", "tail"):
        val = got("scenario", key, None)
        if val is not None and val < 0:
            raise ConfigError(lines[("scenario", key)], f"{key} must be nonnegative, got {val}")
    wavelength = got("scenario", "wavelength", 40.0)
    if wavelength == 0:
        raise ConfigError(line_of(("scenario", "wavelength")), "wavelength must be positive")
    periods = got("scenario", "periods", 2)
    if periods < 1:
        raise ConfigError(line_of(("scenario", "periods")),
                          f"periods must be at least 1, got {periods}")

    try:
        vehicle = VehicleParams(
            lf=got("vehicle", "lf", DEFAULT_LF),
            lr=got("vehicle", "lr", DEFAULT_LR),
            v=got("vehicle", "v", DEFAULT_SPEED),
        )
    except ValueError as exc:
        raise ConfigError(line_of(("vehicle", "lf"), ("vehicle", "lr"), ("vehicle", "v")),
                          str(exc)) from None

    variant = got("controller", "variant", "baseline")
    if variant not in VARIANTS:
        raise ConfigError(line_of(("controller", "variant")),
                          f"variant must be one of {VARIANTS}, got {variant!r}")
    variants = got("controller", "variants", VARIANTS)
    for name in variants:
        if name not in VARIANTS:
            raise ConfigError(line_of(("controller", "variants")),
                              f"unknown variant {name!r} in variants list")

    dist_kind = got("disturbance", "kind", "none")
    try:
        disturbance = DisturbanceSpec(
            kind=dist_kind,
            amplitude=got("disturbance", "amplitude", 0.05 if dist_kind != "none" else 0.0),
            seed=got("disturbance", "seed", 0),
            apply_to_x=got("disturbance", "apply_to_x", False),
        )
    except ValueError as exc:
        raise ConfigError(line_of(("disturbance", "kind"), ("disturbance", "amplitude"),
                                  ("disturbance", "seed")), str(exc)) from None

    cfg = ScenarioConfig(
        name=got("scenario", "name", "scenario"),
        kind=kind,
        duration=duration,
        amplitude=got("scenario", "amplitude", 1.0),
        wavelength=wavelength,
        lead_in=got("scenario", "lead_in", 50.0),
        periods=periods,
        tail=got("scenario", "tail", 50.0),
        vehicle=vehicle,
        variant=variant,
        variants=tuple(variants),
        alpha=got("controller", "alpha", DEFAULT_ALPHA),
        w_y=got("controller", "w_y", 10.0),
        w_u=got("controller", "w_u", 0.0),
        w_du=got("controller", "w_du", 0.1),
        rate_limit=got("controller", "rate_limit", DEFAULT_RATE_LIMIT),
        q_heading=got("controller", "q_heading", 0.0),
        u_target=got("controller", "u_target", 0.0),
        ts=got("controller", "ts", None),
        horizon=got("controller", "horizon", None),
        control_horizon=got("controller", "control_horizon", None),
        disturbance=disturbance,
        out_dir=got("output", "directory", "out"),
    )

    try:
        span = _scenario_span(cfg)
    except ValueError as exc:
        raise ConfigError(line_of(("scenario", "lead_in"), ("scenario", "tail"),
                                  ("scenario", "kind")), str(exc)) from None

    # controller-level validation, anchored to the most specific line set
    anchor = line_of(("controller", "ts"), ("controller", "horizon"),
                     ("controller", "control_horizon"), ("controller", "rate_limit"),
                     ("controller", "alpha"), ("controller", "w_y"),
                     ("controller", "w_u"), ("controller", "w_du"))
    for name in dict.fromkeys(tuple(variants) + (variant,)):
        try:
            ctrl = cfg.controller_config(name)
        except ValueError as exc:
            raise ConfigError(anchor, f"variant {name!r}: {exc}") from None
        horizon_span = ctrl.ts * ctrl.horizon
        if horizon_span > span + 1e-9:
            raise ConfigError(
                line_of(("controller", "ts"), ("controller", "horizon"),
                        ("scenario", "duration"), ("scenario", "kind")),
                f"variant {name!r}: prediction window {horizon_span:g} s "
                f"exceeds the scenario duration {span:g} s",
            )
    if duration_given and kind == "complete":
        raise ConfigError(lines[("scenario", "duration")],
                          "complete scenarios derive duration from geometry; remove the key")
    return cfg


def _scenario_span(cfg: ScenarioConfig) -> float:
    """Simulated duration of the scenario [s] (derived for complete paths)."""
    if cfg.kind != "complete":
        return cfg.duration
    path = cfg.build_path(0.05)
    return float(path.t[-1])


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to document text (parse round-trips)."""
    dist = cfg.disturbance
    out = [
        "[scenario]",
        f"name = {cfg.name}",
        f"kind = {cfg.kind}",
        f"amplitude = {cfg.amplitude!r}",
        f"wavelength = {cfg.wavelength!r}",
        f"lead_in = {cfg.lead_in!r}",
        f"periods = {cfg.periods}",
        f"tail = {cfg.tail!r}",
    ]
    if cfg.kind != "complete":
        out.insert(3, f"duration = {cfg.duration!r}")
    out += [
        "",
        "[vehicle]",
        f"lf = {cfg.vehicle.lf!r}",
        f"lr = {cfg.vehicle.lr!r}",
        f"v = {cfg.vehicle.v!r}",
        "",
        "[controller]",
        f"variant = {cfg.variant}",
        f"variants = {', '.join(cfg.variants)}",
        f"alpha = {cfg.alpha!r}",
        f"w_y = {cfg.w_y!r}",
        f"w_u = {cfg.w_u!r}",
        f"w_du = {cfg.w_du!r}",
        f"rate_limit = {cfg.rate_limit!r}",
        f"q_heading = {cfg.q_heading!r}",
        f"u_target = {cfg.u_target!r}",
    ]
    if cfg.ts is not None:
        out.append(f"ts = {cfg.ts!r}")
    if cfg.horizon is not None:
        out.append(f"horizon = {cfg.horizon}")
    if cfg.control_horizon is not None:
        out.append(f"control_horizon = {cfg.control_horizon}")
    out += [
        "",
        "[disturbance]",
        f"kind = {dist.kind}",
        f"amplitude = {dist.amplitude!r}",
        f"seed = {dist.seed}",
        f"apply_to_x = {'true' if dist.apply_to_x else 'false'}",
        "",
        "[output]",
        f"directory = {cfg.out_dir}",
        "",
    ]
    return "\n".join(out)


def apply_overrides(cfg: ScenarioConfig, assignments: list) -> ScenarioConfig:
    """Apply `section.key=value` override strings on top of a parsed config.

    Overrides reuse the document schema; errors are reported with line 0
    (they have no source line) and name the assignments.
    """
    if not assignments:
        return cfg
    text = serialize_config(cfg)
    doc = {}
    for item in assignments:
        head, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(0, f"override {item!r} must look like section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot:
            raise ConfigError(0, f"override key {head.strip()!r} must look like section.key")
        doc[(section, key.strip())] = raw.strip()

    # rewrite the serialized document with the overrides applied, adding
    # keys that the serializer omitted (e.g. ts when unset)
    lines = text.splitlines()
    rewritten = []
    section = None
    pending = dict(doc)
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            # flush keys destined for the section we are leaving
            rewritten.extend(_flush_pending(pending, section))
            section = stripped[1:-1]
            rewritten.append(line)
            continue
        if "=" in stripped and not stripped.startswith("#"):
            key = stripped.partition("=")[0].strip()
            if (section, key) in pending:
                rewritten.append(f"{key} = {pending.pop((section, key))}")
                continue
        rewritten.append(line)
    rewritten.extend(_flush_pending(pending, section))
    for (section, key), raw in pending.items():
        raise ConfigError(0, f"override targets unknown key [{section}] {key}")
    try:
        return parse_config("\n".join(rewritten))
    except ConfigError as exc:
        # cfg was valid, so the overrides broke it; a line of the
        # re-serialized document would point at nothing the user wrote
        raise ConfigError(0, f"--set {' '.join(assignments)}: {exc.message}") from None


def _flush_pending(pending: dict, section) -> list:
    emitted = []
    if section is None:
        return emitted
    for (sec, key) in list(pending):
        if sec == section:
            emitted.append(f"{key} = {pending.pop((sec, key))}")
    return emitted
