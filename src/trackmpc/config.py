"""Scenario configuration: plain key=value documents with [section] headers.

A scenario document describes one experiment: the reference path, the
vehicle, the controller family and its overrides, the disturbance, and
where to write outputs.  Every key has a documented default, so the empty
document is a valid scenario (straight path, baseline controller, no
disturbance).  Parse errors carry the offending line number.
"""

import math
from dataclasses import dataclass, field
from operator import attrgetter

from .controllers import VARIANTS, ControllerConfig, config_for
from .simulate import (
    DisturbanceSpec,
    ReferencePath,
    make_complete_path,
    make_sine_path,
    make_step_path,
    make_straight_path,
)
from .vehicle import ParameterError, VehicleParams

# path kind -> (its builder, the ScenarioConfig fields it takes besides ts and v)
_BUILDERS = {
    "straight": (make_straight_path, ("duration",)),
    "step": (make_step_path, ("amplitude", "duration")),
    "sine": (make_sine_path, ("amplitude", "wavelength", "duration")),
    "complete": (make_complete_path, ("lead_in", "amplitude", "wavelength", "periods", "tail")),
}
PATH_KINDS = tuple(_BUILDERS)

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
    alpha: float = ControllerConfig.alpha
    w_y: float = ControllerConfig.w_y
    w_u: float = ControllerConfig.w_u
    w_du: float = ControllerConfig.w_du
    rate_limit: float = ControllerConfig.rate_limit  # [rad/s]
    q_heading: float = ControllerConfig.q_heading
    u_target: float = ControllerConfig.u_target  # [rad]
    ts: float | None = None  # [s] override for every variant
    horizon: int | None = None
    control_horizon: int | None = None
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    out_dir: str = "out"

    def controller_config(self, variant: str) -> ControllerConfig:
        """Resolve the effective controller configuration for one variant."""
        return config_for(variant, **{name: getattr(self, name) for name in _CONTROLLER_ARGS})

    def build_path(self, ts: float) -> ReferencePath:
        """Construct the reference path for this scenario at sample time ts."""
        if self.kind not in _BUILDERS:
            raise ValueError(f"unknown path kind {self.kind!r}")
        builder, keys = _BUILDERS[self.kind]
        return builder(ts=ts, v=self.vehicle.v, **{key: getattr(self, key) for key in keys})


# Every document key in serialization order: (section, key) -> (coercion
# kind, ScenarioConfig attribute path).  Defaults live on the dataclasses
# the paths point at; scan, parse, serialize and overrides all walk this.
_FIELDS = {
    ("scenario", "name"): ("str", "name"),
    ("scenario", "kind"): ("str", "kind"),
    ("scenario", "duration"): ("float", "duration"),
    ("scenario", "amplitude"): ("float", "amplitude"),
    ("scenario", "wavelength"): ("float", "wavelength"),
    ("scenario", "lead_in"): ("float", "lead_in"),
    ("scenario", "periods"): ("int", "periods"),
    ("scenario", "tail"): ("float", "tail"),
    ("vehicle", "lf"): ("float", "vehicle.lf"),
    ("vehicle", "lr"): ("float", "vehicle.lr"),
    ("vehicle", "v"): ("float", "vehicle.v"),
    ("controller", "variant"): ("str", "variant"),
    ("controller", "variants"): ("list", "variants"),
    ("controller", "alpha"): ("float", "alpha"),
    ("controller", "w_y"): ("float", "w_y"),
    ("controller", "w_u"): ("float", "w_u"),
    ("controller", "w_du"): ("float", "w_du"),
    ("controller", "rate_limit"): ("float", "rate_limit"),
    ("controller", "q_heading"): ("float", "q_heading"),
    ("controller", "u_target"): ("float", "u_target"),
    ("controller", "ts"): ("float", "ts"),
    ("controller", "horizon"): ("int", "horizon"),
    ("controller", "control_horizon"): ("int", "control_horizon"),
    ("disturbance", "kind"): ("str", "disturbance.kind"),
    ("disturbance", "amplitude"): ("float", "disturbance.amplitude"),
    ("disturbance", "seed"): ("int", "disturbance.seed"),
    ("disturbance", "apply_to_x"): ("bool", "disturbance.apply_to_x"),
    ("output", "directory"): ("str", "out_dir"),
}
_SECTIONS = {section for section, _ in _FIELDS}
# the [controller] settings config_for takes: all but the variant choices
_CONTROLLER_ARGS = tuple(path for (section, key), (_, path) in _FIELDS.items()
                         if section == "controller" and key not in ("variant", "variants"))
# value -> document text per coercion kind; numbers use repr, which round-trips
_FORMATS = {"str": str, "list": ", ".join, "bool": lambda flag: "true" if flag else "false"}

# a checked parameter's document key, where not the key of its name in the record's section
_PARAMETER_KEYS = {"ts": ("controller", "ts"), "v": ("vehicle", "v")}

# [m] noise standard deviation once a disturbance kind is set without one
_NOISE_AMPLITUDE = 0.05

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
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(line, f"{key} expects {'an integer' if kind == 'int' else 'a number'}, got {raw!r}") from None
    # nan passes every range check (its comparisons are false) and inf
    # overflows path building; both would only fail mid-run (an int may be
    # too large for a float, but is finite)
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(line, f"{key} expects a finite number, got {raw!r}")
    return value


def _scan(text: str):
    """Yield (line_number, section, key, raw_value) for each assignment."""
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(lineno, f"expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(lineno, "key outside of any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if (section, key) not in _FIELDS:
            raise ConfigError(lineno, f"unknown key {key!r} in section [{section}]")
        yield lineno, section, key, raw


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario document into a validated ScenarioConfig.

    Unknown sections or keys, repeated keys, malformed values, and
    inconsistent settings all raise ConfigError with the offending line
    number.
    """
    values = {}  # (section, key) -> coerced value
    lines = {}  # (section, key) -> line number
    for lineno, section, key, raw in _scan(text):
        if (section, key) in lines:
            raise ConfigError(lineno, f"{key!r} in section [{section}] "
                                      f"is already set on line {lines[(section, key)]}")
        values[(section, key)] = _coerce(_FIELDS[(section, key)][0], raw, lineno, key)
        lines[(section, key)] = lineno
    return _build(values, lines)


def _build(values: dict, lines: dict) -> ScenarioConfig:
    """Validate (section, key) -> value pairs into a ScenarioConfig.

    A key missing from `values` takes the default of the dataclass field its
    attribute path names; `lines` holds the line that set each key.
    """
    def line_of(*keys):  # the last line, in document order, that sets one of keys; 0 if none
        return max((lines[key] for key in keys if key in lines), default=0)

    def rejected(exc: ParameterError, section: str, prefix: str = "") -> ConfigError:
        keys = (_PARAMETER_KEYS.get(name, (section, name)) for name in exc.names)
        return ConfigError(line_of(*keys), prefix + str(exc))

    fields = {"": {}, "vehicle": {}, "disturbance": {}}  # owner -> attribute -> value
    for (section, key), value in values.items():
        owner, _, attr = _FIELDS[(section, key)][1].rpartition(".")
        fields[owner][attr] = value
    top = fields[""]

    kind = top.get("kind", ScenarioConfig.kind)
    if kind not in PATH_KINDS:
        raise ConfigError(line_of(("scenario", "kind")),
                          f"kind must be one of {PATH_KINDS}, got {kind!r}")

    duration = top.setdefault("duration", KIND_DURATIONS.get(kind, ScenarioConfig.duration))
    if duration <= 0:
        raise ConfigError(line_of(("scenario", "duration")),
                          f"duration must be positive, got {duration}")

    for key in ("amplitude", "wavelength", "lead_in", "tail"):
        if top.get(key, 0.0) < 0:
            raise ConfigError(lines[("scenario", key)], f"{key} must be nonnegative, got {top[key]}")
    if top.get("wavelength") == 0:
        raise ConfigError(line_of(("scenario", "wavelength")), "wavelength must be positive")
    periods = top.get("periods", ScenarioConfig.periods)
    if periods < 1:
        raise ConfigError(line_of(("scenario", "periods")),
                          f"periods must be at least 1, got {periods}")

    try:
        top["vehicle"] = VehicleParams(**fields["vehicle"])
    except ParameterError as exc:
        raise rejected(exc, "vehicle") from None

    variant = top.get("variant", ScenarioConfig.variant)
    if variant not in VARIANTS:
        raise ConfigError(line_of(("controller", "variant")),
                          f"variant must be one of {VARIANTS}, got {variant!r}")
    variants = top.get("variants", ScenarioConfig.variants)
    for i, name in enumerate(variants):
        if name not in VARIANTS:
            raise ConfigError(line_of(("controller", "variants")),
                              f"unknown variant {name!r} in variants list")
        if name in variants[:i]:  # a second run would overwrite the first's trace
            raise ConfigError(line_of(("controller", "variants")),
                              f"variant {name!r} is listed twice in variants")

    disturbance = fields["disturbance"]
    if disturbance.get("kind", DisturbanceSpec.kind) != "none":
        disturbance.setdefault("amplitude", _NOISE_AMPLITUDE)
    try:
        top["disturbance"] = DisturbanceSpec(**disturbance)
    except ParameterError as exc:
        raise rejected(exc, "disturbance") from None

    cfg = ScenarioConfig(**top)

    # every variant's run builds its path, so build each one here: its builder
    # bounds its size and reach before any array. The run's span is the
    # duration, which the kind sets unless the document does, or for a complete
    # path its length, which its geometry and v set.
    span_keys = [("scenario", "duration" if ("scenario", "duration") in lines else "kind")]
    if kind == "complete":
        span_keys += [("scenario", key) for key in _BUILDERS["complete"][1]] + [("vehicle", "v")]
    paths = {}  # ts -> the path every variant at that sample time runs on
    for name in dict.fromkeys(tuple(variants) + (variant,)):
        try:
            ctrl = cfg.controller_config(name)
        except ParameterError as exc:
            raise rejected(exc, "controller", f"variant {name!r}: ") from None
        if ctrl.ts not in paths:
            try:
                paths[ctrl.ts] = cfg.build_path(ctrl.ts)
            except ParameterError as exc:
                raise rejected(exc, "scenario", f"variant {name!r}: ") from None
        span = (len(paths[ctrl.ts]) - 1) * ctrl.ts if kind == "complete" else duration
        horizon_span = ctrl.ts * ctrl.horizon
        if horizon_span > span + 1e-9:
            raise ConfigError(line_of(("controller", "ts"), ("controller", "horizon"), *span_keys),
                              f"variant {name!r}: prediction window {horizon_span:g} s "
                              f"exceeds the scenario duration {span:g} s")
    if kind == "complete" and ("scenario", "duration") in values:
        raise ConfigError(lines[("scenario", "duration")],
                          "complete scenarios derive duration from geometry; remove the key")
    return cfg


def _document_values(cfg: ScenarioConfig) -> dict:
    """(section, key) -> value for every key the normalized document holds."""
    values = {}
    for (section, key), (_, path) in _FIELDS.items():
        value = attrgetter(path)(cfg)
        if value is not None:  # unset per-variant overrides (ts, horizon, ...)
            values[(section, key)] = value
    if cfg.kind == "complete":
        del values[("scenario", "duration")]  # derived from geometry
    return values


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to document text (parse round-trips)."""
    out = []
    for (section, key), value in _document_values(cfg).items():
        if f"[{section}]" not in out:
            out += ["", f"[{section}]"]
        out.append(f"{key} = {_FORMATS.get(_FIELDS[(section, key)][0], repr)(value)}")
    return "\n".join(out[1:]) + "\n"  # no blank line before the first header


def apply_overrides(cfg: ScenarioConfig, assignments: list) -> ScenarioConfig:
    """Apply `section.key=value` override strings on top of a parsed config.

    Each value is coerced like a document value and replaces what the
    normalized document of `cfg` holds for its key; the last assignment to a
    key wins.  Errors are reported with line 0 (overrides have no source
    line) and name the assignments.
    """
    if not assignments:
        return cfg
    given = {}  # (section, key) -> raw value
    for item in assignments:
        head, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(0, f"override {item!r} must look like section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot:
            raise ConfigError(0, f"override key {head.strip()!r} must look like section.key")
        key = key.strip()
        if (section, key) not in _FIELDS:
            raise ConfigError(0, f"override targets unknown key [{section}] {key}")
        # a document cannot carry '#' (it starts a comment) or a line break,
        # so the value could not survive the manifest's config echo
        raw = raw.strip()
        if "#" in raw or len(raw.splitlines()) > 1:
            raise ConfigError(0, f"--set {item}: values cannot contain '#' or a line break")
        given[(section, key)] = raw
    try:
        values = _document_values(cfg)
        for (section, key), raw in given.items():
            values[(section, key)] = _coerce(_FIELDS[(section, key)][0], raw, 0, key)
        # carried-over values that were never the user's: a complete path
        # derives its own duration, and noise switched on gets the default
        # amplitude rather than the noise-free document's 0
        if values[("scenario", "kind")] == "complete" and ("scenario", "duration") not in given:
            values.pop(("scenario", "duration"), None)
        noise_on = cfg.disturbance.kind == "none" and values[("disturbance", "kind")] != "none"
        if noise_on and ("disturbance", "amplitude") not in given:
            values.pop(("disturbance", "amplitude"), None)
        return _build(values, dict.fromkeys(values, 0))
    except ConfigError as exc:
        raise ConfigError(0, f"--set {' '.join(assignments)}: {exc.message}") from None
