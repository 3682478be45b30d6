"""JSON configuration loading and validation.

A configuration document has sections machine, scenario, noise, outliers,
filter, and init.  Angles cross the boundary in degrees and are converted
to radians here; everything inside the package is radians and per unit.
Validation is strict: unknown keys, wrong types, and out-of-range values
all raise ConfigError naming the offending key path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from typing import Any

from .errors import ConfigError, InvalidConfig, InvalidWindow
from .filters import HuberConfig
from .machine import (
    TORQUE_MODES,
    MachineInputs,
    MachineParams,
    MeasurementSigmas,
)
from .noise import (
    CAUCHY,
    CAUCHY_LOCATION_SIGMAS,
    CHANNELS,
    GAUSSIAN_BIASED,
    GAUSSIAN_WHITE,
    LAPLACE,
    NOISE_KINDS,
    SEED_LIMIT,
    NoiseSpec,
    OutlierSpec,
)
from .scenario import FaultSpec, InitSpec, ScenarioConfig, build_fault_profile

_REQUIRED = object()

# The JSON types each value kind accepts, and its name in messages.  A bool
# is an int to Python, but neither a number nor an integer here.
_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
}

# Bias magnitudes of the biased noise presets: 20 degrees on the angle
# channel, one percent of nominal speed on the speed channel.
PRESET_MU_DELTA = math.radians(20.0)
PRESET_MU_OMEGA = 0.01
# Each numbered preset's noise kind, and the locations of its angle and speed noise
NOISE_PRESETS = {
    1: (GAUSSIAN_WHITE, 0.0, 0.0),
    2: (GAUSSIAN_BIASED, PRESET_MU_DELTA, PRESET_MU_OMEGA),
    3: (LAPLACE, PRESET_MU_DELTA, PRESET_MU_OMEGA),
    4: (CAUCHY, PRESET_MU_DELTA, PRESET_MU_OMEGA),
}
# The keys that place each outlier manner, in window order: a single hit is
# the window (time, time)
OUTLIER_MANNERS = {"none": (), "single": ("time",), "window": ("t_start", "t_end")}

# scenario.sigmas key -> the MeasurementSigmas field it sets, and the
# conversion from the key's unit
_SIGMA_KEYS = {
    "delta_deg": ("sigma_delta", math.radians),
    "omega_pu": ("sigma_omega", float),
    "u_rel": ("sigma_u", float),
    "phi_deg": ("sigma_phi", math.radians),
}


def _check_keys(section: dict, path: str, allowed: tuple[str, ...]) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _section(doc: dict, path: str, required: bool = False) -> dict:
    """doc[key] for the last key of a dotted path; errors name the path."""
    key = path.rpartition(".")[2]
    if key not in doc:
        if required:
            raise ConfigError(path, "missing required section")
        return {}
    value = doc[key]
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _value(
    section: dict, path: str, key: str, default: Any = _REQUIRED, kind: type = float
) -> Any:
    """section[key] checked to be of the given kind (float, int or str), or
    the default when the key is absent; a float comes back finite."""
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    value = section[key]
    types, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}.{key}", f"expected {name}, got {value!r}")
    if kind is not float:
        return value
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _fields(cls, section: dict, path: str, skip: str = "", extra: tuple = ()) -> dict:
    """Every field of dataclass cls except skip, read from section as a
    number under its own name, in field order, and required unless the
    field has a default.  extra names further keys the section may hold."""
    read = [f for f in fields(cls) if f.name != skip]
    _check_keys(section, path, tuple(f.name for f in read) + extra)
    return {
        f.name: _value(section, path, f.name, _REQUIRED if f.default is MISSING else f.default)
        for f in read
    }


def _build(make, path: str, errors, **kwargs):
    """make(**kwargs), with the errors its own validation raises reported as
    a ConfigError at path."""
    try:
        return make(**kwargs)
    except errors as exc:
        raise ConfigError(path, str(exc)) from None


def _diag4(section: dict, path: str, key: str, default: tuple) -> tuple:
    if key not in section:
        return default
    value = section[key]
    if (
        not isinstance(value, list)
        or len(value) != 4
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(f"{path}.{key}", "expected a list of 4 numbers")
    # json.load reads NaN and Infinity literals
    if not all(math.isfinite(v) for v in value):
        raise ConfigError(f"{path}.{key}", f"expected finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


def load_config(path) -> dict:
    """Read and parse a JSON configuration file.

    Raises:
        ConfigError: the file is missing, unreadable (a directory, say, or
            not UTF-8 text) or not valid JSON.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "file not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read configuration: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")
    return doc


def noise_preset(preset: int, sigmas: MeasurementSigmas):
    """Per-channel noise specs of a row of NOISE_PRESETS: its kind at the
    angle and speed stds of sigmas, located where the row says.  The power
    channel is always synthesized from its propagated variance."""
    if preset not in NOISE_PRESETS:
        raise ConfigError("noise.preset", f"expected one of {tuple(NOISE_PRESETS)}, got {preset}")
    kind, *locations = NOISE_PRESETS[preset]
    # a Cauchy draw is located CAUCHY_LOCATION_SIGMAS stds above mu, so mu
    # takes that offset off to put the location where the row says
    offset = CAUCHY_LOCATION_SIGMAS if kind == CAUCHY else 0.0
    stds = (sigmas.sigma_delta, sigmas.sigma_omega)
    return (*(NoiseSpec(kind, s, at - offset * s) for s, at in zip(stds, locations)), None)


def _parse_machine(doc: dict) -> MachineParams:
    sec = _section(doc, "machine", required=True)
    # the section gives the electrical frequency in Hz in place of omega_0
    params = _fields(MachineParams, sec, "machine", skip="omega_0", extra=("f_hz",))
    omega_0 = 2.0 * math.pi * _value(sec, "machine", "f_hz", 60.0)
    return _build(MachineParams, "machine", ValueError, **params, omega_0=omega_0)


def _parse_sigmas(scenario: dict) -> MeasurementSigmas:
    sec = _section(scenario, "scenario.sigmas")
    _check_keys(sec, "scenario.sigmas", tuple(_SIGMA_KEYS))
    values = {
        name: convert(_value(sec, "scenario.sigmas", key))
        for key, (name, convert) in _SIGMA_KEYS.items()
        if key in sec
    }
    return _build(MeasurementSigmas, "scenario.sigmas", ValueError, **values)


def _parse_noise_channel(sec: dict, channel: str):
    path = f"noise.{channel}"
    spec = sec[channel]
    if channel == "pe":
        if spec == "auto":
            return None
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object (or \"auto\" for pe)")
    _check_keys(spec, path, ("kind", "sigma_deg", "mu_deg", "sigma_pu", "mu_pu"))
    kind = _value(spec, path, "kind", kind=str)
    if kind not in NOISE_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown noise kind {kind!r}")
    unit, convert = ("deg", math.radians) if channel == "delta" else ("pu", float)
    for key in spec:
        if key != "kind" and not key.endswith(unit):
            raise ConfigError(f"{path}.{key}", f"not applicable to channel {channel!r}")
    sigma = convert(_value(spec, path, f"sigma_{unit}"))
    mu = convert(_value(spec, path, f"mu_{unit}", 0.0))
    return _build(NoiseSpec, path, InvalidConfig, kind=kind, sigma=sigma, mu=mu)


def _parse_noise(doc: dict, sigmas: MeasurementSigmas):
    sec = _section(doc, "noise")
    if not sec:
        return noise_preset(1, sigmas)
    if "preset" in sec:
        _check_keys(sec, "noise", ("preset",))
        return noise_preset(_value(sec, "noise", "preset", kind=int), sigmas)
    _check_keys(sec, "noise", CHANNELS)
    for channel in ("delta", "omega"):
        if channel not in sec:
            raise ConfigError(f"noise.{channel}", "missing required value")
    # the power channel, when absent, is synthesized from its propagated variance
    return tuple(
        _parse_noise_channel(sec, channel) if channel in sec else None for channel in CHANNELS
    )


def _parse_outliers(doc: dict) -> OutlierSpec:
    sec = _section(doc, "outliers")
    defaults = OutlierSpec()
    if not sec:
        return defaults
    _check_keys(sec, "outliers", ("manner", "time", "t_start", "t_end", "channel", "scale"))
    manner = _value(sec, "outliers", "manner", kind=str)
    channel = _value(sec, "outliers", "channel", defaults.channel, str)
    if channel not in CHANNELS:
        raise ConfigError("outliers.channel", f"expected one of {CHANNELS}, got {channel!r}")
    scale = _value(sec, "outliers", "scale", defaults.scale)
    if manner not in OUTLIER_MANNERS:
        raise ConfigError("outliers.manner", f"expected none, single, or window, got {manner!r}")
    placement = OUTLIER_MANNERS[manner]
    for key in ("time", "t_start", "t_end"):
        if key in sec and key not in placement:
            raise ConfigError(f"outliers.{key}", f"not applicable to manner {manner!r}")
    times = [_value(sec, "outliers", key) for key in placement]
    window = (times[0], times[-1]) if times else None
    spec = _build(
        OutlierSpec, "outliers", (InvalidConfig, InvalidWindow),
        window=window, channel=channel, scale=scale,
    )
    if manner == "window" and window[0] == window[1]:
        raise ConfigError("outliers", f"window [{window[0]}, {window[1]}] is empty")
    return spec


def _parse_filter(doc: dict) -> tuple[HuberConfig, str]:
    sec = _section(doc, "filter")
    _check_keys(sec, "filter", ("huber_c", "reweight_passes", "torque_mode"))
    defaults = HuberConfig()
    c = _value(sec, "filter", "huber_c", defaults.c)
    passes = _value(sec, "filter", "reweight_passes", defaults.max_reweight_passes, int)
    if c <= 0.0:
        raise ConfigError("filter.huber_c", f"must be positive, got {c}")
    if passes < 1:
        raise ConfigError("filter.reweight_passes", f"must be at least 1, got {passes}")
    torque_mode = _value(sec, "filter", "torque_mode", TORQUE_MODES[0], str)
    if torque_mode not in TORQUE_MODES:
        raise ConfigError(
            "filter.torque_mode", f"expected one of {TORQUE_MODES}, got {torque_mode!r}"
        )
    return HuberConfig(c=c, max_reweight_passes=passes), torque_mode


def _parse_init(doc: dict) -> InitSpec:
    sec = _section(doc, "init")
    _check_keys(sec, "init", ("p0_diag", "q_diag", "eprime_bias"))
    defaults = InitSpec()
    return _build(
        InitSpec,
        "init",
        ValueError,
        p0_diag=_diag4(sec, "init", "p0_diag", defaults.p0_diag),
        q_diag=_diag4(sec, "init", "q_diag", defaults.q_diag),
        eprime_bias=_value(sec, "init", "eprime_bias", defaults.eprime_bias),
    )


def build_scenario(doc: dict) -> ScenarioConfig:
    """Validate a configuration document and assemble the scenario.

    Raises:
        ConfigError: any missing, unknown, mistyped, or out-of-range key.
    """
    _check_keys(doc, "<root>", ("machine", "scenario", "noise", "outliers", "filter", "init"))
    machine = _parse_machine(doc)
    sec = _section(doc, "scenario", required=True)
    _check_keys(sec, "scenario", ("dt", "t_end", "seed", "base_inputs", "fault", "sigmas"))
    dt = _value(sec, "scenario", "dt")
    t_end = _value(sec, "scenario", "t_end")
    seed = _value(sec, "scenario", "seed", kind=int)
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError("scenario.seed", f"must be in [0, 2**64), got {seed}")
    if dt <= 0.0:
        raise ConfigError("scenario.dt", f"must be positive, got {dt}")
    if t_end < dt:
        raise ConfigError("scenario.t_end", "must cover at least one step")

    base_sec = _section(sec, "scenario.base_inputs", required=True)
    inputs = _fields(MachineInputs, base_sec, "scenario.base_inputs")
    base = _build(MachineInputs, "scenario.base_inputs", ValueError, **inputs)

    fault = None
    if "fault" in sec and sec["fault"] is not None:
        spec = _fields(FaultSpec, _section(sec, "scenario.fault"), "scenario.fault")
        fault = _build(FaultSpec, "scenario.fault", InvalidWindow, **spec)

    sigmas = _parse_sigmas(sec)
    profile = _build(
        build_fault_profile, "scenario.fault", InvalidWindow, base=base, fault=fault, t_end=t_end
    )

    huber, torque_mode = _parse_filter(doc)
    # dt, t_end and torque_mode are checked above, under their own keys
    return ScenarioConfig(
        machine=machine,
        profile=profile,
        dt=dt,
        t_end=t_end,
        seed=seed,
        noise=_parse_noise(doc, sigmas),
        outliers=_parse_outliers(doc),
        sigmas=sigmas,
        init=_parse_init(doc),
        huber=huber,
        torque_mode=torque_mode,
    )


def default_config() -> dict:
    """Copy of the shipped default configuration document."""
    return {
        "machine": {
            "x_d": 1.8,
            "x_d_prime": 0.3,
            "x_q": 1.7,
            "x_q_prime": 0.55,
            "t_d0_prime": 8.0,
            "t_q0_prime": 0.4,
            "t_j": 13.0,
            "damping": 2.0,
            "f_hz": 60.0,
        },
        "scenario": {
            "dt": 0.02,
            "t_end": 20.0,
            "seed": 20260819,
            "base_inputs": {"t_m": 0.8, "e_f": 2.0, "u_t": 1.0, "phi": 0.0},
            "fault": {"t_on": 1.2, "duration": 0.08333, "u_t_dip": 0.35, "u_t_post": 0.95},
            "sigmas": {"delta_deg": 2.0, "omega_pu": 0.001, "u_rel": 0.001, "phi_deg": 0.1},
        },
        "noise": {"preset": 1},
        "outliers": {"manner": "none"},
        "filter": {
            "huber_c": 1.5,
            "reweight_passes": 1,
            "torque_mode": "power_equals_torque",
        },
        "init": {
            "p0_diag": [1e-2, 1e-4, 1e-2, 1e-2],
            "q_diag": [1e-6, 1e-6, 1e-6, 1e-6],
            "eprime_bias": 0.1,
        },
    }
