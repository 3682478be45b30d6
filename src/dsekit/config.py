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
from dataclasses import replace
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
    CHANNELS,
    GAUSSIAN_BIASED,
    GAUSSIAN_WHITE,
    LAPLACE,
    NoiseSpec,
    OutlierSpec,
)
from .scenario import FaultSpec, InitSpec, ScenarioConfig, build_fault_profile

_REQUIRED = object()

# Bias magnitudes of the biased noise presets: 20 degrees on the angle
# channel, one percent of nominal speed on the speed channel.
PRESET_MU_DELTA = math.radians(20.0)
PRESET_MU_OMEGA = 0.01
NOISE_PRESETS = (1, 2, 3, 4)


def _check_keys(section: dict, path: str, allowed: tuple[str, ...]) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _section(doc: dict, key: str, required: bool = False) -> dict:
    if key not in doc:
        if required:
            raise ConfigError(key, "missing required section")
        return {}
    value = doc[key]
    if not isinstance(value, dict):
        raise ConfigError(key, f"expected an object, got {type(value).__name__}")
    return value


def _num(section: dict, path: str, key: str, default: Any = _REQUIRED) -> float:
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _int(section: dict, path: str, key: str, default: Any = _REQUIRED) -> int:
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
    return value


def _str(section: dict, path: str, key: str, default: Any = _REQUIRED) -> str:
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    value = section[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


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
    """Per-channel noise specs for the numbered presets.

    1: zero-mean Gaussian on angle and speed.
    2: Gaussian with biases (20 degrees, 1 percent).
    3: Laplace, same biases and stds.
    4: Cauchy, scale equal to the channel std (location lands at bias).
    The power channel is always synthesized from its propagated variance.
    """
    if preset not in NOISE_PRESETS:
        raise ConfigError("noise.preset", f"expected one of {NOISE_PRESETS}, got {preset}")
    sd, so = sigmas.sigma_delta, sigmas.sigma_omega
    if preset == 1:
        return (
            NoiseSpec(GAUSSIAN_WHITE, sd),
            NoiseSpec(GAUSSIAN_WHITE, so),
            None,
        )
    if preset == 2:
        return (
            NoiseSpec(GAUSSIAN_BIASED, sd, PRESET_MU_DELTA),
            NoiseSpec(GAUSSIAN_BIASED, so, PRESET_MU_OMEGA),
            None,
        )
    if preset == 3:
        return (
            NoiseSpec(LAPLACE, sd, PRESET_MU_DELTA),
            NoiseSpec(LAPLACE, so, PRESET_MU_OMEGA),
            None,
        )
    return (
        NoiseSpec(CAUCHY, sd, PRESET_MU_DELTA - 10.0 * sd),
        NoiseSpec(CAUCHY, so, PRESET_MU_OMEGA - 10.0 * so),
        None,
    )


def _parse_machine(doc: dict) -> MachineParams:
    sec = _section(doc, "machine", required=True)
    _check_keys(
        sec,
        "machine",
        (
            "x_d", "x_d_prime", "x_q", "x_q_prime",
            "t_d0_prime", "t_q0_prime", "t_j", "damping", "f_hz",
        ),
    )
    try:
        return MachineParams(
            x_d=_num(sec, "machine", "x_d"),
            x_d_prime=_num(sec, "machine", "x_d_prime"),
            x_q=_num(sec, "machine", "x_q"),
            x_q_prime=_num(sec, "machine", "x_q_prime"),
            t_d0_prime=_num(sec, "machine", "t_d0_prime"),
            t_q0_prime=_num(sec, "machine", "t_q0_prime"),
            t_j=_num(sec, "machine", "t_j"),
            damping=_num(sec, "machine", "damping"),
            omega_0=2.0 * math.pi * _num(sec, "machine", "f_hz", 60.0),
        )
    except ValueError as exc:
        raise ConfigError("machine", str(exc)) from None


def _parse_sigmas(scenario: dict) -> MeasurementSigmas:
    sec = _section(scenario, "sigmas")
    _check_keys(sec, "scenario.sigmas", ("delta_deg", "omega_pu", "u_rel", "phi_deg"))
    try:
        return MeasurementSigmas(
            sigma_delta=math.radians(_num(sec, "scenario.sigmas", "delta_deg", 2.0)),
            sigma_omega=_num(sec, "scenario.sigmas", "omega_pu", 0.001),
            sigma_u=_num(sec, "scenario.sigmas", "u_rel", 0.001),
            sigma_phi=math.radians(_num(sec, "scenario.sigmas", "phi_deg", 0.1)),
        )
    except ValueError as exc:
        raise ConfigError("scenario.sigmas", str(exc)) from None


def _parse_noise_channel(sec: dict, path: str, channel: str):
    spec = sec[channel]
    if channel == "pe":
        if spec == "auto":
            return None
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object (or \"auto\" for pe)")
    _check_keys(spec, path, ("kind", "sigma_deg", "mu_deg", "sigma_pu", "mu_pu"))
    kind = _str(spec, path, "kind")
    if kind not in (GAUSSIAN_WHITE, GAUSSIAN_BIASED, LAPLACE, CAUCHY):
        raise ConfigError(f"{path}.kind", f"unknown noise kind {kind!r}")
    degrees = channel == "delta"
    sigma_key = "sigma_deg" if degrees else "sigma_pu"
    mu_key = "mu_deg" if degrees else "mu_pu"
    for wrong in (("sigma_pu", "mu_pu") if degrees else ("sigma_deg", "mu_deg")):
        if wrong in spec:
            raise ConfigError(f"{path}.{wrong}", f"not applicable to channel {channel!r}")
    sigma = _num(spec, path, sigma_key)
    mu = _num(spec, path, mu_key, 0.0)
    if degrees:
        sigma = math.radians(sigma)
        mu = math.radians(mu)
    try:
        return NoiseSpec(kind=kind, sigma=sigma, mu=mu)
    except InvalidConfig as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_noise(doc: dict, sigmas: MeasurementSigmas):
    sec = _section(doc, "noise")
    if not sec:
        return noise_preset(1, sigmas)
    if "preset" in sec:
        _check_keys(sec, "noise", ("preset",))
        return noise_preset(_int(sec, "noise", "preset"), sigmas)
    _check_keys(sec, "noise", ("delta", "omega", "pe"))
    for channel in ("delta", "omega"):
        if channel not in sec:
            raise ConfigError(f"noise.{channel}", "missing required value")
    specs = [
        _parse_noise_channel(sec, "noise.delta", "delta"),
        _parse_noise_channel(sec, "noise.omega", "omega"),
    ]
    if "pe" in sec:
        specs.append(_parse_noise_channel(sec, "noise.pe", "pe"))
    else:
        specs.append(None)
    return tuple(specs)


def _parse_outliers(doc: dict) -> OutlierSpec:
    sec = _section(doc, "outliers")
    if not sec:
        return OutlierSpec.none()
    _check_keys(sec, "outliers", ("manner", "time", "t_start", "t_end", "channel", "scale"))
    manner = _str(sec, "outliers", "manner")
    channel = _str(sec, "outliers", "channel", "omega")
    if channel not in CHANNELS:
        raise ConfigError("outliers.channel", f"expected one of {CHANNELS}, got {channel!r}")
    scale = _num(sec, "outliers", "scale", 1.1)
    try:
        if manner == "none":
            return OutlierSpec.none()
        if manner == "single":
            return OutlierSpec.single_at(
                _num(sec, "outliers", "time"), channel=channel, scale=scale
            )
        if manner == "window":
            return OutlierSpec.window(
                _num(sec, "outliers", "t_start"),
                _num(sec, "outliers", "t_end"),
                channel=channel,
                scale=scale,
            )
    except (InvalidConfig, InvalidWindow) as exc:
        raise ConfigError("outliers", str(exc)) from None
    raise ConfigError("outliers.manner", f"expected none, single, or window, got {manner!r}")


def _parse_filter(doc: dict) -> tuple[HuberConfig, str]:
    sec = _section(doc, "filter")
    _check_keys(sec, "filter", ("huber_c", "reweight_passes", "torque_mode"))
    c = _num(sec, "filter", "huber_c", 1.5)
    passes = _int(sec, "filter", "reweight_passes", 1)
    if c <= 0.0:
        raise ConfigError("filter.huber_c", f"must be positive, got {c}")
    if passes < 1:
        raise ConfigError("filter.reweight_passes", f"must be at least 1, got {passes}")
    torque_mode = _str(sec, "filter", "torque_mode", TORQUE_MODES[0])
    if torque_mode not in TORQUE_MODES:
        raise ConfigError(
            "filter.torque_mode", f"expected one of {TORQUE_MODES}, got {torque_mode!r}"
        )
    return HuberConfig(c=c, max_reweight_passes=passes), torque_mode


def _parse_init(doc: dict) -> InitSpec:
    sec = _section(doc, "init")
    _check_keys(sec, "init", ("p0_diag", "q_diag", "eprime_bias"))
    defaults = InitSpec()
    try:
        return InitSpec(
            p0_diag=_diag4(sec, "init", "p0_diag", defaults.p0_diag),
            q_diag=_diag4(sec, "init", "q_diag", defaults.q_diag),
            eprime_bias=_num(sec, "init", "eprime_bias", defaults.eprime_bias),
        )
    except ValueError as exc:
        raise ConfigError("init", str(exc)) from None


def build_scenario(doc: dict) -> ScenarioConfig:
    """Validate a configuration document and assemble the scenario.

    Raises:
        ConfigError: any missing, unknown, mistyped, or out-of-range key.
    """
    _check_keys(doc, "<root>", ("machine", "scenario", "noise", "outliers", "filter", "init"))
    machine = _parse_machine(doc)
    sec = _section(doc, "scenario", required=True)
    _check_keys(sec, "scenario", ("dt", "t_end", "seed", "base_inputs", "fault", "sigmas"))
    dt = _num(sec, "scenario", "dt")
    t_end = _num(sec, "scenario", "t_end")
    seed = _int(sec, "scenario", "seed")
    if dt <= 0.0:
        raise ConfigError("scenario.dt", f"must be positive, got {dt}")
    if t_end < dt:
        raise ConfigError("scenario.t_end", "must cover at least one step")

    base_sec = _section(sec, "base_inputs", required=True)
    _check_keys(base_sec, "scenario.base_inputs", ("t_m", "e_f", "u_t", "phi"))
    try:
        base = MachineInputs(
            t_m=_num(base_sec, "scenario.base_inputs", "t_m"),
            e_f=_num(base_sec, "scenario.base_inputs", "e_f"),
            u_t=_num(base_sec, "scenario.base_inputs", "u_t"),
            phi=_num(base_sec, "scenario.base_inputs", "phi"),
        )
    except ValueError as exc:
        raise ConfigError("scenario.base_inputs", str(exc)) from None

    fault = None
    if "fault" in sec and sec["fault"] is not None:
        fault_sec = _section(sec, "fault")
        _check_keys(
            fault_sec,
            "scenario.fault",
            ("t_on", "duration", "u_t_dip", "u_t_post", "duration_partial", "u_t_partial"),
        )
        try:
            fault = FaultSpec(
                t_on=_num(fault_sec, "scenario.fault", "t_on"),
                duration=_num(fault_sec, "scenario.fault", "duration"),
                u_t_dip=_num(fault_sec, "scenario.fault", "u_t_dip"),
                u_t_post=_num(fault_sec, "scenario.fault", "u_t_post"),
                duration_partial=_num(fault_sec, "scenario.fault", "duration_partial", None),
                u_t_partial=_num(fault_sec, "scenario.fault", "u_t_partial", None),
            )
        except InvalidWindow as exc:
            raise ConfigError("scenario.fault", str(exc)) from None

    sigmas = _parse_sigmas(sec)
    try:
        profile = build_fault_profile(base, fault, t_end)
    except InvalidWindow as exc:
        raise ConfigError("scenario.fault", str(exc)) from None

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


def with_noise_preset(cfg: ScenarioConfig, preset: int) -> ScenarioConfig:
    return replace(cfg, noise=noise_preset(preset, cfg.sigmas))


def with_outliers(cfg: ScenarioConfig, spec: OutlierSpec) -> ScenarioConfig:
    return replace(cfg, outliers=spec)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, seed=seed)


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
