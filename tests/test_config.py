"""Tests for JSON configuration parsing and validation."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from dsekit.config import (
    PRESET_MU_DELTA,
    PRESET_MU_OMEGA,
    build_scenario,
    default_config,
    load_config,
    noise_preset,
)
from dsekit.errors import ConfigError, InvalidConfig, InvalidWindow
from dsekit.harness import manner_outliers
from dsekit.machine import MeasurementSigmas
from dsekit.noise import (
    CAUCHY,
    CAUCHY_LOCATION_SIGMAS,
    GAUSSIAN_BIASED,
    GAUSSIAN_WHITE,
    LAPLACE,
    NoiseSpec,
    OutlierSpec,
)
from dsekit.scenario import FaultSpec, InitSpec

ROOT = Path(__file__).resolve().parent.parent


def build(mutate=None):
    doc = default_config()
    if mutate is not None:
        mutate(doc)
    return build_scenario(doc)


NAN = math.nan
FAULT = dict(t_on=1.0, duration=0.1, u_t_dip=0.3, u_t_post=0.9)


# Each bound is written so that a NaN fails it, as a comparison with NaN
# is false whichever way it points.
@pytest.mark.parametrize(
    "make, error",
    [
        pytest.param(lambda: replace(build().machine, damping=NAN), ValueError, id="damping"),
        pytest.param(lambda: MeasurementSigmas(sigma_delta=NAN), ValueError, id="sigma_delta"),
        pytest.param(lambda: MeasurementSigmas(sigma_omega=NAN), ValueError, id="sigma_omega"),
        pytest.param(lambda: MeasurementSigmas(sigma_u=NAN), ValueError, id="sigma_u"),
        pytest.param(lambda: MeasurementSigmas(sigma_phi=NAN), ValueError, id="sigma_phi"),
        pytest.param(lambda: InitSpec(p0_diag=(NAN, 1.0, 1.0, 1.0)), ValueError, id="p0_diag"),
        pytest.param(lambda: InitSpec(q_diag=(1.0, 1.0, 1.0, NAN)), ValueError, id="q_diag"),
        pytest.param(lambda: FaultSpec(**{**FAULT, "t_on": NAN}), InvalidWindow, id="t_on"),
        pytest.param(
            lambda: FaultSpec(**{**FAULT, "duration": NAN}), InvalidWindow, id="duration"
        ),
        pytest.param(lambda: FaultSpec(**{**FAULT, "u_t_dip": NAN}), InvalidWindow, id="u_t_dip"),
        pytest.param(
            lambda: FaultSpec(**{**FAULT, "u_t_post": NAN}), InvalidWindow, id="u_t_post"
        ),
        pytest.param(
            lambda: FaultSpec(**FAULT, duration_partial=0.05, u_t_partial=NAN),
            InvalidWindow,
            id="u_t_partial",
        ),
        pytest.param(lambda: NoiseSpec(LAPLACE, NAN), InvalidConfig, id="noise_sigma"),
        pytest.param(lambda: OutlierSpec(scale=NAN), InvalidConfig, id="outlier_scale"),
        pytest.param(lambda: replace(build(), t_end=NAN), ValueError, id="t_end"),
    ],
)
def test_records_reject_nan_bounds(make, error):
    with pytest.raises(error):
        make()


def inputs_at(cfg, t):
    """The (t_m, e_f, u_t, phi) row of a scenario's input profile at time t."""
    return tuple(cfg.profile.as_array([t])[0])


def expect_error(key_fragment, mutate):
    with pytest.raises(ConfigError) as info:
        build(mutate)
    assert key_fragment in info.value.key
    return info.value


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(default_config()))
        cfg = build_scenario(load_config(path))
        assert cfg.dt == 0.02
        assert cfg.seed == 20260819

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_config(path)


class TestDefaults:
    def test_default_document_builds(self):
        cfg = build()
        assert cfg.t_end == 20.0
        assert cfg.machine.x_d == 1.8
        assert cfg.machine.omega_0 == pytest.approx(2.0 * math.pi * 60.0, abs=0.0)
        assert cfg.sigmas.sigma_delta == pytest.approx(math.radians(2.0), abs=0.0)
        assert cfg.sigmas.sigma_phi == pytest.approx(math.radians(0.1), abs=0.0)
        assert cfg.noise[0].kind == GAUSSIAN_WHITE
        assert cfg.noise[2] is None
        assert cfg.outliers.manner == "none"
        assert cfg.huber.c == 1.5
        assert cfg.huber.max_reweight_passes == 1
        assert cfg.torque_mode == "power_equals_torque"
        assert cfg.init.eprime_bias == 0.1

    def test_optional_sections_may_be_absent(self):
        doc = default_config()
        for key in ("noise", "outliers", "filter", "init"):
            del doc[key]
        cfg = build_scenario(doc)
        assert cfg.noise[0].kind == GAUSSIAN_WHITE
        assert cfg.huber.c == 1.5

    def test_error_message_names_the_key(self):
        err = expect_error("machine.x_d", lambda d: d["machine"].pop("x_d"))
        assert "config key 'machine.x_d'" in str(err)
        assert "missing" in str(err)


class TestKeyValidation:
    def test_unknown_root_key(self):
        expect_error("bogus", lambda d: d.update(bogus={}))

    def test_unknown_machine_key(self):
        expect_error("machine.x_z", lambda d: d["machine"].update(x_z=1.0))

    def test_unknown_scenario_key(self):
        expect_error("scenario.speed", lambda d: d["scenario"].update(speed=1.0))

    def test_string_where_number_expected(self):
        expect_error("machine.x_d", lambda d: d["machine"].update(x_d="big"))

    def test_bool_rejected_as_number(self):
        expect_error("machine.x_d", lambda d: d["machine"].update(x_d=True))

    def test_non_finite_number(self):
        expect_error("machine.x_d", lambda d: d["machine"].update(x_d=math.inf))

    def test_float_where_int_expected(self):
        expect_error("scenario.seed", lambda d: d["scenario"].update(seed=1.5))

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_outside_64_bits(self, seed):
        err = expect_error("scenario.seed", lambda d: d["scenario"].update(seed=seed))
        assert str(err).endswith(f"must be in [0, 2**64), got {seed}")

    def test_section_must_be_object(self):
        expect_error("machine", lambda d: d.update(machine=[1, 2]))

    def test_missing_machine_section(self):
        err = expect_error("machine", lambda d: d.pop("machine"))
        assert err.key == "machine"
        assert "missing required section" in str(err)

    def test_missing_seed(self):
        err = expect_error("scenario.seed", lambda d: d["scenario"].pop("seed"))
        assert "missing required value" in str(err)

    def test_string_expected(self):
        err = expect_error(
            "noise.delta.kind",
            lambda d: d.update(
                noise={
                    "delta": {"kind": 1, "sigma_deg": 2.0},
                    "omega": {"kind": "gaussian_white", "sigma_pu": 0.001},
                }
            ),
        )
        assert "expected a string, got 1" in str(err)


class TestScenarioSection:
    def test_dt_must_be_positive(self):
        expect_error("scenario.dt", lambda d: d["scenario"].update(dt=0.0))

    def test_t_end_must_cover_a_step(self):
        expect_error("scenario.t_end", lambda d: d["scenario"].update(t_end=0.01))

    def test_negative_machine_parameter(self):
        expect_error("machine", lambda d: d["machine"].update(t_j=-1.0))

    def test_fault_may_be_null(self):
        cfg = build(lambda d: d["scenario"].update(fault=None))
        # the base inputs hold throughout
        assert inputs_at(cfg, 5.0) == (0.8, 2.0, 1.0, 0.0)

    def test_fault_outside_horizon(self):
        expect_error(
            "scenario.fault",
            lambda d: d["scenario"]["fault"].update(t_on=19.99),
        )

    def test_fault_validation_propagates(self):
        expect_error(
            "scenario.fault",
            lambda d: d["scenario"]["fault"].update(duration=-1.0),
        )

    def test_staged_fault_parsed(self):
        cfg = build(
            lambda d: d["scenario"]["fault"].update(
                duration=0.1, duration_partial=0.05, u_t_partial=0.7
            )
        )
        assert inputs_at(cfg, 1.26) == (0.8, 2.0, 0.7, 0.0)

    def test_staged_fault_needs_both_keys(self):
        expect_error(
            "scenario.fault",
            lambda d: d["scenario"]["fault"].update(duration_partial=0.04),
        )

    @pytest.mark.parametrize("key", ["delta_deg", "omega_pu"])
    def test_measurement_sigma_must_be_positive(self, key):
        err = expect_error("scenario.sigmas", lambda d: d["scenario"]["sigmas"].update({key: 0}))
        assert err.key == "scenario.sigmas"
        assert "must be positive" in str(err)

    def test_negative_base_voltage(self):
        expect_error(
            "scenario.base_inputs",
            lambda d: d["scenario"]["base_inputs"].update(u_t=-1.0),
        )


class TestNoisePresets:
    SIGMAS = MeasurementSigmas()

    def test_preset_1_is_white(self):
        specs = noise_preset(1, self.SIGMAS)
        assert specs[0].kind == GAUSSIAN_WHITE and specs[0].mu == 0.0
        assert specs[1].kind == GAUSSIAN_WHITE and specs[1].mu == 0.0
        assert specs[0].sigma == self.SIGMAS.sigma_delta
        assert specs[2] is None

    def test_preset_2_biases(self):
        specs = noise_preset(2, self.SIGMAS)
        assert specs[0].kind == GAUSSIAN_BIASED
        assert specs[0].mu == pytest.approx(math.radians(20.0), abs=0.0)
        assert specs[1].mu == pytest.approx(0.01, abs=0.0)

    def test_preset_3_laplace(self):
        specs = noise_preset(3, self.SIGMAS)
        assert specs[0].kind == LAPLACE
        assert specs[0].mu == PRESET_MU_DELTA
        assert specs[1].sigma == self.SIGMAS.sigma_omega

    def test_preset_4_location_lands_on_bias(self):
        # the draw sits at mu + 10 sigma, so mu absorbs the offset and the
        # median of the corruption stays at the tabulated bias
        specs = noise_preset(4, self.SIGMAS)
        assert specs[0].kind == CAUCHY
        location = specs[0].mu + CAUCHY_LOCATION_SIGMAS * specs[0].sigma
        assert location == pytest.approx(PRESET_MU_DELTA, abs=1e-15)
        location = specs[1].mu + CAUCHY_LOCATION_SIGMAS * specs[1].sigma
        assert location == pytest.approx(PRESET_MU_OMEGA, abs=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as info:
            noise_preset(9, self.SIGMAS)
        assert info.value.key == "noise.preset"

    def test_preset_used_by_document(self):
        cfg = build(lambda d: d.update(noise={"preset": 4}))
        assert cfg.noise[0].kind == CAUCHY

    def test_preset_rejects_extra_keys(self):
        expect_error(
            "noise.extra", lambda d: d.update(noise={"preset": 2, "extra": 1})
        )


class TestExplicitNoise:
    def test_angle_channel_in_degrees(self):
        cfg = build(
            lambda d: d.update(
                noise={
                    "delta": {"kind": "gaussian_biased", "sigma_deg": 2.0, "mu_deg": 20.0},
                    "omega": {"kind": "laplace", "sigma_pu": 0.001},
                }
            )
        )
        assert cfg.noise[0].sigma == pytest.approx(math.radians(2.0), abs=0.0)
        assert cfg.noise[0].mu == pytest.approx(math.radians(20.0), abs=0.0)
        assert cfg.noise[1].kind == LAPLACE
        assert cfg.noise[2] is None

    def test_pe_auto_and_explicit(self):
        base = {
            "delta": {"kind": "gaussian_white", "sigma_deg": 2.0},
            "omega": {"kind": "gaussian_white", "sigma_pu": 0.001},
        }
        cfg = build(lambda d: d.update(noise={**base, "pe": "auto"}))
        assert cfg.noise[2] is None
        cfg = build(
            lambda d: d.update(
                noise={**base, "pe": {"kind": "gaussian_white", "sigma_pu": 0.02}}
            )
        )
        assert cfg.noise[2].sigma == 0.02

    def test_wrong_unit_key_rejected(self):
        expect_error(
            "noise.delta.sigma_pu",
            lambda d: d.update(
                noise={
                    "delta": {"kind": "gaussian_white", "sigma_pu": 0.03},
                    "omega": {"kind": "gaussian_white", "sigma_pu": 0.001},
                }
            ),
        )

    def test_missing_channel(self):
        expect_error(
            "noise.omega",
            lambda d: d.update(
                noise={"delta": {"kind": "gaussian_white", "sigma_deg": 2.0}}
            ),
        )

    def test_unknown_kind(self):
        expect_error(
            "noise.delta.kind",
            lambda d: d.update(
                noise={
                    "delta": {"kind": "uniform", "sigma_deg": 2.0},
                    "omega": {"kind": "gaussian_white", "sigma_pu": 0.001},
                }
            ),
        )

    def test_channel_must_be_object(self):
        err = expect_error(
            "noise.delta",
            lambda d: d.update(
                noise={"delta": 2.0, "omega": {"kind": "gaussian_white", "sigma_pu": 0.001}}
            ),
        )
        assert err.key == "noise.delta"
        assert "expected an object" in str(err)

    def test_white_with_bias_rejected(self):
        expect_error(
            "noise.delta",
            lambda d: d.update(
                noise={
                    "delta": {"kind": "gaussian_white", "sigma_deg": 2.0, "mu_deg": 5.0},
                    "omega": {"kind": "gaussian_white", "sigma_pu": 0.001},
                }
            ),
        )


class TestOutliersSection:
    def test_single(self):
        cfg = build(
            lambda d: d.update(
                outliers={"manner": "single", "time": 6.0, "channel": "omega", "scale": 1.1}
            )
        )
        assert cfg.outliers.manner == "single"
        assert cfg.outliers.time == 6.0

    def test_window(self):
        cfg = build(
            lambda d: d.update(outliers={"manner": "window", "t_start": 2.0, "t_end": 3.0})
        )
        assert cfg.outliers.t_start == 2.0
        assert cfg.outliers.channel == "omega"

    def test_single_needs_time(self):
        expect_error("outliers.time", lambda d: d.update(outliers={"manner": "single"}))

    def test_unknown_manner(self):
        expect_error("outliers.manner", lambda d: d.update(outliers={"manner": "salvo"}))

    def test_manner_required(self):
        err = expect_error("outliers.manner", lambda d: d.update(outliers={"time": 6.0}))
        assert "missing required value" in str(err)

    def test_unknown_channel(self):
        expect_error(
            "outliers.channel",
            lambda d: d.update(outliers={"manner": "single", "time": 6.0, "channel": "amps"}),
        )

    def test_inverted_window(self):
        expect_error(
            "outliers",
            lambda d: d.update(outliers={"manner": "window", "t_start": 3.0, "t_end": 2.0}),
        )


class TestFilterSection:
    def test_huber_c_positive(self):
        expect_error("filter.huber_c", lambda d: d["filter"].update(huber_c=0.0))

    def test_passes_at_least_one(self):
        expect_error(
            "filter.reweight_passes", lambda d: d["filter"].update(reweight_passes=0)
        )

    def test_unknown_torque_mode(self):
        expect_error(
            "filter.torque_mode", lambda d: d["filter"].update(torque_mode="exact")
        )

    def test_divide_by_speed_accepted(self):
        cfg = build(lambda d: d["filter"].update(torque_mode="divide_by_speed"))
        assert cfg.torque_mode == "divide_by_speed"


class TestInitSection:
    def test_diagonals_parsed(self):
        cfg = build(lambda d: d["init"].update(p0_diag=[1.0, 2.0, 3.0, 4.0]))
        assert cfg.init.p0_diag == (1.0, 2.0, 3.0, 4.0)

    def test_wrong_length(self):
        expect_error("init.p0_diag", lambda d: d["init"].update(p0_diag=[1.0, 2.0]))

    def test_nonpositive_entries(self):
        expect_error("init", lambda d: d["init"].update(q_diag=[0.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("key", ["p0_diag", "q_diag"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_entries(self, tmp_path, key, value):
        # json.load reads the NaN and Infinity literals that json.dumps writes
        doc = default_config()
        doc["init"][key] = [value, 1e-6, 1e-6, 1e-6]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="expected finite numbers") as info:
            build_scenario(load_config(path))
        assert info.value.key == f"init.{key}"


class TestShippedConfigs:
    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    def test_default_json_matches_builtin(self):
        doc = json.loads((self.CONFIGS / "default.json").read_text())
        assert doc == default_config()

    def test_case2_json_builds(self):
        cfg = build_scenario(load_config(self.CONFIGS / "case2.json"))
        assert cfg.t_end == 10.0
        # staged clearing: partial recovery at 1.05 s, full at 1.1 s
        assert inputs_at(cfg, 0.5) == (0.8, 2.0, 1.0, 0.0)
        assert inputs_at(cfg, 1.04) == (0.8, 2.0, 0.35, 0.0)
        assert inputs_at(cfg, 1.06) == (0.8, 2.0, 0.7, 0.0)
        assert inputs_at(cfg, 1.2) == (0.8, 2.0, 0.95, 0.0)


def leaves(doc, prefix=""):
    """Dotted path and value of every non-object value in a document."""
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from leaves(value, f"{path}.")
        else:
            yield path, value


def locate(doc, path):
    """The object that holds the value at a dotted path, and its key there."""
    *parents, key = path.split(".")
    for parent in parents:
        doc = doc[parent]
    return doc, key


LEAVES = dict(leaves(default_config()))

# Values and sections a document may leave out; each of their leaves too
OPTIONAL_SECTIONS = ("scenario.sigmas", "noise", "outliers", "filter", "init")
OPTIONAL = (
    "machine.f_hz",
    *OPTIONAL_SECTIONS,
    *(path for path in LEAVES if path.rsplit(".", 1)[0] in OPTIONAL_SECTIONS),
)


class TestReaderContract:
    def test_every_leaf_is_covered(self):
        assert len(LEAVES) == 32

    @pytest.mark.parametrize("path", LEAVES)
    def test_wrong_kind_names_the_leaf(self, path):
        doc = default_config()
        section, key = locate(doc, path)
        section[key] = 1 if isinstance(LEAVES[path], str) else "x"
        with pytest.raises(ConfigError) as info:
            build_scenario(doc)
        assert info.value.key == path

    @pytest.mark.parametrize("path", OPTIONAL)
    def test_optional_value_defaults_to_the_document_value(self, path):
        doc = default_config()
        section, key = locate(doc, path)
        del section[key]
        assert build_scenario(doc) == build()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("scenario.base_inputs", None, "missing required section"),
            ("scenario.sigmas", [1.0, 2.0], "expected an object, got list"),
            ("scenario.fault", 3, "expected an object, got int"),
        ],
    )
    def test_a_nested_section_is_named_by_its_path(self, path, value, message):
        doc = default_config()
        section, key = locate(doc, path)
        if value is None:
            # a null fault means no fault, so None stands for a missing section
            del section[key]
        else:
            section[key] = value
        with pytest.raises(ConfigError, match=message) as info:
            build_scenario(doc)
        assert info.value.key == path


class TestOutlierPlacementKeys:
    def test_none_keeps_channel_and_scale(self):
        cfg = build(
            lambda d: d.update(outliers={"manner": "none", "channel": "delta", "scale": 10.0})
        )
        assert cfg.outliers == OutlierSpec(manner="none", channel="delta", scale=10.0)
        # the experiment matrix places its outliers on the configured channel
        spec = manner_outliers("single", cfg.outliers)
        assert (spec.channel, spec.scale) == ("delta", 10.0)

    def test_none_checks_scale(self):
        err = expect_error("outliers", lambda d: d.update(outliers={"manner": "none", "scale": 0}))
        assert "scale must be positive" in str(err)

    @pytest.mark.parametrize(
        "outliers, key",
        [
            ({"manner": "none", "time": "abc"}, "time"),
            ({"manner": "none", "t_start": 2.0, "t_end": 3.0}, "t_start"),
            ({"manner": "single", "time": 6.0, "t_start": "x"}, "t_start"),
            ({"manner": "single", "time": 6.0, "t_end": 3.0}, "t_end"),
            ({"manner": "window", "t_start": 2.0, "t_end": 3.0, "time": 6.0}, "time"),
        ],
    )
    def test_key_of_another_manner_rejected(self, outliers, key):
        err = expect_error(f"outliers.{key}", lambda d: d.update(outliers=outliers))
        assert err.key == f"outliers.{key}"
        assert f"not applicable to manner {outliers['manner']!r}" in str(err)

    @pytest.mark.parametrize(
        "path",
        sorted(
            str(p.relative_to(ROOT))
            for p in [*ROOT.glob("configs/*.json"), *ROOT.glob("perfbench/configs/*.json")]
        ),
    )
    def test_shipped_configs_build(self, path):
        build_scenario(load_config(ROOT / path))
