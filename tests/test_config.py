"""Tests for JSON configuration parsing and validation."""

import json
import math
from pathlib import Path

import pytest

from dsekit.config import (
    PRESET_MU_DELTA,
    PRESET_MU_OMEGA,
    build_scenario,
    default_config,
    load_config,
    noise_preset,
    with_noise_preset,
    with_outliers,
    with_seed,
)
from dsekit.errors import ConfigError
from dsekit.machine import MeasurementSigmas
from dsekit.noise import (
    CAUCHY,
    CAUCHY_LOCATION_SIGMAS,
    GAUSSIAN_BIASED,
    GAUSSIAN_WHITE,
    LAPLACE,
    OutlierSpec,
)


def build(mutate=None):
    doc = default_config()
    if mutate is not None:
        mutate(doc)
    return build_scenario(doc)


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

    def test_section_must_be_object(self):
        expect_error("machine", lambda d: d.update(machine=[1, 2]))


class TestScenarioSection:
    def test_dt_must_be_positive(self):
        expect_error("scenario.dt", lambda d: d["scenario"].update(dt=0.0))

    def test_t_end_must_cover_a_step(self):
        expect_error("scenario.t_end", lambda d: d["scenario"].update(t_end=0.01))

    def test_negative_machine_parameter(self):
        expect_error("machine", lambda d: d["machine"].update(t_j=-1.0))

    def test_fault_may_be_null(self):
        cfg = build(lambda d: d["scenario"].update(fault=None))
        assert cfg.profile.u_t.as_array([5.0])[0] == 1.0

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
        assert cfg.profile.u_t.as_array([1.26])[0] == 0.7

    def test_staged_fault_needs_both_keys(self):
        expect_error(
            "scenario.fault",
            lambda d: d["scenario"]["fault"].update(duration_partial=0.04),
        )

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


class TestShippedConfigs:
    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    def test_default_json_matches_builtin(self):
        doc = json.loads((self.CONFIGS / "default.json").read_text())
        assert doc == default_config()

    def test_case2_json_builds(self):
        cfg = build_scenario(load_config(self.CONFIGS / "case2.json"))
        assert cfg.t_end == 10.0
        # staged clearing: partial recovery at 1.05 s, full at 1.1 s
        assert cfg.profile.u_t.as_array([1.04])[0] == 0.35
        assert cfg.profile.u_t.as_array([1.06])[0] == 0.7
        assert cfg.profile.u_t.as_array([1.2])[0] == 0.95


class TestReplacements:
    def test_with_seed(self):
        cfg = build()
        assert with_seed(cfg, 7).seed == 7

    def test_with_noise_preset(self):
        cfg = with_noise_preset(build(), 3)
        assert cfg.noise[0].kind == LAPLACE

    def test_with_outliers(self):
        cfg = with_outliers(build(), OutlierSpec.single_at(6.0))
        assert cfg.outliers.manner == "single"
