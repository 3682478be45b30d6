"""Tests for scenario assembly: schedules, equilibrium, truth simulation,
measurement synthesis, and the paired filter runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dsekit.errors import InvalidWindow, NoConvergence, NonFiniteState
from dsekit.filters import CKF, RCKF
from dsekit.machine import (
    DEFAULT_PARAMS,
    DIVIDE_BY_SPEED,
    POWER_EQUALS_TORQUE,
    MachineInputs,
    MachineState,
    electrical_power,
    state_derivative,
)
from dsekit.noise import GAUSSIAN_WHITE, NoiseSpec, OutlierSpec
from dsekit.scenario import (
    TRUTH_BLOCK_ROWS,
    FaultSpec,
    InitSpec,
    InputProfile,
    RunRecord,
    Schedule,
    ScenarioConfig,
    build_fault_profile,
    filter_series,
    initial_filter_state,
    run_scenario,
    simulate_truth,
    steady_state_init,
    synthesize_measurements,
    time_grid,
)
from oracles import machine_trajectory
from test_machine import ODD_PARAMS

BASE = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)


def zero_noise():
    return (
        NoiseSpec(GAUSSIAN_WHITE, 0.0),
        NoiseSpec(GAUSSIAN_WHITE, 0.0),
        NoiseSpec(GAUSSIAN_WHITE, 0.0),
    )


def make_config(
    fault=FaultSpec(t_on=1.2, duration=0.08333, u_t_dip=0.35, u_t_post=0.95),
    t_end=20.0,
    dt=0.02,
    seed=42,
    noise=None,
    outliers=None,
):
    return ScenarioConfig(
        machine=DEFAULT_PARAMS,
        profile=build_fault_profile(BASE, fault, t_end),
        dt=dt,
        t_end=t_end,
        seed=seed,
        noise=zero_noise() if noise is None else noise,
        outliers=OutlierSpec.none() if outliers is None else outliers,
    )


class TestSchedule:
    def test_constant(self):
        s = Schedule.constant(1.5)
        assert s.as_array([0.0])[0] == 1.5
        assert s.as_array([99.0])[0] == 1.5

    def test_hold_switches_at_breakpoint(self):
        s = Schedule(times=(0.0, 1.0, 2.0), values=(5.0, 6.0, 7.0))
        assert s.as_array([0.999999])[0] == 5.0
        assert s.as_array([1.0])[0] == 6.0
        assert s.as_array([1.999999])[0] == 6.0
        assert s.as_array([2.0])[0] == 7.0
        assert s.as_array([10.0])[0] == 7.0

    def test_as_array_matches_pointwise(self):
        s = Schedule(times=(0.0, 1.0, 2.0), values=(5.0, 6.0, 7.0))
        times = np.arange(0.0, 3.0, 0.25)
        np.testing.assert_array_equal(s.as_array(times), [s.as_array([t])[0] for t in times])

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(times=(0.5,), values=(1.0,))
        with pytest.raises(ValueError):
            Schedule(times=(0.0, 1.0, 1.0), values=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            Schedule(times=(0.0, 1.0), values=(1.0,))


class TestFaultProfile:
    def test_voltage_dip_and_recovery(self):
        profile = build_fault_profile(
            BASE, FaultSpec(t_on=1.2, duration=0.1, u_t_dip=0.35, u_t_post=0.95), 20.0
        )
        assert profile.u_t.as_array([0.0])[0] == 1.0
        assert profile.u_t.as_array([1.19])[0] == 1.0
        assert profile.u_t.as_array([1.2])[0] == 0.35
        assert profile.u_t.as_array([1.29])[0] == 0.35
        assert profile.u_t.as_array([1.3])[0] == 0.95
        assert profile.u_t.as_array([20.0])[0] == 0.95
        # the other inputs stay constant through the fault
        assert profile.t_m.as_array([1.25])[0] == BASE.t_m
        assert profile.e_f.as_array([1.25])[0] == BASE.e_f
        assert profile.phi.as_array([1.25])[0] == BASE.phi

    def test_no_fault_is_constant(self):
        profile = build_fault_profile(BASE, None, 20.0)
        times = np.arange(0.0, 20.0, 0.5)
        np.testing.assert_array_equal(profile.u_t.as_array(times), np.full(40, 1.0))

    def test_staged_clearing(self):
        # near end clears first to a partial level, remote end finishes
        fault = FaultSpec(
            t_on=1.0, duration=0.1, u_t_dip=0.35, u_t_post=0.95,
            duration_partial=0.05, u_t_partial=0.7,
        )
        profile = build_fault_profile(BASE, fault, 10.0)
        assert profile.u_t.as_array([0.99])[0] == 1.0
        assert profile.u_t.as_array([1.0])[0] == 0.35
        assert profile.u_t.as_array([1.049])[0] == 0.35
        assert profile.u_t.as_array([1.05])[0] == 0.7
        assert profile.u_t.as_array([1.099])[0] == 0.7
        assert profile.u_t.as_array([1.1])[0] == 0.95

    def test_partial_stage_validation(self):
        with pytest.raises(InvalidWindow):
            FaultSpec(1.0, 0.1, 0.35, 0.95, duration_partial=0.05)
        with pytest.raises(InvalidWindow):
            FaultSpec(1.0, 0.1, 0.35, 0.95, duration_partial=0.2, u_t_partial=0.7)
        with pytest.raises(InvalidWindow):
            FaultSpec(1.0, 0.1, 0.35, 0.95, duration_partial=0.05, u_t_partial=-0.1)

    def test_fault_must_sit_inside_horizon(self):
        with pytest.raises(InvalidWindow):
            build_fault_profile(BASE, FaultSpec(0.0, 0.1, 0.35, 0.95), 20.0)
        with pytest.raises(InvalidWindow):
            build_fault_profile(BASE, FaultSpec(19.95, 0.1, 0.35, 0.95), 20.0)

    def test_fault_spec_validation(self):
        with pytest.raises(InvalidWindow):
            FaultSpec(-1.0, 0.1, 0.35, 0.95)
        with pytest.raises(InvalidWindow):
            FaultSpec(1.0, 0.0, 0.35, 0.95)
        with pytest.raises(InvalidWindow):
            FaultSpec(1.0, 0.1, -0.1, 0.95)


class TestSteadyState:
    def test_residual_below_tolerance(self):
        state = steady_state_init(BASE, DEFAULT_PARAMS)
        rate = state_derivative(state, BASE, DEFAULT_PARAMS)
        assert np.abs(rate).max() <= 1e-10

    def test_synchronous_speed_exact(self):
        state = steady_state_init(BASE, DEFAULT_PARAMS)
        assert state.delta_omega == 0.0

    def test_power_balance(self):
        state = steady_state_init(BASE, DEFAULT_PARAMS)
        p = electrical_power(state, BASE, DEFAULT_PARAMS)
        assert p == pytest.approx(BASE.t_m, abs=1e-12)

    def test_zero_torque_means_zero_angle(self):
        inputs = MachineInputs(t_m=0.0, e_f=2.0, u_t=1.0, phi=0.0)
        state = steady_state_init(inputs, DEFAULT_PARAMS)
        assert state.delta == 0.0
        assert state.e_d_prime == 0.0

    def test_grid_angle_shifts_rotor_angle(self):
        shifted = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.1)
        a = steady_state_init(BASE, DEFAULT_PARAMS)
        b = steady_state_init(shifted, DEFAULT_PARAMS)
        assert b.delta - a.delta == pytest.approx(0.1, abs=1e-12)
        assert b.e_q_prime == pytest.approx(a.e_q_prime, abs=1e-12)

    def test_divide_by_speed_mode_converges(self):
        state = steady_state_init(BASE, DEFAULT_PARAMS, torque_mode="divide_by_speed")
        rate = state_derivative(state, BASE, DEFAULT_PARAMS, "divide_by_speed")
        assert np.abs(rate).max() <= 1e-10

    def test_past_pull_out_raises(self):
        inputs = MachineInputs(t_m=1.2, e_f=2.0, u_t=1.0, phi=0.0)
        with pytest.raises(NoConvergence):
            steady_state_init(inputs, DEFAULT_PARAMS)


class TestTimeGrid:
    def test_exact_multiples(self):
        cfg = make_config(t_end=2.0)
        times = time_grid(cfg)
        assert len(times) == 101
        np.testing.assert_array_equal(times, np.arange(101) * 0.02)


class TestSimulateTruth:
    def test_starts_at_equilibrium(self):
        cfg = make_config()
        truth = simulate_truth(cfg)
        x0 = steady_state_init(BASE, DEFAULT_PARAMS)
        np.testing.assert_array_equal(truth[0], x0.as_array())

    def test_no_fault_stays_at_equilibrium(self):
        cfg = make_config(fault=None, t_end=2.0)
        truth = simulate_truth(cfg)
        assert np.abs(truth - truth[0]).max() <= 1e-8

    def test_fault_swings_then_settles(self):
        cfg = make_config()
        truth = simulate_truth(cfg)
        delta = truth[:, 0]
        # the dip swings the rotor well away from the pre-fault angle
        assert np.abs(delta - delta[0]).max() > 0.05
        # the trailing second is much quieter than the first post-fault one
        early = np.abs(np.diff(delta[60:110])).max()
        late = np.abs(np.diff(delta[-50:])).max()
        assert late < 0.2 * early

    def test_step_halving_converges(self):
        # gentle dip keeps the dt = 0.02 integration inside 1e-7 of the
        # halved-step run; a second halving shrinks the gap ~2^4
        cfg = make_config(
            fault=FaultSpec(t_on=1.2, duration=0.08, u_t_dip=0.96, u_t_post=1.0),
            t_end=5.0,
        )
        coarse = simulate_truth(cfg)
        halved = simulate_truth(replace(cfg, dt=0.01))
        quartered = simulate_truth(replace(cfg, dt=0.005))
        d1 = np.abs(coarse - halved[::2]).max()
        d2 = np.abs(halved - quartered[::2]).max()
        assert d1 <= 1e-7
        assert 12.0 <= d1 / d2 <= 20.0


STAGED_FAULT = FaultSpec(
    t_on=1.2, duration=0.3, u_t_dip=0.2, u_t_post=0.95, duration_partial=0.1, u_t_partial=0.6
)


class TestTruthKernel:
    """simulate_truth runs the float RK4 on a tuple state, a block of rows
    at a time; it must give the bits of the model's formula stepped one
    row at a time, and report a failing step as the model map would."""

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS, ODD_PARAMS])
    @pytest.mark.parametrize("torque_mode", [POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED])
    @pytest.mark.parametrize("steps", [1, TRUTH_BLOCK_ROWS, TRUTH_BLOCK_ROWS + 1, 1500])
    def test_equals_the_unhoisted_formula_bit_for_bit(self, torque_mode, params, steps):
        fault = STAGED_FAULT if steps > 100 else None
        cfg = replace(
            make_config(fault=fault, t_end=steps * 0.02), machine=params, torque_mode=torque_mode
        )
        x0 = steady_state_init(BASE, params, torque_mode)
        # start off equilibrium so the speed term of divide_by_speed matters
        x0 = replace(x0, delta_omega=0.003)
        truth = simulate_truth(cfg, x0)
        inputs = cfg.profile.as_array(time_grid(cfg))[:-1]
        expected = machine_trajectory(
            truth[0], inputs, params, cfg.dt, torque_mode == DIVIDE_BY_SPEED
        )
        assert truth.shape == (steps + 1, 4)
        np.testing.assert_array_equal(truth, expected)
        if fault is not None:
            # the staged clearing changes the inputs mid-run
            assert len(np.unique(inputs[:, 2])) == 4

    @pytest.mark.parametrize(
        "prior, dip, step",
        [({"delta_omega": 1e307}, 0.35, 1), ({}, 1e200, 61)],
    )
    def test_a_step_raising_inside_the_formula_is_named(self, prior, dip, step):
        cfg = make_config(fault=replace(STAGED_FAULT, u_t_dip=dip), t_end=2.0)
        x0 = replace(steady_state_init(BASE, DEFAULT_PARAMS), **prior)
        with pytest.raises(NonFiniteState) as info:
            simulate_truth(cfg, x0)
        cause = info.value.__cause__
        assert isinstance(cause, (ArithmeticError, ValueError))
        assert str(info.value) == (
            f"truth integration failed at step {step}: integration step overflowed: {cause}"
        )

    def test_a_step_coming_out_non_finite_is_named(self):
        # a terminal voltage of 1e308 makes the power inf - inf = nan
        # without any operation raising
        cfg = make_config(fault=replace(STAGED_FAULT, u_t_dip=1e308), t_end=2.0)
        with pytest.raises(NonFiniteState) as info:
            simulate_truth(cfg)
        assert str(info.value) == "truth integration failed at step 61"
        assert info.value.__cause__ is None

    def test_division_by_zero_speed_is_a_non_finite_state(self):
        cfg = replace(make_config(t_end=2.0), torque_mode=DIVIDE_BY_SPEED)
        x0 = replace(steady_state_init(BASE, DEFAULT_PARAMS, DIVIDE_BY_SPEED), delta_omega=-1.0)
        with pytest.raises(NonFiniteState) as info:
            simulate_truth(cfg, x0)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert str(info.value).startswith(
            "truth integration failed at step 1: integration step overflowed: "
        )


class TestSynthesizeMeasurements:
    def test_zero_noise_reproduces_clean(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        clean, corrupted = synthesize_measurements(truth, cfg)
        np.testing.assert_array_equal(clean, corrupted)

    def test_clean_channels_match_truth(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        clean, _ = synthesize_measurements(truth, cfg)
        np.testing.assert_array_equal(clean[:, 0], truth[:, 0])
        np.testing.assert_array_equal(clean[:, 1], 1.0 + truth[:, 1])

    def test_power_channel_reuses_power_model(self):
        # the measured power must be bit for bit the electrical power
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        clean, _ = synthesize_measurements(truth, cfg)
        times = time_grid(cfg)
        u_arr = cfg.profile.as_array(times)
        for k in range(0, len(times), 7):
            p = electrical_power(
                MachineState.from_array(truth[k]),
                MachineInputs.from_array(u_arr[k]),
                cfg.machine,
            )
            assert clean[k, 2] == p

    def test_auto_power_noise_engages(self):
        cfg = make_config(
            t_end=2.0,
            noise=(NoiseSpec(GAUSSIAN_WHITE, 0.0), NoiseSpec(GAUSSIAN_WHITE, 0.0), None),
        )
        truth = simulate_truth(cfg)
        clean, corrupted = synthesize_measurements(truth, cfg)
        np.testing.assert_array_equal(clean[:, :2], corrupted[:, :2])
        assert not np.array_equal(clean[:, 2], corrupted[:, 2])
        # p.u. power noise from the voltage and phase stds is small
        assert np.abs(corrupted[:, 2] - clean[:, 2]).max() < 0.05

    def test_reproducible_and_seed_sensitive(self):
        noise = (
            NoiseSpec(GAUSSIAN_WHITE, 0.01),
            NoiseSpec(GAUSSIAN_WHITE, 0.001),
            None,
        )
        cfg = make_config(t_end=2.0, noise=noise)
        truth = simulate_truth(cfg)
        _, a = synthesize_measurements(truth, cfg)
        _, b = synthesize_measurements(truth, cfg)
        _, c = synthesize_measurements(truth, replace(cfg, seed=43))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_outliers_applied_last(self):
        cfg = make_config(t_end=2.0, outliers=OutlierSpec.single_at(1.0))
        truth = simulate_truth(cfg)
        clean, corrupted = synthesize_measurements(truth, cfg)
        assert corrupted[50, 1] == clean[50, 1] * 1.1
        mask = np.ones(len(clean), dtype=bool)
        mask[50] = False
        np.testing.assert_array_equal(corrupted[mask], clean[mask])


class TestInitialFilterState:
    def test_prior_from_first_measurement(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        init = initial_filter_state(cfg, corrupted)
        eq0 = steady_state_init(BASE, DEFAULT_PARAMS)
        assert init.x_hat[0] == corrupted[0, 0]
        assert init.x_hat[1] == corrupted[0, 1] - 1.0
        assert init.x_hat[2] == pytest.approx(eq0.e_q_prime * 1.1, abs=1e-15)
        assert init.x_hat[3] == pytest.approx(eq0.e_d_prime * 1.1, abs=1e-15)
        np.testing.assert_array_equal(init.P, np.diag(cfg.init.p0_diag))
        assert init.step_index == 0

    def test_bias_is_configurable(self):
        cfg = make_config(t_end=2.0)
        cfg = replace(cfg, init=InitSpec(eprime_bias=0.0))
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        init = initial_filter_state(cfg, corrupted)
        eq0 = steady_state_init(BASE, DEFAULT_PARAMS)
        assert init.x_hat[2] == pytest.approx(eq0.e_q_prime, abs=1e-15)


class TestFilterSeries:
    def test_row_count_must_match_grid(self):
        cfg = make_config(t_end=2.0)
        with pytest.raises(ValueError):
            filter_series(cfg, np.zeros((5, 3)))

    def test_lockstep_variants_match_separate_runs(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        together, times, _ = filter_series(cfg, corrupted)
        for variant in (CKF, RCKF):
            alone, _, _ = filter_series(cfg, corrupted, variants=(variant,))
            np.testing.assert_array_equal(together[variant], alone[variant])
            assert len(times[variant]) == len(corrupted) - 1

    def test_divergence_recorded_not_raised(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        corrupted[10, 1] = math.nan
        estimates, _, failures = filter_series(cfg, corrupted, variants=(CKF,))
        assert CKF not in estimates
        assert "index" in failures[CKF]

    def test_strict_mode_raises(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        corrupted[10, 1] = math.nan
        with pytest.raises(NonFiniteState):
            filter_series(cfg, corrupted, variants=(CKF,), strict=True)


    def test_stack_of_series_gives_one_result_per_series(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        series = np.stack([
            synthesize_measurements(truth, replace(cfg, seed=seed))[1] for seed in (1, 2)
        ])
        results = filter_series(cfg, series)
        assert len(results) == 2
        for one, result in zip(series, results):
            alone = filter_series(cfg, one)
            for variant in (CKF, RCKF):
                np.testing.assert_array_equal(result[0][variant], alone[0][variant])
                # each member's step time is its share of the batch's step
                assert result[1][variant].shape == (len(one) - 1,)


class TestRunScenario:
    def test_default_run_produces_both_variants(self):
        noise = (
            NoiseSpec(GAUSSIAN_WHITE, math.radians(2.0)),
            NoiseSpec(GAUSSIAN_WHITE, 0.001),
            None,
        )
        cfg = make_config(noise=noise)
        record = run_scenario(cfg)
        assert isinstance(record, RunRecord)
        assert not record.failures
        n = len(record.times)
        assert n == 1001
        for variant in (CKF, RCKF):
            assert record.estimates[variant].shape == (n, 4)
            assert len(record.step_times_ns[variant]) == n - 1
        init = initial_filter_state(cfg, record.corrupted)
        np.testing.assert_array_equal(record.estimates[CKF][0], init.x_hat)
        np.testing.assert_array_equal(record.estimates[RCKF][0], init.x_hat)

    def test_one_equilibrium_per_run(self, monkeypatch):
        import dsekit.scenario as scenario

        calls = []
        solve = scenario.steady_state_init

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenario, "steady_state_init", counted)
        record = run_scenario(make_config(t_end=2.0))
        assert len(calls) == 1
        # the truth and the filter prior share that equilibrium
        x0 = solve(BASE, DEFAULT_PARAMS)
        np.testing.assert_array_equal(record.truth[0], x0.as_array())
        assert record.estimates[CKF][0, 2] == x0.e_q_prime * 1.1

    def test_estimates_track_truth_under_white_noise(self):
        noise = (
            NoiseSpec(GAUSSIAN_WHITE, math.radians(2.0)),
            NoiseSpec(GAUSSIAN_WHITE, 0.001),
            None,
        )
        cfg = make_config(noise=noise)
        record = run_scenario(cfg)
        # angle estimate should beat the raw angle measurement handily
        est_err = np.abs(record.estimates[CKF][1:, 0] - record.truth[1:, 0])
        meas_err = np.abs(record.corrupted[1:, 0] - record.truth[1:, 0])
        assert np.sqrt((est_err**2).mean()) < 0.5 * np.sqrt((meas_err**2).mean())
