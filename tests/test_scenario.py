"""Tests for scenario assembly: input profiles, equilibrium, truth simulation,
measurement synthesis, and the paired filter runs."""

import math
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dsekit import scenario
from dsekit.config import build_scenario, default_config, load_config
from dsekit.errors import InvalidWindow, NoConvergence, NonFiniteState
from dsekit.filters import CKF, RCKF
from dsekit.machine import (
    DIVIDE_BY_SPEED,
    POWER_EQUALS_TORQUE,
    TORQUE_MODES,
    MachineInputs,
    MachineParams,
    float_step,
    observe_points,
)
from dsekit.noise import GAUSSIAN_WHITE, NoiseSpec, OutlierSpec
from dsekit.scenario import (
    TRUTH_BLOCK_ROWS,
    FaultSpec,
    InitSpec,
    InputProfile,
    ScenarioConfig,
    _brentq,
    build_fault_profile,
    equilibrium,
    filter_series,
    initial_filter_state,
    simulate_truth,
    steady_state_init,
    synthesize_measurements,
    time_grid,
)
from oracles import machine_derivative, machine_trajectory
from test_machine import ODD_PARAMS

BASE = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
# The machine of the default configuration.
PARAMS = build_scenario(default_config()).machine


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
        machine=PARAMS,
        profile=build_fault_profile(BASE, fault, t_end),
        dt=dt,
        t_end=t_end,
        seed=seed,
        noise=zero_noise() if noise is None else noise,
        outliers=OutlierSpec.none() if outliers is None else outliers,
    )


# Rows of (t_m, e_f, u_t, phi) for a three-breakpoint profile
ROWS = ((5.0, 2.0, 1.0, 0.0), (6.0, 2.0, 0.5, 0.1), (7.0, 2.5, 0.5, 0.1))


def assert_other_inputs_at_base(rows):
    """The t_m, e_f and phi columns of profile rows hold BASE's values."""
    assert (rows[:, [0, 1, 3]] == (BASE.t_m, BASE.e_f, BASE.phi)).all()


class TestInputProfile:
    def test_constant(self):
        p = InputProfile(times=(0.0,), values=ROWS[:1])
        np.testing.assert_array_equal(p.as_array([0.0, 99.0]), [ROWS[0], ROWS[0]])

    def test_hold_switches_at_breakpoint(self):
        p = InputProfile(times=(0.0, 1.0, 2.0), values=ROWS)
        np.testing.assert_array_equal(
            p.as_array([0.999999, 1.0, 1.999999, 2.0, 10.0]),
            [ROWS[0], ROWS[1], ROWS[1], ROWS[2], ROWS[2]],
        )

    def test_as_array_matches_pointwise(self):
        p = InputProfile(times=(0.0, 1.0, 2.0), values=ROWS)
        times = np.arange(0.0, 3.0, 0.25)
        out = p.as_array(times)
        assert out.shape == (len(times), 4)
        np.testing.assert_array_equal(out, [p.as_array([t])[0] for t in times])

    def test_hashable_and_compared_by_value(self):
        p = InputProfile(times=(0.0, 1.0, 2.0), values=ROWS)
        assert p == InputProfile(times=(0.0, 1.0, 2.0), values=ROWS)
        assert hash(p) == hash(InputProfile(times=(0.0, 1.0, 2.0), values=ROWS))

    def test_validation(self):
        with pytest.raises(ValueError):
            InputProfile(times=(0.5,), values=ROWS[:1])
        with pytest.raises(ValueError):
            InputProfile(times=(0.0, 1.0, 1.0), values=ROWS)
        with pytest.raises(ValueError):
            InputProfile(times=(), values=())

    @pytest.mark.parametrize(
        "times, values",
        [((0.0, 1.0), ROWS[:1]), ((0.0, 1.0), ROWS), ((0.0,), ((1.0, 2.0, 3.0),))],
    )
    def test_one_row_of_four_inputs_per_time(self, times, values):
        with pytest.raises(ValueError, match="one row of four inputs per time"):
            InputProfile(times=times, values=values)

    @pytest.mark.parametrize(
        "times, values",
        [
            ((0.0, math.inf), ROWS[:2]),
            ((0.0, 1.0), (ROWS[0], (6.0, math.nan, 0.5, 0.1))),
            ((0.0,), ((-math.inf, 2.0, 1.0, 0.0),)),
        ],
    )
    def test_breakpoints_must_be_finite(self, times, values):
        with pytest.raises(ValueError, match="must be finite"):
            InputProfile(times=times, values=values)


class TestFaultProfile:
    def test_voltage_dip_and_recovery(self):
        profile = build_fault_profile(
            BASE, FaultSpec(t_on=1.2, duration=0.1, u_t_dip=0.35, u_t_post=0.95), 20.0
        )
        rows = profile.as_array([0.0, 1.19, 1.2, 1.29, 1.3, 20.0])
        np.testing.assert_array_equal(rows[:, 2], [1.0, 1.0, 0.35, 0.35, 0.95, 0.95])
        # the other inputs stay constant through the fault
        assert_other_inputs_at_base(rows)

    def test_no_fault_is_constant(self):
        profile = build_fault_profile(BASE, None, 20.0)
        rows = profile.as_array(np.arange(0.0, 20.0, 0.5))
        np.testing.assert_array_equal(rows[:, 2], np.full(40, 1.0))
        assert_other_inputs_at_base(rows)

    def test_staged_clearing(self):
        # near end clears first to a partial level, remote end finishes
        fault = FaultSpec(
            t_on=1.0, duration=0.1, u_t_dip=0.35, u_t_post=0.95,
            duration_partial=0.05, u_t_partial=0.7,
        )
        profile = build_fault_profile(BASE, fault, 10.0)
        rows = profile.as_array([0.99, 1.0, 1.049, 1.05, 1.099, 1.1])
        np.testing.assert_array_equal(rows[:, 2], [1.0, 0.35, 0.35, 0.7, 0.7, 0.95])
        assert_other_inputs_at_base(rows)

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
        state = steady_state_init(BASE, PARAMS)
        rate = machine_derivative(astuple(state), astuple(BASE), PARAMS)
        assert np.abs(rate).max() <= 1e-10

    def test_synchronous_speed_exact(self):
        state = steady_state_init(BASE, PARAMS)
        assert state.delta_omega == 0.0

    def test_power_balance(self):
        state = steady_state_init(BASE, PARAMS)
        p = observe_points(np.array([astuple(state)]), astuple(BASE), PARAMS)[0, 2]
        assert p == pytest.approx(BASE.t_m, abs=1e-12)

    def test_zero_torque_means_zero_angle(self):
        inputs = MachineInputs(t_m=0.0, e_f=2.0, u_t=1.0, phi=0.0)
        state = steady_state_init(inputs, PARAMS)
        assert state.delta == 0.0
        assert state.e_d_prime == 0.0

    def test_grid_angle_shifts_rotor_angle(self):
        shifted = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.1)
        a = steady_state_init(BASE, PARAMS)
        b = steady_state_init(shifted, PARAMS)
        assert b.delta - a.delta == pytest.approx(0.1, abs=1e-12)
        assert b.e_q_prime == pytest.approx(a.e_q_prime, abs=1e-12)

    def test_divide_by_speed_mode_converges(self):
        state = steady_state_init(BASE, PARAMS, torque_mode="divide_by_speed")
        rate = machine_derivative(astuple(state), astuple(BASE), PARAMS, True)
        assert np.abs(rate).max() <= 1e-10

    def test_past_pull_out_raises(self):
        inputs = MachineInputs(t_m=1.2, e_f=2.0, u_t=1.0, phi=0.0)
        with pytest.raises(NoConvergence):
            steady_state_init(inputs, PARAMS)

    @pytest.mark.parametrize("t_m", [0.8, 0.0])
    def test_residual_above_tolerance_raises(self, t_m):
        # no residual is negative, so the check fails on the solved root
        # as on the unloaded state that skips the root solve
        inputs = MachineInputs(t_m=t_m, e_f=2.0, u_t=1.0, phi=0.0)
        with pytest.raises(NoConvergence, match="exceeds tolerance -1.0e\\+00"):
            steady_state_init(inputs, PARAMS, tol=-1.0)


ROOT = Path(__file__).resolve().parents[1]
CONFIG_FILES = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/configs/*.json"))


@st.composite
def machines(draw):
    xdp = draw(st.floats(0.1, 0.6))
    xqp = draw(st.floats(0.1, 0.9))
    return MachineParams(
        x_d=xdp + draw(st.floats(0.1, 2.0)),
        x_d_prime=xdp,
        x_q=xqp + draw(st.floats(0.05, 1.5)),
        x_q_prime=xqp,
        t_d0_prime=draw(st.floats(1.0, 10.0)),
        t_q0_prime=draw(st.floats(0.05, 2.0)),
        t_j=draw(st.floats(2.0, 20.0)),
        damping=draw(st.floats(0.0, 5.0)),
    )


INPUTS = st.builds(
    MachineInputs,
    t_m=st.floats(-1.5, 1.5),
    e_f=st.floats(0.5, 3.0),
    u_t=st.floats(0.2, 1.5),
    phi=st.floats(-3.0, 3.0),
)


def recorded_brackets(inputs, params, torque_mode):
    """(f, lo, hi, xtol, rtol) of every root solve steady_state_init makes,
    whether or not it then finds an equilibrium."""
    brackets = []

    def record(f, lo, hi, xtol, rtol):
        brackets.append((f, lo, hi, xtol, rtol))
        return _brentq(f, lo, hi, xtol, rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_brentq", record)
        try:
            steady_state_init(inputs, params, torque_mode)
        except NoConvergence:
            pass
    return brackets


class TestBrentPort:
    """The equilibrium's root solve is a port of SciPy's brentq; SciPy
    serves here as the oracle, which the port must match bit for bit."""

    @settings(max_examples=300)
    @given(params=machines(), inputs=INPUTS, torque_mode=st.sampled_from(TORQUE_MODES))
    def test_equals_scipy_on_every_bracket_of_the_walk(self, params, inputs, torque_mode):
        for f, lo, hi, xtol, rtol in recorded_brackets(inputs, params, torque_mode):
            want = brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            assert _brentq(f, lo, hi, xtol, rtol).hex() == want.hex()

    @pytest.mark.parametrize("torque_mode", TORQUE_MODES)
    @pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_shipped_config_equilibria_equal_scipy(self, path, torque_mode, monkeypatch):
        cfg = replace(build_scenario(load_config(path)), torque_mode=torque_mode)
        ours = np.array(astuple(equilibrium(cfg)))
        monkeypatch.setattr(scenario, "_brentq", brentq)
        assert np.array(astuple(equilibrium(cfg))).tobytes() == ours.tobytes()

    def test_same_sign_bracket_is_rejected(self):
        def f(x):
            return x * x + 1.0

        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0)
        with pytest.raises(ValueError):
            _brentq(f, -1.0, 1.0, 1e-15, 8.9e-16)

    @pytest.mark.parametrize("bracket", [(1.0, 2.0), (0.0, 1.0)], ids=["at_a", "at_b"])
    def test_root_at_an_end_of_the_bracket(self, bracket):
        def f(x):
            return x - 1.0

        want = brentq(f, *bracket)
        assert want == 1.0
        assert _brentq(f, *bracket, 1e-15, 8.9e-16).hex() == want.hex()

    def test_no_convergence_within_maxiter(self, monkeypatch):
        (f, lo, hi, xtol, rtol), = recorded_brackets(BASE, PARAMS, POWER_EQUALS_TORQUE)
        root, info = brentq(f, lo, hi, xtol=xtol, rtol=rtol, full_output=True)
        n = info.iterations
        assert n > 1
        assert _brentq(f, lo, hi, xtol, rtol, maxiter=n).hex() == root.hex()
        with pytest.raises(RuntimeError):
            brentq(f, lo, hi, xtol=xtol, rtol=rtol, maxiter=n - 1)
        with pytest.raises(NoConvergence, match=f"within {n - 1} iterations"):
            _brentq(f, lo, hi, xtol, rtol, maxiter=n - 1)
        monkeypatch.setattr(scenario, "_brentq", partial(_brentq, maxiter=n - 1))
        with pytest.raises(NoConvergence):
            steady_state_init(BASE, PARAMS)


class TestScenarioConfig:
    @pytest.mark.parametrize("dt", [0.0, -0.02, math.nan])
    def test_dt_must_be_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            replace(make_config(t_end=2.0), dt=dt)

    def test_horizon_must_cover_a_step(self):
        with pytest.raises(ValueError, match="t_end must cover at least one step"):
            replace(make_config(t_end=2.0), t_end=0.01)


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
        x0 = steady_state_init(BASE, PARAMS)
        np.testing.assert_array_equal(truth[0], astuple(x0))

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

    @pytest.mark.parametrize("params", [PARAMS, ODD_PARAMS])
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

    @staticmethod
    def counted_truth(cfg, monkeypatch):
        """simulate_truth(cfg) and the mechanical torque of each RK4 step
        it integrated."""
        torques = []
        step = float_step(cfg.machine, cfg.dt, cfg.torque_mode)

        def rk4(*args):
            torques.append(args[4])
            return step(*args)

        monkeypatch.setattr(scenario, "float_step", lambda *_: rk4)
        return simulate_truth(cfg), torques

    @staticmethod
    def oracle(cfg):
        inputs = cfg.profile.as_array(time_grid(cfg))[:-1]
        x0 = astuple(equilibrium(cfg))
        return machine_trajectory(x0, inputs, cfg.machine, cfg.dt, False), inputs

    def test_a_repeating_state_is_replayed_bit_for_bit(self, monkeypatch):
        # the settled swing repeats its bits after about 312 s
        cfg = make_config(t_end=600.0)
        truth, torques = self.counted_truth(cfg, monkeypatch)
        k = len(torques)
        expected, inputs = self.oracle(cfg)
        np.testing.assert_array_equal(truth.view(np.uint64), expected.view(np.uint64))
        steps = len(truth) - 1
        # every step up to the one that repeated an earlier state was
        # integrated once, and none after it
        assert k < steps
        bits = truth.view(np.uint64)
        period = next(p for p in range(1, k + 1) if (bits[k] == bits[k - p]).all())
        np.testing.assert_array_equal(bits[k + 1 :], bits[k + 1 - period : -period])
        # the replay starts mid-block: the rows before it were still in
        # the block list when the state repeated
        segment_start = int(np.flatnonzero((inputs[1:] != inputs[:-1]).any(axis=1))[-1]) + 1
        assert (k - segment_start) % TRUTH_BLOCK_ROWS != 0

    def test_integration_resumes_when_the_inputs_change_after_a_replay(self, monkeypatch):
        cfg = make_config(t_end=420.0)
        # the fault's table, and one more row: the torque steps up at 400 s
        t_m = (BASE.t_m, BASE.t_m + 0.01)
        last = cfg.profile.values[-1]
        profile = InputProfile(
            times=(*cfg.profile.times, 400.0), values=(*cfg.profile.values, (t_m[1], *last[1:]))
        )
        cfg = replace(cfg, profile=profile)
        truth, torques = self.counted_truth(cfg, monkeypatch)
        expected, _ = self.oracle(cfg)
        np.testing.assert_array_equal(truth.view(np.uint64), expected.view(np.uint64))
        # the settled swing was replayed before 400 s, and every step after
        # the torque change was integrated
        after = int(round(20.0 / cfg.dt))
        assert torques.count(t_m[0]) < len(truth) - 1 - after
        assert torques.count(t_m[1]) == after
        assert truth[-1, 0] - truth[-after - 1, 0] > 1e-4

    def test_a_zero_of_the_other_sign_is_not_a_repeat(self, monkeypatch):
        # -0.0 == 0.0, yet a step may map the two apart: here the angle's
        # sign bit flips at every step, a cycle of period 2, not 1
        def flip(d, w, eq, ed, *_):
            return -d, w, eq, ed

        monkeypatch.setattr(scenario, "float_step", lambda *_: flip)
        cfg = make_config(fault=None, t_end=1.0)
        truth = simulate_truth(cfg, replace(equilibrium(cfg), delta=0.0))
        assert (truth[:, 0] == 0.0).all()
        np.testing.assert_array_equal(np.signbit(truth[:, 0]), np.arange(len(truth)) % 2 == 1)

    def test_each_input_segment_detects_its_own_cycle(self, monkeypatch):
        # to this map phi = -0.0 is another input than 0.0: the angle climbs
        # for 20 steps, then walks back down through the states it climbed
        # through, the one saved at step 15 included, and they are no cycle
        # under the second input
        def rk4(d, w, eq, ed, tm, ef, ut, phi, *_):
            return d + math.copysign(1.0, phi), w, eq, ed

        monkeypatch.setattr(scenario, "float_step", lambda *_: rk4)
        cfg = make_config(fault=None, t_end=0.8)
        t_m, e_f, u_t, _ = cfg.profile.values[0]
        profile = InputProfile(
            times=(0.0, 0.39), values=((t_m, e_f, u_t, 0.0), (t_m, e_f, u_t, -0.0))
        )
        cfg = replace(cfg, profile=profile)
        truth = simulate_truth(cfg, replace(equilibrium(cfg), delta=0.0))
        j = np.arange(len(truth))
        np.testing.assert_array_equal(truth[:, 0], np.minimum(j, 40 - j))

    @pytest.mark.parametrize(
        "prior, dip, step",
        [({"delta_omega": 1e307}, 0.35, 1), ({}, 1e200, 61)],
    )
    def test_a_step_raising_inside_the_formula_is_named(self, prior, dip, step):
        cfg = make_config(fault=replace(STAGED_FAULT, u_t_dip=dip), t_end=2.0)
        x0 = replace(steady_state_init(BASE, PARAMS), **prior)
        with pytest.raises(NonFiniteState) as info:
            simulate_truth(cfg, x0)
        cause = info.value.__cause__
        assert isinstance(cause, (ArithmeticError, ValueError))
        assert str(info.value) == (
            f"truth integration failed at step {step}: {type(cause).__name__}: {cause}"
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
        x0 = replace(steady_state_init(BASE, PARAMS, DIVIDE_BY_SPEED), delta_omega=-1.0)
        with pytest.raises(NonFiniteState) as info:
            simulate_truth(cfg, x0)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert str(info.value).startswith(
            "truth integration failed at step 1: ZeroDivisionError: "
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
            # one row at a time, where synthesis maps the whole series
            assert clean[k, 2] == observe_points(truth[k][None], u_arr[k], cfg.machine)[0, 2]

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
        init = initial_filter_state(cfg, corrupted[None])
        eq0 = steady_state_init(BASE, PARAMS)
        assert init.x_hat.shape == (1, 4)
        assert init.x_hat[0, 0] == corrupted[0, 0]
        assert init.x_hat[0, 1] == corrupted[0, 1] - 1.0
        assert init.x_hat[0, 2] == pytest.approx(eq0.e_q_prime * 1.1, abs=1e-15)
        assert init.x_hat[0, 3] == pytest.approx(eq0.e_d_prime * 1.1, abs=1e-15)
        np.testing.assert_array_equal(init.P, [np.diag(cfg.init.p0_diag)])

    def test_stack_prior_is_each_series_prior(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        series = np.stack([
            synthesize_measurements(truth, replace(cfg, seed=seed))[1] for seed in (1, 2, 3)
        ])
        init = initial_filter_state(cfg, series)
        eq0 = equilibrium(cfg)
        assert init.x_hat.shape == (3, 4) and init.P.shape == (3, 4, 4)
        for x_hat, P, one in zip(init.x_hat, init.P, series):
            by_hand = (
                one[0, 0], one[0, 1] - 1.0, eq0.e_q_prime * 1.1, eq0.e_d_prime * 1.1,
            )
            np.testing.assert_array_equal(x_hat, by_hand)
            np.testing.assert_array_equal(P, np.diag(cfg.init.p0_diag))

    def test_bias_is_configurable(self):
        cfg = make_config(t_end=2.0)
        cfg = replace(cfg, init=InitSpec(eprime_bias=0.0))
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        init = initial_filter_state(cfg, corrupted[None])
        eq0 = steady_state_init(BASE, PARAMS)
        assert init.x_hat[0, 2] == pytest.approx(eq0.e_q_prime, abs=1e-15)


class TestFilterSeries:
    def test_row_count_must_match_grid(self):
        cfg = make_config(t_end=2.0)
        with pytest.raises(ValueError):
            filter_series(cfg, np.zeros((1, 5, 3)))

    def test_a_single_series_is_a_stack_of_one(self):
        cfg = make_config(t_end=2.0)
        with pytest.raises(ValueError, match="expected \\(cells, 101, 3\\)"):
            filter_series(cfg, np.zeros((len(time_grid(cfg)), 3)))

    def test_unknown_variant(self):
        cfg = make_config(t_end=2.0)
        series = np.zeros((1, len(time_grid(cfg)), 3))
        with pytest.raises(ValueError, match="unknown filter variant 'ukf'"):
            filter_series(cfg, series, variants=(CKF, "ukf"))

    def test_lockstep_variants_match_separate_runs(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        together, _ = filter_series(cfg, corrupted[None])[0]
        for variant in (CKF, RCKF):
            alone, _ = filter_series(cfg, corrupted[None], variants=(variant,))[0]
            np.testing.assert_array_equal(together[variant], alone[variant])

    def test_divergence_recorded_not_raised(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        corrupted[10, 1] = math.nan
        estimates, failures = filter_series(cfg, corrupted[None], variants=(CKF,))[0]
        assert estimates == {}
        # grid row 10 is measurement index 9
        assert failures == {CKF: "measurement index 9: corrected estimate is not finite"}

    def test_failures_are_listed_in_freeze_order(self):
        cfg = build_scenario(default_config())
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
        corrupted[6, 1] = 1e200
        corrupted[21, 1] = math.nan
        estimates, failures = filter_series(cfg, corrupted[None], (RCKF, CKF))[0]
        assert estimates == {}
        # the classical filter takes the spike (index 5) and freezes at the
        # next step; the robust one downweights it and freezes at the NaN
        assert list(failures) == [CKF, RCKF]
        assert failures[CKF].startswith("measurement index 6: ")
        assert failures[RCKF].startswith("measurement index 20: ")

    def test_stack_of_series_gives_one_result_per_series(self):
        cfg = make_config(t_end=2.0)
        truth = simulate_truth(cfg)
        series = np.stack([
            synthesize_measurements(truth, replace(cfg, seed=seed))[1] for seed in (1, 2)
        ])
        results = filter_series(cfg, series)
        assert len(results) == 2
        for one, result in zip(series, results):
            alone = filter_series(cfg, one[None])[0]
            for variant in (CKF, RCKF):
                np.testing.assert_array_equal(result[0][variant], alone[0][variant])


def run_pipeline(cfg):
    """Truth, measurements and both filters of one scenario:
    (truth, corrupted, estimates, failures)."""
    truth = simulate_truth(cfg)
    _, corrupted = synthesize_measurements(truth, cfg)
    return (truth, corrupted, *filter_series(cfg, corrupted[None])[0])


class TestPipeline:
    def test_default_run_produces_both_variants(self):
        noise = (
            NoiseSpec(GAUSSIAN_WHITE, math.radians(2.0)),
            NoiseSpec(GAUSSIAN_WHITE, 0.001),
            None,
        )
        cfg = make_config(noise=noise)
        _, corrupted, estimates, failures = run_pipeline(cfg)
        assert not failures
        n = len(time_grid(cfg))
        assert n == 1001
        for variant in (CKF, RCKF):
            assert estimates[variant].shape == (n, 4)
        init = initial_filter_state(cfg, corrupted[None])
        np.testing.assert_array_equal(estimates[CKF][0], init.x_hat[0])
        np.testing.assert_array_equal(estimates[RCKF][0], init.x_hat[0])

    def test_truth_and_prior_share_the_equilibrium(self, monkeypatch):
        import dsekit.scenario as scenario

        calls = []
        solve = scenario.steady_state_init

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenario, "steady_state_init", counted)
        truth, _, estimates, _ = run_pipeline(make_config(t_end=2.0))
        # one solve for the truth and one for the filter prior, of the
        # same inputs
        assert len(calls) == 2 and calls[0] == calls[1]
        x0 = solve(BASE, PARAMS)
        np.testing.assert_array_equal(truth[0], astuple(x0))
        assert estimates[CKF][0, 2] == x0.e_q_prime * 1.1

    def test_estimates_track_truth_under_white_noise(self):
        noise = (
            NoiseSpec(GAUSSIAN_WHITE, math.radians(2.0)),
            NoiseSpec(GAUSSIAN_WHITE, 0.001),
            None,
        )
        cfg = make_config(noise=noise)
        truth, corrupted, estimates, _ = run_pipeline(cfg)
        # angle estimate should beat the raw angle measurement handily
        est_err = np.abs(estimates[CKF][1:, 0] - truth[1:, 0])
        meas_err = np.abs(corrupted[1:, 0] - truth[1:, 0])
        assert np.sqrt((est_err**2).mean()) < 0.5 * np.sqrt((meas_err**2).mean())
