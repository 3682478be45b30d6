"""Generator model: power identities, derivatives, integration,
measurement map, and covariance propagation, all checked on the array maps
the filters and the scenarios run."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from dsekit.config import build_scenario, default_config
from dsekit.machine import (
    DIVIDE_BY_SPEED,
    FLOAT_ROWS,
    POWER_EQUALS_TORQUE,
    RK4_FLOAT_ROWS,
    MachineInputs,
    MachineParams,
    MachineState,
    MeasurementSigmas,
    _derivative,
    _params_tuple,
    as_process_model,
    observe_points,
    power_variance_map,
)
from oracles import machine_derivative, machine_observe, machine_rk4

# The machine of the default configuration.
PARAMS = build_scenario(default_config()).machine

# A second profile, on which a reassociated constant subexpression of the
# formulas (such as (x_d' - x_q') / (x_d' x_q') for 1 / x_q' - 1 / x_d')
# changes the last bit where on PARAMS it happens not to.
ODD_PARAMS = MachineParams(
    x_d=1.9, x_d_prime=0.33, x_q=1.6, x_q_prime=0.71,
    t_d0_prime=7.3, t_q0_prime=0.47, t_j=11.7, damping=1.3,
)

# Batch sizes on both sides of FLOAT_ROWS: up to it a map evaluates its
# formula row by row on floats, above it elementwise on arrays.
PATH_ROWS = (FLOAT_ROWS, FLOAT_ROWS + 1)


def random_state(rng) -> MachineState:
    return MachineState(
        delta=rng.uniform(-math.pi, math.pi),
        delta_omega=rng.uniform(-0.05, 0.05),
        e_q_prime=rng.uniform(0.3, 1.5),
        e_d_prime=rng.uniform(-0.8, 0.8),
    )


def one_step(dt):
    """One RK4 step of length dt on one state, through the model's array map."""
    model = as_process_model(PARAMS, dt)
    return lambda x, u: model.transition_points(x[None], u)[0]


def random_inputs(rng) -> MachineInputs:
    return MachineInputs(
        t_m=rng.uniform(0.0, 1.0),
        e_f=rng.uniform(1.0, 2.5),
        u_t=rng.uniform(0.2, 1.2),
        phi=rng.uniform(-math.pi, math.pi),
    )


# The bounds of random_state's and random_inputs' draws, in their order.
ROW_BOUNDS = (
    (-math.pi, -0.05, 0.3, -0.8, 0.0, 1.0, 0.2, -math.pi),
    (math.pi, 0.05, 1.5, 0.8, 1.0, 2.5, 1.2, math.pi),
)


def random_rows(rng, count):
    """count draws of a random state and its random inputs, as the
    (count, 4) states and the (count, 4) input rows."""
    rows = rng.uniform(*ROW_BOUNDS, size=(count, 8))
    return rows[:, :4], rows[:, 4:]


def in_batches(points_map, x, u, rows):
    """points_map over the rows of x, with one input row each, called on
    at most rows rows at a time."""
    return np.concatenate(
        [points_map(x[i : i + rows], u[i : i + rows]) for i in range(0, len(x), rows)]
    )


def derivative(x, u, divide_by_speed=False):
    """The model's right-hand side at one state, on floats."""
    return _derivative(*x, *u, _params_tuple(PARAMS), divide_by_speed, math)


def power(x, u):
    """The electrical power of each row of x, with one input row each."""
    return observe_points(x, u, PARAMS)[:, 2]


class TestParams:
    def test_default_profile(self):
        assert PARAMS.x_d == 1.8
        assert PARAMS.omega_0 == pytest.approx(2.0 * math.pi * 60.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="x_d"):
            MachineParams(0.2, 0.3, 1.7, 0.55, 8.0, 0.4, 13.0, 2.0)
        with pytest.raises(ValueError, match="t_j"):
            MachineParams(1.8, 0.3, 1.7, 0.55, 8.0, 0.4, 0.0, 2.0)
        with pytest.raises(ValueError, match="damping"):
            MachineParams(1.8, 0.3, 1.7, 0.55, 8.0, 0.4, 13.0, -1.0)

    def test_negative_terminal_voltage_rejected(self):
        with pytest.raises(ValueError, match="terminal voltage"):
            MachineInputs(t_m=0.8, e_f=2.0, u_t=-0.1, phi=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("t_m", math.nan), ("e_f", math.nan), ("phi", math.nan), ("u_t", math.inf),
         ("t_m", -math.inf)],
    )
    def test_non_finite_inputs_rejected(self, field, value):
        inputs = {"t_m": 0.8, "e_f": 2.0, "u_t": 1.0, "phi": 0.0, field: value}
        with pytest.raises(ValueError, match="machine inputs must be finite"):
            MachineInputs(**inputs)

    @pytest.mark.parametrize("x_q_prime", [1.7, 1.8, 0.0])
    def test_q_axis_reactances_ordered(self, x_q_prime):
        with pytest.raises(ValueError, match="x_q > x_q_prime > 0"):
            MachineParams(1.8, 0.3, 1.7, x_q_prime, 8.0, 0.4, 13.0, 2.0)

    @pytest.mark.parametrize("field", ["sigma_u", "sigma_phi"])
    def test_negative_sigma_rejected(self, field):
        with pytest.raises(ValueError, match="must be nonnegative"):
            MeasurementSigmas(**{field: -0.001})
        assert getattr(MeasurementSigmas(**{field: 0.0}), field) == 0.0


class TestPowerIdentity:
    @pytest.mark.parametrize("rows", PATH_ROWS)
    def test_power_equals_dq_product_on_random_points(self, rows):
        # u_d = u_t sin(theta), u_q = u_t cos(theta); the closed form must
        # equal u_d i_d + u_q i_q essentially to machine precision
        rng = np.random.default_rng(42)
        x, u = random_rows(rng, 100_000)
        p = in_batches(power, x, u, rows)
        delta, _, e_q, e_d = x.T
        th = delta - u[:, 3]
        u_d = u[:, 2] * np.sin(th)
        u_q = u[:, 2] * np.cos(th)
        i_d = (e_q - u_q) / PARAMS.x_d_prime
        i_q = (u_d - e_d) / PARAMS.x_q_prime
        reference = u_d * i_d + u_q * i_q
        assert (np.abs(p - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference))).all()

    def test_zero_voltage_gives_emf_decay_only(self):
        x = (0.5, 0.0, 1.0, 0.2)
        u = (0.0, 1.0, 0.0, 0.0)
        assert power(np.array([x]), np.array([u]))[0] == 0.0
        # the stator currents reduce to e_q' / x_d' and -e_d' / x_q'
        dx = derivative(x, u)
        assert dx[2] == pytest.approx((1.0 - 1.0 - 1.5 * (1.0 / 0.3)) / 8.0, rel=1e-15)
        assert dx[3] == pytest.approx((-0.2 + 1.15 * (-0.2 / 0.55)) / 0.4, rel=1e-15)


class TestPowerPartials:
    @pytest.mark.parametrize("rows", PATH_ROWS)
    def test_match_central_differences(self, rows):
        # with one sigma at zero and the other at one, the power variance
        # is the square of one partial: d_ut * u_t for the voltage
        # magnitude, d_phi for the phase
        rng = np.random.default_rng(10)
        x, u = random_rows(rng, 500)
        h = 1e-6
        for column, sigmas, scale in (
            (2, MeasurementSigmas(sigma_u=1.0, sigma_phi=0.0), u[:, 2]),
            (3, MeasurementSigmas(sigma_u=0.0, sigma_phi=1.0), 1.0),
        ):
            variance = power_variance_map(PARAMS, sigmas)
            analytic = np.sqrt(in_batches(variance, x, u, rows)) / scale
            hi, lo = u.copy(), u.copy()
            hi[:, column] += h
            lo[:, column] -= h
            fd = np.abs(in_batches(power, x, hi, rows) - in_batches(power, x, lo, rows)) / (2 * h)
            assert (np.abs(analytic - fd) <= 1e-6 * np.maximum(1.0, fd)).all()


class TestStateDerivative:
    def test_swing_equation_structure(self):
        x = (0.8, 0.002, 1.0, 0.4)
        u = (0.8, 2.0, 1.0, 0.0)
        dx = derivative(x, u)
        assert dx[0] == pytest.approx(PARAMS.omega_0 * 0.002, rel=1e-15)
        p_e = power(np.array([x]), np.array([u]))[0]
        expected_acc = (0.8 - p_e - 2.0 * 0.002) / 13.0
        assert dx[1] == pytest.approx(expected_acc, rel=1e-15)
        i_d = (1.0 - math.cos(0.8)) / PARAMS.x_d_prime
        i_q = (math.sin(0.8) - 0.4) / PARAMS.x_q_prime
        assert dx[2] == pytest.approx((2.0 - 1.0 - 1.5 * i_d) / 8.0, rel=1e-15)
        assert dx[3] == pytest.approx((-0.4 + 1.15 * i_q) / 0.4, rel=1e-15)

    def test_torque_modes_agree_at_synchronous_speed(self):
        x = (0.8, 0.0, 1.0, 0.4)
        u = (0.8, 2.0, 1.0, 0.0)
        assert_allclose(derivative(x, u, False), derivative(x, u, True), rtol=0.0, atol=0.0)

    def test_torque_modes_differ_off_synchronous(self):
        x = (0.8, 0.01, 1.0, 0.4)
        u = (0.8, 2.0, 1.0, 0.0)
        a = derivative(x, u, False)
        b = derivative(x, u, True)
        p_e = power(np.array([x]), np.array([u]))[0]
        assert a[1] != b[1]
        expected = (0.8 - p_e / 1.01 - 2.0 * 0.01) / 13.0
        assert b[1] == pytest.approx(expected, rel=1e-14)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="torque mode"):
            as_process_model(PARAMS, 0.02, "bogus")


class TestRk4Step:
    def test_matches_reference_integrator(self):
        # 2 s of free swing from a perturbed state, checked against a
        # high-accuracy adaptive integration of the same right-hand side
        u = (0.8, 2.0, 1.0, 0.0)
        start = np.array((0.9, 0.003, 1.0, 0.45))

        def rhs(t, y):
            return machine_derivative(y, u, PARAMS)

        dt = 0.02
        steps = 100
        sol = solve_ivp(
            rhs, (0.0, steps * dt), list(start),
            method="RK45", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        step = one_step(dt)
        x = start
        for _ in range(steps):
            x = step(x, np.array(u))
        reference = sol.sol(steps * dt)
        # classical RK4 at dt = 0.02 lands near 5e-6 on this swing; the
        # bound guards against wiring mistakes, the order test below pins
        # the convergence rate
        assert np.abs(x - reference).max() <= 1e-5

    def test_fourth_order_convergence(self):
        # halving the step must shrink the global error by about 2^4
        u = (0.8, 2.0, 1.0, 0.0)
        start = np.array((0.9, 0.003, 1.0, 0.45))

        def rhs(t, y):
            return machine_derivative(y, u, PARAMS)

        horizon = 1.0
        sol = solve_ivp(
            rhs, (0.0, horizon), list(start),
            method="RK45", rtol=1e-13, atol=1e-15,
        )
        reference = sol.y[:, -1]

        def global_error(dt):
            n = int(round(horizon / dt))
            step = one_step(dt)
            x = start
            for _ in range(n):
                x = step(x, np.array(u))
            return np.abs(x - reference).max()

        ratio = global_error(0.04) / global_error(0.02)
        assert 12.0 <= ratio <= 20.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            as_process_model(PARAMS, 0.0)


class TestMeasure:
    def test_channels(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        inputs = random_inputs(rng)
        delta_z, omega_z, p_e_z = observe_points(
            np.array([astuple(state)]), astuple(inputs), PARAMS
        )[0]
        assert delta_z == state.delta
        assert omega_z == 1.0 + state.delta_omega
        # the same operations as the oracle: bit-for-bit equality
        assert p_e_z == machine_observe(astuple(state), astuple(inputs), PARAMS)[2]


class TestMeasurementCovariance:
    def test_default_angle_and_speed_variances(self):
        sigmas = MeasurementSigmas()
        # sigma_delta of 2 degrees squared
        assert sigmas.sigma_delta**2 == pytest.approx(1.21847e-3, rel=1e-4)
        assert sigmas.sigma_omega**2 == pytest.approx(1e-6, rel=1e-12)

    @pytest.mark.parametrize("rows", PATH_ROWS)
    def test_power_variance_propagation(self, rows):
        # (d_ut sigma_u u_t)^2 + (d_phi sigma_phi)^2: each sigma's share is
        # its square times the variance at that sigma one and the other
        # zero, the squared partial that TestPowerPartials pins
        rng = np.random.default_rng(3)
        x, u = random_rows(rng, 100)
        sigmas = MeasurementSigmas()

        def variance(sigma_u, sigma_phi):
            sigmas = MeasurementSigmas(sigma_u=sigma_u, sigma_phi=sigma_phi)
            return in_batches(power_variance_map(PARAMS, sigmas), x, u, rows)

        unit_u, unit_phi = variance(1.0, 0.0), variance(0.0, 1.0)
        expected = sigmas.sigma_u**2 * unit_u + sigmas.sigma_phi**2 * unit_phi
        assert_allclose(
            variance(sigmas.sigma_u, sigmas.sigma_phi), expected, rtol=1e-14, atol=0.0
        )
        # and the total is the sum of the two shares at the same sigmas
        assert_allclose(
            variance(sigmas.sigma_u, sigmas.sigma_phi),
            variance(sigmas.sigma_u, 0.0) + variance(0.0, sigmas.sigma_phi),
            rtol=1e-14,
            atol=0.0,
        )

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma_delta"):
            MeasurementSigmas(sigma_delta=0.0)


class TestProcessModelWrapper:
    def test_transition_equals_the_oracle_rk4(self):
        rng = np.random.default_rng(4)
        model = as_process_model(PARAMS, 0.02)
        for _ in range(20):
            state = random_state(rng)
            inputs = random_inputs(rng)
            via_model = model.transition_points(np.array([astuple(state)]), astuple(inputs))[0]
            via_step = np.array(
                machine_rk4(astuple(state), astuple(inputs), PARAMS, 0.02, False)
            )
            assert_allclose(via_model, via_step, rtol=0.0, atol=0.0)

    def test_observe_equals_the_oracle_measurement(self):
        rng = np.random.default_rng(5)
        model = as_process_model(PARAMS, 0.02)
        for _ in range(20):
            state = random_state(rng)
            inputs = random_inputs(rng)
            via_model = model.observe_points(np.array([astuple(state)]), astuple(inputs))[0]
            via_oracle = np.array(
                machine_observe(astuple(state), astuple(inputs), PARAMS)
            )
            assert_allclose(via_model, via_oracle, rtol=0.0, atol=0.0)

    def test_point_maps_equal_the_oracle_per_point(self):
        rng = np.random.default_rng(6)
        model = as_process_model(PARAMS, 0.02)
        points = np.array([astuple(random_state(rng)) for _ in range(8)])
        inputs = np.array(astuple(random_inputs(rng)))
        for batch, single in (
            (model.transition_points, lambda p, u: machine_rk4(p, u, PARAMS, 0.02, False)),
            (model.observe_points, lambda p, u: machine_observe(p, u, PARAMS)),
        ):
            expected = np.array([single(p, inputs) for p in points])
            assert_allclose(batch(points, inputs), expected, rtol=0.0, atol=0.0)

    def test_point_maps_equal_the_oracle_at_every_size(self):
        # small point sets are evaluated on floats and larger ones on
        # arrays; both must give the oracle's per-point bits
        rng = np.random.default_rng(7)
        sigmas = MeasurementSigmas()
        for torque_mode in (POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED):
            model = as_process_model(PARAMS, 0.02, torque_mode)
            divide = torque_mode == DIVIDE_BY_SPEED
            variance = power_variance_map(PARAMS, sigmas)
            for size in (1, 8, 16, 17, 24, 25, 100):
                states = [random_state(rng) for _ in range(size)]
                points = np.array([astuple(s) for s in states])
                u = np.array(astuple(random_inputs(rng)))
                expected = np.array([machine_rk4(p, u, PARAMS, 0.02, divide) for p in points])
                assert_allclose(model.transition_points(points, u), expected, rtol=0.0, atol=0.0)
                expected = np.array(
                    [observe_points(np.array([astuple(s)]), u, PARAMS)[0] for s in states]
                )
                assert_allclose(model.observe_points(points, u), expected, rtol=0.0, atol=0.0)
                expected = [variance(p[None], u)[0] for p in points]
                assert_allclose(variance(points, u), expected, rtol=0.0, atol=0.0)
                # one input row per state, as measurement synthesis passes them
                rows = np.array([astuple(random_inputs(rng)) for _ in range(size)])
                expected = np.array([
                    observe_points(np.array([astuple(s)]), r, PARAMS)[0]
                    for s, r in zip(states, rows)
                ])
                assert_allclose(observe_points(points, rows, PARAMS), expected, rtol=0.0, atol=0.0)
                # a row whose evaluation faults (the sine of an infinite
                # angle) comes out NaN on the float rows and not finite on
                # the arrays, without raising; the other rows keep their bits
                faulty = points.copy()
                faulty[size // 2, 0] = math.inf
                others = np.arange(size) != size // 2
                for points_map, float_rows in (
                    (model.transition_points, RK4_FLOAT_ROWS),
                    (model.observe_points, FLOAT_ROWS),
                    (variance, FLOAT_ROWS),
                ):
                    got, clean = points_map(faulty, u), points_map(points, u)
                    np.testing.assert_array_equal(got[others], clean[others])
                    assert not np.isfinite(got[size // 2]).all()
                    assert np.isnan(got[size // 2]).all() or size > float_rows

    def test_dimensions(self):
        model = as_process_model(PARAMS, 0.02)
        assert model.n == 4
        assert model.m == 3

    @pytest.mark.parametrize("rows", [1, 30])
    def test_finite_row_whose_squares_overflow_is_not_flagged(self, rows):
        # an e_q' of 1e160 propagates to a finite row near 1e160, whose
        # squares would overflow; the map must give it without a warning,
        # called directly outside any errstate
        model = as_process_model(PARAMS, 0.02)
        points = np.tile([0.1, 0.0, 1.0, 0.2], (rows, 1))
        points[rows // 2, 2] = 1e160
        u = np.array([0.8, 2.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.transition_points(points, u)
        assert np.isfinite(out).all()
        assert np.abs(out[rows // 2]).max() > 1e155
        np.testing.assert_array_equal(
            out, [machine_rk4(p, u, PARAMS, 0.02, False) for p in points]
        )

    @pytest.mark.parametrize("params", [PARAMS, ODD_PARAMS])
    @pytest.mark.parametrize("torque_mode", [POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED])
    def test_transition_points_equal_the_unhoisted_formula(self, torque_mode, params):
        # the hoisted constants must leave every bit of the RK4 step as it
        # was, on the float rows and on the array path alike
        rng = np.random.default_rng(8)
        model = as_process_model(params, 0.02, torque_mode)
        divide = torque_mode == DIVIDE_BY_SPEED
        for size in range(1, 101):
            points = np.array([astuple(random_state(rng)) for _ in range(size)])
            u = np.array(astuple(random_inputs(rng)))
            expected = np.array([machine_rk4(p, u, params, 0.02, divide) for p in points])
            np.testing.assert_array_equal(model.transition_points(points, u), expected)

    @pytest.mark.parametrize("rows", [1, 30])
    @pytest.mark.parametrize(
        "torque_mode, speed, fault",
        [
            # a speed deviation of 1e308 overflows the RK4 stages
            (POWER_EQUALS_TORQUE, 1e308, None),
            # one of exactly -1 divides the power by zero, where the float
            # oracle raises
            (DIVIDE_BY_SPEED, -1.0, ZeroDivisionError),
        ],
        ids=["overflow", "division_by_zero"],
    )
    def test_faulting_row_comes_out_non_finite(self, torque_mode, speed, fault, rows):
        # the transition map does not raise: on the float rows (1) and on
        # the array path (30) alike, the faulting row comes out not finite
        # without a warning, and the other rows keep their bits
        model = as_process_model(PARAMS, 0.02, torque_mode)
        divide = torque_mode == DIVIDE_BY_SPEED
        rng = np.random.default_rng(rows)
        points = np.array([astuple(random_state(rng)) for _ in range(rows)])
        points[rows // 2, 1] = speed
        u = np.array([0.8, 2.0, 1.0, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.transition_points(points, u)
        assert not np.isfinite(out[rows // 2]).all()
        for i in range(rows):
            if i != rows // 2:
                np.testing.assert_array_equal(
                    out[i], machine_rk4(points[i], u, PARAMS, 0.02, divide)
                )
        if fault is not None:
            with pytest.raises(fault):
                machine_rk4(points[rows // 2].tolist(), u.tolist(), PARAMS, 0.02, divide)
