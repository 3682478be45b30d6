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
    MachineInputs,
    MachineParams,
    MachineState,
    MeasurementSigmas,
    _derivative,
    _kernel,
    _measurement,
    _MEASUREMENT_KERNEL,
    _params_tuple,
    _step_formula,
    _step_kernel,
    _variance,
    _VARIANCE_KERNEL,
    _Vec,
    as_process_model,
    observe_points,
    power_variance_map,
)
from oracles import machine_derivative, machine_observe, machine_power_variance, machine_rk4

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
# formula row by row on floats, above it with its array kernel.
PATH_ROWS = (FLOAT_ROWS, FLOAT_ROWS + 1)

# Batch sizes of the RK4 map: one row on floats, and on the arrays the
# first size past the crossover and the matrix's 128 rows (16 members of 8
# cubature points), or the first multiple of 8 past the crossover if that
# is larger.
RK4_PATH_ROWS = (1, FLOAT_ROWS + 1, max(128, 8 * (FLOAT_ROWS // 8 + 1)))


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
        # arrays, on both sides of each map's crossover; both must give
        # the oracle's per-point bits
        rng = np.random.default_rng(7)
        sigmas = MeasurementSigmas()
        for torque_mode in (POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED):
            model = as_process_model(PARAMS, 0.02, torque_mode)
            divide = torque_mode == DIVIDE_BY_SPEED
            variance = power_variance_map(PARAMS, sigmas)
            for size in (1, 8, FLOAT_ROWS, FLOAT_ROWS + 1, 100):
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
                # one input row per state, as measurement synthesis passes
                # them to the measurement and the power variance
                rows = np.array([astuple(random_inputs(rng)) for _ in range(size)])
                for points_map, oracle in (
                    (model.transition_points,
                     lambda p, r: machine_rk4(p, r, PARAMS, 0.02, divide)),
                    (model.observe_points, lambda p, r: machine_observe(p, r, PARAMS)),
                    (variance, lambda p, r: machine_power_variance(p, r, PARAMS, sigmas)),
                ):
                    expected = np.array([oracle(p, r) for p, r in zip(points, rows)])
                    np.testing.assert_array_equal(points_map(points, rows), expected)
                # a row whose evaluation faults (the sine of an infinite
                # angle) comes out NaN on the float rows and not finite on
                # the arrays, without raising; the other rows keep their bits
                faulty = points.copy()
                faulty[size // 2, 0] = math.inf
                others = np.arange(size) != size // 2
                for points_map in (model.transition_points, model.observe_points, variance):
                    got, clean = points_map(faulty, u), points_map(points, u)
                    np.testing.assert_array_equal(got[others], clean[others])
                    assert not np.isfinite(got[size // 2]).all()
                    assert np.isnan(got[size // 2]).all() or size > FLOAT_ROWS

    def test_dimensions(self):
        model = as_process_model(PARAMS, 0.02)
        assert model.n == 4
        assert model.m == 3

    @pytest.mark.parametrize("rows", RK4_PATH_ROWS)
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

    @pytest.mark.parametrize("rows", RK4_PATH_ROWS)
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
        # the transition map does not raise: on the float rows and on the
        # array path alike, the faulting row comes out not finite without a
        # warning, and the other rows keep their bits
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


# States whose float evaluation raises in some kernel, with what the named
# kernel raises: an RK4 stage angle made infinite by a speed of 1e307,
# whose sine is a domain error; the power's sensitivity to u_t at an e_q'
# of 1e307, whose square overflows pow; the sine of an infinite angle; and
# the divide_by_speed torque at a speed of exactly -1.
FAULT_ROWS = {
    "speed_1e307": ((0.3, 1e307, 1.0, 0.2), POWER_EQUALS_TORQUE, ValueError),
    "e_q_1e307": ((0.4, 0.0, 1e307, 0.2), "variance", OverflowError),
    "infinite_angle": ((math.inf, 0.0, 1.0, 0.2), "measurement", ValueError),
    "speed_minus_one": ((0.3, -1.0, 1.0, 0.2), DIVIDE_BY_SPEED, ZeroDivisionError),
}
KERNELS = (POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED, "measurement", "variance")


def state_itself(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    return _Vec((d, w, eq, ed))


def repeated_vectors(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    # b repeats three components of a, so it is no vector operation of its
    # own, and the sum a + b is computed twice
    a = c[0] * _Vec((w, d, ed, eq))
    b = c[0] * _Vec((w, d, ed, d))
    return a + b + (a + b)


def mixed_components(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    # a vector of a state operation, a leaf, a literal and an input value,
    # plus one whose components were computed before
    v = _Vec((2.0 * d, d, 3.0, ut * tm)) + _Vec((2.0 * d, w * w, w * w, xp.sin(ed)))
    return (*v, ed, 0.5, w - phi)


def buffer_read_after(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    # a stage buffer read twice by vector operations and then by its
    # components, after a later vector operation could have taken it over
    k = _Vec((w * c[0], eq - ef, ed / ut, -d))
    s = k + 2.0 * k
    return (*(s + 3.0 * s), k[0] * k[3], xp.cos(k[1]))


# Formulas over _Vec that reach the array kernel's copies, buffers and
# buffer reuse.
VECTOR_FORMULAS = (state_itself, repeated_vectors, mixed_components, buffer_read_after)


def traced_kernel(name, params):
    """The traced kernel named in KERNELS, its formula and its constants
    under params."""
    pt = _params_tuple(params)
    sigmas = MeasurementSigmas()
    if name == "measurement":
        return _MEASUREMENT_KERNEL, _measurement, pt[:3]
    if name == "variance":
        return _VARIANCE_KERNEL, _variance, (*pt[:3], sigmas.sigma_u, sigmas.sigma_phi)
    return _step_kernel(name), _step_formula(name == DIVIDE_BY_SPEED), (*pt, 0.02)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestTracedKernels:
    """The compiled float kernels against their formula evaluated on floats
    with math: the same bits on every row, and NaNs from rows where the
    formula raises."""

    @pytest.mark.parametrize("params", [PARAMS, ODD_PARAMS])
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernels_give_the_bits_of_the_float_formula(self, name, params):
        kernel, formula, constants = traced_kernel(name, params)
        rows = kernel.make(*constants)[0]
        rng = np.random.default_rng(11)
        states, inputs = random_rows(rng, 200)
        points = [*states.tolist(), *(row for row, *_ in FAULT_ROWS.values())]
        inputs = [*inputs.tolist(), *random_rows(rng, len(FAULT_ROWS))[1].tolist()]
        expected = []
        for point, u in zip(points, inputs):
            try:
                want = formula(*point, *u, constants, math)
            except (ArithmeticError, ValueError):
                want = (math.nan,) * kernel.width
            expected.extend(want)
        np.testing.assert_array_equal(bits(rows(points, inputs)), bits(expected))

    @pytest.mark.parametrize("params", [PARAMS, ODD_PARAMS])
    @pytest.mark.parametrize("name", KERNELS)
    def test_array_kernels_give_the_bits_of_the_float_kernels(self, name, params):
        # under one input vector and under one input row per state; a row
        # whose float evaluation raises comes out not finite
        kernel, _, constants = traced_kernel(name, params)
        rows = kernel.make(*constants)[0]
        run = kernel.array(*constants)
        rng = np.random.default_rng(12)
        states, inputs = random_rows(rng, 200)
        points = np.array([*states.tolist(), *(row for row, *_ in FAULT_ROWS.values())])
        faults = np.arange(len(points)) >= len(states)
        for u in (inputs[0], random_rows(rng, len(points))[1]):
            per_row = u.tolist() if u.ndim == 2 else [u.tolist()] * len(points)
            expected = np.reshape(rows(points.tolist(), per_row), (len(points), kernel.width))
            with np.errstate(all="ignore"):
                got = run(points, u)
            assert got.shape == expected.shape and got.flags.c_contiguous
            flagged = np.isnan(expected).any(axis=1)
            np.testing.assert_array_equal(bits(got[~flagged]), bits(expected[~flagged]))
            assert not np.isfinite(got[flagged]).all(axis=1).any()
            assert not flagged[~faults].any()

    @pytest.mark.parametrize("formula", VECTOR_FORMULAS, ids=lambda f: f.__name__)
    def test_array_kernel_of_vector_formulas(self, formula):
        # the array kernel's copies, buffers and reuse against the formula
        # evaluated row by row on floats
        kernel = _kernel(formula, 1)
        run = kernel.array(0.3)
        rng = np.random.default_rng(13)
        points, inputs = random_rows(rng, 50)
        for u in (inputs[0], inputs):
            per_row = u.tolist() if u.ndim == 2 else [u.tolist()] * len(points)
            expected = [
                formula(*p, *r, (0.3,), math) for p, r in zip(points.tolist(), per_row)
            ]
            np.testing.assert_array_equal(bits(run(points, u)), bits(expected))

    @pytest.mark.parametrize("fault", FAULT_ROWS)
    def test_fault_rows_raise_where_named(self, fault):
        point, name, error = FAULT_ROWS[fault]
        kernel, formula, constants = traced_kernel(name, PARAMS)
        rows = kernel.make(*constants)[0]
        u = (0.8, 2.0, 1.0, 0.0)
        with pytest.raises(error):
            formula(*point, *u, constants, math)
        assert np.isnan(rows([point], [u])).all()

    @pytest.mark.parametrize(
        "output",
        [lambda w: w if w else 0.0, lambda w: w if w > 0.0 else 0.0, lambda w: float(w == 0.0)],
        ids=["truth", "order", "equality"],
    )
    def test_a_formula_branching_on_a_traced_value_fails_to_trace(self, output):
        def formula(d, w, eq, ed, tm, ef, ut, phi, c, xp):
            return (output(1.0 + w),)

        with pytest.raises(TypeError, match="cannot branch on a value it computes"):
            _kernel(formula, 0)

    @pytest.mark.parametrize("literal", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_literal_fails_to_trace(self, literal):
        def formula(d, w, eq, ed, tm, ef, ut, phi, c, xp):
            return (d * c[0] + literal,)

        with pytest.raises(ValueError, match="non-finite literal"):
            _kernel(formula, 1)

    def test_constants_alone_are_evaluated_once_per_make(self):
        # 0.5 * dt and dt / 6.0 of the RK4 step depend on dt alone; the
        # kernel evaluates them when it is made, and per row only the
        # products of dt with a stage's rates
        calls = []

        class Dt(float):
            def __mul__(self, other):
                calls.append(("*", other))
                return float.__mul__(self, other)

            __rmul__ = __mul__

            def __truediv__(self, other):
                calls.append(("/", other))
                return float.__truediv__(self, other)

        kernel, _, constants = traced_kernel(POWER_EQUALS_TORQUE, PARAMS)
        rows = kernel.make(*constants[:-1], Dt(0.02))[0]
        assert sorted(calls) == [("*", 0.5), ("/", 6.0)]
        calls.clear()
        states, inputs = random_rows(np.random.default_rng(3), 5)
        rows(states.tolist(), inputs.tolist())
        assert len(calls) == 5 * 4
        assert {op for op, _ in calls} == {"*"} and 0.5 not in {other for _, other in calls}
