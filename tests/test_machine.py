"""Generator model: currents, power identities, derivatives, integration,
measurement map, and covariance propagation."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from dsekit.machine import (
    DEFAULT_PARAMS,
    DIVIDE_BY_SPEED,
    FLOAT_ROWS,
    POWER_EQUALS_TORQUE,
    RK4_FLOAT_ROWS,
    MachineInputs,
    MachineParams,
    MachineState,
    MeasurementSigmas,
    as_process_model,
    electrical_power,
    measurement_covariance,
    observe_points,
    power_partials,
    power_variance_map,
    state_derivative,
    stator_currents,
)
from oracles import machine_observe, machine_rk4


# A second profile, on which a reassociated constant subexpression of the
# formulas (such as (x_d' - x_q') / (x_d' x_q') for 1 / x_q' - 1 / x_d')
# changes the last bit where on DEFAULT_PARAMS it happens not to.
ODD_PARAMS = MachineParams(
    x_d=1.9, x_d_prime=0.33, x_q=1.6, x_q_prime=0.71,
    t_d0_prime=7.3, t_q0_prime=0.47, t_j=11.7, damping=1.3,
)


def random_state(rng) -> MachineState:
    return MachineState(
        delta=rng.uniform(-math.pi, math.pi),
        delta_omega=rng.uniform(-0.05, 0.05),
        e_q_prime=rng.uniform(0.3, 1.5),
        e_d_prime=rng.uniform(-0.8, 0.8),
    )


def one_step(dt):
    """One RK4 step of length dt on one state, through the model's array map."""
    model = as_process_model(DEFAULT_PARAMS, dt)
    return lambda x, u: model.transition_points(x[None], u)[0]


def random_inputs(rng) -> MachineInputs:
    return MachineInputs(
        t_m=rng.uniform(0.0, 1.0),
        e_f=rng.uniform(1.0, 2.5),
        u_t=rng.uniform(0.2, 1.2),
        phi=rng.uniform(-math.pi, math.pi),
    )


class TestParams:
    def test_default_profile(self):
        assert DEFAULT_PARAMS.x_d == 1.8
        assert DEFAULT_PARAMS.omega_0 == pytest.approx(2.0 * math.pi * 60.0)

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
    def test_power_equals_dq_product_on_random_points(self):
        # u_d = u_t sin(theta), u_q = u_t cos(theta); the closed form must
        # equal u_d i_d + u_q i_q essentially to machine precision
        rng = np.random.default_rng(42)
        for _ in range(100_000):
            state = random_state(rng)
            inputs = random_inputs(rng)
            p = electrical_power(state, inputs, DEFAULT_PARAMS)
            cur = stator_currents(state, inputs, DEFAULT_PARAMS)
            th = state.delta - inputs.phi
            u_d = inputs.u_t * math.sin(th)
            u_q = inputs.u_t * math.cos(th)
            reference = u_d * cur.i_d + u_q * cur.i_q
            assert abs(p - reference) <= 1e-12 * max(1.0, abs(reference))

    def test_zero_voltage_gives_emf_decay_only(self):
        state = MachineState(0.5, 0.0, 1.0, 0.2)
        inputs = MachineInputs(t_m=0.0, e_f=1.0, u_t=0.0, phi=0.0)
        assert electrical_power(state, inputs, DEFAULT_PARAMS) == 0.0
        cur = stator_currents(state, inputs, DEFAULT_PARAMS)
        assert cur.i_d == pytest.approx(1.0 / 0.3)
        assert cur.i_q == pytest.approx(-0.2 / 0.55)


class TestPowerPartials:
    def test_match_central_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            state = random_state(rng)
            inputs = random_inputs(rng)
            d_ut, d_phi = power_partials(state, inputs, DEFAULT_PARAMS)
            h = 1e-6

            def p_at(ut=None, phi=None):
                probe = MachineInputs(
                    t_m=inputs.t_m,
                    e_f=inputs.e_f,
                    u_t=inputs.u_t if ut is None else ut,
                    phi=inputs.phi if phi is None else phi,
                )
                return electrical_power(state, probe, DEFAULT_PARAMS)

            fd_ut = (p_at(ut=inputs.u_t + h) - p_at(ut=inputs.u_t - h)) / (2 * h)
            fd_phi = (p_at(phi=inputs.phi + h) - p_at(phi=inputs.phi - h)) / (2 * h)
            assert abs(d_ut - fd_ut) <= 1e-6 * max(1.0, abs(fd_ut))
            assert abs(d_phi - fd_phi) <= 1e-6 * max(1.0, abs(fd_phi))


class TestStateDerivative:
    def test_swing_equation_structure(self):
        state = MachineState(0.8, 0.002, 1.0, 0.4)
        inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
        dx = state_derivative(state, inputs, DEFAULT_PARAMS)
        assert dx[0] == pytest.approx(DEFAULT_PARAMS.omega_0 * 0.002, rel=1e-15)
        p_e = electrical_power(state, inputs, DEFAULT_PARAMS)
        expected_acc = (0.8 - p_e - 2.0 * 0.002) / 13.0
        assert dx[1] == pytest.approx(expected_acc, rel=1e-15)
        cur = stator_currents(state, inputs, DEFAULT_PARAMS)
        assert dx[2] == pytest.approx((2.0 - 1.0 - 1.5 * cur.i_d) / 8.0, rel=1e-15)
        assert dx[3] == pytest.approx((-0.4 + 1.15 * cur.i_q) / 0.4, rel=1e-15)

    def test_torque_modes_agree_at_synchronous_speed(self):
        state = MachineState(0.8, 0.0, 1.0, 0.4)
        inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
        a = state_derivative(state, inputs, DEFAULT_PARAMS, POWER_EQUALS_TORQUE)
        b = state_derivative(state, inputs, DEFAULT_PARAMS, DIVIDE_BY_SPEED)
        assert_allclose(a, b, rtol=0.0, atol=0.0)

    def test_torque_modes_differ_off_synchronous(self):
        state = MachineState(0.8, 0.01, 1.0, 0.4)
        inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
        a = state_derivative(state, inputs, DEFAULT_PARAMS, POWER_EQUALS_TORQUE)
        b = state_derivative(state, inputs, DEFAULT_PARAMS, DIVIDE_BY_SPEED)
        p_e = electrical_power(state, inputs, DEFAULT_PARAMS)
        assert a[1] != b[1]
        expected = (0.8 - p_e / 1.01 - 2.0 * 0.01) / 13.0
        assert b[1] == pytest.approx(expected, rel=1e-14)

    def test_unknown_mode_rejected(self):
        state = MachineState(0.0, 0.0, 1.0, 0.0)
        inputs = MachineInputs(t_m=0.0, e_f=1.0, u_t=1.0, phi=0.0)
        with pytest.raises(ValueError, match="torque mode"):
            state_derivative(state, inputs, DEFAULT_PARAMS, "bogus")


class TestRk4Step:
    def test_matches_reference_integrator(self):
        # 2 s of free swing from a perturbed state, checked against a
        # high-accuracy adaptive integration of the same right-hand side
        inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
        state = MachineState(0.9, 0.003, 1.0, 0.45)

        def rhs(t, y):
            s = MachineState(*y)
            return state_derivative(s, inputs, DEFAULT_PARAMS)

        dt = 0.02
        steps = 100
        sol = solve_ivp(
            rhs, (0.0, steps * dt), list(state.as_array()),
            method="RK45", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        step = one_step(dt)
        x = state
        for _ in range(steps):
            x = MachineState.from_array(step(x.as_array(), inputs.as_array()))
        reference = sol.sol(steps * dt)
        # classical RK4 at dt = 0.02 lands near 5e-6 on this swing; the
        # bound guards against wiring mistakes, the order test below pins
        # the convergence rate
        assert np.abs(x.as_array() - reference).max() <= 1e-5

    def test_fourth_order_convergence(self):
        # halving the step must shrink the global error by about 2^4
        inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
        start = MachineState(0.9, 0.003, 1.0, 0.45)

        def rhs(t, y):
            return state_derivative(MachineState(*y), inputs, DEFAULT_PARAMS)

        horizon = 1.0
        sol = solve_ivp(
            rhs, (0.0, horizon), list(start.as_array()),
            method="RK45", rtol=1e-13, atol=1e-15,
        )
        reference = sol.y[:, -1]

        def global_error(dt):
            n = int(round(horizon / dt))
            step = one_step(dt)
            x = start
            for _ in range(n):
                x = MachineState.from_array(step(x.as_array(), inputs.as_array()))
            return np.abs(x.as_array() - reference).max()

        ratio = global_error(0.04) / global_error(0.02)
        assert 12.0 <= ratio <= 20.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            as_process_model(DEFAULT_PARAMS, 0.0)


class TestMeasure:
    def test_channels(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        inputs = random_inputs(rng)
        delta_z, omega_z, p_e_z = observe_points(
            state.as_array()[None], inputs.as_array(), DEFAULT_PARAMS
        )[0]
        assert delta_z == state.delta
        assert omega_z == 1.0 + state.delta_omega
        # shared code path: bit-for-bit equality, not approximate
        assert p_e_z == electrical_power(state, inputs, DEFAULT_PARAMS)


class TestMeasurementCovariance:
    def test_angle_and_speed_entries(self):
        state = MachineState(0.8, 0.0, 1.0, 0.4)
        inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
        R = measurement_covariance(state, inputs, DEFAULT_PARAMS, MeasurementSigmas())
        # sigma_delta of 2 degrees squared
        assert R[0, 0] == pytest.approx(1.21847e-3, rel=1e-4)
        assert R[1, 1] == pytest.approx(1e-6, rel=1e-12)
        assert np.count_nonzero(R - np.diag(np.diag(R))) == 0

    def test_power_variance_propagation(self):
        rng = np.random.default_rng(3)
        sigmas = MeasurementSigmas()
        for _ in range(100):
            state = random_state(rng)
            inputs = random_inputs(rng)
            R = measurement_covariance(state, inputs, DEFAULT_PARAMS, sigmas)
            d_ut, d_phi = power_partials(state, inputs, DEFAULT_PARAMS)
            expected = (d_ut * sigmas.sigma_u * inputs.u_t) ** 2 + (
                d_phi * sigmas.sigma_phi
            ) ** 2
            assert R[2, 2] == pytest.approx(expected, rel=1e-14)

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma_delta"):
            MeasurementSigmas(sigma_delta=0.0)


class TestProcessModelWrapper:
    def test_transition_equals_the_oracle_rk4(self):
        rng = np.random.default_rng(4)
        model = as_process_model(DEFAULT_PARAMS, 0.02)
        for _ in range(20):
            state = random_state(rng)
            inputs = random_inputs(rng)
            via_model = model.transition_points(state.as_array()[None], inputs.as_array())[0]
            via_step = np.array(
                machine_rk4(state.as_array(), inputs.as_array(), DEFAULT_PARAMS, 0.02, False)
            )
            assert_allclose(via_model, via_step, rtol=0.0, atol=0.0)

    def test_observe_equals_the_oracle_measurement(self):
        rng = np.random.default_rng(5)
        model = as_process_model(DEFAULT_PARAMS, 0.02)
        for _ in range(20):
            state = random_state(rng)
            inputs = random_inputs(rng)
            via_model = model.observe_points(state.as_array()[None], inputs.as_array())[0]
            via_oracle = np.array(
                machine_observe(state.as_array(), inputs.as_array(), DEFAULT_PARAMS)
            )
            assert_allclose(via_model, via_oracle, rtol=0.0, atol=0.0)

    def test_point_maps_equal_the_oracle_per_point(self):
        rng = np.random.default_rng(6)
        model = as_process_model(DEFAULT_PARAMS, 0.02)
        points = np.array([random_state(rng).as_array() for _ in range(8)])
        inputs = random_inputs(rng).as_array()
        for batch, single in (
            (model.transition_points, lambda p, u: machine_rk4(p, u, DEFAULT_PARAMS, 0.02, False)),
            (model.observe_points, lambda p, u: machine_observe(p, u, DEFAULT_PARAMS)),
        ):
            expected = np.array([single(p, inputs) for p in points])
            assert_allclose(batch(points, inputs), expected, rtol=0.0, atol=0.0)

    def test_point_maps_equal_the_oracle_at_every_size(self):
        # small point sets are evaluated on floats and larger ones on
        # arrays; both must give the oracle's per-point bits
        rng = np.random.default_rng(7)
        sigmas = MeasurementSigmas()
        for torque_mode in (POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED):
            model = as_process_model(DEFAULT_PARAMS, 0.02, torque_mode)
            divide = torque_mode == DIVIDE_BY_SPEED
            variance = power_variance_map(DEFAULT_PARAMS, sigmas)
            for size in (1, 8, 16, 17, 24, 25, 100):
                states = [random_state(rng) for _ in range(size)]
                points = np.array([s.as_array() for s in states])
                inputs = random_inputs(rng)
                u = inputs.as_array()
                expected = np.array([machine_rk4(p, u, DEFAULT_PARAMS, 0.02, divide) for p in points])
                assert_allclose(model.transition_points(points, u), expected, rtol=0.0, atol=0.0)
                expected = np.array(
                    [observe_points(s.as_array()[None], u, DEFAULT_PARAMS)[0] for s in states]
                )
                assert_allclose(model.observe_points(points, u), expected, rtol=0.0, atol=0.0)
                expected = [measurement_covariance(s, inputs, DEFAULT_PARAMS, sigmas)[2, 2] for s in states]
                assert_allclose(variance(points, u), expected, rtol=0.0, atol=0.0)
                # one input row per state, as measurement synthesis passes them
                rows = np.array([random_inputs(rng).as_array() for _ in range(size)])
                expected = np.array([
                    observe_points(s.as_array()[None], r, DEFAULT_PARAMS)[0]
                    for s, r in zip(states, rows)
                ])
                assert_allclose(observe_points(points, rows, DEFAULT_PARAMS), expected, rtol=0.0, atol=0.0)
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
        model = as_process_model(DEFAULT_PARAMS, 0.02)
        assert model.n == 4
        assert model.m == 3

    @pytest.mark.parametrize("rows", [1, 30])
    def test_finite_row_whose_squares_overflow_is_not_flagged(self, rows):
        # an e_q' of 1e160 propagates to a finite row near 1e160, whose
        # squares would overflow; the map must give it without a warning,
        # called directly outside any errstate
        model = as_process_model(DEFAULT_PARAMS, 0.02)
        points = np.tile([0.1, 0.0, 1.0, 0.2], (rows, 1))
        points[rows // 2, 2] = 1e160
        u = np.array([0.8, 2.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.transition_points(points, u)
        assert np.isfinite(out).all()
        assert np.abs(out[rows // 2]).max() > 1e155
        np.testing.assert_array_equal(
            out, [machine_rk4(p, u, DEFAULT_PARAMS, 0.02, False) for p in points]
        )

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS, ODD_PARAMS])
    @pytest.mark.parametrize("torque_mode", [POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED])
    def test_transition_points_equal_the_unhoisted_formula(self, torque_mode, params):
        # the hoisted constants must leave every bit of the RK4 step as it
        # was, on the float rows and on the array path alike
        rng = np.random.default_rng(8)
        model = as_process_model(params, 0.02, torque_mode)
        divide = torque_mode == DIVIDE_BY_SPEED
        for size in range(1, 101):
            points = np.array([random_state(rng).as_array() for _ in range(size)])
            u = random_inputs(rng).as_array()
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
        model = as_process_model(DEFAULT_PARAMS, 0.02, torque_mode)
        divide = torque_mode == DIVIDE_BY_SPEED
        rng = np.random.default_rng(rows)
        points = np.array([random_state(rng).as_array() for _ in range(rows)])
        points[rows // 2, 1] = speed
        u = np.array([0.8, 2.0, 1.0, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.transition_points(points, u)
        assert not np.isfinite(out[rows // 2]).all()
        for i in range(rows):
            if i != rows // 2:
                np.testing.assert_array_equal(
                    out[i], machine_rk4(points[i], u, DEFAULT_PARAMS, 0.02, divide)
                )
        if fault is not None:
            with pytest.raises(fault):
                machine_rk4(points[rows // 2].tolist(), u.tolist(), DEFAULT_PARAMS, 0.02, divide)
