"""Tests of the benchmark's independent reference.

Run from the repository root with: python3 -m pytest perfbench/tests
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def setup():
    return ref.load_setup(CONFIGS / "estimate.json")


def ivp_truth(setup, rtol):
    """Trajectory on the grid from solve_ivp, integrating each stretch of
    constant inputs separately so the held inputs switch exactly on the
    grid."""
    mc = setup.machine
    x = ref.equilibrium(setup)
    out = [x]
    k = 0
    while k < setup.steps:
        u = ref.inputs_at(setup, k)
        end = k + 1
        while end < setup.steps and ref.inputs_at(setup, end) == u:
            end += 1
        grid = np.arange(k, end + 1) * setup.dt
        sol = solve_ivp(
            lambda t, y: ref.derivative(mc, y, u, setup.divide_by_speed),
            (grid[0], grid[-1]), x, method="DOP853", t_eval=grid, rtol=rtol, atol=rtol,
        )
        assert sol.success
        out.extend(sol.y.T[1:].tolist())
        x = list(sol.y[:, -1])
        k = end
    return np.array(out)


def test_equilibrium_is_a_rest_point(setup):
    x = ref.equilibrium(setup)
    d = ref.derivative(setup.machine, x, ref.inputs_at(setup, 0))
    assert max(abs(v) for v in d) < 1e-12
    assert x[1] == 0.0


def test_truth_matches_solve_ivp_on_the_grid(setup):
    # RK4's global error at dt = 0.02 through the voltage dip is 2.5e-6
    want = ivp_truth(setup, rtol=1e-12)
    got = ref.truth(setup)
    assert got.shape == want.shape == (setup.steps + 1, 4)
    assert np.abs(got - want).max() < 1e-5


def test_truth_converges_to_solve_ivp_at_fourth_order():
    # a dip on grid points of both step sizes, so both hold the same inputs
    short = replace(ref.load_setup(CONFIGS / "estimate.json", t_end=2.0), fault=(1.0, 1.5, 0.35, 0.95))
    want = ivp_truth(short, rtol=1e-13)
    errors = []
    for factor in (1, 2, 4):
        fine = replace(short, dt=short.dt / factor, steps=short.steps * factor)
        errors.append(np.abs(ref.truth(fine)[::factor] - want).max())
    assert errors[2] < 1e-7
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.0**4 * 0.8 < coarse / fine < 2.0**4 * 1.2


def kalman(A, H, Q, R, x0, P0, zs):
    """Plain linear Kalman filter; returns the estimates, prior first."""
    x, P = np.array(x0, dtype=float), np.array(P0, dtype=float)
    out = [x]
    for z in zs:
        x = A @ x
        P = A @ P @ A.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (z - H @ x)
        P = (np.eye(len(x)) - K @ H) @ P
        out.append(x)
    return np.array(out)


def linear_problem(seed, steps=200):
    rng = np.random.default_rng(seed)
    n, m = 4, 3
    A = rng.standard_normal((n, n))
    A *= 0.95 / max(abs(np.linalg.eigvals(A)))
    H = rng.standard_normal((m, n))
    Q = np.diag(rng.uniform(0.01, 0.1, n) ** 2)
    R = np.diag(rng.uniform(0.01, 0.1, m) ** 2)
    L = 0.3 * rng.standard_normal((n, n))
    P0 = L @ L.T + np.eye(n)
    x = rng.standard_normal(n)
    zs = []
    for _ in range(steps):
        x = A @ x + np.sqrt(np.diag(Q)) * rng.standard_normal(n)
        zs.append(H @ x + np.sqrt(np.diag(R)) * rng.standard_normal(m))
    x0 = rng.standard_normal(n)
    return A, H, Q, R, x0, P0, np.array(zs)


def linear_ckf(A, H, Q, R, x0, P0, zs, huber=None):
    us = [None] * len(zs)
    return ref.ckf(
        lambda x, u: A @ x, lambda x, u: H @ x, lambda x, u: R,
        x0, P0, Q, zs, us, us, huber=huber,
    )


@pytest.mark.parametrize("seed", range(5))
def test_ckf_equals_kalman_filter_on_linear_gaussian_model(seed):
    A, H, Q, R, x0, P0, zs = linear_problem(seed)
    np.testing.assert_allclose(
        linear_ckf(A, H, Q, R, x0, P0, zs), kalman(A, H, Q, R, x0, P0, zs), rtol=0, atol=1e-10
    )


def test_huber_variant_coincides_inside_threshold_and_resists_a_spike():
    A, H, Q, R, x0, P0, zs = linear_problem(11)
    plain = linear_ckf(A, H, Q, R, x0, P0, zs)
    np.testing.assert_array_equal(linear_ckf(A, H, Q, R, x0, P0, zs, huber=(1e9, 1)), plain)
    spiked = zs.copy()
    spiked[150, 0] += 100.0
    hit = linear_ckf(A, H, Q, R, x0, P0, spiked)
    robust = linear_ckf(A, H, Q, R, x0, P0, spiked, huber=(1.5, 1))
    assert np.abs(robust[151] - plain[151]).max() < 0.1 * np.abs(hit[151] - plain[151]).max()


def test_measurement_covariance_matches_finite_differences(setup):
    x = ref.equilibrium(setup)
    u = ref.inputs_at(setup, 0)
    mc = setup.machine
    h = 1e-6

    def pe(u_t, phi):
        return ref.electrical_power(mc, x[0], x[2], x[3], u_t, phi)

    d_u = (pe(u[2] + h, u[3]) - pe(u[2] - h, u[3])) / (2 * h)
    d_phi = (pe(u[2], u[3] + h) - pe(u[2], u[3] - h)) / (2 * h)
    want = (d_u * setup.sig_u * u[2]) ** 2 + (d_phi * setup.sig_phi) ** 2
    R = ref.measurement_covariance(setup, x, u)
    assert R[2, 2] == pytest.approx(want, rel=1e-7)
    assert R[0, 0] == setup.sig_delta**2 and R[1, 1] == setup.sig_omega**2


def test_indicators_on_hand_values():
    truth = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 2.0, 2.0], [2.0, 0.0, 3.0, 3.0]])
    est = truth.copy()
    est[1:, 2] *= 1.1  # relative errors 1/10 on eqp
    est[1:, 0] += 0.3
    meas = np.zeros((3, 3))
    meas[:, 0] = truth[:, 0] + 0.6
    meas[:, 1] = 1.0 + 0.05
    got = ref.indicators(est, truth, meas)
    assert got["epsilon1"]["delta"] == pytest.approx(0.5, abs=1e-15)
    assert got["epsilon1"]["omega"] == 0.0
    assert got["epsilon2"]["eqp"] == pytest.approx(0.1, abs=1e-15)
    assert set(got["epsilon1"]) == {"delta", "omega"}
    assert set(got["epsilon2"]) == {"delta", "omega", "eqp", "edp"}
    assert math.isclose(got["epsilon2"]["delta"], math.sqrt((0.09 + 0.0225) / 2))
