"""Acceptance gate: the eleven product-level criteria, one test per
criterion.  Run with -v to get one pass or fail line each.

The criteria combine exact oracles (linear-Gaussian equivalence, hand
arithmetic), statistical properties of the noise laboratory, and the
comparative robustness findings the library exists to reproduce.
"""

import math
import time

import numpy as np
import pytest
from oracles import linear_kalman_filter, random_stable_system, simulate_linear

from dsekit.cli import main
from dsekit.config import build_scenario, default_config, with_noise_preset, with_outliers, with_seed
from dsekit.evaluation import epsilon1, epsilon2, improvement_report, MetricsReport, report_from_run
from dsekit.filters import (
    CKF,
    RCKF,
    FilterState,
    HuberConfig,
    ProcessModel,
    cholesky_lower,
    ckf_update,
    cubature_points,
    huber_reweight,
    rckf_update,
    run_filter,
    time_predict,
)
from dsekit.harness import bench_filters, run_experiment
from dsekit.machine import (
    DEFAULT_PARAMS,
    MachineInputs,
    MachineState,
    as_process_model,
    electrical_power,
    measurement_covariance,
    power_partials,
    state_derivative,
    stator_currents,
)
from dsekit.noise import OutlierSpec, SeededStream, draw_cauchy, draw_laplace
from dsekit.scenario import (
    RunRecord,
    equilibrium,
    filter_series,
    initial_filter_state,
    simulate_truth,
    steady_state_init,
    synthesize_measurements,
    time_grid,
)


def default_scenario():
    return build_scenario(default_config())


def white_noise_scenario(seed):
    return with_seed(with_noise_preset(default_scenario(), 1), seed)


def test_linear_gaussian_equivalence():
    """On a linear-Gaussian system the filter must match a textbook Kalman
    filter: max state difference 1e-9, covariance difference 1e-8, over
    200 steps, in under a second."""
    rng = np.random.default_rng(314159)
    A, H, Q, R, x0, P0 = random_stable_system(rng)
    measurements = simulate_linear(rng, A, H, Q, R, x0, steps=200)

    model = ProcessModel(
        n=4, m=3, transition=lambda x, u: A @ x, observe=lambda x, u: H @ x
    )
    init = FilterState(x_hat=x0.copy(), P=P0.copy())
    start = time.perf_counter()
    states = run_filter(
        model, CKF, init, [None] * 200, measurements, Q, lambda k, s, u: R
    )
    elapsed = time.perf_counter() - start
    reference = linear_kalman_filter(A, H, Q, R, x0, P0, measurements)

    state_diff = max(
        np.abs(s.x_hat - ref_x).max() for s, (ref_x, _) in zip(states, reference)
    )
    cov_diff = max(
        np.abs(s.P - ref_P).max() for s, (_, ref_P) in zip(states, reference)
    )
    assert state_diff <= 1e-9
    assert cov_diff <= 1e-8
    assert elapsed < 1.0


def test_cubature_moment_matching():
    """The cubature point set must reproduce the mean to 1e-12 and the
    covariance to 1e-10 relative, over 1000 random Gaussian summaries."""
    rng = np.random.default_rng(271828)
    start = time.perf_counter()
    worst_mean = 0.0
    worst_cov = 0.0
    for _ in range(1000):
        x = 3.0 * rng.standard_normal(4)
        A = rng.standard_normal((4, 4))
        P = A @ A.T + 0.5 * np.eye(4)
        pts = cubature_points(x, cholesky_lower(P)).points
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = centered.T @ centered / pts.shape[0]
        worst_mean = max(
            worst_mean, np.abs(mean - x).max() / max(1.0, np.abs(x).max())
        )
        worst_cov = max(worst_cov, np.abs(cov - P).max() / np.abs(P).max())
    elapsed = time.perf_counter() - start
    assert worst_mean <= 1e-12
    assert worst_cov <= 1e-10
    assert elapsed < 1.0


def test_huber_weight_function():
    """Weights: 1 inside the threshold, c/|r| outside, continuous at the
    threshold within 1e-12; the inflated covariance divides the original
    diagonal by the weights exactly, with c = 1.5."""
    config = HuberConfig(c=1.5)
    P_zz = np.eye(3)
    R = np.diag([2.0, 4.0, 8.0])
    innovation = np.array([0.75, 3.0, 1.5 * (1.0 + 1e-13)])
    result = huber_reweight(innovation, P_zz, R, config)
    assert result.weights[0] == 1.0
    assert result.weights[1] == 0.5
    assert abs(result.weights[2] - 1.0) <= 1e-12
    expected = np.diag(np.diag(R) / result.weights)
    assert np.array_equal(result.R_bar, expected)
    # exactly at the threshold the weight is still one
    at_c = huber_reweight(np.array([1.5, 0.0, 0.0]), P_zz, R, config)
    assert at_c.weights[0] == 1.0


def test_robust_variant_coincides_on_inliers():
    """Without outliers the robust update must collapse onto the classical
    one: posterior difference 1e-12 on every all-inlier step across 50
    Gaussian-white runs, and mean end-to-end relative error within 5%."""
    seeds = range(50)
    base = white_noise_scenario(seeds[0])
    x0 = equilibrium(base)
    truth = simulate_truth(base, x0)
    times = time_grid(base)
    synthesized = [synthesize_measurements(truth, white_noise_scenario(seed)) for seed in seeds]
    corrupted = np.stack([series for _, series in synthesized])
    eps2 = {CKF: {}, RCKF: {}}
    for (clean, series), (estimates, step_times, failures) in zip(
        synthesized, filter_series(base, corrupted, x0=x0)
    ):
        assert not failures
        record = RunRecord(times, truth, clean, series, estimates, step_times, failures)
        for variant in (CKF, RCKF):
            report = report_from_run(record, variant)
            for variable, value in report.epsilon2.items():
                eps2[variant].setdefault(variable, []).append(value)

    # step the classical filters of all seeds as one batch, branching each
    # step into both updates from the shared prediction
    model = as_process_model(base.machine, base.dt, base.torque_mode)
    u_arr = base.profile.as_array(times)
    Q = np.diag(base.init.q_diag)
    state = FilterState(
        x_hat=np.stack([initial_filter_state(base, series, x0).x_hat for series in corrupted]),
        P=np.repeat(np.diag(base.init.p0_diag)[None], len(corrupted), axis=0),
    )
    inlier_steps = 0
    checked_steps = 0
    worst_state = 0.0
    worst_cov = 0.0
    for k in range(len(times) - 1):
        predicted = time_predict(state, model, u_arr[k], Q)
        inputs = MachineInputs.from_array(u_arr[k + 1])
        R = np.stack([
            measurement_covariance(MachineState.from_array(x), inputs, base.machine, base.sigmas)
            for x in predicted.x_hat
        ])
        z = corrupted[:, k + 1]
        classical, info = ckf_update(predicted, z, model, u_arr[k + 1], R)
        robust, _, _ = rckf_update(predicted, z, model, u_arr[k + 1], R, base.huber)
        standardized = info.innovation / np.sqrt(np.diagonal(info.P_zz, axis1=1, axis2=2))
        inlier = np.all(np.abs(standardized) <= base.huber.c, axis=1)
        checked_steps += inlier.size
        inlier_steps += int(inlier.sum())
        if inlier.any():
            worst_state = max(
                worst_state, np.abs(classical.x_hat[inlier] - robust.x_hat[inlier]).max()
            )
            worst_cov = max(worst_cov, np.abs(classical.P[inlier] - robust.P[inlier]).max())
        state = classical
    assert inlier_steps > 0.3 * checked_steps
    assert worst_state <= 1e-12
    assert worst_cov <= 1e-12
    for variable, ckf_values in eps2[CKF].items():
        a = float(np.mean(ckf_values))
        b = float(np.mean(eps2[RCKF][variable]))
        assert abs(a - b) / a <= 0.05


def test_robustness_ordering_under_heavy_tails():
    """Across the 4-noise by 2-manner matrix at 50 seeds each, the robust
    variant must beat the classical one on both measured variables in at
    least 90% of seeds per cell, with a median improvement of at least 30%
    pooled per heavy-tailed noise, inside five minutes."""
    start = time.perf_counter()
    matrix = run_experiment(default_scenario(), seeds=range(50))
    elapsed = time.perf_counter() - start
    assert matrix.cells_failed == 0

    e1 = {}
    for row in matrix.rows:
        if row.variable in ("delta", "omega"):
            e1[(row.noise, row.manner, row.seed, row.variable, row.filter)] = row.epsilon1

    for noise in (1, 2, 3, 4):
        for manner in ("single", "window"):
            wins = 0
            for seed in range(50):
                better = all(
                    e1[(noise, manner, seed, v, RCKF)] < e1[(noise, manner, seed, v, CKF)]
                    for v in ("delta", "omega")
                )
                wins += better
            assert wins >= 45, f"noise {noise} {manner}: {wins}/50 wins"

    for noise in (2, 3, 4):
        improvements = [
            (e1[(noise, manner, seed, v, CKF)] - e1[(noise, manner, seed, v, RCKF)])
            / e1[(noise, manner, seed, v, CKF)]
            for manner in ("single", "window")
            for seed in range(50)
            for v in ("delta", "omega")
        ]
        median = float(np.median(improvements))
        assert median >= 0.30, f"noise {noise}: median improvement {median:.3f}"
    assert elapsed < 300.0


def test_outlier_transient_containment():
    """At the single-outlier step the robust speed estimate must sit
    strictly closer to the truth than the classical one in at least 95 of
    100 seeded runs."""
    spec = OutlierSpec.single_at(6.0)
    base = with_outliers(with_noise_preset(default_scenario(), 1), spec)
    idx = 300  # 6.0 s on the 0.02 s grid
    x0 = equilibrium(base)
    truth = simulate_truth(base, x0)
    corrupted = np.stack(
        [synthesize_measurements(truth, with_seed(base, seed))[1] for seed in range(100)]
    )
    truth_speed = truth[idx, 1]
    wins = 0
    for estimates, _, failures in filter_series(base, corrupted, x0=x0):
        assert not failures
        ckf_err = abs(estimates[CKF][idx, 1] - truth_speed)
        rckf_err = abs(estimates[RCKF][idx, 1] - truth_speed)
        wins += rckf_err < ckf_err
    assert wins >= 95, f"{wins}/100 contained"


def test_machine_model_identities():
    """Electrical power equals U_d I_d + U_q I_q to 1e-12 on 1e5 random
    points; the analytic power sensitivities match central differences to
    1e-6 relative; the equilibrium residual stays below 1e-10."""
    rng = np.random.default_rng(161803)
    worst = 0.0
    for _ in range(100_000):
        state = MachineState(
            delta=rng.uniform(-math.pi, math.pi),
            delta_omega=rng.uniform(-0.05, 0.05),
            e_q_prime=rng.uniform(0.5, 1.5),
            e_d_prime=rng.uniform(-0.8, 0.8),
        )
        inputs = MachineInputs(
            t_m=0.8,
            e_f=2.0,
            u_t=rng.uniform(0.2, 1.2),
            phi=rng.uniform(-0.5, 0.5),
        )
        currents = stator_currents(state, inputs, DEFAULT_PARAMS)
        theta = state.delta - inputs.phi
        u_d = inputs.u_t * math.sin(theta)
        u_q = inputs.u_t * math.cos(theta)
        p = electrical_power(state, inputs, DEFAULT_PARAMS)
        worst = max(worst, abs(p - (u_d * currents.i_d + u_q * currents.i_q)))
    assert worst <= 1e-12

    worst_rel = 0.0
    for _ in range(300):
        state = MachineState(
            delta=rng.uniform(-1.2, 1.2),
            delta_omega=rng.uniform(-0.02, 0.02),
            e_q_prime=rng.uniform(0.7, 1.3),
            e_d_prime=rng.uniform(-0.6, 0.6),
        )
        inputs = MachineInputs(
            t_m=0.8, e_f=2.0, u_t=rng.uniform(0.5, 1.1), phi=rng.uniform(-0.3, 0.3)
        )
        d_ut, d_phi = power_partials(state, inputs, DEFAULT_PARAMS)
        h = 1e-6
        for name, analytic in (("u_t", d_ut), ("phi", d_phi)):
            hi = MachineInputs(
                t_m=0.8,
                e_f=2.0,
                u_t=inputs.u_t + (h if name == "u_t" else 0.0),
                phi=inputs.phi + (h if name == "phi" else 0.0),
            )
            lo = MachineInputs(
                t_m=0.8,
                e_f=2.0,
                u_t=inputs.u_t - (h if name == "u_t" else 0.0),
                phi=inputs.phi - (h if name == "phi" else 0.0),
            )
            numeric = (
                electrical_power(state, hi, DEFAULT_PARAMS)
                - electrical_power(state, lo, DEFAULT_PARAMS)
            ) / (2.0 * h)
            scale = max(1.0, abs(analytic))
            worst_rel = max(worst_rel, abs(analytic - numeric) / scale)
    assert worst_rel <= 1e-6

    inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
    equilibrium = steady_state_init(inputs, DEFAULT_PARAMS)
    residual = np.abs(
        state_derivative(equilibrium, inputs, DEFAULT_PARAMS)
    ).max()
    assert residual <= 1e-10


def test_heavy_tail_sampling_statistics():
    """At a million draws the Laplace sample variance must land within 5%
    of the nominal variance and the Cauchy sample median within 0.05
    scale units of its location at ten scales."""
    sigma = 0.3
    gen = SeededStream(5772156, (0, 0)).generator()
    laplace = draw_laplace(0.0, sigma, gen, 1_000_000)
    assert abs(laplace.var() - sigma**2) / sigma**2 <= 0.05

    sigma = 0.1
    gen = SeededStream(5772156, (0, 1)).generator()
    cauchy = draw_cauchy(sigma, gen, 1_000_000)
    assert abs(float(np.median(cauchy)) - 10.0 * sigma) <= 0.05 * sigma


def test_indicator_hand_values():
    """The three-point indicator fixtures: estimation-to-measurement error
    ratio 0.420084, RMS relative error 7*sqrt(3)/180 ~ 0.0673575, and the
    tabulated 53.0% improvement arithmetic."""
    truth = np.array([1.0, 2.0, 3.0])
    estimates = np.array([1.1, 2.1, 3.1])
    measured = np.array([1.2, 1.8, 3.3])
    assert epsilon1(estimates, truth, measured) == pytest.approx(0.420084, abs=1e-6)

    base = MetricsReport(s_m=3, epsilon1={"delta": 0.0181}, epsilon2={})
    robust = MetricsReport(s_m=3, epsilon1={"delta": 0.0085}, epsilon2={})
    improvement = improvement_report(base, robust)["epsilon1"]["delta"]
    assert round(100.0 * improvement, 1) == 53.0

    # the relative errors are exactly 1/10, 1/20 and 1/30, so
    # epsilon2**2 = (1/100 + 1/400 + 1/900) / 3 = 49/10800 and
    # epsilon2 = 7*sqrt(3)/180 = 0.0673575314...
    assert epsilon2(estimates, truth) == pytest.approx(7 * math.sqrt(3) / 180, abs=1e-12)


def test_filter_step_timing():
    """Mean per-step work must stay at or below one millisecond for both
    variants, with the robust variant no cheaper than the classical one on
    the same measurement series."""
    doc = default_config()
    doc["scenario"]["t_end"] = 2.0
    cfg = build_scenario(doc)
    start = time.perf_counter()
    reports = bench_filters(cfg, steps=500)
    elapsed = time.perf_counter() - start
    assert reports[CKF].mean_ms <= 1.0
    assert reports[RCKF].mean_ms <= 1.0
    assert reports[RCKF].mean_ms >= reports[CKF].mean_ms
    assert elapsed < 30.0


def test_experiment_reproducibility(tmp_path):
    """Two consecutive experiment runs with fixed seeds must write byte
    identical matrix files."""
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(
            ["experiment", "--out-dir", str(out), "--runs", "1", "--jobs", "1", "--quiet"]
        )
        assert code == 0
    assert (a / "matrix.csv").read_bytes() == (b / "matrix.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
