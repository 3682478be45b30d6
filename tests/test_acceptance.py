"""Acceptance gate: the eleven product-level criteria, one test per
criterion.  Run with -v to get one pass or fail line each.

The criteria combine exact oracles (linear-Gaussian equivalence, hand
arithmetic), statistical properties of the noise laboratory, and the
comparative robustness findings the library exists to reproduce.
"""

import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest
from oracles import (
    linear_kalman_filter,
    machine_derivative,
    random_stable_system,
    simulate_linear,
)

from dsekit.cli import main
from dsekit.config import build_scenario, default_config, noise_preset
from dsekit.evaluation import epsilon1, epsilon2, report_from_run
from dsekit.filters import (
    CKF,
    RCKF,
    FilterState,
    HuberConfig,
    ProcessModel,
    huber_reweight,
    iter_batch,
    rckf_update,
    time_predict,
)
from dsekit.harness import ExperimentMatrix, MatrixRow, bench_filters, run_experiment, summarize
from dsekit.machine import (
    MachineInputs,
    MeasurementSigmas,
    as_process_model,
    observe_points,
    power_variance_map,
)
from dsekit.noise import OutlierSpec, SeededStream, draw_cauchy, draw_laplace
from dsekit.scenario import (
    Cell,
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
    cfg = default_scenario()
    return replace(cfg, noise=noise_preset(1, cfg.sigmas), seed=seed)


def test_linear_gaussian_equivalence():
    """On a linear-Gaussian system the filter must match a textbook Kalman
    filter: max state difference 1e-9, covariance difference 1e-8, over
    200 steps, in under a second."""
    rng = np.random.default_rng(314159)
    A, H, Q, R, x0, P0 = random_stable_system(rng)
    measurements = simulate_linear(rng, A, H, Q, R, x0, steps=200)

    model = ProcessModel(
        n=4, m=3, transition_points=lambda x, u: x @ A.T, observe_points=lambda x, u: x @ H.T
    )
    init = FilterState(x_hat=x0.copy(), P=P0.copy())
    start = time.perf_counter()
    steps = iter_batch(
        model, FilterState(x0[None], P0[None]), [None] * 201, np.asarray(measurements)[:, None],
        Q, np.diag(R), HuberConfig(math.inf),
    )
    states = [init] + [FilterState(s.x_hat[0], s.P[0]) for _, s, _ in steps]
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
    # identity dynamics with Q = 0: the prediction is the mean and the
    # covariance of the propagated points
    model = ProcessModel(n=4, m=4, transition_points=lambda x, u: x, observe_points=lambda x, u: x)
    start = time.perf_counter()
    worst_mean = 0.0
    worst_cov = 0.0
    for _ in range(1000):
        x = 3.0 * rng.standard_normal(4)
        A = rng.standard_normal((4, 4))
        P = A @ A.T + 0.5 * np.eye(4)
        P = 0.5 * (P + P.T)
        predicted = time_predict(FilterState(x[None], P[None]), model, None, np.zeros((4, 4)))
        mean, cov = predicted.x_hat[0], predicted.P[0]
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
    variances = np.ones(3)
    r = np.array([2.0, 4.0, 8.0])
    innovation = np.array([0.75, 3.0, 1.5 * (1.0 + 1e-13)])
    result = huber_reweight(innovation, variances, r, config)
    assert result.weights[0] == 1.0
    assert result.weights[1] == 0.5
    assert abs(result.weights[2] - 1.0) <= 1e-12
    assert np.array_equal(result.r_bar, r / result.weights)
    # exactly at the threshold the weight is still one
    at_c = huber_reweight(np.array([1.5, 0.0, 0.0]), variances, r, config)
    assert at_c.weights[0] == 1.0


def test_robust_variant_coincides_on_inliers():
    """Without outliers the robust update must collapse onto the classical
    one: posterior difference 1e-12 on every all-inlier step across 50
    Gaussian-white runs, and mean end-to-end relative error within 5%."""
    seeds = range(50)
    base = white_noise_scenario(seeds[0])
    truth = simulate_truth(base)
    times = time_grid(base)
    cells = [Cell(seed, base.noise, base.outliers) for seed in seeds]
    _, corrupted = synthesize_measurements(base, truth, cells)
    eps2 = {CKF: {}, RCKF: {}}
    for series, (estimates, failures) in zip(corrupted, filter_series(base, corrupted)):
        assert not failures
        for variant in (CKF, RCKF):
            report = report_from_run(estimates[variant], truth, series)
            for variable, value in report.epsilon2.items():
                eps2[variant].setdefault(variable, []).append(value)

    # step the classical filters of all seeds as one batch, branching each
    # step into both updates from the shared prediction
    model = as_process_model(base.machine, base.dt, base.torque_mode)
    variance = power_variance_map(base.machine, base.sigmas)
    u_arr = base.profile.as_array(times)
    Q = np.diag(base.init.q_diag)
    state = initial_filter_state(base, corrupted)
    inlier_steps = 0
    checked_steps = 0
    worst_state = 0.0
    worst_cov = 0.0
    for k in range(len(times) - 1):
        predicted = time_predict(state, model, u_arr[k], Q)
        r = np.repeat(
            [(base.sigmas.sigma_delta**2, base.sigmas.sigma_omega**2, 0.0)],
            len(predicted.x_hat), axis=0,
        )
        r[:, 2] = variance(predicted.x_hat, u_arr[k + 1])
        z = corrupted[:, k + 1]
        classical, info, _ = rckf_update(
            predicted, z, model, u_arr[k + 1], r, HuberConfig(math.inf)
        )
        robust, _, _ = rckf_update(predicted, z, model, u_arr[k + 1], r, base.huber)
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
    spec = OutlierSpec((6.0, 6.0))
    base = replace(white_noise_scenario(0), outliers=spec)
    idx = 300  # 6.0 s on the 0.02 s grid
    truth = simulate_truth(base)
    cells = [Cell(seed, base.noise, spec) for seed in range(100)]
    _, corrupted = synthesize_measurements(base, truth, cells)
    truth_speed = truth[idx, 1]
    wins = 0
    for estimates, failures in filter_series(base, corrupted):
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
    params = default_scenario().machine
    # (delta, delta_omega, e_q', e_d', u_t, phi) per point, drawn in that
    # order; t_m = 0.8 and e_f = 2.0 throughout
    draws = rng.uniform(
        (-math.pi, -0.05, 0.5, -0.8, 0.2, -0.5), (math.pi, 0.05, 1.5, 0.8, 1.2, 0.5),
        size=(100_000, 6),
    )
    x = draws[:, :4]
    u = np.column_stack((np.full(len(draws), 0.8), np.full(len(draws), 2.0), draws[:, 4:]))
    p = observe_points(x, u, params)[:, 2]
    theta = x[:, 0] - u[:, 3]
    u_d = u[:, 2] * np.sin(theta)
    u_q = u[:, 2] * np.cos(theta)
    i_d = (x[:, 2] - u_q) / params.x_d_prime
    i_q = (u_d - x[:, 3]) / params.x_q_prime
    worst = float(np.abs(p - (u_d * i_d + u_q * i_q)).max())
    assert worst <= 1e-12

    draws = rng.uniform(
        (-1.2, -0.02, 0.7, -0.6, 0.5, -0.3), (1.2, 0.02, 1.3, 0.6, 1.1, 0.3), size=(300, 6)
    )
    x = draws[:, :4]
    u = np.column_stack((np.full(len(draws), 0.8), np.full(len(draws), 2.0), draws[:, 4:]))
    h = 1e-6
    worst_rel = 0.0
    # with one sigma at zero and the other at one, the power variance is
    # the square of one partial, times u_t for the voltage magnitude
    for column, sigmas, scale in (
        (2, MeasurementSigmas(sigma_u=1.0, sigma_phi=0.0), u[:, 2]),
        (3, MeasurementSigmas(sigma_u=0.0, sigma_phi=1.0), 1.0),
    ):
        analytic = np.sqrt(power_variance_map(params, sigmas)(x, u)) / scale
        hi, lo = u.copy(), u.copy()
        hi[:, column] += h
        lo[:, column] -= h
        numeric = observe_points(x, hi, params)[:, 2] - observe_points(x, lo, params)[:, 2]
        numeric = np.abs(numeric) / (2.0 * h)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, analytic)
        worst_rel = max(worst_rel, float(rel.max()))
    assert worst_rel <= 1e-6

    inputs = MachineInputs(t_m=0.8, e_f=2.0, u_t=1.0, phi=0.0)
    equilibrium = steady_state_init(inputs, params)
    residual = np.abs(
        machine_derivative(astuple(equilibrium), astuple(inputs), params)
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

    rows = (
        MatrixRow(1, "single", CKF, 0, "delta", 0.0181, None, None),
        MatrixRow(1, "single", RCKF, 0, "delta", 0.0085, None, None),
    )
    (summary,) = summarize(ExperimentMatrix(rows, {}, 1, 0))
    improvement_pct = summary[-1]
    assert round(improvement_pct, 1) == 53.0

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
