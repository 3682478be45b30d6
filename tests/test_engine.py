"""The batched lockstep filter engine: members run together must get the
bits they get alone, whatever the batch's size and order; a diverging
member is frozen with its step index and leaves the others untouched; every
posterior covariance stays symmetric positive definite."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit.config import build_scenario, default_config, with_noise_preset, with_outliers, with_seed
from dsekit.errors import DecompositionFailure, DegenerateChannel, NonFiniteState
from dsekit.filters import (
    CKF,
    RCKF,
    FilterState,
    HuberConfig,
    ProcessModel,
    ckf_update,
    iter_batch,
    rckf_update,
    time_predict,
)
from dsekit.machine import DIVIDE_BY_SPEED, as_process_model, power_variance
from dsekit.noise import OutlierSpec
from dsekit.scenario import (
    batch_filters,
    equilibrium,
    filter_series,
    initial_filter_state,
    simulate_truth,
    synthesize_measurements,
    time_grid,
)


def short_config(t_end=1.0):
    doc = default_config()
    doc["scenario"]["t_end"] = t_end
    doc["scenario"]["fault"]["t_on"] = 0.3
    return build_scenario(doc)


CFG = short_config()
X0 = equilibrium(CFG)
TRUTH = simulate_truth(CFG, X0)

OUTLIERS = st.one_of(
    st.just(OutlierSpec.none()),
    st.builds(
        OutlierSpec.single_at,
        st.sampled_from([0.1, 0.5, 0.98]),
        channel=st.sampled_from(["delta", "omega", "pe"]),
        scale=st.sampled_from([1.1, 10.0, 1e6]),
    ),
    st.builds(
        OutlierSpec.window,
        st.just(0.4),
        st.just(0.6),
        channel=st.sampled_from(["delta", "omega", "pe"]),
        scale=st.sampled_from([1.1, 10.0, 1e6]),
    ),
)
CELLS = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4]), OUTLIERS),
    min_size=1,
    max_size=4,
)
VARIANTS = st.sampled_from([(CKF,), (RCKF,), (CKF, RCKF), (RCKF, CKF)])


def corrupted_series(cells):
    return np.stack([
        synthesize_measurements(
            TRUTH, with_seed(with_outliers(with_noise_preset(CFG, preset), spec), seed)
        )[1]
        for seed, preset, spec in cells
    ])


def assert_same_member(got, want, variant):
    """One variant's estimates and failure in two (estimates, step_times,
    failures) results."""
    assert got[2].get(variant) == want[2].get(variant)
    assert (variant in got[0]) == (variant in want[0])
    if variant in want[0]:
        np.testing.assert_array_equal(got[0][variant], want[0][variant])


@settings(max_examples=25)
@given(cells=CELLS, variants=VARIANTS)
def test_members_match_their_batch_of_one_in_any_order(cells, variants):
    series = corrupted_series(cells)
    together = filter_series(CFG, series, variants, x0=X0)
    reversed_ = filter_series(CFG, series[::-1], variants, x0=X0)[::-1]
    for i in range(len(cells)):
        for variant in variants:
            alone = filter_series(CFG, series[i], (variant,), x0=X0)
            assert_same_member(together[i], alone, variant)
            assert_same_member(reversed_[i], alone, variant)


@settings(max_examples=15)
@given(cells=CELLS, variants=VARIANTS)
def test_every_posterior_covariance_is_symmetric_positive_definite(cells, variants):
    _, steps = batch_filters(CFG, corrupted_series(cells), variants, X0)
    for members, state, _ in steps:
        if not members.size:
            break
        P = state.P
        np.testing.assert_array_equal(P, P.transpose(0, 2, 1))
        assert np.linalg.eigvalsh(P).min(axis=1).min() > 0.0


def test_nan_member_is_frozen_at_its_step_and_leaves_the_others_alone():
    k = 7
    series = corrupted_series([(1, 4, OutlierSpec.none()), (2, 3, OutlierSpec.none()),
                               (3, 1, OutlierSpec.window(0.4, 0.6))])
    poisoned = series.copy()
    poisoned[1, k + 1, 1] = math.nan  # measurement index k is grid row k + 1
    results = filter_series(CFG, poisoned, x0=X0)
    estimates, _, failures = results[1]
    assert not estimates
    for variant in (CKF, RCKF):
        assert failures[variant].startswith(f"measurement index {k}: ")
    without = filter_series(CFG, poisoned[[0, 2]], x0=X0)
    for got, want in zip((results[0], results[2]), without):
        assert not got[2]
        for variant in (CKF, RCKF):
            assert_same_member(got, want, variant)

    # the engine reports the frozen members with their exception and step
    _, steps = batch_filters(CFG, poisoned, (CKF, RCKF), X0)
    frozen = {}
    for step, (members, _, failed) in enumerate(steps):
        for member, exc in failed:
            frozen[member] = (step, exc)
        if step == k:
            assert members.tolist() == [0, 1, 4, 5]
    assert sorted(frozen) == [2, 3]
    for step, exc in frozen.values():
        assert step == k
        assert isinstance(exc, NonFiniteState)
        assert exc.step_index == k


# ---------------------------------------------------------------------------
# Every path by which the engine freezes a member, each beside a healthy
# companion that must get the bits it gets without the failing member.

LINEAR_H = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
LINEAR = ProcessModel(
    n=4, m=3, transition_points=lambda x, u: 0.9 * x, observe_points=lambda x, u: x @ LINEAR_H.T
)
MARKED = 50.0  # a linear member whose last state entry exceeds this is the failing one


def trajectories(steps):
    """({member: [(x_hat, P) per step]}, {member: (step, exception)})."""
    paths, frozen = {}, {}
    for k, (members, state, failed) in enumerate(steps):
        for member, exc in failed:
            frozen[member] = (k, exc)
        for i, member in enumerate(members.tolist()):
            paths.setdefault(member, []).append((state.x_hat[i], state.P[i]))
    return paths, frozen


def assert_same_path(got, want):
    assert len(got) == len(want)
    for (x, P), (x_ref, P_ref) in zip(got, want):
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(P, P_ref)


def assert_frozen(frozen, member, kind, step, message):
    got_step, exc = frozen[member]
    assert type(exc) is kind
    assert got_step == step
    assert exc.step_index == step
    assert str(exc) == f"measurement index {step}: {message}"


def linear_run(x0, P0, thresholds, R_provider, steps=8):
    x0 = np.asarray(x0, dtype=float)
    measurements = np.tile(np.array([0.3, 0.3, 1.1]), (steps, len(x0), 1))
    return trajectories(
        iter_batch(
            LINEAR,
            FilterState(x0, np.asarray(P0, dtype=float)),
            [np.zeros(1)] * steps,
            measurements,
            np.eye(4) * 1e-3,
            R_provider,
            HuberConfig(np.asarray(thresholds, dtype=float)),
        )
    )


LINEAR_X0 = [[0.1, 0.0, 1.0, 1.0], [0.1, 0.0, 1.0, 1000.0]]


def test_nan_measurement_freezes_with_message_and_step():
    k = 5
    series = corrupted_series([(11, 4, OutlierSpec.none()), (12, 2, OutlierSpec.none())])
    series[1, k + 1, 0] = math.nan
    paths, frozen = trajectories(batch_filters(CFG, series, (CKF, RCKF), X0)[1])
    alone, none_frozen = trajectories(batch_filters(CFG, series[:1], (CKF, RCKF), X0)[1])
    assert sorted(frozen) == [2, 3] and not none_frozen
    for member in (2, 3):
        assert_frozen(frozen, member, NonFiniteState, k, "corrected estimate is not finite")
    for member in (0, 1):
        assert_same_path(paths[member], alone[member])


@pytest.mark.parametrize("variants", [(RCKF,), (CKF, RCKF)])
def test_rk4_overflow_freezes_with_message_and_step(variants):
    # a prior speed deviation of 1e307 overflows the first RK4 step; one
    # variant keeps the batch on the row-by-row float map, two put it on
    # the array map
    series = corrupted_series([(21, 1, OutlierSpec.none()), (22, 3, OutlierSpec.none())])
    series[1, 0, 1] = 1e307
    paths, frozen = trajectories(batch_filters(CFG, series, variants, X0)[1])
    alone, _ = trajectories(batch_filters(CFG, series[:1], variants, X0)[1])
    width = len(variants)
    assert sorted(frozen) == list(range(width, 2 * width))
    for member in range(width, 2 * width):
        assert_frozen(
            frozen, member, NonFiniteState, 0, "integration step produced a non-finite state"
        )
    for member in range(width):
        assert_same_path(paths[member], alone[member])


@pytest.mark.parametrize("variants", [(RCKF,), (CKF, RCKF)])
def test_division_by_zero_speed_freezes_with_message_and_step(variants):
    # under divide_by_speed a prior speed deviation of exactly -1 divides
    # the power by zero in the first RK4 stage; one variant keeps the batch
    # on the row-by-row float map, two put it on the array map, and both
    # freeze the member the same way
    cfg = replace(CFG, torque_mode=DIVIDE_BY_SPEED)
    x0 = equilibrium(cfg)
    series = corrupted_series([(31, 1, OutlierSpec.none()), (32, 3, OutlierSpec.none())])
    series[1, 0, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths, frozen = trajectories(batch_filters(cfg, series, variants, x0)[1])
    alone, _ = trajectories(batch_filters(cfg, series[:1], variants, x0)[1])
    width = len(variants)
    assert sorted(frozen) == list(range(width, 2 * width))
    for member in range(width, 2 * width):
        assert_frozen(
            frozen, member, NonFiniteState, 0, "integration step produced a non-finite state"
        )
    for member in range(width):
        assert_same_path(paths[member], alone[member])


def test_non_positive_definite_prior_freezes_after_the_jitter_ladder():
    P_bad = np.diag([1e-2, -1e-4, 1e-2, 1e-2])
    R = np.eye(3) * 0.01
    P0 = np.stack([np.eye(4) * 0.01, P_bad])
    paths, frozen = linear_run(LINEAR_X0, P0, [1.5, 1.5], R)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], [1.5], R)
    assert sorted(frozen) == [1]
    assert_frozen(
        frozen, 1, DecompositionFailure, 0,
        "matrix is not positive definite even after jitter escalation",
    )
    assert_same_path(paths[0], alone[0])


def marked_R(from_step, entry):
    """R provider that, from a given step on, sets R[2, 2] of the marked
    members to entry (or the whole R to zero when entry is None)."""

    def provider(step, predicted, u_obs):
        R = np.repeat((np.eye(3) * 0.01)[None], len(predicted.x_hat), axis=0)
        if step >= from_step:
            marked = predicted.x_hat[:, 3] > MARKED
            if entry is None:
                R[marked] = 0.0
            else:
                R[marked, 2, 2] = entry
        return R

    return provider


@pytest.mark.parametrize(
    "thresholds", [[math.inf, 1.5], [math.inf, math.inf]], ids=["mixed", "classical"]
)
def test_nonpositive_innovation_variance_freezes_the_member(thresholds):
    # an all-classical batch takes the classical update, which must gate
    # the predicted variances as the robust update does
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    provider = marked_R(3, -math.inf)
    paths, frozen = linear_run(LINEAR_X0, P0, thresholds, provider)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], thresholds[:1], provider)
    assert sorted(frozen) == [1]
    assert_frozen(
        frozen, 1, DegenerateChannel, 3, "channel 2 has nonpositive predicted variance -inf"
    )
    assert_same_path(paths[0], alone[0])


@pytest.mark.parametrize("thresholds", [[math.inf, math.inf], [1.5, 1.5]])
def test_singular_innovation_covariance_freezes_the_member(thresholds):
    # the two equal rows of LINEAR_H make the point statistic singular, so
    # the marked member's P_zz is singular once its R is zero
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    provider = marked_R(4, None)
    paths, frozen = linear_run(LINEAR_X0, P0, thresholds, provider)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], thresholds[:1], provider)
    assert sorted(frozen) == [1]
    assert_frozen(frozen, 1, DecompositionFailure, 4, "innovation covariance is singular")
    assert_same_path(paths[0], alone[0])


def test_failing_members_freeze_without_a_warning():
    # the stages compute under the step's error state: a factorization and
    # a solve that fail inside a mixed batch must freeze their members and
    # let no floating-point warning out of the step
    x0 = [LINEAR_X0[0], LINEAR_X0[0], LINEAR_X0[1]]
    P0 = np.stack([np.eye(4) * 0.01, np.diag([1e-2, -1e-4, 1e-2, 1e-2]), np.eye(4) * 0.01])
    thresholds = [math.inf, 1.5, 1.5]
    provider = marked_R(4, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths, frozen = linear_run(x0, P0, thresholds, provider)
    alone, _ = linear_run(x0[:1], P0[:1], thresholds[:1], provider)
    assert sorted(frozen) == [1, 2]
    assert_frozen(
        frozen, 1, DecompositionFailure, 0,
        "matrix is not positive definite even after jitter escalation",
    )
    assert_frozen(frozen, 2, DecompositionFailure, 4, "innovation covariance is singular")
    assert_same_path(paths[0], alone[0])


# ---------------------------------------------------------------------------
# The engine is the composition of the public stages.

def estimate_like_config():
    doc = default_config()
    doc["scenario"]["t_end"] = 1.0
    doc["scenario"]["fault"]["t_on"] = 0.3
    doc["noise"]["preset"] = 4
    doc["outliers"] = {
        "manner": "window", "t_start": 0.4, "t_end": 0.6, "channel": "omega", "scale": 1.1
    }
    return build_scenario(doc)


@pytest.mark.parametrize(
    "thresholds, passes",
    [([1.5], 1), ([math.inf], 1), ([math.inf, 1.5, 0.5, math.inf], 1), ([1.5, math.inf, 1.0], 2)],
)
def test_iter_batch_is_the_composition_of_the_stages(thresholds, passes):
    cfg = estimate_like_config()
    x0 = equilibrium(cfg)
    truth = simulate_truth(cfg, x0)
    seeds = range(31, 31 + len(thresholds))
    series = np.stack([synthesize_measurements(truth, with_seed(cfg, s))[1] for s in seeds])
    model = as_process_model(cfg.machine, cfg.dt, cfg.torque_mode)
    u_arr = cfg.profile.as_array(time_grid(cfg))
    Q = np.diag(cfg.init.q_diag)

    def provider(step, predicted, u_obs):
        R = np.zeros((len(predicted.x_hat), 3, 3))
        R[:, 0, 0] = cfg.sigmas.sigma_delta**2
        R[:, 1, 1] = cfg.sigmas.sigma_omega**2
        R[:, 2, 2] = power_variance(predicted.x_hat, u_obs, cfg.machine, cfg.sigmas)
        return R

    prior = np.stack([initial_filter_state(cfg, s, x0).x_hat for s in series])
    init = FilterState(prior, np.repeat(np.diag(cfg.init.p0_diag)[None], len(prior), axis=0))
    z = series[:, 1:].transpose(1, 0, 2)
    huber = HuberConfig(np.array(thresholds), passes)
    steps = iter_batch(model, init, u_arr[:-1], z, Q, provider, huber, observe_inputs=u_arr[1:])

    state = init
    classical = np.isinf(thresholds).all()
    for k, (members, posterior, failed) in enumerate(steps):
        assert not failed and members.size == len(thresholds)
        predicted = time_predict(state, model, u_arr[k], Q)
        R = provider(k, predicted, u_arr[k + 1])
        if classical:
            state, _ = ckf_update(predicted, z[k], model, u_arr[k + 1], R)
        else:
            state, _, _ = rckf_update(predicted, z[k], model, u_arr[k + 1], R, huber)
        assert posterior.step_index == state.step_index == k + 1
        np.testing.assert_array_equal(posterior.x_hat, state.x_hat)
        np.testing.assert_array_equal(posterior.P, state.P)
