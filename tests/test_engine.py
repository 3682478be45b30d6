"""The batched lockstep filter engine: members run together must get the
bits they get alone, whatever the batch's size and order; a diverging
member is frozen with its step index and leaves the others untouched; every
posterior covariance stays symmetric positive definite."""

import math
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import filters
from dsekit.config import build_scenario, default_config, load_config, noise_preset
from dsekit.errors import DecompositionFailure, DegenerateChannel, NonFiniteState
from dsekit.filters import (
    CKF,
    RCKF,
    FilterState,
    HuberConfig,
    ProcessModel,
    iter_batch,
    rckf_update,
    time_predict,
)
from dsekit.harness import run_experiment
from dsekit.machine import DIVIDE_BY_SPEED, as_process_model, power_variance_map
from dsekit.noise import OutlierSpec
from dsekit.scenario import (
    Cell,
    Member,
    batch_filters,
    filter_series,
    initial_filter_state,
    member_table,
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
TRUTH = simulate_truth(CFG)

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
    return synthesize_measurements(
        CFG,
        TRUTH,
        [Cell(seed, noise_preset(preset, CFG.sigmas), spec) for seed, preset, spec in cells],
    )[1]


def assert_same_member(got, want, variant):
    """One variant's estimates and failure in two (estimates, failures)
    results."""
    assert got[1].get(variant) == want[1].get(variant)
    assert (variant in got[0]) == (variant in want[0])
    if variant in want[0]:
        np.testing.assert_array_equal(got[0][variant], want[0][variant])


@settings(max_examples=25)
@given(cells=CELLS, variants=VARIANTS, order=st.randoms(use_true_random=False))
def test_members_match_their_batch_of_one_in_any_order(cells, variants, order):
    series = corrupted_series(cells)
    table = member_table(CFG, len(cells), variants)
    together = filter_series(CFG, series, table)
    reversed_ = filter_series(CFG, series[::-1], table)[::-1]
    # the same rows, no longer series by series
    shuffled = filter_series(CFG, series, order.sample(table, len(table)))
    for i in range(len(cells)):
        for variant in variants:
            alone = filter_series(CFG, series[i : i + 1], member_table(CFG, 1, (variant,)))[0]
            assert_same_member(together[i], alone, variant)
            assert_same_member(reversed_[i], alone, variant)
            assert_same_member(shuffled[i], alone, variant)


def test_rows_that_differ_in_threshold_run_as_one_batch():
    series = corrupted_series([(41, 4, OutlierSpec.window(0.4, 0.6)), (42, 2, OutlierSpec.none())])
    table = [
        Member(0, "ckf", math.inf),
        Member(0, "rckf", 1.5),
        Member(0, "rckf-c3", 3.0),
        Member(1, "rckf", 1.5),
    ]
    together = filter_series(CFG, series, table)
    for member in table:
        alone = filter_series(CFG, series, [member])[member.series]
        assert_same_member(together[member.series], alone, member.label)
    # each threshold reaches its member: the rows' estimates differ
    estimates, failures = together[0]
    assert not failures and list(estimates) == ["ckf", "rckf", "rckf-c3"]
    assert not np.array_equal(estimates["rckf"], estimates["rckf-c3"])


@pytest.mark.parametrize(
    "row, message",
    [
        (Member(1, RCKF, 3.0), r"repeats \(series, label\) \(1, 'rckf'\)"),
        (Member(2, "ckf-far", math.inf), "reads a series outside its stack of 2"),
        # a negative index would read the last series and report under it
        (Member(-1, "ckf-far", math.inf), "reads a series outside its stack of 2"),
    ],
    ids=["repeated", "past_the_stack", "negative"],
)
def test_a_bad_row_raises_before_any_step(row, message):
    series = corrupted_series([(51, 1, OutlierSpec.none()), (52, 1, OutlierSpec.none())])
    with pytest.raises(ValueError, match=message):
        batch_filters(CFG, series, [*member_table(CFG, 2), row])


@settings(max_examples=15)
@given(cells=CELLS, variants=VARIANTS)
def test_every_posterior_covariance_is_symmetric_positive_definite(cells, variants):
    _, steps = batch_filters(CFG, corrupted_series(cells), member_table(CFG, len(cells), variants))
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
    results = filter_series(CFG, poisoned)
    estimates, failures = results[1]
    assert not estimates
    for variant in (CKF, RCKF):
        assert failures[variant].startswith(f"measurement index {k}: ")
    without = filter_series(CFG, poisoned[[0, 2]])
    for got, want in zip((results[0], results[2]), without):
        assert not got[1]
        for variant in (CKF, RCKF):
            assert_same_member(got, want, variant)

    # the engine reports the frozen members with their exception and step
    _, steps = batch_filters(CFG, poisoned, member_table(CFG, len(poisoned)))
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


def linear_run(x0, P0, thresholds, r, steps=8, model=LINEAR):
    """The LINEAR batch's trajectories; input row k holds k, which LINEAR
    ignores and an r provider may read."""
    x0 = np.asarray(x0, dtype=float)
    measurements = np.tile(np.array([0.3, 0.3, 1.1]), (steps, len(x0), 1))
    return trajectories(
        iter_batch(
            model,
            FilterState(x0, np.asarray(P0, dtype=float)),
            np.arange(steps + 1.0)[:, None],
            measurements,
            np.eye(4) * 1e-3,
            r,
            HuberConfig(np.asarray(thresholds, dtype=float)),
        )
    )


LINEAR_X0 = [[0.1, 0.0, 1.0, 1.0], [0.1, 0.0, 1.0, 1000.0]]


def test_nan_measurement_freezes_with_message_and_step():
    k = 5
    series = corrupted_series([(11, 4, OutlierSpec.none()), (12, 2, OutlierSpec.none())])
    series[1, k + 1, 0] = math.nan
    paths, frozen = trajectories(batch_filters(CFG, series, member_table(CFG, 2))[1])
    alone, none_frozen = trajectories(batch_filters(CFG, series[:1], member_table(CFG, 1))[1])
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
    paths, frozen = trajectories(batch_filters(CFG, series, member_table(CFG, 2, variants))[1])
    alone, _ = trajectories(batch_filters(CFG, series[:1], member_table(CFG, 1, variants))[1])
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
    series = corrupted_series([(31, 1, OutlierSpec.none()), (32, 3, OutlierSpec.none())])
    series[1, 0, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths, frozen = trajectories(batch_filters(cfg, series, member_table(cfg, 2, variants))[1])
    alone, _ = trajectories(batch_filters(cfg, series[:1], member_table(cfg, 1, variants))[1])
    width = len(variants)
    assert sorted(frozen) == list(range(width, 2 * width))
    for member in range(width, 2 * width):
        assert_frozen(
            frozen, member, NonFiniteState, 0, "integration step produced a non-finite state"
        )
    for member in range(width):
        assert_same_path(paths[member], alone[member])


@pytest.mark.parametrize(
    "hook, message",
    [
        ("transition_points", "integration step produced a non-finite state"),
        ("observe_points", "projected measurement points are not finite"),
    ],
)
def test_map_giving_nan_rows_freezes_the_member(hook, message):
    # a model map does not raise on rows it cannot evaluate but gives them
    # NaN; the engine's gate on the mapped points names the marked member
    linear_map = getattr(LINEAR, hook)

    def nan_where_marked(x, u):
        out = linear_map(x, u)
        out[x[:, 3] > MARKED] = math.nan
        return out

    model = replace(LINEAR, **{hook: nan_where_marked})
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    r = np.full(3, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths, frozen = linear_run(LINEAR_X0, P0, [1.5, 1.5], r, model=model)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], [1.5], r, model=model)
    assert sorted(frozen) == [1]
    assert_frozen(frozen, 1, NonFiniteState, 0, message)
    assert_same_path(paths[0], alone[0])


def test_non_positive_definite_prior_freezes_after_the_jitter_ladder():
    P_bad = np.diag([1e-2, -1e-4, 1e-2, 1e-2])
    r = np.full(3, 0.01)
    P0 = np.stack([np.eye(4) * 0.01, P_bad])
    paths, frozen = linear_run(LINEAR_X0, P0, [1.5, 1.5], r)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], [1.5], r)
    assert sorted(frozen) == [1]
    assert_frozen(
        frozen, 1, DecompositionFailure, 0,
        "matrix is not positive definite even after jitter escalation",
    )
    assert_same_path(paths[0], alone[0])


def marked_r(from_step, entry):
    """r provider for linear_run that, from a given step on, sets the
    channel 2 variance of the marked members to entry (or every channel's
    to zero when entry is None)."""

    def provider(predicted, u_obs):
        r = np.full((len(predicted.x_hat), 3), 0.01)
        # step k observes with input row k + 1, which holds k + 1
        if u_obs[0] - 1 >= from_step:
            marked = predicted.x_hat[:, 3] > MARKED
            if entry is None:
                r[marked] = 0.0
            else:
                r[marked, 2] = entry
        return r

    return provider


@pytest.mark.parametrize(
    "thresholds", [[math.inf, 1.5], [math.inf, math.inf]], ids=["mixed", "classical"]
)
def test_nonpositive_innovation_variance_freezes_the_member(thresholds):
    # an all-classical batch skips the reweight, and must gate the
    # predicted variances as the reweight does
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    provider = marked_r(3, -math.inf)
    paths, frozen = linear_run(LINEAR_X0, P0, thresholds, provider)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], thresholds[:1], provider)
    assert sorted(frozen) == [1]
    assert_frozen(
        frozen, 1, DegenerateChannel, 3, "channel 2 has nonpositive predicted variance -inf"
    )
    assert_same_path(paths[0], alone[0])


@pytest.mark.parametrize("thresholds", [[1.5, math.inf], [math.inf, 1.5]], ids=["ckf", "rckf"])
def test_infinite_measurement_variance_freezes_the_member(thresholds):
    # an infinite r entry makes P_zz, and so the posterior, not finite; the
    # P_zz gate, which runs only once the posterior fails, names the cause
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    provider = marked_r(3, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths, frozen = linear_run(LINEAR_X0, P0, thresholds, provider)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], thresholds[:1], provider)
    assert sorted(frozen) == [1]
    assert_frozen(frozen, 1, DecompositionFailure, 3, "matrix contains non-finite entries")
    assert_same_path(paths[0], alone[0])


@pytest.mark.parametrize("thresholds", [[math.inf, math.inf], [1.5, 1.5]])
def test_singular_innovation_covariance_freezes_the_member(thresholds):
    # the two equal rows of LINEAR_H make the point statistic singular, so
    # the marked member's P_zz is singular once its R is zero
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    provider = marked_r(4, None)
    paths, frozen = linear_run(LINEAR_X0, P0, thresholds, provider)
    alone, _ = linear_run(LINEAR_X0[:1], P0[:1], thresholds[:1], provider)
    assert sorted(frozen) == [1]
    assert_frozen(frozen, 1, DecompositionFailure, 4, "innovation covariance is singular")
    assert_same_path(paths[0], alone[0])


@pytest.mark.parametrize("members", [None, []], ids=["absent", "empty"])
def test_member_failure_naming_no_member_is_raised(members):
    # a failure that names no member cannot freeze one, so it leaves the
    # batch as it came
    error = DegenerateChannel("no member named")
    if members is not None:
        error.members = np.asarray(members, dtype=np.intp)

    def provider(predicted, u_obs):
        raise error

    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    with pytest.raises(DegenerateChannel) as info:
        linear_run(LINEAR_X0, P0, [1.5, 1.5], provider)
    assert info.value is error


def test_failing_members_freeze_without_a_warning():
    # the stages compute under the step's error state: a factorization and
    # a solve that fail inside a mixed batch must freeze their members and
    # let no floating-point warning out of the step
    x0 = [LINEAR_X0[0], LINEAR_X0[0], LINEAR_X0[1]]
    P0 = np.stack([np.eye(4) * 0.01, np.diag([1e-2, -1e-4, 1e-2, 1e-2]), np.eye(4) * 0.01])
    thresholds = [math.inf, 1.5, 1.5]
    provider = marked_r(4, None)
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
# R is diagonal by type: the engine takes one variance per channel.

def test_a_fixed_covariance_matrix_is_rejected_before_the_first_step():
    calls = []

    def recorded(x, u):
        calls.append(u)
        return x @ LINEAR_H.T

    model = replace(LINEAR, observe_points=recorded)
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    with pytest.raises(ValueError, match=r"a fixed r must have shape \(3,\), got \(3, 3\)"):
        linear_run(LINEAR_X0, P0, [math.inf, 1.5], np.eye(3) * 0.01, model=model)
    assert calls == []


def test_a_provided_covariance_matrix_is_rejected_at_its_step():
    def provider(predicted, u_obs):
        return np.repeat((np.eye(3) * 0.01)[None], len(predicted.x_hat), axis=0)

    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    message = r"the r provider must return shape \(2, 3\), got \(2, 3, 3\)"
    with pytest.raises(ValueError, match=message):
        linear_run(LINEAR_X0, P0, [math.inf, 1.5], provider)


@pytest.mark.parametrize("passes", [1, 3])
def test_classical_member_with_unequal_channel_variances_ignores_its_batch(passes):
    # the CKF member alone skips the reweight; beside an RCKF member it
    # runs it at c = inf, and must get the same bits
    x0 = [LINEAR_X0[0]] * 2
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)

    def provider(predicted, u_obs):
        return np.array([0.002, 0.03, 0.5]) * (1.0 + predicted.x_hat[:, 3:] ** 2)

    def run(thresholds):
        return trajectories(
            iter_batch(
                LINEAR, FilterState(np.array(x0[: len(thresholds)]), P0[: len(thresholds)]),
                [np.zeros(1)] * 9, np.tile([0.3, 0.2, 1.4], (8, len(thresholds), 1)),
                np.eye(4) * 1e-3, provider, HuberConfig(np.array(thresholds), passes),
            )
        )

    (paths, frozen), (alone, _) = run([math.inf, 1.0]), run([math.inf])
    assert not frozen
    assert_same_path(paths[0], alone[0])
    # the robust member was reweighted, so the batch took the reweight
    assert not np.array_equal(paths[0][-1][0], paths[1][-1][0])


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
    truth = simulate_truth(cfg)
    seeds = range(31, 31 + len(thresholds))
    cells = [Cell(s, cfg.noise, cfg.outliers) for s in seeds]
    _, series = synthesize_measurements(cfg, truth, cells)
    model = as_process_model(cfg.machine, cfg.dt, cfg.torque_mode)
    u_arr = cfg.profile.as_array(time_grid(cfg))
    Q = np.diag(cfg.init.q_diag)
    variance = power_variance_map(cfg.machine, cfg.sigmas)

    def provider(predicted, u_obs):
        r = np.zeros((len(predicted.x_hat), 3))
        r[:, 0] = cfg.sigmas.sigma_delta**2
        r[:, 1] = cfg.sigmas.sigma_omega**2
        r[:, 2] = variance(predicted.x_hat, u_obs)
        return r

    init = initial_filter_state(cfg, series)
    z = series[:, 1:].transpose(1, 0, 2)
    huber = HuberConfig(np.array(thresholds), passes)
    steps = iter_batch(model, init, u_arr, z, Q, provider, huber)

    state = init
    for k, (members, posterior, failed) in enumerate(steps):
        assert not failed and members.size == len(thresholds)
        predicted = time_predict(state, model, u_arr[k], Q)
        r = provider(predicted, u_arr[k + 1])
        state, _, _ = rckf_update(predicted, z[k], model, u_arr[k + 1], r, huber)
        np.testing.assert_array_equal(posterior.x_hat, state.x_hat)
        np.testing.assert_array_equal(posterior.P, state.P)


def test_iter_batch_steps_each_stage_by_its_module_name_once_per_step(monkeypatch):
    # the stages are the one implementation of their step, looked up by
    # name, so a wrapper on the module attribute sees every call
    counts = Counter()

    def counting(name):
        stage = getattr(filters, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return stage(*args, **kwargs)

        return counted

    for name in ("time_predict", "rckf_update", "huber_reweight"):
        monkeypatch.setattr(filters, name, counting(name))
    P0 = np.repeat((np.eye(4) * 0.01)[None], 2, axis=0)
    paths, frozen = linear_run(LINEAR_X0, P0, [math.inf, 1.5], np.full(3, 0.01))
    assert not frozen and len(paths[0]) == 8
    assert counts == {"time_predict": 8, "rckf_update": 8, "huber_reweight": 8}


# ---------------------------------------------------------------------------
# time_predict returns C / N + Q without symmetrizing it: the product of the
# centered points with themselves is exactly symmetric, and so is Q.

ROOT = Path(__file__).resolve().parents[1]


def estimate_run(cfg):
    """One series of cfg, both variants: a batch of two on the float kernels."""
    filter_series(cfg, synthesize_measurements(cfg, simulate_truth(cfg))[1])


RUNS = {
    "estimate": lambda: estimate_run(
        build_scenario(load_config(ROOT / "perfbench" / "configs" / "estimate.json"))
    ),
    # one seed in each of the 8 cells, 16 members: 128-row array kernels
    "matrix": lambda: run_experiment(
        build_scenario(load_config(ROOT / "perfbench" / "configs" / "matrix.json")), [1]
    ),
    "divide_by_speed": lambda: estimate_run(
        replace(build_scenario(load_config(ROOT / "configs" / "default.json")),
                torque_mode=DIVIDE_BY_SPEED)
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_predicted_covariance_equals_its_transpose(run, monkeypatch):
    stage = filters.time_predict
    seen = Counter()

    def checked(*args):
        predicted = stage(*args)
        P = predicted.P
        seen[len(P)] += 1
        np.testing.assert_array_equal(P, P.transpose(0, 2, 1))
        return predicted

    monkeypatch.setattr(filters, "time_predict", checked)
    RUNS[run]()
    assert seen[16 if run == "matrix" else 2] > 100
