"""The batched lockstep filter engine: members run together must get the
bits they get alone, whatever the batch's size and order; a diverging
member is frozen with its step index and leaves the others untouched; every
posterior covariance stays symmetric positive definite."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit.config import build_scenario, default_config, with_noise_preset, with_outliers, with_seed
from dsekit.errors import NonFiniteState
from dsekit.filters import CKF, RCKF
from dsekit.noise import OutlierSpec
from dsekit.scenario import (
    batch_filters,
    equilibrium,
    filter_series,
    simulate_truth,
    synthesize_measurements,
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
