"""Tests for the accuracy indicators.

Fixtures are short enough to check by hand: three-sample series whose
sums of squares are exact decimals.
"""

import math

import numpy as np
import pytest

from dsekit.errors import MismatchedRuns, ZeroDenominator, ZeroTruthValue
from dsekit.evaluation import (
    MEASURED_CHANNEL,
    VARIABLES,
    epsilon1,
    epsilon2,
    report_from_run,
)
from dsekit.filters import CKF
from dsekit.noise import GAUSSIAN_WHITE, NoiseSpec

from test_scenario import make_config, run_pipeline

TRUTH = np.array([1.0, 2.0, 3.0])
ESTIMATES = np.array([1.1, 2.1, 3.1])
MEASURED = np.array([1.2, 1.8, 3.3])


class TestEpsilon1:
    def test_hand_value(self):
        # sqrt(0.03) / sqrt(0.17)
        value = epsilon1(ESTIMATES, TRUTH, MEASURED)
        assert value == pytest.approx(0.42008402520840293, abs=1e-15)

    def test_perfect_estimates_give_zero(self):
        assert epsilon1(TRUTH, TRUTH, MEASURED) == 0.0

    def test_estimate_equal_to_measurement_gives_one(self):
        assert epsilon1(MEASURED, TRUTH, MEASURED) == pytest.approx(1.0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(MismatchedRuns):
            epsilon1(ESTIMATES, TRUTH, MEASURED[:2])

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            epsilon1(ESTIMATES, TRUTH, TRUTH.copy())


class TestEpsilon2:
    def test_hand_value(self):
        # sqrt((0.01 + 0.0025 + 1/900) / 3) = sqrt(49/10800)
        value = epsilon2(ESTIMATES, TRUTH)
        assert value == pytest.approx(7 * math.sqrt(3) / 180, abs=1e-15)

    def test_perfect_estimates_give_zero(self):
        assert epsilon2(TRUTH, TRUTH) == 0.0

    def test_zero_truth_sample_named(self):
        with pytest.raises(ZeroTruthValue, match="index 1"):
            epsilon2(ESTIMATES, np.array([1.0, 0.0, 3.0]))

    def test_shape_mismatch(self):
        with pytest.raises(MismatchedRuns):
            epsilon2(ESTIMATES, TRUTH[:2])


class TestReportFromRun:
    def _noisy_config(self):
        noise = (
            NoiseSpec(GAUSSIAN_WHITE, math.radians(2.0)),
            NoiseSpec(GAUSSIAN_WHITE, 0.001),
            None,
        )
        return make_config(t_end=4.0, noise=noise)

    def test_shape_and_keys(self):
        truth, corrupted, estimates, _ = run_pipeline(self._noisy_config())
        report = report_from_run(estimates[CKF], truth, corrupted)
        assert set(report.epsilon1) == set(MEASURED_CHANNEL)
        assert set(report.epsilon2) == set(VARIABLES)
        for value in (*report.epsilon1.values(), *report.epsilon2.values()):
            assert math.isfinite(value) and value > 0.0

    def test_initial_step_excluded(self):
        truth, corrupted, estimates, _ = run_pipeline(self._noisy_config())
        poked = estimates[CKF].copy()
        poked[0] += 100.0
        a = report_from_run(estimates[CKF], truth, corrupted)
        b = report_from_run(poked, truth, corrupted)
        assert a.epsilon1 == b.epsilon1
        assert a.epsilon2 == b.epsilon2

    def test_speed_scored_as_absolute_speed(self):
        # a 0.001 p.u. deviation error must score against 1 + deviation,
        # not against the deviation itself
        truth = np.array([[0.5, 0.001, 1.0, 0.4]] * 3)
        estimates = np.array([[0.5, 0.002, 1.0, 0.4]] * 3)
        corrupted = np.array([[0.52, 1.0015, 0.8]] * 3)
        report = report_from_run(estimates, truth, corrupted)
        assert report.epsilon2["omega"] == pytest.approx(0.001 / 1.001, abs=1e-12)

    def test_wrapped_angle_estimates_are_unwrapped(self):
        two_pi = 2.0 * math.pi
        delta = np.array([3.0, 3.1, 3.2, 3.3])
        truth = np.column_stack(
            (delta, np.full(4, 0.001), np.full(4, 1.0), np.full(4, 0.4))
        )
        wrapped = delta.copy()
        # wrap inside the scored window (step 0 is dropped before scoring)
        wrapped[2:] -= two_pi
        estimates = truth.copy()
        estimates[:, 0] = wrapped
        corrupted = np.column_stack(
            (delta + 0.01, 1.002 + truth[:, 1], np.full(4, 0.8))
        )
        report = report_from_run(estimates, truth, corrupted)
        assert report.epsilon2["delta"] == pytest.approx(0.0, abs=1e-12)
        assert report.epsilon1["delta"] == pytest.approx(0.0, abs=1e-9)
