"""Accuracy indicators for filter runs.

Two indicators per state variable: a ratio of estimation-error energy to
measurement-error energy (computable only where a measurement channel
exists), and a relative root-mean-square error against the truth.  Both
exclude the initial step, which carries the prior rather than an estimate.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedRuns, ZeroDenominator, ZeroTruthValue

VARIABLES = ("delta", "omega", "eqp", "edp")
MEASURED_CHANNEL = {"delta": 0, "omega": 1}

# 17 significant digits: every double reads back as itself.
FLOAT_FORMAT = "%.17g"


def format_float(value) -> str:
    """17 significant digit decimal form, empty string for missing."""
    if value is None:
        return ""
    return FLOAT_FORMAT % value


def epsilon1(estimates: np.ndarray, truth: np.ndarray, measurements: np.ndarray) -> float:
    """Root of summed squared estimation error over root of summed squared
    measurement error.

    Values below one mean the filter beats the raw channel.

    Raises:
        ZeroDenominator: the measurement error is identically zero.
    """
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    measurements = np.asarray(measurements, dtype=float)
    if estimates.shape != truth.shape or truth.shape != measurements.shape:
        raise MismatchedRuns(
            f"series shapes differ: {estimates.shape}, {truth.shape}, {measurements.shape}"
        )
    denominator = math.sqrt(float(np.sum((measurements - truth) ** 2)))
    if denominator == 0.0:
        raise ZeroDenominator("measurement error is identically zero")
    numerator = math.sqrt(float(np.sum((estimates - truth) ** 2)))
    return numerator / denominator


def epsilon2(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Root mean square of the relative estimation error.

    Raises:
        ZeroTruthValue: some truth sample is exactly zero; the message
            names the first offending index.
    """
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise MismatchedRuns(f"series shapes differ: {estimates.shape}, {truth.shape}")
    zeros = np.flatnonzero(truth == 0.0)
    if zeros.size:
        raise ZeroTruthValue(
            f"truth sample at index {int(zeros[0])} is zero; relative error undefined"
        )
    rel = (estimates - truth) / truth
    return math.sqrt(float(np.mean(rel**2)))


@dataclass(frozen=True)
class MetricsReport:
    """Indicator values for one run of one filter variant.

    epsilon1 covers the measured variables only; epsilon2 covers all four.
    An indicator that is undefined for the run is left out: epsilon1 where
    the measurement error is identically zero, epsilon2 where a truth
    sample is exactly zero.  Step 0, the prior, is not scored.
    """

    epsilon1: dict[str, float]
    epsilon2: dict[str, float]


def _series(estimates, truth, corrupted, variable: str):
    """(estimates, truth, measurements) for one variable, step 0 dropped.

    Angle series are unwrapped; speed series are shifted to 1 + deviation
    to match the measured quantity.  Raw measurements are never unwrapped,
    heavy-tailed spikes would corrupt the unwrapping.
    """
    col = VARIABLES.index(variable)
    est = estimates[1:, col]
    tru = truth[1:, col]
    if variable == "delta":
        est = np.unwrap(est)
        tru = np.unwrap(tru)
        meas = corrupted[1:, 0]
    elif variable == "omega":
        est = 1.0 + est
        tru = 1.0 + tru
        meas = corrupted[1:, 1]
    else:
        meas = None
    return est, tru, meas


def report_from_run(
    estimates: np.ndarray, truth: np.ndarray, corrupted: np.ndarray
) -> MetricsReport:
    """Score one filter's estimates (steps + 1, 4), whose first row is its
    prior, against the truth (steps + 1, 4) and the corrupted measurements
    (steps + 1, 3) it filtered, leaving out the indicators that are
    undefined for the run."""
    eps1: dict[str, float] = {}
    eps2: dict[str, float] = {}
    for variable in VARIABLES:
        est, tru, meas = _series(estimates, truth, corrupted, variable)
        if variable in MEASURED_CHANNEL:
            with suppress(ZeroDenominator):
                eps1[variable] = epsilon1(est, tru, meas)
        with suppress(ZeroTruthValue):
            eps2[variable] = epsilon2(est, tru)
    return MetricsReport(epsilon1=eps1, epsilon2=eps2)
