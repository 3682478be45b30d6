"""Accuracy indicators for filter runs.

Two indicators per state variable: a ratio of estimation-error energy to
measurement-error energy (computable only where a measurement channel
exists), and a relative root-mean-square error against the truth.  Both
exclude the initial step, which carries the prior rather than an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MismatchedRuns,
    NoMeasurementChannel,
    ZeroDenominator,
    ZeroTruthValue,
)

VARIABLES = ("delta", "omega", "eqp", "edp")
MEASURED_CHANNEL = {"delta": 0, "omega": 1}

# 17 significant digits: every double reads back as itself.
FLOAT_FORMAT = "%.17g"


def format_float(value) -> str:
    """17 significant digit decimal form, empty string for missing."""
    if value is None:
        return ""
    return FLOAT_FORMAT % value


def epsilon1(
    estimates: np.ndarray, truth: np.ndarray, measurements: np.ndarray | None
) -> float:
    """Root of summed squared estimation error over root of summed squared
    measurement error.

    Values below one mean the filter beats the raw channel.

    Raises:
        NoMeasurementChannel: measurements is None (variable not measured).
        ZeroDenominator: the measurement error is identically zero.
    """
    if measurements is None:
        raise NoMeasurementChannel("this variable has no measurement channel")
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
    s_m is the number of scored steps (the initial one is excluded).
    """

    s_m: int
    epsilon1: dict[str, float]
    epsilon2: dict[str, float]


def _series(record, variant: str, variable: str):
    """(estimates, truth, measurements) for one variable, step 0 dropped.

    Angle series are unwrapped; speed series are shifted to 1 + deviation
    to match the measured quantity.  Raw measurements are never unwrapped,
    heavy-tailed spikes would corrupt the unwrapping.
    """
    est_run = record.estimates[variant]
    col = VARIABLES.index(variable)
    est = est_run[1:, col]
    tru = record.truth[1:, col]
    if variable == "delta":
        est = np.unwrap(est)
        tru = np.unwrap(tru)
        meas = record.corrupted[1:, 0]
    elif variable == "omega":
        est = 1.0 + est
        tru = 1.0 + tru
        meas = record.corrupted[1:, 1]
    else:
        meas = None
    return est, tru, meas


def report_from_run(record, variant: str) -> MetricsReport:
    """Score one filter variant of a finished run."""
    if variant not in record.estimates:
        raise MismatchedRuns(f"run has no estimates for variant {variant!r}")
    eps1: dict[str, float] = {}
    eps2: dict[str, float] = {}
    for variable in VARIABLES:
        est, tru, meas = _series(record, variant, variable)
        if variable in MEASURED_CHANNEL:
            eps1[variable] = epsilon1(est, tru, meas)
        eps2[variable] = epsilon2(est, tru)
    return MetricsReport(
        s_m=record.truth.shape[0] - 1, epsilon1=eps1, epsilon2=eps2
    )


def improvement_report(
    ckf: MetricsReport, rckf: MetricsReport
) -> dict[str, dict[str, float]]:
    """Relative indicator improvement of the robust variant, per variable.

    Entries are (ckf - rckf) / ckf, present only where the ckf value is
    strictly positive.

    Raises:
        MismatchedRuns: the two reports cover different steps or variables.
    """
    if ckf.s_m != rckf.s_m:
        raise MismatchedRuns(f"step counts differ: {ckf.s_m} vs {rckf.s_m}")
    if ckf.epsilon1.keys() != rckf.epsilon1.keys() or ckf.epsilon2.keys() != rckf.epsilon2.keys():
        raise MismatchedRuns("reports cover different variables")
    out: dict[str, dict[str, float]] = {"epsilon1": {}, "epsilon2": {}}
    for name, a, b in (
        ("epsilon1", ckf.epsilon1, rckf.epsilon1),
        ("epsilon2", ckf.epsilon2, rckf.epsilon2),
    ):
        for variable, base in a.items():
            if base > 0.0:
                out[name][variable] = (base - b[variable]) / base
    return out
