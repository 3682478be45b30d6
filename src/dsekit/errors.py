"""Exception types shared across the package."""


class DsekitError(Exception):
    """Base class for all errors raised by this package."""


class DecompositionFailure(DsekitError):
    """A covariance matrix could not be factorized even after jitter escalation."""


class NonFiniteState(DsekitError):
    """A state, point set, or estimate stopped being finite."""


class InvalidConfig(DsekitError):
    """A tuning parameter is outside its legal range."""


class DegenerateChannel(DsekitError):
    """A measurement channel has nonpositive predicted variance."""


class OutOfRange(DsekitError):
    """A requested time lies outside the simulated horizon."""


class InvalidWindow(DsekitError):
    """A time window is empty, inverted, or outside the horizon."""


class NoConvergence(DsekitError):
    """An iterative solve ended without meeting its residual tolerance."""


class ZeroDenominator(DsekitError):
    """A ratio metric has an identically zero denominator."""


class ZeroTruthValue(DsekitError):
    """A relative metric hit a zero in the reference series."""


class MismatchedRuns(DsekitError):
    """Two runs being compared do not cover the same steps or variables."""


class ConfigError(DsekitError):
    """A configuration document is malformed; carries the offending key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")
