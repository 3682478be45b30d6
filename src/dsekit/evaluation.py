"""Accuracy indicators for filter runs, and the float text of the CSVs.

Two indicators per state variable: a ratio of estimation-error energy to
measurement-error energy (computable only where a measurement channel
exists), and a relative root-mean-square error against the truth.  Both
exclude the initial step, which carries the prior rather than an estimate.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cache

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


# format_rows computes the digits of |v| in [_FAST_MIN, _FAST_MAX) with
# array arithmetic; every other value (NaN, infinities, zeros, the rest)
# and every rounding case it cannot settle is formatted alone.
_FAST_MIN, _FAST_MAX = 1e-280, 1e17
# Dekker's splitting constant, 2**27 + 1.
_SPLIT = 134217729.0
# format_rows lays a value's text out in a column of byte slots, a NUL
# byte meaning none: the sign; "0." and three zeros (1e-4 <= |v| < 1);
# the 17 digits with a decimal point among them, so 18 slots; "e", the
# exponent's sign and three exponent digits; the separator.
_SLOTS = 30
_DIGITS = 6
_EXPONENT = 24


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@cache
def _tables():
    """H, H's Dekker halves and L of 10**q = H + L + (a rest below
    2**-106 * H), q = 0..297; and the four ASCII digits of 0..9999 as
    uint32 words, then again with trailing zeros as NUL bytes.  Built on
    the first write, with few temporaries, so that importing costs
    nothing and the tables little memory."""
    powers = [10**q for q in range(298)]
    H = np.array([float(p) for p in powers])
    L = np.array([float(p - int(h)) for p, h in zip(powers, H.tolist())])
    # quads[s, a, b, c, d] holds "abcd", with trailing zeros as NUL if s
    quads = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    quads[..., 0] = ascii_digits[:, None, None, None]
    quads[..., 1] = ascii_digits[:, None, None]
    quads[..., 2] = ascii_digits[:, None]
    quads[..., 3] = ascii_digits
    quads[1, ..., 0, 3] = 0
    quads[1, ..., 0, 0, 2] = 0
    quads[1, :, 0, 0, 0, 1] = 0
    quads[1, 0, 0, 0, 0, 0] = 0
    quads = quads.view(np.uint32).ravel()
    tables = H, *_split(H), L, quads
    for table in tables:
        table.flags.writeable = False
    return tables[:4], quads


def _scaled(a, q):
    """|v| * 10**q as p + t, p the rounded double product, t the rest with
    a rounding error; and where that error can be nonzero (L != 0)."""
    H, H_hi, H_lo, L = _tables()[0]
    p = a * H.take(q)
    a_hi, a_lo = _split(a)
    h_hi, h_lo = H_hi.take(q), H_lo.take(q)
    # Dekker's ((a_hi h_hi - p) + a_hi h_lo + a_lo h_hi) + a_lo h_lo, in place
    t = a_hi * h_hi
    t -= p
    a_hi *= h_lo
    t += a_hi
    h_hi *= a_lo
    t += h_hi
    a_lo *= h_lo
    t += a_lo
    low = L.take(q)
    t += a * low
    return p, t, low != 0


def _decimal(v):
    """For each |v| in [1e-280, 1e17), its 17-digit significand (int64 in
    [1e16, 1e17)) and decimal exponent X (int16); and where those hold.

    X comes from log10, corrected by one where |v| * 10**(16 - X) falls
    outside [1e16, 1e17).  Dekker's exact product against 10**(16 - X) =
    H + L gives the significand p + rint(t), exact because p >= 1e16 >
    2**53 is an even integer.  Where L is not zero, t carries an error
    below 1e-14, so a t within 1e-9 of a half-integer, a possible tie, is
    left to the per-value path, with every value outside the range.
    """
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    # the double nearest 1e-280 lies below it, so X can be -281
    x = np.clip(np.floor(np.log10(a)), -281, 16).astype(np.intp)
    p, t, inexact = _scaled(a, 16 - x)
    up = (p > 1e17) | ((p == 1e17) & (t >= 0))
    off = up.astype(np.intp) - ((p < 1e16) | ((p == 1e16) & (t < 0)))
    if off.any():
        fix = np.flatnonzero(off)
        x[fix] += off[fix]
        p[fix], t[fix], inexact[fix] = _scaled(a[fix], 16 - x[fix])
    rest = np.rint(t)
    fast &= ~(inexact & (np.abs(np.abs(t - rest) - 0.5) < 1e-9))
    sig = p.astype(np.int64) + rest.astype(np.int64)
    carry = sig == 10**17
    sig[carry] = 10**16
    x += carry
    return sig, x.astype(np.int16), fast


def _digit_rows(sig):
    """(18, n) ASCII digits of n significands, the first in row 0, with
    trailing zeros and row 17 as NUL bytes."""
    quads = _tables()[1]
    digits = np.empty((18, sig.size), np.uint8)
    # four groups of four digits from the last, then the lead digit; a
    # group takes the words with trailing NULs (index + 10000) while no
    # later group has a digit
    blank = np.full(sig.size, 10000)
    rest = sig
    for row in (13, 9, 5, 1):
        head = rest // 10000
        group = rest - head * 10000
        digits[row : row + 4] = quads.take(group + blank).view(np.uint8).reshape(-1, 4).T
        blank *= group == 0
        rest = head
    digits[0] = rest + 48
    digits[17] = 0
    return digits


def format_rows(table: np.ndarray) -> bytes:
    """CSV text of a (rows, cols) float table: each value as FLOAT_FORMAT
    writes it, joined by commas, each row ended by a newline."""
    # the temporaries of _slots are freed before its table is copied out
    return _slots(table).T.tobytes().translate(None, b"\0")


def _slots(table):
    """The (_SLOTS, size) byte slots of a table's text, one column per value.

    The digits of the values in the fast range (_decimal) are laid out by
    the %g rules; every other value is formatted alone into its column.
    """
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).ravel()
    sig, x, fast = _decimal(v)
    digits = _digit_rows(sig)
    del sig
    column = np.arange(v.size)
    index = np.arange(18, dtype=np.int16)[:, None]
    # an integer part keeps its zeros
    digits[:17] |= (index[:17] <= x) * np.uint8(48)

    buf = np.empty((_SLOTS, v.size), np.uint8)
    buf[0] = (v < 0) * np.uint8(45)
    # for -4 <= X < 0 the lead slots hold "0.000", each while X is at most
    # its bound
    lead_most = np.array([-1, -1, -2, -3, -4], np.int16)[:, None]
    buf[1:6] = ((x <= lead_most) & (x >= -4)) * np.frombuffer(b"0.000", np.uint8)[:, None]
    # the point follows digit X in the fixed form of |v| >= 1 and digit 0
    # in the exponent form, when a digit follows it; the fixed form of
    # |v| < 1 has its point in the lead slots and takes 16, which leaves
    # its digits in place
    exponent = x < -4
    point = np.where(x >= 0, x, np.where(exponent, 0, 16)).astype(np.int16)
    follows = digits[point + 1, column] != 0
    buf[_DIGITS] = digits[0]
    step = digits[1:] - digits[:-1]
    step *= index[1:] > point
    np.subtract(digits[1:], step, out=buf[_DIGITS + 1 : _DIGITS + 18])
    del digits, step
    buf[_DIGITS + 1 + point, column] = follows * np.uint8(46)
    # in the fast range only X < -4 takes the exponent form
    exp_digits = _tables()[1].take(-x * exponent).view(np.uint8)
    buf[_EXPONENT] = exponent * np.uint8(101)
    buf[_EXPONENT + 1] = exponent * np.uint8(45)
    buf[_EXPONENT + 2] = exp_digits[1::4] * (x <= -100)
    buf[_EXPONENT + 3] = exp_digits[2::4] * exponent
    buf[_EXPONENT + 4] = exp_digits[3::4] * exponent

    alone = np.flatnonzero(~fast)
    if alone.size:
        # 24 bytes hold the longest text, "-2.2250738585072014e-308"
        text = np.array([FLOAT_FORMAT % value for value in v[alone].tolist()], dtype="S24")
        buf[:-1, alone] = 0
        buf[:24, alone] = text.view(np.uint8).reshape(-1, 24).T
    ends = buf[-1].reshape(rows, cols)
    ends[:] = 44
    ends[:, -1] = 10
    return buf


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
