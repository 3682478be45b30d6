"""Measurement noise laboratory: seeded streams, heavy-tailed draws,
channel corruption, and outlier injection.

Laplace and Cauchy variates are produced by inverse-transform expressions
from uniform draws; the transforms are exposed as pure functions so a unit
of noise can be checked against hand-picked uniforms.  Streams are
counter-based, keyed by (seed, stream_id), so any (run, channel) pair can
be regenerated in isolation and in any order; corrupt draws channel ch of
a series from the stream (seed, (0, ch)).  An OutlierSpec is the closed
time window whose rows it scales, on the channel it names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, InvalidWindow, OutOfRange

GAUSSIAN_WHITE = "gaussian_white"
GAUSSIAN_BIASED = "gaussian_biased"
LAPLACE = "laplace"
CAUCHY = "cauchy"
NOISE_KINDS = (GAUSSIAN_WHITE, GAUSSIAN_BIASED, LAPLACE, CAUCHY)

CHANNELS = ("delta", "omega", "pe")

# Seeds run over [0, SEED_LIMIT): a stream's seed is one 64-bit word of its
# Philox key.
SEED_LIMIT = 2**64

# Offset of the Cauchy location parameter, in units of the nominal std.
CAUCHY_LOCATION_SIGMAS = 10.0


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the additive noise on one channel.

    sigma is the nominal measurement std of the channel; mu shifts the
    distribution.  For the Laplace kind the scale is sigma / sqrt(2) so
    the variance equals sigma squared; for the Cauchy kind sigma is used
    as the scale directly and the location sits at mu + 10 sigma.
    """

    kind: str
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidConfig(f"unknown noise kind {self.kind!r}")
        if not self.sigma >= 0.0:
            raise InvalidConfig(f"sigma must be nonnegative, got {self.sigma}")
        if not (math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise InvalidConfig(f"sigma and mu must be finite, got {self.sigma} and {self.mu}")
        if self.kind == GAUSSIAN_WHITE and self.mu != 0.0:
            raise InvalidConfig("gaussian_white requires mu == 0")


def check_seed(seed) -> None:
    """Raises InvalidConfig unless seed is an integer in [0, 2**64); a bool
    is not a seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidConfig(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise InvalidConfig(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class SeededStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce identical draw sequences on any platform;
    distinct stream ids are statistically independent.
    """

    seed: int
    stream_id: tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_seed(self.seed)

    def generator(self) -> np.random.Generator:
        run, channel = self.stream_id
        key = np.array(
            [
                self.seed,
                ((run & 0xFFFFFFFF) << 32) | (channel & 0xFFFFFFFF),
            ],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


def laplace_from_uniform(mu, scale, u1):
    """Inverse-transform Laplace variate from u1 in the open (-1, 1).

    r = mu - scale * sgn(u1) * ln(1 - |u1|); u1 == 0 maps exactly to mu.
    """
    u1 = np.asarray(u1, dtype=float)
    return mu - scale * np.sign(u1) * np.log1p(-np.abs(u1))

def cauchy_from_uniform(location, scale, u2):
    """Inverse-transform Cauchy variate from u2 in the open (0, 1)."""
    u2 = np.asarray(u2, dtype=float)
    return location + scale * np.tan(math.pi * (u2 - 0.5))


def _uniform_open_pm1(gen: np.random.Generator, size: int) -> np.ndarray:
    # random() gives multiples of 2**-53, so 2u - 1 is -1 exactly where u is 0
    return 2.0 * _uniform_open_01(gen, size) - 1.0


def _uniform_open_01(gen: np.random.Generator, size: int) -> np.ndarray:
    u = gen.random(size)
    while True:
        edge = u <= 0.0
        if not edge.any():
            return u
        u[edge] = gen.random(int(edge.sum()))


def draw_gaussian(mu, sigma, gen: np.random.Generator, size: int) -> np.ndarray:
    """size Gaussian draws; sigma may be a scalar or a per-draw array.
    A zero sigma yields exactly mu."""
    return mu + sigma * gen.standard_normal(size)


def draw_laplace(mu, sigma, gen: np.random.Generator, size: int) -> np.ndarray:
    """size Laplace draws with variance sigma squared around mu."""
    scale = np.asarray(sigma, dtype=float) / math.sqrt(2.0)
    return laplace_from_uniform(mu, scale, _uniform_open_pm1(gen, size))


def draw_cauchy(sigma, gen: np.random.Generator, size: int) -> np.ndarray:
    """size Cauchy draws, scale sigma, located at 10 sigma.  Heavy tails
    are kept as-is: no clamping."""
    return cauchy_from_uniform(CAUCHY_LOCATION_SIGMAS * sigma, sigma, _uniform_open_01(gen, size))


def _draw(spec: NoiseSpec | None, std, gen: np.random.Generator, size: int) -> np.ndarray:
    if spec is None:
        return draw_gaussian(0.0, std, gen, size)
    if spec.kind in (GAUSSIAN_WHITE, GAUSSIAN_BIASED):
        return draw_gaussian(spec.mu, spec.sigma, gen, size)
    if spec.kind == LAPLACE:
        return draw_laplace(spec.mu, spec.sigma, gen, size)
    return spec.mu + draw_cauchy(spec.sigma, gen, size)


def corrupt(
    series: np.ndarray,
    specs: Sequence[NoiseSpec | None],
    seed: int,
    std: np.ndarray | None = None,
) -> np.ndarray:
    """Additively corrupt each channel of a clean (steps, channels) series:
    channel ch gets specs[ch]'s draws from SeededStream(seed, (0, ch)),
    opened fresh, so a repeated call reproduces the same corruption.  A
    None spec draws zero-mean Gaussian noise with the per-step std.

    Raises:
        InvalidConfig: the seed is outside [0, 2**64).
        ValueError: a None spec without a per-step std.
    """
    if std is None and None in specs:
        raise ValueError("a None noise spec needs the per-step std")
    out = np.array(series, dtype=float)
    for ch, spec in enumerate(specs):
        out[:, ch] += _draw(spec, std, SeededStream(seed, (0, ch)).generator(), len(out))
    return out


@dataclass(frozen=True)
class OutlierSpec:
    """Multiplicative outliers: scale multiplies the grid rows of the
    closed time window (t_start, t_end) on the named channel.  A single
    hit is the window (t, t); None hits no row.
    """

    window: tuple[float, float] | None = None
    channel: str = "omega"
    scale: float = 1.1

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise InvalidConfig(f"unknown channel name {self.channel!r}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise InvalidConfig(f"outlier scale must be positive and finite, got {self.scale}")
        if self.window is None:
            return
        t_start, t_end = self.window
        # a tuple, so that equal windows compare equal and the spec hashes
        object.__setattr__(self, "window", (t_start, t_end))
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise InvalidConfig(f"outlier times must be finite, got {self.window}")
        if not t_start <= t_end:
            raise InvalidWindow(f"window [{t_start}, {t_end}] is inverted")

    def channel_index(self) -> int:
        return CHANNELS.index(self.channel)


def _grid_index(t: float, dt: float, steps: int, what: str) -> int:
    idx = int(round(t / dt))
    if idx < 0 or idx >= steps or abs(t - idx * dt) > 0.5 * dt + 1e-9:
        raise OutOfRange(
            f"{what} {t} is outside the simulated horizon of {steps} steps at dt={dt}"
        )
    return idx


def outlier_rows(spec: OutlierSpec, dt: float, steps: int) -> tuple[int, int] | None:
    """First and last grid row an outlier spec hits on a series of the
    given length, or None for no outliers.

    Raises:
        OutOfRange: a window time falls off the simulated horizon.
    """
    if spec.window is None:
        return None
    t_start, t_end = spec.window
    if t_start == t_end:
        idx = _grid_index(t_start, dt, steps, "outlier time")
        return idx, idx
    return (
        _grid_index(t_start, dt, steps, "window start"),
        _grid_index(t_end, dt, steps, "window end"),
    )


def inject_outliers(series: np.ndarray, spec: OutlierSpec, dt: float) -> np.ndarray:
    """Scale the selected channel over the selected steps; everything else
    is returned bit for bit.

    A window covers the steps nearest both its ends inclusively, so a
    single hit (t, t) scales the one step nearest t.

    Raises:
        OutOfRange: a window time falls off the simulated horizon.
    """
    series = np.asarray(series, dtype=float)
    out = series.copy()
    rows = outlier_rows(spec, dt, series.shape[0])
    if rows is not None:
        out[rows[0] : rows[1] + 1, spec.channel_index()] *= spec.scale
    return out
