"""Tests for the measurement noise laboratory.

Transform fixtures are hand arithmetic; distributional checks run on
seeded streams so every assertion is reproducible.
"""

import math

import numpy as np
import pytest
from scipy import stats

from dsekit.errors import InvalidConfig, InvalidWindow, OutOfRange
from dsekit.noise import (
    CAUCHY,
    CAUCHY_LOCATION_SIGMAS,
    GAUSSIAN_BIASED,
    GAUSSIAN_WHITE,
    LAPLACE,
    NoiseSpec,
    OutlierSpec,
    SeededStream,
    _uniform_open_01,
    _uniform_open_pm1,
    cauchy_from_uniform,
    corrupt,
    draw_cauchy,
    draw_gaussian,
    draw_laplace,
    inject_outliers,
    laplace_from_uniform,
)


class TestTransforms:
    def test_laplace_center(self):
        # u1 = 0 must map exactly to mu, no floating detour
        assert laplace_from_uniform(2.5, 3.0, 0.0) == 2.5

    def test_laplace_hand_points(self):
        # |u1| = 1 - 1/e gives -log1p(-|u1|) = 1, so r = mu +/- scale
        u = 1.0 - math.exp(-1.0)
        assert laplace_from_uniform(2.0, 3.0, u) == pytest.approx(5.0, abs=1e-12)
        assert laplace_from_uniform(2.0, 3.0, -u) == pytest.approx(-1.0, abs=1e-12)

    def test_laplace_vectorized(self):
        u = np.array([0.0, 0.5, -0.5])
        r = laplace_from_uniform(1.0, 2.0, u)
        expected = 1.0 - 2.0 * np.sign(u) * np.log1p(-np.abs(u))
        np.testing.assert_allclose(r, expected, rtol=0.0, atol=0.0)

    def test_cauchy_center_and_quartiles(self):
        # u2 = 1/2 lands on the location; 1/4 and 3/4 sit one scale away
        assert cauchy_from_uniform(7.0, 0.5, 0.5) == pytest.approx(7.0, abs=1e-12)
        assert cauchy_from_uniform(7.0, 0.5, 0.75) == pytest.approx(7.5, abs=1e-12)
        assert cauchy_from_uniform(7.0, 0.5, 0.25) == pytest.approx(6.5, abs=1e-12)


class TestNoiseSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(kind="student_t", sigma=0.1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(kind=GAUSSIAN_WHITE, sigma=-0.1)

    def test_white_requires_zero_mu(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(kind=GAUSSIAN_WHITE, sigma=0.1, mu=0.2)
        NoiseSpec(kind=GAUSSIAN_BIASED, sigma=0.1, mu=0.2)

    @pytest.mark.parametrize("kind", [GAUSSIAN_BIASED, LAPLACE, CAUCHY])
    @pytest.mark.parametrize("sigma, mu", [(0.1, math.nan), (0.1, -math.inf), (math.inf, 0.0)])
    def test_rejects_non_finite_values(self, kind, sigma, mu):
        with pytest.raises(InvalidConfig, match="sigma and mu must be finite"):
            NoiseSpec(kind=kind, sigma=sigma, mu=mu)


class TestSeededStream:
    def test_same_key_reproduces(self):
        a = SeededStream(123, (4, 2)).generator().random(64)
        b = SeededStream(123, (4, 2)).generator().random(64)
        np.testing.assert_array_equal(a, b)

    def test_distinct_channels_differ(self):
        a = SeededStream(123, (4, 0)).generator().random(64)
        b = SeededStream(123, (4, 1)).generator().random(64)
        assert not np.array_equal(a, b)

    def test_distinct_runs_differ(self):
        a = SeededStream(123, (0, 1)).generator().random(64)
        b = SeededStream(123, (1, 1)).generator().random(64)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**64 + 123])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Philox takes the seed as one 64-bit word: a seed outside it would
        # alias the one 2**64 away
        with pytest.raises(InvalidConfig, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
            SeededStream(seed)

    def test_largest_seed_accepted(self):
        a = SeededStream(2**64 - 1).generator().random(8)
        b = SeededStream(0).generator().random(8)
        assert not np.array_equal(a, b)

    def test_run_channel_packing_has_no_collisions(self):
        # (run, channel) pairs map to distinct 64-bit words
        draws = {}
        for run in range(3):
            for ch in range(3):
                key = tuple(SeededStream(9, (run, ch)).generator().random(8))
                assert key not in draws.values()
                draws[(run, ch)] = key


class TestDraws:
    def test_gaussian_zero_sigma_is_exact(self):
        gen = SeededStream(1).generator()
        out = draw_gaussian(0.25, 0.0, gen, 16)
        np.testing.assert_array_equal(out, np.full(16, 0.25))

    def test_gaussian_matches_normal_cdf(self):
        gen = SeededStream(77, (0, 0)).generator()
        out = draw_gaussian(0.0, 1.0, gen, 100_000)
        d = stats.kstest(out, stats.norm.cdf).statistic
        # 1% critical value of the one-sample KS statistic
        assert d * math.sqrt(out.size) < 1.628

    def test_laplace_variance(self):
        gen = SeededStream(77, (0, 1)).generator()
        out = draw_laplace(0.0, 0.3, gen, 1_000_000)
        assert abs(out.var() - 0.09) / 0.09 < 0.05
        assert abs(out.mean()) < 0.002

    def test_laplace_matches_cdf(self):
        gen = SeededStream(78, (0, 1)).generator()
        scale = 0.3 / math.sqrt(2.0)
        out = draw_laplace(0.0, 0.3, gen, 100_000)
        d = stats.kstest(out, stats.laplace(scale=scale).cdf).statistic
        assert d * math.sqrt(out.size) < 1.628

    def test_cauchy_median_sits_at_location(self):
        gen = SeededStream(77, (0, 2)).generator()
        sigma = 0.1
        out = draw_cauchy(sigma, gen, 1_000_000)
        location = CAUCHY_LOCATION_SIGMAS * sigma
        assert abs(np.median(out) - location) < 0.05 * sigma

    def test_cauchy_iqr_is_twice_scale(self):
        gen = SeededStream(79, (0, 2)).generator()
        sigma = 0.1
        out = draw_cauchy(sigma, gen, 100_000)
        q1, q3 = np.quantile(out, [0.25, 0.75])
        assert abs((q3 - q1) - 2.0 * sigma) / (2.0 * sigma) < 0.03

    def test_cauchy_keeps_tails(self):
        # no clamping: a million draws at scale 0.1 should wander far
        gen = SeededStream(80, (0, 2)).generator()
        out = draw_cauchy(0.1, gen, 1_000_000)
        assert np.abs(out - 1.0).max() > 100.0


class ScriptedGenerator:
    """Stand-in for np.random.Generator whose random() returns the given
    draws in turn, recording each requested size."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.draws.pop(0)


class TestOpenUniforms:
    def test_pm1_redraws_the_closed_edge(self):
        # 0.0 doubles to -1, the edge that would put log1p(-1) in a Laplace
        # draw; it is drawn again until it leaves the edge
        gen = ScriptedGenerator([0.0, 0.75], [0.0], [0.25])
        np.testing.assert_array_equal(_uniform_open_pm1(gen, 2), [-0.5, 0.5])
        assert gen.sizes == [2, 1, 1]
        gen = ScriptedGenerator([0.875, 0.0, 0.0], [0.5, 0.125])
        laplace = draw_laplace(0.0, 1.0, gen, 3)
        assert np.isfinite(laplace).all()
        assert gen.sizes == [3, 2]

    def test_01_redraws_the_closed_edge(self):
        # 0.0 would put tan(-pi / 2) in a Cauchy draw
        gen = ScriptedGenerator([0.0, 0.5], [0.0], [0.125])
        np.testing.assert_array_equal(_uniform_open_01(gen, 2), [0.125, 0.5])
        assert gen.sizes == [2, 1, 1]
        gen = ScriptedGenerator([0.0], [0.5])
        assert draw_cauchy(0.1, gen, 1)[0] == pytest.approx(CAUCHY_LOCATION_SIGMAS * 0.1)
        assert gen.sizes == [1, 1]


class TestCorrupt:
    def test_zero_sigma_white_noise_is_identity(self):
        series = np.arange(12.0).reshape(4, 3)
        specs = tuple(NoiseSpec(GAUSSIAN_WHITE, 0.0) for _ in range(3))
        out = corrupt(series, specs, 5)
        np.testing.assert_array_equal(out, series)
        assert out is not series

    def test_repeated_call_reproduces(self):
        series = np.zeros((50, 3))
        specs = (
            NoiseSpec(GAUSSIAN_BIASED, 0.05, mu=0.3),
            NoiseSpec(LAPLACE, 0.01),
            NoiseSpec(CAUCHY, 0.02),
        )
        a = corrupt(series, specs, 5)
        b = corrupt(series, specs, 5)
        np.testing.assert_array_equal(a, b)

    def test_channels_are_independent_streams(self):
        # changing one channel's spec must not disturb the others
        series = np.zeros((50, 3))
        base = (
            NoiseSpec(GAUSSIAN_WHITE, 0.05),
            NoiseSpec(GAUSSIAN_WHITE, 0.01),
            NoiseSpec(GAUSSIAN_WHITE, 0.02),
        )
        swapped = (base[0], NoiseSpec(CAUCHY, 0.01), base[2])
        a = corrupt(series, base, 5)
        b = corrupt(series, swapped, 5)
        np.testing.assert_array_equal(a[:, 0], b[:, 0])
        np.testing.assert_array_equal(a[:, 2], b[:, 2])
        assert not np.array_equal(a[:, 1], b[:, 1])

    def test_biased_gaussian_shifts_mean(self):
        series = np.zeros((100_000, 1))
        specs = (NoiseSpec(GAUSSIAN_BIASED, 0.05, mu=0.3),)
        out = corrupt(series, specs, 5)
        assert out[:, 0].mean() == pytest.approx(0.3, abs=0.001)

    def test_cauchy_mu_shifts_location(self):
        series = np.zeros((100_001, 1))
        sigma = 0.01
        specs = (NoiseSpec(CAUCHY, sigma, mu=0.5),)
        out = corrupt(series, specs, 6)
        expected = 0.5 + CAUCHY_LOCATION_SIGMAS * sigma
        assert abs(np.median(out[:, 0]) - expected) < 0.05 * sigma

    def test_a_none_spec_draws_with_the_per_step_std(self):
        series = np.zeros((200, 1))
        ramp = np.linspace(0.0, 1.0, 200)
        out = corrupt(series, (None,), 7, ramp)
        # step 0 has sigma 0 so it stays clean; later steps spread out
        assert out[0, 0] == 0.0
        assert np.abs(out[100:, 0]).max() > np.abs(out[1:50, 0]).max()

    def test_a_none_spec_needs_the_per_step_std(self):
        with pytest.raises(ValueError, match="a None noise spec needs the per-step std"):
            corrupt(np.zeros((4, 3)), (NoiseSpec(GAUSSIAN_WHITE, 0.1), None, None), 5)


class TestOutlierSpec:
    def test_single_needs_time(self):
        with pytest.raises(InvalidConfig):
            OutlierSpec(manner="single")

    def test_window_needs_both_ends(self):
        with pytest.raises(InvalidConfig):
            OutlierSpec(manner="window", t_start=1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(InvalidWindow):
            OutlierSpec.window(3.0, 2.0)

    def test_unknown_manner(self):
        with pytest.raises(InvalidConfig):
            OutlierSpec(manner="burst", time=1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(InvalidConfig):
            OutlierSpec.single_at(1.0, scale=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: OutlierSpec.single_at(math.nan),
            lambda: OutlierSpec.single_at(math.inf),
            lambda: OutlierSpec.window(1.0, math.inf),
            lambda: OutlierSpec.window(-math.inf, 1.0),
            lambda: OutlierSpec.single_at(1.0, scale=math.inf),
        ],
        ids=["single-nan", "single-inf", "window-end-inf", "window-start-inf", "scale-inf"],
    )
    def test_rejects_non_finite_values(self, make):
        with pytest.raises(InvalidConfig, match="outlier scale and times must be finite"):
            make()

    def test_channel_name_resolution(self):
        assert OutlierSpec.single_at(1.0, channel="omega").channel_index() == 1
        with pytest.raises(InvalidConfig):
            OutlierSpec.single_at(1.0, channel="volts")


class TestInjectOutliers:
    def _series(self, steps=1001):
        base = np.ones((steps, 3))
        base[:, 0] = 0.5
        base[:, 2] = 0.8
        return base

    def test_none_is_a_clean_copy(self):
        series = self._series()
        out = inject_outliers(series, OutlierSpec.none(), 0.02)
        np.testing.assert_array_equal(out, series)
        assert out is not series

    def test_single_hits_one_sample(self):
        series = self._series()
        out = inject_outliers(series, OutlierSpec.single_at(6.0), 0.02)
        idx = 300
        assert out[idx, 1] == pytest.approx(1.1, abs=0.0)
        mask = np.ones(series.shape[0], dtype=bool)
        mask[idx] = False
        np.testing.assert_array_equal(out[mask], series[mask])
        np.testing.assert_array_equal(out[idx, [0, 2]], series[idx, [0, 2]])

    def test_window_covers_endpoints(self):
        series = self._series()
        out = inject_outliers(series, OutlierSpec.window(2.0, 3.0), 0.02)
        lo, hi = 100, 150
        touched = out[:, 1] != series[:, 1]
        assert touched.sum() == 51
        assert touched[lo] and touched[hi]
        assert not touched[lo - 1] and not touched[hi + 1]
        np.testing.assert_array_equal(out[lo : hi + 1, 1], series[lo : hi + 1, 1] * 1.1)

    def test_other_channels_untouched(self):
        series = self._series()
        out = inject_outliers(series, OutlierSpec.window(2.0, 3.0, channel="pe"), 0.02)
        np.testing.assert_array_equal(out[:, :2], series[:, :2])

    def test_time_snaps_to_grid(self):
        series = self._series()
        out = inject_outliers(series, OutlierSpec.single_at(6.004), 0.02)
        assert out[300, 1] == pytest.approx(1.1, abs=0.0)

    def test_time_off_horizon(self):
        series = self._series(steps=100)
        with pytest.raises(OutOfRange):
            inject_outliers(series, OutlierSpec.single_at(6.0), 0.02)
        with pytest.raises(OutOfRange):
            inject_outliers(series, OutlierSpec.single_at(-0.5), 0.02)

    def test_window_off_horizon(self):
        series = self._series(steps=100)
        with pytest.raises(OutOfRange):
            inject_outliers(series, OutlierSpec.window(1.0, 3.0), 0.02)
