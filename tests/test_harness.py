"""Tests for the experiment matrix, the summary statistics, the filter
bench, and CSV serialization."""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from dsekit.config import build_scenario, default_config
from dsekit.errors import InvalidConfig, OutOfRange
from dsekit.evaluation import format_float
from dsekit.filters import CKF, RCKF
from dsekit.harness import (
    MATRIX_HEADER,
    MATRIX_HORIZON,
    MATRIX_OUTLIERS,
    SUMMARY_HEADER,
    ExperimentMatrix,
    MatrixRow,
    TimingReport,
    bench_filters,
    manner_outliers,
    run_experiment,
    summarize,
    write_matrix_csv,
    write_summary_csv,
)
from dsekit.noise import OutlierSpec
from dsekit.scenario import time_grid


def small_config(t_end=8.0, **fault):
    doc = default_config()
    doc["scenario"]["t_end"] = t_end
    doc["scenario"]["fault"].update(fault)
    return build_scenario(doc)


def no_truth(*args, **kwargs):
    raise AssertionError("truth integrated for a matrix that cannot run")


class TestMannerOutliers:
    def test_single_keeps_channel_and_scale(self):
        base = OutlierSpec.none()
        spec = manner_outliers("single", base)
        assert spec.manner == "single"
        assert spec.time == 6.0
        assert spec.channel == base.channel
        assert spec.scale == base.scale

    def test_window_span(self):
        spec = manner_outliers("window", OutlierSpec.none())
        assert (spec.t_start, spec.t_end) == (2.0, 3.0)

    def test_keeps_the_configured_channel_and_scale(self):
        base = OutlierSpec(channel="pe", scale=3.0)
        for manner, spec in MATRIX_OUTLIERS.items():
            assert manner_outliers(manner, base) == replace(spec, channel="pe", scale=3.0)

    def test_horizon_is_the_latest_placement(self):
        # the single outlier at 6 s lands after the 2-3 s window
        assert list(MATRIX_OUTLIERS) == ["single", "window"]
        assert MATRIX_HORIZON == 6.0

    def test_unknown_manner(self):
        with pytest.raises(ValueError):
            manner_outliers("burst", OutlierSpec.none())


class TestTimingReport:
    def test_from_times_ns(self):
        report = TimingReport.from_times_ns("ckf", np.array([1e6, 2e6, 3e6]))
        assert report.steps == 3
        assert report.mean_ms == pytest.approx(2.0, abs=1e-12)
        assert report.p50_ms == pytest.approx(2.0, abs=1e-12)


class TestRunExperiment:
    def test_full_matrix_shape(self):
        matrix = run_experiment(small_config(), seeds=[1])
        # 4 presets x 2 manners x 1 seed, 2 filters x 4 variables each
        assert matrix.cells_total == 8
        assert matrix.cells_failed == 0
        assert not matrix.failures
        assert len(matrix.rows) == 64
        first = matrix.rows[0]
        assert (first.noise, first.manner, first.filter) == (1, "single", CKF)
        assert first.variable == "delta"
        assert first.epsilon1 is not None
        assert first.mean_step_ms is None
        # unmeasured variables carry no epsilon1
        by_var = {r.variable: r for r in matrix.rows[:4]}
        assert by_var["eqp"].epsilon1 is None
        assert by_var["edp"].epsilon1 is None

    def test_deterministic_and_seed_ordered(self):
        a = run_experiment(small_config(), seeds=[2, 1])
        b = run_experiment(small_config(), seeds=[1, 2])
        assert a.rows == b.rows
        seeds = [r.seed for r in a.rows if (r.noise, r.manner) == (1, "single")]
        assert seeds == sorted(seeds)

    def test_parallel_merge_matches_serial(self):
        serial = run_experiment(small_config(), seeds=[1], jobs=1)
        parallel = run_experiment(small_config(), seeds=[1], jobs=2)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, jobs, monkeypatch):
        import dsekit.harness as harness

        monkeypatch.setattr(harness, "simulate_truth", no_truth)
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_experiment(small_config(), seeds=[1], jobs=jobs)

    def test_timing_fills_mean_step(self):
        matrix = run_experiment(small_config(), seeds=[1], timing=True)
        assert all(r.mean_step_ms is not None and r.mean_step_ms > 0.0 for r in matrix.rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "t_end, message",
        [
            # neither the 6 s single outlier nor the 2-3 s window fits
            (1.5, "needs a horizon of at least 6.0 s, scenario.t_end is 1.5 s: "),
            # the window fits, the single outlier does not
            (4.0, "needs a horizon of at least 6.0 s, scenario.t_end is 4.0 s: "),
        ],
        ids=["no_manner_fits", "single_does_not_fit"],
    )
    def test_unplaceable_outliers_fail_before_any_work(self, monkeypatch, jobs, t_end, message):
        import dsekit.harness as harness

        monkeypatch.setattr(harness, "simulate_truth", no_truth)
        with pytest.raises(OutOfRange, match=message):
            run_experiment(small_config(t_end=t_end), seeds=[1, 2], jobs=jobs)

    @pytest.mark.parametrize("channel", [7, "volts", None])
    def test_an_unknown_outlier_channel_cannot_be_made(self, channel):
        # the matrix places its outliers on the configured channel, which is
        # checked when the spec is made, before any experiment can run
        with pytest.raises(InvalidConfig, match=f"^unknown channel name {channel!r}$"):
            OutlierSpec(channel=channel)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "seeds, error, message",
        [
            # [3, 3] would run 16 cells, every row of seed 3 twice
            ([3, 3], ValueError, "^seeds repeat: \\[3, 3\\]$"),
            ([2, 1, 2], ValueError, "^seeds repeat: \\[1, 2, 2\\]$"),
            ([-1, 4], InvalidConfig, "^seeds must be in \\[0, 2\\*\\*64\\), got -1 to 4$"),
            ([0, 2**64], InvalidConfig, f"got 0 to {2**64}$"),
            # int() would run seed 1.7 as seed 1, and call 1 and 1.5 a repeat
            ([1.7], ValueError, "^seeds must be integers, got \\[1.7\\]$"),
            ([1, 1.5], ValueError, "^seeds must be integers, got \\[1, 1.5\\]$"),
        ],
        ids=[
            "repeated", "repeated_unsorted", "negative", "past_2_64",
            "fraction", "fraction_after_int",
        ],
    )
    def test_bad_seeds_fail_before_any_work(self, monkeypatch, jobs, seeds, error, message):
        import dsekit.harness as harness

        monkeypatch.setattr(harness, "simulate_truth", no_truth)
        with pytest.raises(error, match=message):
            run_experiment(small_config(), seeds=seeds, jobs=jobs)

    def test_diverging_variants_fail_their_cells(self):
        # a dip to zero voltage makes the power channel's predicted
        # variance exactly 0: both variants of every cell freeze there
        matrix = run_experiment(small_config(u_t_dip=0.0), seeds=[1])
        assert matrix.cells_failed == matrix.cells_total == 8
        assert not matrix.rows
        assert matrix.failures == {
            f"noise{p}/{m}/seed1/{v}": (
                "measurement index 59: channel 2 has nonpositive predicted variance 0.0"
            )
            for p in (1, 2, 3, 4) for m in MATRIX_OUTLIERS for v in (CKF, RCKF)
        }

    def test_one_equilibrium_for_the_truth_and_one_per_chunk(self, monkeypatch):
        import dsekit.scenario as scenario

        calls = []
        solve = scenario.steady_state_init

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenario, "steady_state_init", counted)
        run_experiment(small_config(), seeds=[1, 2])
        # sixteen cells run in one chunk: the priors of all its series come
        # from one solve, of the same inputs as the truth's
        assert len(calls) == 2 and calls[0] == calls[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_clean_series_per_chunk(self, monkeypatch, tmp_path, jobs):
        # the calls are logged to a file, which forked workers append to
        import dsekit.scenario as scenario

        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the workers see the counting wrapper only when forked")
        log = tmp_path / "calls"
        log.touch()
        observe = scenario.observe_points

        def counted(x, u, params):
            with open(log, "a") as fh:
                fh.write(f"{len(x)}\n")
            return observe(x, u, params)

        monkeypatch.setattr(scenario, "observe_points", counted)
        cfg = small_config()
        run_experiment(cfg, seeds=[1, 2], jobs=jobs)
        rows = [int(line) for line in log.read_text().split()]
        # each chunk maps each input segment once, whatever its cells
        segments = len(scenario._input_segments(cfg, time_grid(cfg)))
        assert len(rows) == jobs * segments
        assert sum(rows) == jobs * len(time_grid(cfg))


class TestSummarize:
    def _matrix(self):
        rows = []
        for seed, e1_ckf, e1_rckf in ((1, 0.4, 0.2), (2, 0.6, 0.4)):
            rows.append(MatrixRow(1, "single", CKF, seed, "delta", e1_ckf, 0.05, None))
            rows.append(MatrixRow(1, "single", RCKF, seed, "delta", e1_rckf, 0.04, None))
            rows.append(MatrixRow(1, "single", CKF, seed, "eqp", None, 0.08, None))
            rows.append(MatrixRow(1, "single", RCKF, seed, "eqp", None, 0.02, None))
        return ExperimentMatrix(tuple(rows), {}, 2, 0)

    def test_medians_and_improvement(self):
        out = summarize(self._matrix())
        table = {(n, m, v, i): (c, r, impr) for n, m, v, i, c, r, impr in out}
        ckf, rckf, impr = table[(1, "single", "delta", "epsilon1")]
        assert ckf == pytest.approx(0.5, abs=1e-15)
        assert rckf == pytest.approx(0.3, abs=1e-15)
        assert impr == pytest.approx(100.0 * 0.2 / 0.5, abs=1e-12)
        ckf, rckf, impr = table[(1, "single", "eqp", "epsilon2")]
        assert ckf == pytest.approx(0.08, abs=1e-15)
        assert impr == pytest.approx(75.0, abs=1e-12)

    def test_unmeasured_variables_have_no_epsilon1_line(self):
        out = summarize(self._matrix())
        keys = {(v, i) for _, _, v, i, _, _, _ in out}
        assert ("eqp", "epsilon1") not in keys
        assert ("delta", "epsilon1") in keys

    def test_missing_values_are_skipped(self):
        # an undefined indicator (None) counts in no median, and a line
        # without values on both sides is left out
        rows = self._matrix().rows + (
            MatrixRow(1, "single", CKF, 3, "delta", 100.0, None, None),
            MatrixRow(1, "single", RCKF, 3, "delta", 100.0, None, None),
            MatrixRow(1, "window", CKF, 1, "edp", None, None, None),
            MatrixRow(1, "window", RCKF, 1, "edp", None, 0.5, None),
        )
        out = summarize(ExperimentMatrix(rows, {}, 4, 0))
        table = {(n, m, v, i): (c, r) for n, m, v, i, c, r, _ in out}
        assert table[(1, "single", "delta", "epsilon2")] == (
            pytest.approx(0.05, abs=0.0), pytest.approx(0.04, abs=0.0)
        )
        assert table[(1, "single", "delta", "epsilon1")][0] == pytest.approx(0.6, abs=1e-15)
        assert not any(key[1] == "window" for key in table)

    def test_zero_classical_median_has_no_improvement(self):
        # the relative improvement divides by the classical median, and is
        # left empty where that is zero
        rows = (
            MatrixRow(1, "single", CKF, 1, "delta", 0.0, 0.1, None),
            MatrixRow(1, "single", RCKF, 1, "delta", 0.0, 0.1, None),
        )
        out = summarize(ExperimentMatrix(rows, {}, 1, 0))
        table = {(v, i): impr for _, _, v, i, _, _, impr in out}
        assert table == {("delta", "epsilon1"): None, ("delta", "epsilon2"): 0.0}

    def test_variable_ordering(self):
        out = summarize(self._matrix())
        variables = [v for _, _, v, _, _, _, _ in out]
        assert variables == sorted(variables, key=["delta", "omega", "eqp", "edp"].index)


class TestBenchFilters:
    def test_reports_cover_both_variants(self):
        cfg = small_config(t_end=2.0)
        reports = bench_filters(cfg, steps=100)
        for variant in (CKF, RCKF):
            r = reports[variant]
            # horizon grows to warmup + steps measurements exactly
            assert r.steps == 100
            assert r.mean_ms > 0.0
            assert r.p99_ms >= r.p50_ms > 0.0

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            bench_filters(small_config(t_end=2.0), steps=0)


class TestCsvWriters:
    def test_format_float(self):
        assert format_float(None) == ""
        assert format_float(1.5) == "1.5"
        assert format_float(0.1) == "0.10000000000000001"
        # 17 significant digits survive a text round trip exactly
        value = 0.06735753140545645
        assert float(format_float(value)) == value

    def test_matrix_csv(self, tmp_path):
        rows = (
            MatrixRow(1, "single", CKF, 5, "delta", 0.5, 0.25, None),
            MatrixRow(1, "single", CKF, 5, "eqp", None, 0.125, None),
        )
        matrix = ExperimentMatrix(rows, {}, 1, 0)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(MATRIX_HEADER)
        assert lines[1] == "1,single,ckf,5,delta,0.5,0.25,"
        assert lines[2] == "1,single,ckf,5,eqp,,0.125,"

    def test_summary_csv(self, tmp_path):
        rows = (
            MatrixRow(1, "single", CKF, 5, "delta", 0.5, 0.25, None),
            MatrixRow(1, "single", RCKF, 5, "delta", 0.25, 0.2, None),
        )
        matrix = ExperimentMatrix(rows, {}, 1, 0)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_HEADER)
        assert lines[1] == "1,single,delta,epsilon1,0.5,0.25,50"
        assert lines[2] == "1,single,delta,epsilon2,0.25,0.20000000000000001,19.999999999999996"
