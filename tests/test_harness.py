"""Tests for the experiment matrix, the summary statistics, the filter
bench, and CSV serialization."""

import numpy as np
import pytest

from dsekit.config import build_scenario, default_config
from dsekit.evaluation import format_float
from dsekit.filters import CKF, RCKF
from dsekit.harness import (
    MANNERS,
    MATRIX_HEADER,
    SINGLE_OUTLIER_TIME,
    SUMMARY_HEADER,
    WINDOW_OUTLIER_SPAN,
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


def small_config(t_end=8.0):
    doc = default_config()
    doc["scenario"]["t_end"] = t_end
    return build_scenario(doc)


class TestMannerOutliers:
    def test_single_keeps_channel_and_scale(self):
        base = OutlierSpec.none()
        spec = manner_outliers("single", base)
        assert spec.manner == "single"
        assert spec.time == SINGLE_OUTLIER_TIME
        assert spec.channel == base.channel
        assert spec.scale == base.scale

    def test_window_span(self):
        spec = manner_outliers("window", OutlierSpec.none())
        assert (spec.t_start, spec.t_end) == WINDOW_OUTLIER_SPAN

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

    def test_timing_fills_mean_step(self):
        matrix = run_experiment(small_config(), seeds=[1], timing=True)
        assert all(r.mean_step_ms is not None and r.mean_step_ms > 0.0 for r in matrix.rows)

    def test_failed_cells_are_recorded(self):
        # a 4 s horizon cannot host the 6 s single outlier, so every
        # single-manner cell fails while the window cells survive
        matrix = run_experiment(small_config(t_end=4.0), seeds=[1])
        assert matrix.cells_total == 8
        assert matrix.cells_failed == 4
        assert len(matrix.rows) == 32
        assert all(r.manner == "window" for r in matrix.rows)
        assert set(matrix.failures) == {
            f"noise{p}/single/seed1" for p in (1, 2, 3, 4)
        }

    def test_outlier_placement_fails_before_integration(self, monkeypatch):
        # neither the 6 s single outlier nor the 2-3 s window fits a 1.5 s
        # horizon: every cell fails on its outlier placement alone
        import dsekit.harness as harness

        def no_truth(*args, **kwargs):
            raise AssertionError("truth integrated for cells that cannot run")

        monkeypatch.setattr(harness, "simulate_truth", no_truth)
        matrix = run_experiment(small_config(t_end=1.5), seeds=[1])
        assert matrix.cells_failed == matrix.cells_total == 8
        assert not matrix.rows
        assert all("outside the simulated horizon" in m for m in matrix.failures.values())

    def test_one_equilibrium_for_the_whole_matrix(self, monkeypatch):
        import dsekit.scenario as scenario

        calls = []
        solve = scenario.steady_state_init

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenario, "steady_state_init", counted)
        run_experiment(small_config(t_end=4.0), seeds=[1, 2])
        assert len(calls) == 1


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
