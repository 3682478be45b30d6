"""End-to-end tests of the command line interface.

Commands run in-process through main(argv) so exit codes and outputs are
checked directly; one smoke test exercises the installed entry point.
"""

import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from dsekit.cli import (
    CSV_BLOCK_ROWS,
    EXIT_ALL_CELLS_FAILED,
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_SIMULATION,
    MEASUREMENTS_HEADER,
    METRICS_HEADER,
    TRUTH_HEADER,
    _write_series_csv,
    main,
)
from dsekit.config import default_config


def write_config(tmp_path, mutate=None, name="cfg.json"):
    doc = default_config()
    doc["scenario"]["t_end"] = 2.0
    if mutate is not None:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


EDGE_VALUES = (
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-300,
)


@pytest.mark.parametrize(
    "rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
)
def test_series_csv_matches_per_value_formatting(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    table.flat[: len(EDGE_VALUES)] = EDGE_VALUES[: table.size]
    times = np.arange(rows) * 0.02
    times[-1] = -0.0
    path = tmp_path / "series.csv"
    _write_series_csv(path, ("t", "a", "b", "c"), times, table)
    expected = "t,a,b,c\n" + "".join(
        ",".join("%.17g" % v for v in (t, *row)) + "\n" for t, row in zip(times, table)
    )
    assert path.read_bytes() == expected.encode()


class TestSimulate:
    def test_writes_truth_and_measurements(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_OK
        header, rows = read_rows(out / "truth.csv")
        assert tuple(header) == TRUTH_HEADER
        assert len(rows) == 101
        header, rows = read_rows(out / "measurements.csv")
        assert tuple(header) == MEASUREMENTS_HEADER
        assert len(rows) == 101
        # timestamps and values survive a text round trip
        assert float(rows[50][0]) == 50 * 0.02
        assert all(len(r) == 4 for r in rows)

    def test_default_config_runs(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--out-dir", str(out), "--quiet") == EXIT_OK
        _, rows = read_rows(out / "truth.csv")
        assert len(rows) == 1001

    def test_seed_override_changes_measurements(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b, c = (tmp_path / d for d in ("a", "b", "c"))
        run("simulate", "--config", cfg, "--out-dir", str(a), "--quiet", "--seed", "7")
        run("simulate", "--config", cfg, "--out-dir", str(b), "--quiet", "--seed", "7")
        run("simulate", "--config", cfg, "--out-dir", str(c), "--quiet", "--seed", "8")
        ma, mb, mc = ((d / "measurements.csv").read_bytes() for d in (a, b, c))
        assert ma == mb
        assert ma != mc
        # the truth is noise-free, so the seed cannot touch it
        assert (a / "truth.csv").read_bytes() == (c / "truth.csv").read_bytes()

    def test_infeasible_operating_point_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path, lambda d: d["scenario"]["base_inputs"].update(t_m=1.2)
        )
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_SIMULATION

    @pytest.mark.parametrize(
        "dip, message",
        [
            # the sine of an infinite angle raises inside the RK4 step
            (1e200, "truth integration failed at step 61: integration step overflowed: "),
            # the power comes out inf - inf = nan without raising
            (1e308, "truth integration failed at step 61\n"),
        ],
    )
    def test_failing_truth_exits_3_with_its_step(self, tmp_path, capsys, dip, message):
        cfg = write_config(tmp_path, lambda d: d["scenario"]["fault"].update(u_t_dip=dip))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert err.startswith("simulation failed: " + message)
        assert not out.exists()

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run("simulate", "--config", str(path), "--quiet") == EXIT_CONFIG

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, lambda d: d.update(extra={}))
        assert run("simulate", "--config", cfg, "--quiet") == EXIT_CONFIG


class TestEstimate:
    def test_both_variants_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("estimate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_OK
        for variant in ("ckf", "rckf"):
            header, rows = read_rows(out / f"estimates_{variant}.csv")
            assert tuple(header) == TRUTH_HEADER
            assert len(rows) == 101
            header, rows = read_rows(out / f"metrics_{variant}.csv")
            assert tuple(header) == METRICS_HEADER
            assert [r[0] for r in rows] == ["delta", "omega", "eqp", "edp"]
            # unmeasured variables carry an empty epsilon1 cell
            assert rows[2][1] == "" and rows[3][1] == ""
            assert float(rows[0][1]) > 0.0

    def test_single_variant(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert (
            run("estimate", "--config", cfg, "--out-dir", str(out), "--quiet", "--filter", "ckf")
            == EXIT_OK
        )
        assert (out / "estimates_ckf.csv").exists()
        assert not (out / "estimates_rckf.csv").exists()

    def test_external_measurements_round_trip(self, tmp_path):
        # estimating from the exported measurement file must reproduce the
        # internal run byte for byte
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        internal = tmp_path / "internal"
        external = tmp_path / "external"
        run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
        run("estimate", "--config", cfg, "--out-dir", str(internal), "--quiet")
        assert (
            run(
                "estimate", "--config", cfg, "--out-dir", str(external), "--quiet",
                "--measurements", str(sim / "measurements.csv"),
            )
            == EXIT_OK
        )
        for name in ("estimates_ckf.csv", "estimates_rckf.csv", "metrics_ckf.csv"):
            assert (internal / name).read_bytes() == (external / name).read_bytes()

    def test_wrong_header_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
        path = sim / "measurements.csv"
        lines = path.read_text().splitlines()
        lines[0] = "t,delta,omega,pe"
        path.write_text("\n".join(lines) + "\n")
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_CONFIG
        assert "expected columns" in capsys.readouterr().err

    def test_row_count_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
        path = sim / "measurements.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_CONFIG

    def test_grid_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
        path = sim / "measurements.csv"
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[0] = "0.123"
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_CONFIG

    def test_non_finite_measurement_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
        path = sim / "measurements.csv"
        lines = path.read_text().splitlines()
        parts = lines[10].split(",")
        parts[2] = "nan"
        lines[10] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_DIVERGENCE
        assert "measurement index" in capsys.readouterr().err


    @pytest.mark.parametrize("variant", ["ckf", "both"])
    def test_division_by_zero_speed_exits_4(self, tmp_path, capsys, variant):
        # a speed sample of exactly 0 puts the prior at a speed deviation of
        # -1, where the divide_by_speed torque divides by zero: one variant
        # maps its points on floats and two on arrays, and both report it
        cfg = write_config(
            tmp_path, lambda d: d["filter"].update(torque_mode="divide_by_speed")
        )
        sim = tmp_path / "sim"
        run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
        path = sim / "measurements.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "0"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path), "--filter", variant,
        )
        assert code == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "filter diverged: measurement index 0: "
            "integration step produced a non-finite state\n"
        )

    @pytest.mark.parametrize("variant", ["ckf", "rckf", "both"])
    def test_bolted_fault_exits_4(self, tmp_path, capsys, variant):
        # a dip to zero voltage makes the power channel's predicted
        # variance exactly 0, which every variant reports the same way
        # whether or not it shares its batch
        cfg = write_config(tmp_path, lambda d: d["scenario"]["fault"].update(u_t_dip=0.0))
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--filter", variant,
        )
        assert code == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "filter diverged: measurement index 59: "
            "channel 2 has nonpositive predicted variance 0.0\n"
        )


class TestExperiment:
    def _cfg(self, tmp_path):
        # long enough to host the 6 s single outlier, short enough to be quick
        return write_config(tmp_path, lambda d: d["scenario"].update(t_end=8.0))

    def test_matrix_and_summary(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "out"
        code = run(
            "experiment", "--config", cfg, "--out-dir", str(out), "--quiet",
            "--runs", "1", "--jobs", "1",
        )
        assert code == EXIT_OK
        header, rows = read_rows(out / "matrix.csv")
        assert len(rows) == 64
        assert all(r[7] == "" for r in rows)
        header, summary_rows = read_rows(out / "summary.csv")
        assert len(summary_rows) == 4 * 2 * (2 + 4)
        assert (out / "summary.csv").exists()

    def test_deterministic_output(self, tmp_path):
        cfg = self._cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(
                "experiment", "--config", cfg, "--out-dir", str(out), "--quiet",
                "--runs", "1", "--jobs", "1",
            )
        assert (a / "matrix.csv").read_bytes() == (b / "matrix.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_timing_flag_fills_column(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "out"
        run(
            "experiment", "--config", cfg, "--out-dir", str(out), "--quiet",
            "--runs", "1", "--jobs", "1", "--timing",
        )
        _, rows = read_rows(out / "matrix.csv")
        assert all(float(r[7]) > 0.0 for r in rows)

    def test_runs_must_be_positive(self, tmp_path):
        cfg = self._cfg(tmp_path)
        code = run(
            "experiment", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--quiet",
            "--runs", "0",
        )
        assert code == EXIT_CONFIG

    def test_all_cells_failing_exits_5(self, tmp_path, capsys):
        # past the pull-out torque every cell fails at initialization; the
        # horizon hosts every outlier, so nothing else can fail them
        def mutate(doc):
            doc["scenario"]["t_end"] = 8.0
            doc["scenario"]["base_inputs"].update(t_m=1.2)

        cfg = write_config(tmp_path, mutate)
        code = run(
            "experiment", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--quiet",
            "--runs", "1", "--jobs", "1",
        )
        assert code == EXIT_ALL_CELLS_FAILED
        err = capsys.readouterr().err
        assert "failed" in err
        assert "pull-out power" in err
        assert "outside the simulated horizon" not in err

    @pytest.mark.parametrize("t_end", [2.0, 5.0])
    def test_horizon_too_short_for_the_matrix_exits_2(self, tmp_path, capsys, t_end):
        cfg = write_config(tmp_path, lambda d: d["scenario"].update(t_end=t_end))
        out = tmp_path / "o"
        code = run(
            "experiment", "--config", cfg, "--out-dir", str(out), "--quiet",
            "--runs", "1", "--jobs", "1",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "needs a horizon of at least 6.0 s" in err
        assert f"scenario.t_end is {t_end} s" in err
        assert not (out / "matrix.csv").exists()


class TestBench:
    def test_reports_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("bench", "--config", cfg, "--steps", "100") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["variant", "steps"]
        assert lines[1].startswith("ckf")
        assert lines[2].startswith("rckf")

    def test_bolted_fault_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda d: d["scenario"]["fault"].update(u_t_dip=0.0))
        assert run("bench", "--config", cfg, "--steps", "100") == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "filter diverged during bench: measurement index 59: "
            "channel 2 has nonpositive predicted variance 0.0\n"
        )

    def test_too_few_steps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("bench", "--config", cfg, "--steps", "99") == EXIT_CONFIG


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        exe = shutil.which("dsekit")
        if exe is None:
            pytest.skip("entry point not installed")
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [exe, "simulate", "--config", cfg, "--out-dir", str(out), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "truth.csv").exists()
