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
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from dsekit.evaluation import format_rows


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


def measurements_file(tmp_path, cfg):
    """The measurements.csv that simulate writes for a configuration."""
    sim = tmp_path / "sim"
    run("simulate", "--config", cfg, "--out-dir", str(sim), "--quiet")
    return sim / "measurements.csv"


def set_cell(path, line, column, text):
    """Overwrite one cell of a CSV file, or drop it when text is None."""
    lines = path.read_text().splitlines()
    parts = lines[line].split(",")
    if text is None:
        del parts[column]
    else:
        parts[column] = text
    lines[line] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def outlier_at(time):
    """A config mutation that places a single outlier at the given time."""
    return lambda doc: doc.update(outliers={"manner": "single", "time": time})


def no_truth(*args, **kwargs):
    raise AssertionError("truth integrated for outliers off the horizon")


def zero_torque(doc):
    # unloaded: the angle and e'_d truth rows are exactly 0 until the fault
    doc["scenario"]["base_inputs"]["t_m"] = 0.0


def noise_free_angle(doc):
    doc["noise"] = {
        "delta": {"kind": "gaussian_white", "sigma_deg": 0},
        "omega": {"kind": "gaussian_white", "sigma_pu": 0.001},
    }


def past_pull_out(doc):
    doc["scenario"]["base_inputs"]["t_m"] = 1.2


def _edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-280, 18)])
    nan_payloads = np.array(
        [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF00000000ABCDE],
        dtype=np.uint64,
    ).view(float)
    return np.concatenate((
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308],
        nan_payloads,
        [0.1, -2.5e-300, 1e-5, 12345.0, 100.0, 1e16 + 2.0, 36735844011627.0],
        # exact 17-digit ties, which round to even, and k * 2**-j beside them
        [1234567890123456.25, 1234567890123457.75, -3.0 * 2.0**-24, 1.5 * 2.0**-30],
        # 1e187 times this lies 1.1e-16 below a half-integer, too close for
        # the double-double product to round
        [2.2443978938872237e-171],
        np.arange(1, 40) * 2.0 ** -np.arange(1, 40),
        # just below a decade, and the fast range's edges
        [np.nextafter(1e6, 0), np.nextafter(1e17, 0), 1e-280, np.nextafter(1e-280, 0)],
        powers, np.nextafter(powers, 0), -np.nextafter(powers, np.inf),
        # subnormals
        [2.2250738585072009e-308, -1e-310, 4.9406564584124654e-322],
    ))


EDGE_VALUES = _edge_values()


def per_value_text(times, table):
    return "".join(
        ",".join("%.17g" % v for v in (t, *row)) + "\n" for t, row in zip(times, table)
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
    assert path.read_bytes() == ("t,a,b,c\n" + per_value_text(times, table)).encode()


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 5)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_format_rows_matches_per_value_formatting(table):
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
    assert format_rows(table) == expected.encode()


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

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-18446744073709551616", "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        # seeds 2**64 apart would otherwise give the same noise
        out = tmp_path / "out"
        code = run("simulate", "--out-dir", str(out), "--quiet", "--seed", seed)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"--seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

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
            (1e200, "truth integration failed at step 61: ValueError: math domain error\n"),
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

    def test_outliers_off_the_horizon_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        import dsekit.cli as cli

        monkeypatch.setattr(cli, "simulate_truth", no_truth)
        cfg = write_config(tmp_path, outlier_at(30.0))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: outlier time 30.0 is outside the simulated horizon of 101 steps at dt=0.02\n"
        )
        assert not (out / "truth.csv").exists()

    def test_progress_line_without_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", str(out)) == EXIT_OK
        assert capsys.readouterr().out == (
            f"wrote {out / 'truth.csv'} and {out / 'measurements.csv'} (101 rows each)\n"
        )

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run("simulate", "--config", str(path), "--quiet") == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"note": "\xe9"}')
        assert run("simulate", "--config", str(path), "--quiet") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: config key '{path}': cannot read configuration: "
        )

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

    def test_a_file_is_estimated_without_synthesizing(self, tmp_path, capsys):
        # outliers off the horizon are a configuration error where they are
        # synthesized, which a file replaces
        cfg = write_config(tmp_path)
        late = write_config(tmp_path, outlier_at(30.0), name="late.json")
        path = measurements_file(tmp_path, cfg)
        code = run("estimate", "--config", late, "--out-dir", str(tmp_path), "--quiet")
        assert code == EXIT_CONFIG
        assert "error: outlier time 30.0 is outside" in capsys.readouterr().err
        outputs = {}
        for name, config in (("default", cfg), ("late", late)):
            out = tmp_path / name
            code = run(
                "estimate", "--config", config, "--out-dir", str(out), "--quiet",
                "--measurements", str(path),
            )
            assert code == EXIT_OK
            outputs[name] = {
                f"{kind}_{variant}.csv": (out / f"{kind}_{variant}.csv").read_bytes()
                for kind in ("estimates", "metrics") for variant in ("ckf", "rckf")
            }
        assert outputs["late"] == outputs["default"]

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

    @pytest.mark.parametrize(
        "blank, line, column, text, message",
        [
            (False, 7, 3, None, "line 8: expected 4 columns"),
            (False, 4, 1, "abc", "line 5: non-numeric value"),
            # a non-finite value is a bad row, not a diverged filter
            (False, 5, 0, "nan", "line 6: non-finite value"),
            (False, 40, 2, "nan", "line 41: non-finite value"),
            (False, 10, 2, "inf", "line 11: non-finite value"),
            (False, 10, 3, "-inf", "line 11: non-finite value"),
            # a blank line after the header is line 2 of the file
            (True, 3, 3, None, "line 4: expected 4 columns"),
        ],
    )
    def test_malformed_row_exits_2_naming_its_line(
        self, tmp_path, capsys, blank, line, column, text, message
    ):
        cfg = write_config(tmp_path)
        path = measurements_file(tmp_path, cfg)
        if blank:
            header, rest = path.read_text().split("\n", 1)
            path.write_text(f"{header}\n\n{rest}")
        set_cell(path, line, column, text)
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config key '{path}': {message}\n"

    def test_empty_measurement_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config key '{path}': measurement file is empty\n"
        )

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_measurements_exit_2(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path)
        path = tmp_path
        if kind == "non_utf8":
            path = measurements_file(tmp_path, cfg)
            path.write_bytes(path.read_bytes().replace(b"t,", b"\xe9,", 1))
        code = run(
            "estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet",
            "--measurements", str(path),
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: config key '{path}': cannot read measurements: "
        )

    @pytest.mark.parametrize("key", ["p0_diag", "q_diag"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_init_diagonal_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, lambda d: d["init"].update({key: [value, 1e-6, 1e-6, 1e-6]}))
        code = run("estimate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: config key 'init.{key}': expected finite numbers"
        )

    def test_infeasible_operating_point_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, past_pull_out)
        out = tmp_path / "out"
        assert run("estimate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_SIMULATION
        assert capsys.readouterr().err.startswith(
            "simulation failed: mechanical torque 1.2 exceeds the pull-out power"
        )
        assert not out.exists()

    def test_progress_lines_without_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("estimate", "--config", cfg, "--out-dir", str(out)) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / f'estimates_{v}.csv'} and {out / f'metrics_{v}.csv'}"
            for v in ("ckf", "rckf")
        ]


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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_timing_flag_fills_column(self, tmp_path, jobs):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "out"
        run(
            "experiment", "--config", cfg, "--out-dir", str(out), "--quiet",
            "--runs", "1", "--jobs", jobs, "--timing",
        )
        _, rows = read_rows(out / "matrix.csv")
        assert len(rows) == 64
        assert all(float(r[7]) > 0.0 for r in rows)

    @pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--jobs", "0"), ("--jobs", "-5")])
    def test_runs_must_be_positive(self, tmp_path, capsys, flag, value):
        cfg = self._cfg(tmp_path)
        # the last occurrence of a flag wins
        code = run(
            "experiment", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--quiet",
            "--runs", "1", "--jobs", "1", flag, value,
        )
        assert code == EXIT_CONFIG
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_last_seed_past_64_bits_exits_2(self, tmp_path, capsys):
        # the base seed is in range, but its second run's seed is 2**64
        out = tmp_path / "o"
        code = run(
            "experiment", "--config", self._cfg(tmp_path), "--out-dir", str(out), "--quiet",
            "--runs", "2", "--jobs", "1", "--seed", str(2**64 - 1),
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "the last seed, seed + runs - 1 = 18446744073709551616, must be below 2**64\n"
        )
        assert not out.exists()

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
        # one line, not a line per failed cell
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "needs a horizon of at least 6.0 s" in err
        assert f"scenario.t_end is {t_end} s" in err
        assert not (out / "matrix.csv").exists()


class TestUndefinedIndicators:
    """An indicator that is undefined for a run is written empty: epsilon1
    where the measurement error is identically zero, epsilon2 where a
    truth sample is exactly zero."""

    @pytest.mark.parametrize(
        "mutate, cells",
        [
            # epsilon2 of the angle and of e'_d divide by a zero truth
            (zero_torque, {"delta": (True, False), "edp": (False, False)}),
            # epsilon1 of the angle divides by a zero measurement error
            (noise_free_angle, {"delta": (False, True)}),
        ],
        ids=["zero_torque", "noise_free_angle"],
    )
    def test_estimate_writes_them_empty(self, tmp_path, mutate, cells):
        cfg = write_config(tmp_path, mutate)
        out = tmp_path / "out"
        assert run("estimate", "--config", cfg, "--out-dir", str(out), "--quiet") == EXIT_OK
        for variant in ("ckf", "rckf"):
            _, rows = read_rows(out / f"metrics_{variant}.csv")
            by_variable = {r[0]: r[1:] for r in rows}
            for variable, filled in cells.items():
                assert tuple(v != "" for v in by_variable[variable]) == filled
            assert float(by_variable["omega"][0]) > 0.0
            assert float(by_variable["omega"][1]) > 0.0

    @pytest.mark.parametrize("mutate", [zero_torque, noise_free_angle])
    def test_experiment_runs(self, tmp_path, mutate):
        def longer(doc):
            mutate(doc)
            doc["scenario"]["t_end"] = 8.0

        cfg = write_config(tmp_path, longer)
        out = tmp_path / "out"
        code = run(
            "experiment", "--config", cfg, "--out-dir", str(out), "--quiet",
            "--runs", "1", "--jobs", "1",
        )
        assert code == EXIT_OK
        _, rows = read_rows(out / "matrix.csv")
        assert len(rows) == 64
        _, summary = read_rows(out / "summary.csv")
        lines = {(r[2], r[3]) for r in summary}
        if mutate is zero_torque:
            # the matrix's noise presets leave the measurement error nonzero
            assert {(r[4], r[6] == "") for r in rows} == {
                ("delta", True), ("omega", False), ("eqp", False), ("edp", True),
            }
            assert ("delta", "epsilon2") not in lines and ("edp", "epsilon2") not in lines
            assert ("delta", "epsilon1") in lines
        else:
            assert all(r[6] != "" for r in rows)
            assert len(summary) == 4 * 2 * (2 + 4)


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

    def test_infeasible_operating_point_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, past_pull_out)
        assert run("bench", "--config", cfg, "--steps", "100") == EXIT_SIMULATION
        assert capsys.readouterr().err.startswith(
            "bench setup failed: mechanical torque 1.2 exceeds the pull-out power"
        )

    def test_outliers_off_the_extended_horizon_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        import dsekit.harness as harness

        monkeypatch.setattr(harness, "simulate_truth", no_truth)
        cfg = write_config(tmp_path, outlier_at(30.0))
        assert run("bench", "--config", cfg, "--steps", "100") == EXIT_CONFIG
        # 100 timed steps after a 100-step warmup stretch the 2 s horizon to 4 s
        assert capsys.readouterr().err == (
            "error: outlier time 30.0 is outside the simulated horizon of 201 steps at dt=0.02\n"
        )

    def test_outliers_on_the_extended_horizon_run(self, tmp_path):
        # off the configured 2 s horizon, but on the 4 s one that bench times
        cfg = write_config(tmp_path, outlier_at(3.0))
        assert run("bench", "--config", cfg, "--steps", "100") == EXIT_OK

    def test_too_few_steps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("bench", "--config", cfg, "--steps", "99") == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--jobs", "2"),
        ("estimate", "--jobs", "2"),
        ("bench", "--jobs", "2"),
        ("bench", "--out-dir", "x"),
        ("bench", "--quiet"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


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
