"""Command line interface.

Subcommands: simulate (truth and measurement CSVs), estimate (filter runs
plus metrics), experiment (the noise-by-manner matrix), and bench (filter
step timing).  Exit codes: 0 success, 2 configuration problem (including
an experiment horizon too short for the matrix's outliers), 3 truth
simulation failure, 4 filter divergence, 5 every experiment cell failed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import build_scenario, default_config, load_config
from .errors import ConfigError, DsekitError
from .evaluation import FLOAT_FORMAT, VARIABLES, MetricsReport, format_float, report_from_run
from .filters import CKF, MEMBER_FAILURES, RCKF
from .noise import outlier_rows
from .scenario import (
    RunRecord,
    ScenarioConfig,
    equilibrium,
    filter_series,
    simulate_truth,
    synthesize_measurements,
    time_grid,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_DIVERGENCE = 4
EXIT_ALL_CELLS_FAILED = 5

TRUTH_HEADER = ("t", "delta_rad", "delta_omega_pu", "eqp_pu", "edp_pu")
MEASUREMENTS_HEADER = ("t", "delta_z_rad", "omega_z_pu", "pe_z_pu")
METRICS_HEADER = ("variable", "epsilon1", "epsilon2")


# Rows formatted by one % operation when a series is written: whole
# blocks cut the per-value cost, and a bounded block keeps the text in
# memory small beside the table.
CSV_BLOCK_ROWS = 1024


def _write_series_csv(path, header, times, table) -> None:
    """Time column plus table rows, every value as format_float writes it."""
    data = np.column_stack((times, table))
    row_format = ",".join([FLOAT_FORMAT] * data.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[start : start + CSV_BLOCK_ROWS]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def _write_metrics_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(METRICS_HEADER) + "\n")
        for variable in VARIABLES:
            eps1 = report.epsilon1.get(variable)
            fh.write(
                f"{variable},{format_float(eps1)},"
                f"{format_float(report.epsilon2[variable])}\n"
            )


def _read_measurements_csv(path, times: np.ndarray) -> np.ndarray:
    """Parse an external measurement series and pin it to the grid."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read measurements: {exc}") from None
    if not lines:
        raise ConfigError(str(path), "measurement file is empty")
    header = tuple(lines[0].split(","))
    if header != MEASUREMENTS_HEADER:
        raise ConfigError(
            str(path),
            f"expected columns {','.join(MEASUREMENTS_HEADER)}, got {lines[0]!r}",
        )
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(MEASUREMENTS_HEADER):
            raise ConfigError(str(path), f"line {i}: expected {len(MEASUREMENTS_HEADER)} columns")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ConfigError(str(path), f"line {i}: non-numeric value") from None
    data = np.asarray(rows)
    if data.shape[0] != times.size:
        raise ConfigError(
            str(path),
            f"expected {times.size} rows to match the configured grid, got {data.shape[0]}",
        )
    # written so that a NaN time, which compares False, is rejected too
    if not (np.abs(data[:, 0] - times) <= 1e-9).all():
        raise ConfigError(str(path), "time column does not match the configured grid")
    return data[:, 1:]


def _load_scenario(args) -> ScenarioConfig:
    doc = load_config(args.config) if args.config else default_config()
    cfg = build_scenario(doc)
    if args.seed is not None:
        from .config import with_seed

        cfg = with_seed(cfg, args.seed)
    return cfg


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    try:
        truth = simulate_truth(cfg)
        _, corrupted = synthesize_measurements(truth, cfg)
    except DsekitError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    times = time_grid(cfg)
    truth_path = _out_path(args, "truth.csv")
    meas_path = _out_path(args, "measurements.csv")
    _write_series_csv(truth_path, TRUTH_HEADER, times, truth)
    _write_series_csv(meas_path, MEASUREMENTS_HEADER, times, corrupted)
    _say(args, f"wrote {truth_path} and {meas_path} ({times.size} rows each)")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = _load_scenario(args)
    times = time_grid(cfg)
    try:
        x0 = equilibrium(cfg)
        truth = simulate_truth(cfg, x0)
        clean, corrupted = synthesize_measurements(truth, cfg)
    except DsekitError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    if args.measurements:
        corrupted = _read_measurements_csv(args.measurements, times)
    variants = (CKF, RCKF) if args.filter == "both" else (args.filter,)
    try:
        estimates, step_times, _ = filter_series(cfg, corrupted, variants, strict=True, x0=x0)
    except MEMBER_FAILURES as exc:
        # the message already begins with "measurement index k: "
        print(f"filter diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    record = RunRecord(
        times=times,
        truth=truth,
        clean=clean,
        corrupted=corrupted,
        estimates=estimates,
        step_times_ns=step_times,
        failures={},
    )
    for variant in variants:
        est_path = _out_path(args, f"estimates_{variant}.csv")
        _write_series_csv(est_path, TRUTH_HEADER, times, estimates[variant])
        report = report_from_run(record, variant)
        metrics_path = _out_path(args, f"metrics_{variant}.csv")
        _write_metrics_csv(metrics_path, report)
        _say(args, f"wrote {est_path} and {metrics_path}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    # the harness is imported by the two commands that run it, so that the
    # others do not load it
    from .harness import (
        MANNERS,
        MATRIX_HORIZON,
        manner_outliers,
        run_experiment,
        write_matrix_csv,
        write_summary_csv,
    )

    cfg = _load_scenario(args)
    if args.runs < 1:
        print(f"--runs must be at least 1, got {args.runs}", file=sys.stderr)
        return EXIT_CONFIG
    rows = len(time_grid(cfg))
    for manner in MANNERS:
        try:
            outlier_rows(manner_outliers(manner, cfg.outliers), cfg.dt, rows)
        except DsekitError as exc:
            print(
                f"the experiment matrix needs a horizon of at least {MATRIX_HORIZON} s, "
                f"scenario.t_end is {cfg.t_end} s: {exc}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
    seeds = [cfg.seed + i for i in range(args.runs)]
    matrix = run_experiment(cfg, seeds, jobs=args.jobs, timing=args.timing)
    for key, message in sorted(matrix.failures.items()):
        print(f"cell {key} failed: {message}", file=sys.stderr)
    if matrix.cells_failed == matrix.cells_total:
        print("every experiment cell failed", file=sys.stderr)
        return EXIT_ALL_CELLS_FAILED
    matrix_path = _out_path(args, "matrix.csv")
    summary_path = _out_path(args, "summary.csv")
    write_matrix_csv(matrix_path, matrix)
    write_summary_csv(summary_path, matrix)
    ok = matrix.cells_total - matrix.cells_failed
    _say(
        args,
        f"wrote {matrix_path} ({len(matrix.rows)} rows) and {summary_path}; "
        f"{ok}/{matrix.cells_total} cells succeeded",
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    from .harness import bench_filters

    if args.steps < 100:
        print(f"--steps must be at least 100, got {args.steps}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = _load_scenario(args)
    try:
        reports = bench_filters(cfg, args.steps)
    except MEMBER_FAILURES as exc:
        print(f"filter diverged during bench: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DsekitError as exc:
        print(f"bench setup failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    print(f"{'variant':<8} {'steps':>6} {'mean ms':>10} {'p50 ms':>10} {'p99 ms':>10}")
    for variant in (CKF, RCKF):
        r = reports[variant]
        print(
            f"{r.variant:<8} {r.steps:>6} {r.mean_ms:>10.4f} "
            f"{r.p50_ms:>10.4f} {r.p99_ms:>10.4f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file (built-in defaults when omitted)")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--seed", type=int, help="override the configured base seed")
    common.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the experiment matrix, one chunk of its filter batch each",
    )
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="dsekit",
        description="Robust dynamic state estimation experiments for a synchronous generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "simulate", parents=[common], help="write truth.csv and measurements.csv"
    ).set_defaults(handler=cmd_simulate)

    p_estimate = sub.add_parser(
        "estimate", parents=[common], help="run filters and write estimates and metrics"
    )
    p_estimate.add_argument(
        "--filter", choices=(CKF, RCKF, "both"), default="both", help="variant to run"
    )
    p_estimate.add_argument(
        "--measurements",
        help="external measurements.csv to estimate from (defaults to synthesized ones)",
    )
    p_estimate.set_defaults(handler=cmd_estimate)

    p_experiment = sub.add_parser(
        "experiment", parents=[common], help="run the noise-by-manner matrix"
    )
    p_experiment.add_argument(
        "--runs", type=int, default=10, help="seeds per cell (base seed + 0..runs-1)"
    )
    p_experiment.add_argument(
        "--timing",
        action="store_true",
        help="record each filter's mean share of the batch step wall time "
        "(makes matrix.csv machine-dependent)",
    )
    p_experiment.set_defaults(handler=cmd_experiment)

    p_bench = sub.add_parser(
        "bench", parents=[common], help="time the filter variants"
    )
    p_bench.add_argument("--steps", type=int, default=500, help="timed steps (minimum 100)")
    p_bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
