"""Experiment matrix execution, benchmarking, and CSV serialization.

The matrix crosses two tables, config.NOISE_PRESETS and MATRIX_OUTLIERS,
over a list of seeds and runs both filter variants on every cell.  A cell
is a scenario.Cell row (seed, noise, outliers), so the cells share the
config's one equilibrium and truth trajectory, and all their filters run
as one lockstep batch; with more than one job the batch is cut into one
chunk per worker process; a chunk's cells share one clean series (one
synthesis table).  Rows merge in (noise, manner, seed) order either way,
and a member's numbers do not depend on the batch or table it ran in.  A
matrix whose seeds or outliers are bad raises before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

from .config import NOISE_PRESETS, noise_preset
from .errors import DsekitError, OutOfRange
from .evaluation import VARIABLES, report_from_run, write_rows
from .filters import VARIANTS
from .noise import OutlierSpec, check_seed, outlier_rows
from .scenario import (
    Cell,
    ScenarioConfig,
    batch_filters,
    filter_series,
    member_table,
    simulate_truth,
    synthesize_measurements,
    time_grid,
)

# The experiment matrix's outlier manners in matrix order, each the window
# it hits on the configured channel and scale: one hit mid-run, and a
# one-second burst shortly after the fault.
MATRIX_OUTLIERS = {"single": (6.0, 6.0), "window": (2.0, 3.0)}
# The shortest horizon that hosts every manner's outliers.
MATRIX_HORIZON = max(t_end for _, t_end in MATRIX_OUTLIERS.values())

# Passes over the series in bench_filters; each step reports its fastest.
BENCH_PASSES = 5
# Leading steps of each bench_filters series whose times are discarded.
BENCH_WARMUP = 100

SUMMARY_HEADER = (
    "noise", "manner", "variable", "indicator",
    "ckf_median", "rckf_median", "improvement_pct",
)


class MatrixRow(NamedTuple):
    """One row of matrix.csv, its fields the columns."""

    noise: int
    manner: str
    filter: str
    seed: int
    variable: str
    epsilon1: float | None
    epsilon2: float | None
    mean_step_ms: float | None


MATRIX_HEADER = MatrixRow._fields

# A cell's rows and its failures, keyed like the matrix's failures.
Outcome = tuple[list[MatrixRow], dict[str, str]]


@dataclass(frozen=True)
class ExperimentMatrix:
    rows: tuple[MatrixRow, ...]
    failures: dict[str, str]
    cells_total: int
    cells_failed: int


@dataclass(frozen=True)
class TimingReport:
    variant: str
    steps: int
    mean_ms: float
    p50_ms: float
    p99_ms: float

    @classmethod
    def from_times_ns(cls, variant: str, times_ns: np.ndarray) -> "TimingReport":
        ms = np.asarray(times_ns, dtype=float) / 1e6
        return cls(
            variant=variant,
            steps=int(ms.size),
            mean_ms=float(ms.mean()),
            p50_ms=float(np.percentile(ms, 50)),
            p99_ms=float(np.percentile(ms, 99)),
        )


def manner_outliers(manner: str, base: OutlierSpec) -> OutlierSpec:
    """Outlier spec for one matrix manner, keeping the configured channel
    and scale."""
    if manner not in MATRIX_OUTLIERS:
        raise ValueError(f"unknown outlier manner {manner!r}")
    return replace(base, window=MATRIX_OUTLIERS[manner])


def _cell_key(preset: int, manner: str, cell: Cell) -> str:
    return f"noise{preset}/{manner}/seed{cell.seed}"


def _run_cells(item) -> list[Outcome]:
    """Rows and failures of each cell of a chunk, its filters run as one
    batch.  With timing, every row gets the batch's wall time per step
    and filter."""
    cfg, truth, cells, timing = item
    _, series = synthesize_measurements(cfg, truth, [cell for *_, cell in cells])
    table = member_table(cfg, len(cells))
    started = perf_counter_ns()
    results = filter_series(cfg, series, table)
    mean_ms = None
    if timing:
        mean_ms = (perf_counter_ns() - started) / 1e6 / ((len(truth) - 1) * len(table))
    out: list[Outcome] = []
    for (preset, manner, cell), corrupted, (estimates, failures) in zip(
        cells, series, results
    ):
        rows: list[MatrixRow] = []
        for variant in estimates:
            report = report_from_run(estimates[variant], truth, corrupted)
            rows.extend(
                MatrixRow(
                    preset, manner, variant, cell.seed, variable,
                    report.epsilon1.get(variable), report.epsilon2.get(variable), mean_ms,
                )
                for variable in VARIABLES
            )
        key = _cell_key(preset, manner, cell)
        out.append((rows, {f"{key}/{variant}": m for variant, m in failures.items()}))
    return out


def run_experiment(
    cfg: ScenarioConfig, seeds, jobs: int = 1, timing: bool = False
) -> ExperimentMatrix:
    """Run the full noise-by-manner matrix over the given seeds.

    The seeds and every manner's outlier placement are checked before any
    work, so a matrix that cannot run raises and runs nothing.  Cell failures
    are collected, not raised; rows from failed cells are simply absent.
    With timing enabled each chunk's filter wall time per step and filter
    is recorded, which makes the output machine-dependent.

    Raises:
        OutOfRange: a manner's outliers fall off the horizon; the message
            names MATRIX_HORIZON and the configured t_end.
        InvalidConfig: a seed is not an integer in [0, 2**64)
            (noise.check_seed).
        ValueError: jobs is below one, or a seed repeats.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    seeds = list(seeds)
    for seed in seeds:
        check_seed(seed)
    seeds = sorted(map(int, seeds))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds repeat: {seeds}")
    rows_on_grid = len(time_grid(cfg))
    specs = {manner: manner_outliers(manner, cfg.outliers) for manner in MATRIX_OUTLIERS}
    for spec in specs.values():
        try:
            outlier_rows(spec, cfg.dt, rows_on_grid)
        except OutOfRange as exc:
            raise OutOfRange(
                f"the experiment matrix needs a horizon of at least {MATRIX_HORIZON} s, "
                f"scenario.t_end is {cfg.t_end} s: {exc}"
            ) from exc
    noises = {preset: noise_preset(preset, cfg.sigmas) for preset in NOISE_PRESETS}
    # in (noise, manner, seed) order
    cells = [
        (preset, manner, Cell(seed, noises[preset], specs[manner]))
        for preset in NOISE_PRESETS for manner in MATRIX_OUTLIERS for seed in seeds
    ]
    outcomes: list[Outcome] = []
    if cells:
        try:
            truth = simulate_truth(cfg)
        except DsekitError as exc:
            outcomes = [([], {_cell_key(*cell): str(exc)}) for cell in cells]
        else:
            # one chunk of the batch per worker
            splits = np.array_split(np.arange(len(cells)), min(jobs, len(cells)))
            items = [(cfg, truth, cells[s[0] : s[-1] + 1], timing) for s in splits]
            if len(items) > 1:
                # imported here: the pool's modules would add to the start-up
                # time of every command, and only this path uses them
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=len(items)) as pool:
                    chunks = list(pool.map(_run_cells, items))
            else:
                chunks = [_run_cells(items[0])]
            outcomes = [outcome for chunk in chunks for outcome in chunk]
    return ExperimentMatrix(
        rows=tuple(row for rows, _ in outcomes for row in rows),
        failures={key: message for _, failures in outcomes for key, message in failures.items()},
        cells_total=len(outcomes),
        cells_failed=sum(not rows for rows, _ in outcomes),
    )


def summarize(matrix: ExperimentMatrix) -> list[tuple]:
    """Median indicators per (noise, manner, variable) across seeds, with
    the robust variant's relative improvement where defined.  A line needs
    values of both variants; a row of any other filter counts in none."""
    values: dict[tuple, list[float]] = {}
    for row in matrix.rows:
        for indicator, value in (("epsilon1", row.epsilon1), ("epsilon2", row.epsilon2)):
            if value is not None:
                key = (row.noise, row.manner, VARIABLES.index(row.variable), indicator)
                values.setdefault((*key, row.filter), []).append(value)
    out: list[tuple] = []
    for noise, manner, variable, indicator in sorted({key[:-1] for key in values}):
        pair = [values.get((noise, manner, variable, indicator, v)) for v in VARIANTS]
        if not all(pair):
            continue
        ckf_med, rckf_med = (float(np.median(vals)) for vals in pair)
        improvement = 100.0 * (ckf_med - rckf_med) / ckf_med if ckf_med > 0.0 else None
        out.append((noise, manner, VARIABLES[variable], indicator, ckf_med, rckf_med, improvement))
    return out


def bench_filters(cfg: ScenarioConfig, steps: int) -> dict[str, TimingReport]:
    """Time both filter variants on one scenario.

    The horizon is extended so BENCH_WARMUP + steps measurements exist;
    the first BENCH_WARMUP step times are discarded.  Each variant runs as
    its own batch of one, and the two are stepped in turn, so both are
    timed under the same machine load.  The series is filtered
    BENCH_PASSES times; each step keeps its fastest time, so a step slowed
    by preemption or other load in one pass is timed clean in another.
    Timing covers the predict-plus-update work only, not simulation or
    synthesis.  Outliers off the extended horizon raise OutOfRange first.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    needed = (steps + BENCH_WARMUP) * cfg.dt
    bench_cfg = replace(cfg, t_end=max(cfg.t_end, needed))
    outlier_rows(cfg.outliers, cfg.dt, len(time_grid(bench_cfg)))
    truth = simulate_truth(bench_cfg)
    _, series = synthesize_measurements(bench_cfg, truth)
    best: dict[str, np.ndarray] = {}
    table = member_table(bench_cfg, 1)
    for _ in range(BENCH_PASSES):
        runs = {member.label: batch_filters(bench_cfg, series, [member])[1] for member in table}
        times = {variant: np.empty(len(truth) - 1) for variant in runs}
        for k in range(len(truth) - 1):
            for variant, run in runs.items():
                started = perf_counter_ns()
                _, _, failed = next(run)
                times[variant][k] = perf_counter_ns() - started
                if failed:
                    raise failed[0][1]
        for variant, t in times.items():
            best[variant] = np.minimum(best[variant], t) if variant in best else t
    return {
        variant: TimingReport.from_times_ns(variant, times[BENCH_WARMUP:])
        for variant, times in best.items()
    }


def write_matrix_csv(path, matrix: ExperimentMatrix) -> None:
    write_rows(path, MATRIX_HEADER, matrix.rows)


def write_summary_csv(path, matrix: ExperimentMatrix) -> None:
    write_rows(path, SUMMARY_HEADER, summarize(matrix))
