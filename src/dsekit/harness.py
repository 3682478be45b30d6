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

import numbers
from dataclasses import dataclass, replace
from time import perf_counter_ns

import numpy as np

from .config import NOISE_PRESETS, noise_preset
from .errors import DsekitError, InvalidConfig, OutOfRange
from .evaluation import VARIABLES, format_float, report_from_run
from .filters import CKF, RCKF
from .noise import SEED_LIMIT, OutlierSpec, outlier_rows
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

# The experiment matrix's outlier manners in matrix order, each run on the
# configured channel and scale: one hit mid-run, and a one-second burst
# shortly after the fault.
MATRIX_OUTLIERS = {"single": OutlierSpec.single_at(6.0), "window": OutlierSpec.window(2.0, 3.0)}
# The shortest horizon that hosts every manner's outliers.
MATRIX_HORIZON = max(max(s.time or 0.0, s.t_end or 0.0) for s in MATRIX_OUTLIERS.values())

# Passes over the series in bench_filters; each step reports its fastest.
BENCH_PASSES = 5
# Leading steps of each bench_filters series whose times are discarded.
BENCH_WARMUP = 100

MATRIX_HEADER = (
    "noise", "manner", "filter", "seed", "variable",
    "epsilon1", "epsilon2", "mean_step_ms",
)
SUMMARY_HEADER = (
    "noise", "manner", "variable", "indicator",
    "ckf_median", "rckf_median", "improvement_pct",
)


@dataclass(frozen=True)
class MatrixRow:
    noise: int
    manner: str
    filter: str
    seed: int
    variable: str
    epsilon1: float | None
    epsilon2: float | None
    mean_step_ms: float | None


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
    return replace(MATRIX_OUTLIERS[manner], channel=base.channel, scale=base.scale)


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
        InvalidConfig: a seed is outside [0, 2**64).
        ValueError: jobs is below one, or a seed is not an integer or
            repeats.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    seeds = list(seeds)
    if not all(isinstance(s, numbers.Integral) for s in seeds):
        raise ValueError(f"seeds must be integers, got {seeds}")
    seeds = sorted(map(int, seeds))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds repeat: {seeds}")
    if seeds and not 0 <= seeds[0] <= seeds[-1] < SEED_LIMIT:
        raise InvalidConfig(f"seeds must be in [0, 2**64), got {seeds[0]} to {seeds[-1]}")
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
    the robust variant's relative improvement where defined."""
    groups: dict[tuple, dict[str, dict[str, list[float]]]] = {}
    for row in matrix.rows:
        cell = groups.setdefault(
            (row.noise, row.manner, row.variable),
            {CKF: {"epsilon1": [], "epsilon2": []}, RCKF: {"epsilon1": [], "epsilon2": []}},
        )
        for indicator, value in (("epsilon1", row.epsilon1), ("epsilon2", row.epsilon2)):
            if value is not None:
                cell[row.filter][indicator].append(value)
    out: list[tuple] = []
    for (noise, manner, variable) in sorted(
        groups, key=lambda k: (k[0], k[1], VARIABLES.index(k[2]))
    ):
        cell = groups[(noise, manner, variable)]
        for indicator in ("epsilon1", "epsilon2"):
            ckf_vals = cell[CKF][indicator]
            rckf_vals = cell[RCKF][indicator]
            if not ckf_vals or not rckf_vals:
                continue
            ckf_med = float(np.median(ckf_vals))
            rckf_med = float(np.median(rckf_vals))
            improvement = (
                100.0 * (ckf_med - rckf_med) / ckf_med if ckf_med > 0.0 else None
            )
            out.append((noise, manner, variable, indicator, ckf_med, rckf_med, improvement))
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(MATRIX_HEADER) + "\n")
        for r in matrix.rows:
            fh.write(
                f"{r.noise},{r.manner},{r.filter},{r.seed},{r.variable},"
                f"{format_float(r.epsilon1)},{format_float(r.epsilon2)},"
                f"{format_float(r.mean_step_ms)}\n"
            )


def write_summary_csv(path, matrix: ExperimentMatrix) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SUMMARY_HEADER) + "\n")
        for noise, manner, variable, indicator, ckf_med, rckf_med, impr in summarize(matrix):
            fh.write(
                f"{noise},{manner},{variable},{indicator},"
                f"{format_float(ckf_med)},{format_float(rckf_med)},"
                f"{format_float(impr)}\n"
            )
