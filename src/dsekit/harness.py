"""Experiment matrix execution, benchmarking, and CSV serialization.

The matrix crosses the four noise presets with the two outlier manners
over a list of seeds and runs both filter variants on every cell.  The
cells differ only in seed, noise and outliers, so they share one
equilibrium and one truth trajectory, and all their filters run as one
lockstep batch; with more than one job the batch is cut into one chunk per
worker process.  Rows are merged in the deterministic (noise, manner,
seed) order either way, and a member's numbers do not depend on the batch
it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter_ns

import numpy as np

from .config import NOISE_PRESETS, with_noise_preset, with_outliers, with_seed
from .errors import DsekitError
from .evaluation import VARIABLES, format_float, report_from_run
from .filters import CKF, RCKF
from .noise import OutlierSpec, outlier_rows
from .scenario import (
    RunRecord,
    ScenarioConfig,
    batch_filters,
    equilibrium,
    filter_series,
    simulate_truth,
    synthesize_measurements,
    time_grid,
)

# Outlier placements used by the experiment matrix: one hit mid-run, and
# a one-second burst shortly after the fault.
SINGLE_OUTLIER_TIME = 6.0
WINDOW_OUTLIER_SPAN = (2.0, 3.0)
MANNERS = ("single", "window")
# The shortest horizon that hosts every manner's outliers.
MATRIX_HORIZON = max(SINGLE_OUTLIER_TIME, WINDOW_OUTLIER_SPAN[1])

# Passes over the series in bench_filters; each step reports its fastest.
BENCH_PASSES = 5

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
    epsilon2: float
    mean_step_ms: float | None


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
    if manner == "single":
        return OutlierSpec.single_at(
            SINGLE_OUTLIER_TIME, channel=base.channel, scale=base.scale
        )
    if manner == "window":
        return OutlierSpec.window(
            *WINDOW_OUTLIER_SPAN, channel=base.channel, scale=base.scale
        )
    raise ValueError(f"unknown outlier manner {manner!r}")


def _cell_key(preset: int, manner: str, seed: int) -> str:
    return f"noise{preset}/{manner}/seed{seed}"


def _run_cells(item) -> list[tuple[list[MatrixRow], dict[str, str]]]:
    """Rows and failures of each cell of a chunk, its filters run as one
    batch."""
    cfg, truth, x0, cells, timing = item
    record_of: dict[int, tuple] = {}
    out: list[tuple[list[MatrixRow], dict[str, str]]] = []
    for i, (cell_cfg, preset, manner, seed) in enumerate(cells):
        try:
            record_of[i] = synthesize_measurements(truth, cell_cfg)
            out.append(([], {}))
        except DsekitError as exc:
            out.append(([], {_cell_key(preset, manner, seed): str(exc)}))
    live = sorted(record_of)
    if not live:
        return out
    corrupted = np.stack([record_of[i][1] for i in live])
    results = filter_series(cfg, corrupted, (CKF, RCKF), x0=x0)
    times = time_grid(cfg)
    for i, (estimates, step_times, failures) in zip(live, results):
        _, preset, manner, seed = cells[i]
        key = _cell_key(preset, manner, seed)
        clean, cell_corrupted = record_of[i]
        record = RunRecord(times, truth, clean, cell_corrupted, estimates, step_times, failures)
        rows, cell_failures = out[i]
        for variant in (CKF, RCKF):
            if variant not in estimates:
                cell_failures[f"{key}/{variant}"] = failures[variant]
                continue
            report = report_from_run(record, variant)
            mean_ms = float(step_times[variant].mean()) / 1e6 if timing else None
            for variable in VARIABLES:
                rows.append(
                    MatrixRow(
                        noise=preset,
                        manner=manner,
                        filter=variant,
                        seed=seed,
                        variable=variable,
                        epsilon1=report.epsilon1.get(variable),
                        epsilon2=report.epsilon2[variable],
                        mean_step_ms=mean_ms,
                    )
                )
    return out


def run_experiment(
    cfg: ScenarioConfig,
    seeds,
    jobs: int = 1,
    timing: bool = False,
) -> ExperimentMatrix:
    """Run the full noise-by-manner matrix over the given seeds.

    Cell failures are collected, not raised; rows from failed cells are
    simply absent.  A cell whose outliers fall off the horizon fails before
    any integration.  With timing enabled the mean wall time per filter
    step is recorded, which makes the output machine-dependent.
    """
    seeds = sorted(int(s) for s in seeds)
    rows_on_grid = len(time_grid(cfg))
    cells = []
    results: dict[int, tuple[list[MatrixRow], dict[str, str]]] = {}
    for preset in NOISE_PRESETS:
        for manner in MANNERS:
            spec = manner_outliers(manner, cfg.outliers)
            for seed in seeds:
                cell_cfg = with_seed(with_outliers(with_noise_preset(cfg, preset), spec), seed)
                try:
                    outlier_rows(spec, cfg.dt, rows_on_grid)
                except DsekitError as exc:
                    results[len(cells)] = ([], {_cell_key(preset, manner, seed): str(exc)})
                cells.append((cell_cfg, preset, manner, seed))
    live = [i for i in range(len(cells)) if i not in results]
    if live:
        try:
            x0 = equilibrium(cfg)
            truth = simulate_truth(cfg, x0)
        except DsekitError as exc:
            for i in live:
                _, preset, manner, seed = cells[i]
                results[i] = ([], {_cell_key(preset, manner, seed): str(exc)})
            live = []
    # one chunk of the batch per worker
    chunks = [c.tolist() for c in np.array_split(live, max(1, min(jobs, len(live))))] if live else []
    items = [(cfg, truth, x0, [cells[i] for i in chunk], timing) for chunk in chunks]
    if len(items) > 1:
        # imported here: the pool's modules would add to the start-up
        # time of every command, and only this path uses them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(items)) as pool:
            outcomes = list(pool.map(_run_cells, items))
    else:
        outcomes = [_run_cells(item) for item in items]
    for chunk, outcome in zip(chunks, outcomes):
        results.update(zip(chunk, outcome))
    rows: list[MatrixRow] = []
    failures: dict[str, str] = {}
    failed_cells = 0
    for i in range(len(cells)):
        cell_rows, cell_failures = results[i]
        rows.extend(cell_rows)
        failures.update(cell_failures)
        if not cell_rows:
            failed_cells += 1
    return ExperimentMatrix(
        rows=tuple(rows),
        failures=failures,
        cells_total=len(cells),
        cells_failed=failed_cells,
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
        if row.epsilon1 is not None:
            cell[row.filter]["epsilon1"].append(row.epsilon1)
        cell[row.filter]["epsilon2"].append(row.epsilon2)
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


def bench_filters(
    cfg: ScenarioConfig, steps: int, warmup: int = 100
) -> dict[str, TimingReport]:
    """Time both filter variants on one scenario.

    The horizon is extended so warmup + steps measurements exist; the
    first warmup step times are discarded.  Each variant runs as its own
    batch of one, and the two are stepped in turn, so both are timed under
    the same machine load.  The series is filtered BENCH_PASSES times;
    each step keeps its fastest time, so a step slowed by preemption or
    other load in one pass is timed clean in another.  Timing covers the
    predict-plus-update work only, not simulation or synthesis.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    needed = (steps + warmup) * cfg.dt
    bench_cfg = replace(cfg, t_end=max(cfg.t_end, needed))
    x0 = equilibrium(bench_cfg)
    truth = simulate_truth(bench_cfg, x0)
    _, corrupted = synthesize_measurements(truth, bench_cfg)
    best: dict[str, np.ndarray] = {}
    for _ in range(BENCH_PASSES):
        runs = {
            variant: batch_filters(bench_cfg, corrupted[None], (variant,), x0)[1]
            for variant in (CKF, RCKF)
        }
        times = {variant: np.empty(len(corrupted) - 1) for variant in runs}
        for k in range(len(corrupted) - 1):
            for variant, run in runs.items():
                started = perf_counter_ns()
                _, _, failed = next(run)
                times[variant][k] = perf_counter_ns() - started
                if failed:
                    raise failed[0][1]
        for variant, t in times.items():
            best[variant] = np.minimum(best[variant], t) if variant in best else t
    return {
        variant: TimingReport.from_times_ns(variant, times[warmup:])
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
