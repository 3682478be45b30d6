"""Benchmark of the dsekit command line program.

Usage (from the repository root):

    python3 perfbench/run.py --workload {matrix,estimate,simulate_long}
        --seed N --seconds S --trace {0,1}

Workloads (perfbench/README.md has the details):

- matrix: `dsekit experiment`, 4 noise presets x 2 outlier manners x 1
  seed per call;
- estimate: `dsekit estimate`, Cauchy noise and a window outlier;
- simulate_long: `dsekit simulate` over a 600 s horizon, Laplace noise.

The run times SETUP_PROBES fresh interpreters that import dsekit and
build the default scenario, each against fresh interpreters that import
only numpy and scipy (setup_s), half of them before and half after it runs
the workload in a process of its own for at least S seconds.  It then
checks every output and prints as its last line a JSON object with the
keys correct, attempted, failed and metrics.  Call times are put on the
host speed kernel's scale (hostspeed.py).  Without tracing the metrics
are the end-to-end ones; with tracing, the per-layer split from
perfbench/layertrace.py.  The exit code is 0 when every output was
correct, 1 when a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workload as wl  # noqa: E402

SETUP_PROBES = 6
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dsekit.cli; "
    "from dsekit.config import build_scenario, default_config; "
    "build_scenario(default_config()); print('ready', flush=True)"
)
# The set-up probes are put on the scale of a fixed import of the libraries
# dsekit uses, timed in fresh interpreters alternating with them: the same
# kind of work (starting Python, loading extension modules), so it follows
# the machine's speed phases where the host speed kernel, which computes,
# does not.  A normalized set-up time reads as seconds on a machine where
# this import takes NOMINAL_IMPORT_S.
IMPORT_PROBE = "import numpy, scipy.linalg, scipy.optimize; print('ready', flush=True)"
NOMINAL_IMPORT_S = 0.50
# one BLAS thread, so that a probe runs on one CPU and its time does not
# depend on what else runs on the others
PROBE_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

SPAN_METRICS = (
    "scenario.simulate_truth", "scenario.synthesize_measurements", "scenario.filter_series",
    "machine.transition", "machine.transition_points", "machine.observe_points",
    "machine.measure", "machine.measurement_covariance",
    "noise.corrupt", "noise.inject_outliers",
    "filters.time_predict", "filters.ckf_update", "filters.rckf_update",
    "filters.huber_reweight", "filters.cholesky_lower",
    "evaluation.report_from_run",
    "harness.run_experiment", "harness.csv_write",
    "cli.main",
)
COUNT_METRICS = (
    "scenario.steady_state_init_calls",
    "machine.transition_points_calls", "machine.measure_calls",
    "machine.measurement_covariance_calls",
    "filters.time_predict_calls", "filters.huber_downweighted", "filters.cholesky_lower_calls",
    "harness.csv_bytes", "cli.csv_bytes",
)


def time_probe(code: str) -> float:
    """Wall time from starting a fresh interpreter on `code` until it
    prints that it is ready."""
    started = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE, text=True, env=PROBE_ENV
    ) as proc:
        line = proc.stdout.readline()
        wall = perf_counter() - started
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("setup probe failed")
    return wall


def time_setup(probes: int) -> tuple[list[float], list[float]]:
    """Times from starting a fresh interpreter until it has imported dsekit
    and built the default scenario, each divided by the mean of the import
    probes on either side of it and put on the nominal scale, and the wall
    times."""
    imports = [time_probe(IMPORT_PROBE)]
    normalized, walls = [], []
    for _ in range(probes):
        walls.append(time_probe(PROBE))
        imports.append(time_probe(IMPORT_PROBE))
        normalized.append(walls[-1] / (0.5 * (imports[-2] + imports[-1])) * NOMINAL_IMPORT_S)
    return normalized, walls


def grid_rows(config: Path) -> int:
    scenario = json.loads(config.read_text())["scenario"]
    return int(round(scenario["t_end"] / scenario["dt"])) + 1


def run_checks(record: dict, out: Path, seed: int) -> list[str]:
    """Every call's outputs equal the first's; those outputs pass the
    workload's check."""
    sys.path.insert(0, str(SRC))
    from dsekit import cli

    name = record["workload"]
    calls = [c for c in record["calls"] if c["exit"] == 0]
    if not calls:
        return ["no call exited 0, so no output was checked"]
    problems = []
    if len({c["digest"] for c in calls}) != 1:
        problems.append("outputs differ between repeated calls")
    call_dir = out / "call"
    work = out / "check"
    config = wl.CONFIGS / f"{name}.json"
    if name == "estimate":
        problems += checks.check_estimate(cli, config, seed, call_dir, work)
    elif name == "simulate_long":
        problems += checks.check_simulate_long(config, call_dir)
    else:
        problems += checks.check_matrix(cli, config, seed, call_dir, work)
        jobs = len(os.sched_getaffinity(0))
        if record["trace"] and jobs > 1:
            # matrix.csv must not depend on --jobs: repeat the call with one
            # worker per CPU and compare
            other = out / "jobs"
            argv = wl.argv_for(name, seed, other, jobs)
            if cli.main(argv) != 0:
                problems.append(f"experiment with --jobs {jobs} failed")
            elif wl.digest(other, wl.OUTPUTS[name]) != calls[0]["digest"]:
                problems.append(f"outputs with --jobs {jobs} differ from --jobs {record['jobs']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.OUTPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dsekit" / "__init__.py").is_file():
        print(f"error: no dsekit sources under {SRC}", file=sys.stderr)
        return 2

    # half the set-up probes run before the workload and half after it, so
    # that they see the machine at two moments
    setup_before = time_setup(SETUP_PROBES // 2)
    out = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        check=True,
    )
    setup_after = time_setup(SETUP_PROBES - SETUP_PROBES // 2)
    setup_s = statistics.median(setup_before[0] + setup_after[0])
    setup_wall_s = statistics.median(setup_before[1] + setup_after[1])
    record = json.loads((out / "record.json").read_text())
    calls = record["calls"]
    per_call = wl.MATRIX_CELLS if args.workload == "matrix" else 1
    attempted = per_call * len(calls)
    ok_calls = [c for c in calls if c["exit"] == 0]
    failed = per_call * (len(calls) - len(ok_calls))
    problems = run_checks(record, out, args.seed)
    cells_failed = 0
    if args.workload == "matrix" and ok_calls:
        cells_failed = checks.matrix_cells_failed(out / "call" / "matrix.csv", args.seed, wl.MATRIX_RUNS)
        failed += cells_failed * len(ok_calls)
    correct = not problems
    if not correct:
        failed = attempted
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    walls = [c["wall_s"] for c in calls]
    kernels = [c["kernel_s"] for c in calls]
    # a failed call may end early, so only calls that exited 0 are timed;
    # when none did, the run is not correct and all calls are reported
    timed = ok_calls or calls
    latency = statistics.median(hostspeed.normalized(c["wall_s"], c["kernel_s"]) for c in timed)
    scenarios = (attempted - failed) / len(calls)
    if args.trace:
        metrics = {}
        for name in SPAN_METRICS:
            value = statistics.median(
                hostspeed.normalized(own.get(name, 0.0), k) for own, k in zip(record["self_s"], kernels)
            )
            metrics[f"{name}_s"] = {"value": value / per_call, "unit": "s"}
        for name in COUNT_METRICS:
            unit = "bytes" if name.endswith("_bytes") else "count"
            metrics[name] = {"value": record["counts"].get(name, 0) / attempted, "unit": unit}
    else:
        rows = grid_rows(wl.CONFIGS / f"{args.workload}.json")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "scenarios_per_s": {"value": scenarios / latency, "unit": "1/s"},
            "call_latency_s": {"value": latency, "unit": "s"},
            "rows_per_s": {"value": scenarios * rows / latency, "unit": "rows/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    print(
        f"{args.workload}: {len(calls)} calls in {sum(walls):.2f} s; wall per call: "
        f"median {statistics.median(walls):.4f} s, fastest {min(walls):.4f} s; "
        f"kernel median {statistics.median(kernels) * 1e3:.2f} ms; setup wall "
        f"{setup_wall_s:.4f} s; jobs {record['jobs']}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
