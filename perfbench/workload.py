"""One benchmark workload, run in a process of its own.

The dsekit command line is driven in-process, one call after another (a
closed loop with one client), for at least the given number of seconds
and always in whole calls.  Each call's wall time is taken around
cli.main alone, and the host speed kernel (hostspeed.py) is timed between
calls; output digests are taken after the clock stops.  The process
writes its record as JSON and, when traced, its spans.

Usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S
           --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import Kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"

# Seeds per matrix cell: 4 noise presets x 2 outlier manners x MATRIX_RUNS
# cells per experiment call.  The timed calls use one job: on a 2-CPU
# machine the host speed kernel, timed in one process, does not follow the
# speed of two busy workers (README, "Why --jobs 1 and an 8 s horizon").
MATRIX_RUNS = 1
MATRIX_CELLS = 4 * 2 * MATRIX_RUNS

# Kernel runs timed per timing, after one untimed run: about 4-5% of a
# call's time on either side of it.
KERNEL_REPEATS = {"matrix": 5, "estimate": 1, "simulate_long": 3}

OUTPUTS = {
    "matrix": ("matrix.csv", "summary.csv"),
    "estimate": ("estimates_ckf.csv", "estimates_rckf.csv", "metrics_ckf.csv", "metrics_rckf.csv"),
    "simulate_long": ("truth.csv", "measurements.csv"),
}


def argv_for(workload: str, seed: int, out_dir: Path, jobs: int) -> list[str]:
    common = ["--seed", str(seed), "--out-dir", str(out_dir), "--quiet"]
    if workload == "matrix":
        return ["experiment", "--config", str(CONFIGS / "matrix.json"),
                "--runs", str(MATRIX_RUNS), "--jobs", str(jobs)] + common
    if workload == "estimate":
        return ["estimate", "--config", str(CONFIGS / "estimate.json")] + common
    return ["simulate", "--config", str(CONFIGS / "simulate_long.json")] + common


def digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from dsekit import cli

    tracer = None
    if trace:
        from layertrace import Tracer, install

        tracer = Tracer()
        install(tracer)
    jobs = 1
    call_dir = out / "call"
    argv = argv_for(workload, seed, call_dir, jobs)
    kernel = Kernel(KERNEL_REPEATS[workload])
    calls = []
    began = perf_counter()
    kernel_before = kernel()
    while not calls or perf_counter() - began < seconds:
        error = None
        started = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash of the program is a failed call, not a benchmark error
            code = None
            error = traceback.format_exc()
        wall = perf_counter() - started
        kernel_after = kernel()
        if error:
            print(error, file=sys.stderr)
        calls.append({
            "wall_s": wall,
            "kernel_s": 0.5 * (kernel_before + kernel_after),
            "exit": code,
            "digest": digest(call_dir, OUTPUTS[workload]),
        })
        kernel_before = kernel_after
    record = {"workload": workload, "seed": seed, "trace": trace, "jobs": jobs,
              "argv": argv, "calls": calls}
    if tracer is not None:
        tracer.uninstall()
        record["self_s"] = tracer.self_times_per_root()
        record["counts"] = dict(tracer.counts)
        tracer.write(out / "spans.npz")
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(OUTPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    (args.out / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
