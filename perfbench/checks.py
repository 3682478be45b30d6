"""Output checks of the three workloads.

Each check returns a list of problems, empty when the outputs are right.
The program's outputs are compared against the independent reference
(reference.py) or against properties the method must have.  Where a check
needs the measurements or truth of a run the workload does not write, it
asks the program for them with `dsekit simulate` on the same configuration
and seed, and checks that truth against the reference as well.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# Tolerances.  The reference shares no code with the program, so sums run
# in another order; the filters stay within 1e-11 of each other on every
# seed tried, and a changed formula moves them by far more.
TRUTH_ATOL = 1e-9
ESTIMATE_RTOL = ESTIMATE_ATOL = 1e-8
INDICATOR_RTOL = 1e-9

# A second reference run, from a prior shifted by PERTURB, marks the
# estimates that are too sensitive to compare.  A Cauchy spike can throw the
# classical filter far off (speed deviation estimates of several p.u.),
# where its estimates turn chaotic: rounding differences of 1e-13 grow to
# whole radians within twenty steps, and no other implementation can
# reproduce them.  Estimates are compared up to the first such step, and
# indicators only where the two reference runs agree.
PERTURB = 1e-14  # about the rounding error of the prior
CONDITION_ATOL = CONDITION_RTOL = 1e-10

# Matrix property: the robust variant beats the classical one on the
# measured variables in at least this share of heavy-tailed comparisons.
HEAVY_TAILED_PRESETS = (3, 4)
MIN_HEAVY_TAILED_WIN_SHARE = 0.75

# The matrix's window outlier placement, and the preset-3 noise the long
# simulation carries: Laplace with the biases of the biased presets,
# 20 degrees and 1 percent.
WINDOW = (2.0, 3.0)
PRESET3_BIAS = {"delta": math.radians(20.0), "omega": 0.01}
LAPLACE_KURTOSIS = 6.0
GAUSS_KURTOSIS = 3.0
BAND_SE = 6.0  # sampling band half-width, in standard errors


def load_series(path: Path) -> np.ndarray:
    """Numeric CSV with a header row, as an array without its time column."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def read_metrics(path: Path) -> dict:
    out = {"epsilon1": {}, "epsilon2": {}}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key in out:
                if row[key]:
                    out[key][row["variable"]] = float(row[key])
    return out


def compare_indicators(got: dict, want: dict, what: str, perturbed: dict | None = None) -> list[str]:
    """Indicators against the reference's; with perturbed, the reference
    indicators of the perturbed run, entries the two runs disagree on are
    skipped."""
    problems = []
    for key in ("epsilon1", "epsilon2"):
        if set(got[key]) != set(want[key]):
            problems.append(f"{what}: {key} covers {sorted(got[key])}, expected {sorted(want[key])}")
            continue
        for var, value in want[key].items():
            if perturbed is not None and not math.isclose(
                perturbed[key][var], value, rel_tol=CONDITION_RTOL
            ):
                continue
            if not math.isclose(got[key][var], value, rel_tol=INDICATOR_RTOL):
                problems.append(f"{what}: {key}[{var}] = {got[key][var]!r}, reference {value!r}")
    return problems


def compare_truth(truth_csv: Path, setup: ref.Setup, what: str) -> tuple[np.ndarray, list[str]]:
    want = ref.truth(setup)
    got = load_series(truth_csv)
    if got.shape != want.shape:
        return want, [f"{what}: truth has shape {got.shape}, reference {want.shape}"]
    err = float(np.abs(got - want).max())
    return want, ([] if err <= TRUTH_ATOL else [f"{what}: truth differs from reference by {err:.3e}"])


def simulate(cli, config: Path, seed: int, out_dir: Path) -> list[str]:
    code = cli.main(["simulate", "--config", str(config), "--seed", str(seed),
                     "--out-dir", str(out_dir), "--quiet"])
    return [] if code == 0 else [f"dsekit simulate for the check exited {code}"]


def reference_runs(cli, config: Path, seed: int, work: Path):
    """The truth and measurements of a configuration and seed, from
    `dsekit simulate`, with the truth checked against the reference, and
    the reference filters run on those measurements as given and from a
    perturbed prior.  Returns (truth, measurements, filters, perturbed,
    problems); all but problems are None when the simulation failed."""
    problems = simulate(cli, config, seed, work)
    if problems:
        return None, None, None, None, problems
    setup = ref.load_setup(config)
    truth, problems = compare_truth(work / "truth.csv", setup, "truth")
    meas = load_series(work / "measurements.csv")
    return truth, meas, ref.run_filters(setup, meas), ref.run_filters(setup, meas, PERTURB), problems


def well_conditioned_steps(want: np.ndarray, perturbed: np.ndarray) -> int:
    """Rows before the first where the perturbed reference run departs."""
    departs = np.abs(want - perturbed) > CONDITION_ATOL + CONDITION_RTOL * np.abs(want)
    bad = np.flatnonzero(departs.any(axis=1))
    return int(bad[0]) if bad.size else want.shape[0]


def check_estimate(cli, config: Path, seed: int, out: Path, work: Path) -> list[str]:
    truth, meas, want, perturbed, problems = reference_runs(cli, config, seed, work)
    if truth is None:
        return problems
    eps1_omega = {}
    for variant in ("ckf", "rckf"):
        got = load_series(out / f"estimates_{variant}.csv")
        if got.shape != want[variant].shape:
            problems.append(f"{variant} estimates have shape {got.shape}, reference {want[variant].shape}")
            continue
        n = well_conditioned_steps(want[variant], perturbed[variant])
        if not np.allclose(got[:n], want[variant][:n], rtol=ESTIMATE_RTOL, atol=ESTIMATE_ATOL):
            err = float(np.abs(got[:n] - want[variant][:n]).max())
            problems.append(
                f"{variant} estimates differ from the reference filter by {err:.3e} "
                f"within the first {n} steps"
            )
        # the written metrics against the indicators of the written estimates
        indicators = ref.indicators(got, truth, meas)
        problems += compare_indicators(
            read_metrics(out / f"metrics_{variant}.csv"), indicators, f"metrics_{variant}.csv"
        )
        eps1_omega[variant] = indicators["epsilon1"]["omega"]
    if len(eps1_omega) == 2 and not eps1_omega["rckf"] < eps1_omega["ckf"]:
        problems.append("RCKF epsilon1 on omega is not below the CKF's")
    return problems


def read_matrix(path: Path) -> dict:
    """(noise, manner, seed) -> {(filter, variable): (epsilon1, epsilon2)}."""
    cells: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["noise"]), row["manner"], int(row["seed"]))
            eps1 = float(row["epsilon1"]) if row["epsilon1"] else None
            cells.setdefault(key, {})[(row["filter"], row["variable"])] = (eps1, float(row["epsilon2"]))
    return cells


def matrix_cells_failed(path: Path, seed: int, runs: int) -> int:
    """Cells of one experiment call without both variants' four rows."""
    cells = read_matrix(path) if path.exists() else {}
    expected = [(p, m, s) for p in (1, 2, 3, 4) for m in ("single", "window")
                for s in range(seed, seed + runs)]
    return sum(len(cells.get(key, {})) != 8 for key in expected)


def check_matrix(cli, config: Path, seed: int, out: Path, work: Path) -> list[str]:
    cells = read_matrix(out / "matrix.csv")
    problems = []
    wins = total = 0
    for (noise, _, _), rows in cells.items():
        if noise not in HEAVY_TAILED_PRESETS:
            continue
        for var in ("delta", "omega"):
            if ("rckf", var) in rows and ("ckf", var) in rows:
                total += 1
                wins += rows[("rckf", var)][0] < rows[("ckf", var)][0]
    if total == 0 or wins < MIN_HEAVY_TAILED_WIN_SHARE * total:
        problems.append(f"RCKF beats the CKF in {wins} of {total} heavy-tailed comparisons")

    # one heavy-tailed cell against the reference: Cauchy noise, window outlier
    doc = json.loads(config.read_text())
    doc["noise"] = {"preset": 4}
    doc["outliers"] = {"manner": "window", "t_start": WINDOW[0], "t_end": WINDOW[1]}
    cell_config = work / "cell.json"
    work.mkdir(parents=True, exist_ok=True)
    cell_config.write_text(json.dumps(doc))
    # the matrix writes no estimates, so the reference filters the cell's
    # measurements and its indicators are compared with the matrix rows
    truth, meas, want, perturbed, failed = reference_runs(cli, cell_config, seed, work)
    problems += failed
    if truth is None:
        return problems
    rows = cells.get((4, "window", seed), {})
    for variant, est in want.items():
        expect = ref.indicators(est, truth, meas)
        expect_perturbed = ref.indicators(perturbed[variant], truth, meas)
        got = {"epsilon1": {}, "epsilon2": {}}
        for (filt, var), (e1, e2) in rows.items():
            if filt == variant:
                if e1 is not None:
                    got["epsilon1"][var] = e1
                got["epsilon2"][var] = e2
        problems += compare_indicators(
            got, expect, f"matrix cell noise4/window/seed{seed}/{variant}", expect_perturbed
        )
    return problems


def band(values: np.ndarray, mean: float, sigma: float, kurtosis: float, what: str) -> list[str]:
    """Sample mean and std within BAND_SE standard errors of the law's."""
    n = values.size
    problems = []
    m = float(values.mean())
    s = float(values.std())
    se_mean = sigma / math.sqrt(n)
    se_std = sigma * math.sqrt((kurtosis - 1.0) / (4.0 * n))
    if abs(m - mean) > BAND_SE * se_mean:
        problems.append(f"{what}: residual mean {m:.6g}, expected {mean:.6g} +/- {BAND_SE * se_mean:.2g}")
    if abs(s - sigma) > BAND_SE * se_std:
        problems.append(f"{what}: residual std {s:.6g}, expected {sigma:.6g} +/- {BAND_SE * se_std:.2g}")
    return problems


def check_simulate_long(config: Path, out: Path) -> list[str]:
    setup = ref.load_setup(config)
    truth, problems = compare_truth(out / "truth.csv", setup, "truth")
    meas = load_series(out / "measurements.csv")
    if meas.shape != (truth.shape[0], 3):
        return problems + [f"measurements have shape {meas.shape}"]
    outliers = json.loads(config.read_text())["outliers"]
    t = np.arange(truth.shape[0]) * setup.dt
    half = 0.5 * setup.dt
    hit = (t >= outliers["t_start"] - half) & (t <= outliers["t_end"] + half)
    clean = np.array([
        ref.observe(setup.machine, x, ref.inputs_at(setup, k)) for k, x in enumerate(truth)
    ])
    resid = meas - clean
    problems += band(resid[:, 0], PRESET3_BIAS["delta"], setup.sig_delta, LAPLACE_KURTOSIS, "angle")
    problems += band(resid[~hit, 1], PRESET3_BIAS["omega"], setup.sig_omega, LAPLACE_KURTOSIS, "speed")
    sig_pe = np.sqrt([
        ref.measurement_covariance(setup, x, ref.inputs_at(setup, k))[2, 2]
        for k, x in enumerate(truth)
    ])
    problems += band(resid[:, 2] / sig_pe, 0.0, 1.0, GAUSS_KURTOSIS, "standardized power")
    # the window multiplies the speed channel, noise included
    scale = outliers["scale"]
    expect = float(np.mean((scale - 1.0) * clean[hit, 1])) + scale * PRESET3_BIAS["omega"]
    se = scale * setup.sig_omega / math.sqrt(int(hit.sum()))
    got = float(resid[hit, 1].mean())
    if abs(got - expect) > BAND_SE * se:
        problems.append(f"speed outlier window: residual mean {got:.6g}, expected {expect:.6g}")
    return problems
