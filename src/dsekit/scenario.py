"""Fault scenarios: input profiles, equilibrium initialization, truth
simulation, measurement synthesis, and paired filter runs.

A scenario lives on the uniform grid t_j = j * dt.  The truth trajectory
starts from the pre-fault equilibrium and integrates through a terminal
voltage dip; measurements are synthesized from the truth, corrupted with
the configured noise, and optionally hit with outliers before both filter
variants consume them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from itertools import groupby
from time import perf_counter_ns
from typing import Sequence

import numpy as np

from .errors import InvalidWindow, NoConvergence, NonFiniteState
from .filters import CKF, RCKF, VARIANTS, FilterState, HuberConfig, iter_batch
from .machine import (
    DIVIDE_BY_SPEED,
    POWER_EQUALS_TORQUE,
    MachineInputs,
    MachineParams,
    MachineState,
    MeasurementSigmas,
    _FLOAT_FAULTS,
    _air_gap,
    _check_torque_mode,
    _derivative,
    _params_tuple,
    _rk4,
    as_process_model,
    observe_points,
    power_variance,
    power_variance_map,
)
from .noise import (
    GAUSSIAN_WHITE,
    NoiseSpec,
    OutlierSpec,
    SeededStream,
    corrupt,
    inject_outliers,
)

# Rows of truth states stored at a time by simulate_truth.
TRUTH_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Schedule:
    """Piecewise constant scalar signal over time.

    times must start at 0 and increase strictly; each value holds from its
    breakpoint until the next, and the final value beyond the last.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equal-length and nonempty")
        if self.times[0] != 0.0:
            raise ValueError("schedules must start at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("schedule times must increase strictly")
        if not all(map(math.isfinite, self.times + self.values)):
            raise ValueError("schedule breakpoints must be finite")

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls(times=(0.0,), values=(value,))

    def as_array(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, np.asarray(times, dtype=float), side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]


@dataclass(frozen=True)
class InputProfile:
    """The four machine inputs as schedules sharing one clock."""

    t_m: Schedule
    e_f: Schedule
    u_t: Schedule
    phi: Schedule

    @classmethod
    def constant(cls, inputs: MachineInputs) -> "InputProfile":
        return cls(
            t_m=Schedule.constant(inputs.t_m),
            e_f=Schedule.constant(inputs.e_f),
            u_t=Schedule.constant(inputs.u_t),
            phi=Schedule.constant(inputs.phi),
        )

    def as_array(self, times: np.ndarray) -> np.ndarray:
        return np.column_stack(
            (
                self.t_m.as_array(times),
                self.e_f.as_array(times),
                self.u_t.as_array(times),
                self.phi.as_array(times),
            )
        )


@dataclass(frozen=True)
class FaultSpec:
    """Terminal voltage dip: drop to u_t_dip at t_on, recover to u_t_post
    after the given duration.

    A staged clearing is expressed with duration_partial and u_t_partial:
    the voltage sits at u_t_dip until t_on + duration_partial, at
    u_t_partial until t_on + duration, then at u_t_post.
    """

    t_on: float
    duration: float
    u_t_dip: float
    u_t_post: float
    duration_partial: float | None = None
    u_t_partial: float | None = None

    def __post_init__(self):
        if self.t_on < 0.0:
            raise InvalidWindow(f"fault onset must be nonnegative, got {self.t_on}")
        if self.duration <= 0.0:
            raise InvalidWindow(f"fault duration must be positive, got {self.duration}")
        if self.u_t_dip < 0.0 or self.u_t_post < 0.0:
            raise InvalidWindow("fault voltages must be nonnegative")
        if (self.duration_partial is None) != (self.u_t_partial is None):
            raise InvalidWindow(
                "duration_partial and u_t_partial must be given together"
            )
        if self.duration_partial is not None:
            if not 0.0 < self.duration_partial < self.duration:
                raise InvalidWindow(
                    f"duration_partial must fall inside (0, {self.duration}), "
                    f"got {self.duration_partial}"
                )
            if self.u_t_partial < 0.0:
                raise InvalidWindow("fault voltages must be nonnegative")


def build_fault_profile(
    base: MachineInputs, fault: FaultSpec | None, t_end: float
) -> InputProfile:
    """Constant inputs with the terminal voltage dip spliced in.

    Raises:
        InvalidWindow: the fault does not fit inside [0, t_end].
    """
    profile = InputProfile.constant(base)
    if fault is None:
        return profile
    t_off = fault.t_on + fault.duration
    if fault.t_on <= 0.0 or t_off >= t_end:
        raise InvalidWindow(
            f"fault window [{fault.t_on}, {t_off}] must sit strictly inside (0, {t_end})"
        )
    times = [0.0, fault.t_on]
    values = [base.u_t, fault.u_t_dip]
    if fault.duration_partial is not None:
        times.append(fault.t_on + fault.duration_partial)
        values.append(fault.u_t_partial)
    times.append(t_off)
    values.append(fault.u_t_post)
    u_t = Schedule(times=tuple(times), values=tuple(values))
    return replace(profile, u_t=u_t)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f between xa and xb by Brent's method (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4).

    A line-for-line port of SciPy's scipy/optimize/Zeros/brentq.c that
    keeps its operations and their order, so that it returns the root
    scipy.optimize.brentq returns, to the last bit.

    Raises:
        ValueError: f(xa) and f(xb) have the same sign.
        NoConvergence: no root within maxiter iterations.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoConvergence(f"Brent's method did not converge within {maxiter} iterations")


def steady_state_init(
    inputs: MachineInputs,
    params: MachineParams,
    torque_mode: str = POWER_EQUALS_TORQUE,
    tol: float = 1e-10,
) -> MachineState:
    """Equilibrium state for constant inputs, at synchronous speed.

    With delta_omega = 0 and both EMF rates zero, the EMFs are explicit in
    the angle difference theta = delta - phi, which reduces the problem to
    the scalar power balance p(theta) = t_m on the ascending branch
    through theta = 0.  The bracket is found by walking the branch, the
    root is polished by Brent's method, and the full derivative vector is
    checked against tol.

    Raises:
        NoConvergence: t_m exceeds the pull-out power of the branch, the
            root solve does not converge, or the residual check fails.
    """
    _check_torque_mode(torque_mode)
    pt = _params_tuple(params)
    xdp, xqp, k, xd_drop, xq_drop = pt[:5]
    divide = torque_mode == DIVIDE_BY_SPEED
    xd, xq = params.x_d, params.x_q
    ut, ef, tm, phi = inputs.u_t, inputs.e_f, inputs.t_m, inputs.phi

    def emfs(theta: float) -> tuple[float, float]:
        # zero EMF rates solved for e_q_prime, e_d_prime at fixed theta
        eq = (xdp * ef + xd_drop * ut * math.cos(theta)) / xd
        ed = xq_drop * ut * math.sin(theta) / xq
        return eq, ed

    def power(theta: float) -> float:
        return _air_gap(theta, *emfs(theta), ut, xdp, xqp, k, math)[2]

    def state_at(theta: float) -> MachineState:
        eq, ed = emfs(theta)
        return MachineState(delta=theta + phi, delta_omega=0.0, e_q_prime=eq, e_d_prime=ed)

    def check(state: MachineState) -> MachineState:
        rates = _derivative(
            state.delta, state.delta_omega, state.e_q_prime, state.e_d_prime,
            tm, ef, ut, phi, pt, divide, math,
        )
        residual = float(np.abs(rates).max())
        if residual > tol:
            raise NoConvergence(
                f"equilibrium residual {residual:.3e} exceeds tolerance {tol:.1e}"
            )
        return state

    if tm == 0.0:
        return check(state_at(0.0))

    # walk the ascending branch away from zero until the power balance
    # brackets the target or the branch turns over
    h = 0.01 if tm > 0.0 else -0.01
    theta_prev, p_prev = 0.0, 0.0
    for _ in range(400):
        theta = theta_prev + h
        p = power(theta)
        if (p - tm) * (p_prev - tm) <= 0.0:
            lo, hi = sorted((theta_prev, theta))
            root = _brentq(lambda th: power(th) - tm, lo, hi, xtol=1e-15, rtol=8.9e-16)
            return check(state_at(root))
        if (p - p_prev) * h <= 0.0:
            break
        theta_prev, p_prev = theta, p
    raise NoConvergence(
        f"mechanical torque {tm} exceeds the pull-out power "
        f"{p_prev:.6f} of the stable branch"
    )


@dataclass(frozen=True)
class InitSpec:
    """Filter initialization: prior covariance diagonal, process noise
    diagonal, and the relative bias applied to the equilibrium EMFs when
    forming the initial estimate."""

    p0_diag: tuple[float, float, float, float] = (1e-2, 1e-4, 1e-2, 1e-2)
    q_diag: tuple[float, float, float, float] = (1e-6, 1e-6, 1e-6, 1e-6)
    eprime_bias: float = 0.1

    def __post_init__(self):
        if any(v <= 0.0 for v in self.p0_diag) or any(v <= 0.0 for v in self.q_diag):
            raise ValueError("p0_diag and q_diag entries must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one reproducible run needs."""

    machine: MachineParams
    profile: InputProfile
    dt: float
    t_end: float
    seed: int
    noise: tuple[NoiseSpec, NoiseSpec, NoiseSpec | None]
    outliers: OutlierSpec = field(default_factory=OutlierSpec.none)
    sigmas: MeasurementSigmas = field(default_factory=MeasurementSigmas)
    init: InitSpec = field(default_factory=InitSpec)
    huber: HuberConfig = field(default_factory=HuberConfig)
    torque_mode: str = POWER_EQUALS_TORQUE

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        _check_torque_mode(self.torque_mode)


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    """Grid 0, dt, ..., n*dt covering t_end; timestamps are exact
    multiples of dt."""
    steps = int(round(cfg.t_end / cfg.dt))
    return np.arange(steps + 1) * cfg.dt


def equilibrium(cfg: ScenarioConfig) -> MachineState:
    """Pre-fault equilibrium of a scenario, shared by its truth and its
    filter prior.

    Raises:
        NoConvergence: no pre-fault equilibrium exists.
    """
    inputs = MachineInputs.from_array(cfg.profile.as_array(np.zeros(1))[0])
    return steady_state_init(inputs, cfg.machine, cfg.torque_mode)


def simulate_truth(cfg: ScenarioConfig, x0: MachineState | None = None) -> np.ndarray:
    """Integrate the noise-free trajectory from the pre-fault equilibrium.

    Returns a (steps + 1, 4) array, one state row per grid point, with
    inputs held constant over each step.  x0, when given, is the
    equilibrium already solved for cfg.

    Under constant inputs a step is a function of the state's bits alone,
    so once the state repeats exactly, every later row repeats a row
    already computed.  The integration stops there and copies the cycle
    to the next input change: the cost follows the transient, not the
    horizon, and the output bits are those of stepping every row.

    Raises:
        NoConvergence: no pre-fault equilibrium exists.
        NonFiniteState: the integration blew up; the message carries the
            failing step.
    """
    times = time_grid(cfg)
    steps = len(times) - 1
    if x0 is None:
        x0 = equilibrium(cfg)
    pt = _params_tuple(cfg.machine)
    divide, dt = cfg.torque_mode == DIVIDE_BY_SPEED, cfg.dt
    isfinite, pack = math.isfinite, struct.Struct("4d").pack
    out = np.empty((steps + 1, 4))
    x = (x0.delta, x0.delta_omega, x0.e_q_prime, x0.e_d_prime)
    out[0] = x
    flat = out.reshape(-1)
    # step k holds the inputs at t_k, which change only at the first grid
    # point at or after a schedule breakpoint; a cut where no value changes
    # costs a restart of the cycle search, not a bit of the output
    profile = cfg.profile
    schedules = (profile.t_m, profile.e_f, profile.u_t, profile.phi)
    breakpoints = [t for schedule in schedules for t in schedule.times[1:]]
    cuts = sorted({c for c in np.searchsorted(times, breakpoints).tolist() if c < steps})
    for a, e in zip([0, *cuts], [*cuts, steps]):
        tm, ef, ut, phi = profile.as_array(times[a : a + 1])[0].tolist()
        # Brent's cycle detection: the saved state moves to the newest one
        # when the steps since it was saved reach a power of two
        saved, t, power = x, a, 1
        k, cycle = a, 0
        # the float RK4 steps a tuple state; states are stored a block of
        # rows at a time, since a list of every row of a long horizon would
        # take more memory than the array it fills
        while k < e and not cycle:
            first = k + 1
            block = []
            for k in range(first, min(first + TRUTH_BLOCK_ROWS, e + 1)):
                try:
                    x = _rk4(*x, tm, ef, ut, phi, pt, divide, dt, math)
                except _FLOAT_FAULTS as exc:
                    raise NonFiniteState(
                        f"truth integration failed at step {k}: integration step overflowed: {exc}"
                    ) from exc
                if not (isfinite(x[0]) and isfinite(x[1]) and isfinite(x[2]) and isfinite(x[3])):
                    raise NonFiniteState(f"truth integration failed at step {k}")
                block.extend(x)
                # == is the cheap filter; it holds for -0.0 against 0.0
                if x == saved and pack(*x) == pack(*saved):
                    cycle = k - t
                    break
                if k - t == power:
                    saved, t, power = x, k, 2 * power
            flat[4 * first : 4 * (k + 1)] = block
        if cycle:
            # rows from k - cycle on repeat with period cycle, and out[r:s]
            # always holds whole periods, so each copy doubles it
            r, s = k + 1 - cycle, k + 1
            while s <= e:
                m = min(s - r, e + 1 - s)
                out[s : s + m] = out[r : r + m]
                s += m
            x = tuple(out[e].tolist())
    return out


def synthesize_measurements(
    truth: np.ndarray, cfg: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Clean and corrupted measurement series for a truth trajectory.

    The clean series applies the measurement map to every row.  Channel
    noise follows cfg.noise; a None spec on the power channel means
    Gaussian noise whose per-step std comes from the measurement
    covariance evaluated on the truth.  Outliers are injected last.

    Returns:
        (clean, corrupted), both (steps + 1, 3).
    """
    u_arr = cfg.profile.as_array(time_grid(cfg))
    clean = observe_points(truth, u_arr, cfg.machine)
    specs = list(cfg.noise)
    per_step = None
    if specs[2] is None:
        specs[2] = NoiseSpec(kind=GAUSSIAN_WHITE, sigma=0.0)
        per_step = {2: np.sqrt(power_variance(truth, u_arr, cfg.machine, cfg.sigmas))}
    streams = [SeededStream(cfg.seed, (0, ch)) for ch in range(3)]
    corrupted = corrupt(clean, specs, streams, per_step)
    corrupted = inject_outliers(corrupted, cfg.outliers, cfg.dt)
    return clean, corrupted


def initial_filter_state(
    cfg: ScenarioConfig, corrupted: np.ndarray, x0: MachineState | None = None
) -> FilterState:
    """Prior built from the first corrupted measurement row.

    Angle and speed come straight from the measurements; the EMFs take the
    pre-fault equilibrium values (x0 when given) inflated by the
    configured relative bias, so the estimator never peeks at the truth.
    """
    if x0 is None:
        x0 = equilibrium(cfg)
    bias = 1.0 + cfg.init.eprime_bias
    x_hat = np.array(
        (
            corrupted[0, 0],
            corrupted[0, 1] - 1.0,
            x0.e_q_prime * bias,
            x0.e_d_prime * bias,
        )
    )
    return FilterState(x_hat=x_hat, P=np.diag(cfg.init.p0_diag), step_index=0)


@dataclass(frozen=True)
class RunRecord:
    """Everything produced by one scenario run.

    estimates maps variant name to a (steps + 1, 4) array whose first row
    is the filter prior; step_times_ns maps variant name to per-step wall
    times; failures maps variant name to the error message when a variant
    diverged (such variants are absent from estimates).
    """

    times: np.ndarray
    truth: np.ndarray
    clean: np.ndarray
    corrupted: np.ndarray
    estimates: dict[str, np.ndarray]
    step_times_ns: dict[str, np.ndarray]
    failures: dict[str, str]


def batch_filters(
    cfg: ScenarioConfig,
    series: np.ndarray,
    variants: Sequence[str],
    x0: MachineState,
):
    """Every requested variant on every measurement series of a stack
    (cells, rows, 3), as one batch; member c * len(variants) + v filters
    series c with variant v.  The measurement covariance fed to the
    filters is re-evaluated each step at the predicted state, never at the
    truth.

    Returns:
        (prior, steps): the members' prior means (members, 4) and the
        filters.iter_batch iterator that advances them.
    """
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown filter variant {sorted(unknown)[0]!r}")
    times = time_grid(cfg)
    if series.shape[1] != len(times):
        raise ValueError(
            f"measurement series has {series.shape[1]} rows, grid has {len(times)}"
        )
    model = as_process_model(cfg.machine, cfg.dt, cfg.torque_mode)
    u_arr = cfg.profile.as_array(times)
    sigmas = cfg.sigmas
    variance = power_variance_map(cfg.machine, sigmas)
    # one base R per live member, rebuilt only when a member freezes
    base_R = np.diag((sigmas.sigma_delta**2, sigmas.sigma_omega**2, 0.0))[None]

    def r_provider(step: int, predicted: FilterState, u_obs: np.ndarray) -> np.ndarray:
        nonlocal base_R
        if len(base_R) != len(predicted.x_hat):
            base_R = base_R[:1].repeat(len(predicted.x_hat), axis=0)
        R = base_R.copy()
        R[:, 2, 2] = variance(predicted.x_hat, u_obs)
        return R

    repeats = len(variants)
    prior = np.repeat([initial_filter_state(cfg, s, x0).x_hat for s in series], repeats, axis=0)
    init = FilterState(
        x_hat=prior, P=np.repeat(np.diag(cfg.init.p0_diag)[None], len(prior), axis=0)
    )
    thresholds = np.tile([cfg.huber.c if v == RCKF else math.inf for v in variants], len(series))
    steps = iter_batch(
        model,
        init,
        u_arr[:-1],
        np.repeat(series[:, 1:].transpose(1, 0, 2), repeats, axis=1),
        np.diag(cfg.init.q_diag),
        r_provider,
        HuberConfig(thresholds, cfg.huber.max_reweight_passes),
        observe_inputs=u_arr[1:],
    )
    return prior, steps


def filter_series(
    cfg: ScenarioConfig,
    corrupted: np.ndarray,
    variants: Sequence[str] = (CKF, RCKF),
    strict: bool = False,
    x0: MachineState | None = None,
):
    """Run filter variants over corrupted measurement series, as one batch.

    corrupted is one series (rows, 3) or a stack of series (cells, rows,
    3) that share cfg's grid, inputs and filter tuning.  Every series gets
    every requested variant, and all of them advance in lockstep as one
    batch (batch_filters); each member's estimates are the bits it gets
    alone.  A member that diverges is recorded in its failures map and
    dropped, or re-raised when strict is set.  A member's step time is the
    batch's step wall time divided by the members live at that step.  x0
    is the equilibrium already solved for cfg, if any.

    Returns:
        (estimates, step_times_ns, failures), each keyed by variant name,
        for one series; a list of such triples, one per series, for a
        stack.
    """
    corrupted = np.asarray(corrupted, dtype=float)
    stacked = corrupted.ndim == 3
    series = corrupted if stacked else corrupted[None]
    if x0 is None:
        x0 = equilibrium(cfg)
    prior, batch = batch_filters(cfg, series, variants, x0)
    cells, steps = series.shape[0], series.shape[1] - 1
    estimates = np.empty((len(prior), steps + 1, 4))
    estimates[:, 0] = prior
    step_ns = np.zeros((len(prior), steps))
    failed: dict[int, Exception] = {}
    stepped: list[tuple[np.ndarray, np.ndarray, int]] = []
    started = perf_counter_ns()
    for members, state, frozen in batch:
        elapsed = perf_counter_ns() - started
        for member, exc in frozen:
            if strict:
                raise exc
            failed[member] = exc
        stepped.append((members, state.x_hat, elapsed))
        started = perf_counter_ns()
    # iter_batch yields one members array until a member freezes, so the
    # steps are written one stretch of unchanged members at a time
    k = 0
    for _, stretch in groupby(stepped, key=lambda step: id(step[0])):
        members, posteriors, elapsed = zip(*stretch)
        members = members[0]
        if members.size:
            estimates[members, k + 1 : k + 1 + len(posteriors)] = np.stack(posteriors, axis=1)
            step_ns[members, k : k + len(elapsed)] = np.array(elapsed) / members.size
        k += len(posteriors)

    results = []
    for c in range(cells):
        out: tuple[dict, dict, dict] = ({}, {}, {})
        for v, variant in enumerate(variants):
            member = c * len(variants) + v
            if member in failed:
                out[2][variant] = str(failed[member])
            else:
                out[0][variant] = estimates[member]
                out[1][variant] = step_ns[member]
        results.append(out)
    return results if stacked else results[0]


def run_scenario(
    cfg: ScenarioConfig, variants: Sequence[str] = (CKF, RCKF), strict: bool = False
) -> RunRecord:
    """Simulate, synthesize, and run the requested filter variants.

    Both variants consume the identical corrupted series.  A variant that
    diverges is reported in RunRecord.failures instead of aborting the
    run, unless strict is set.
    """
    times = time_grid(cfg)
    x0 = equilibrium(cfg)
    truth = simulate_truth(cfg, x0)
    clean, corrupted = synthesize_measurements(truth, cfg)
    estimates, step_times, failures = filter_series(cfg, corrupted, variants, strict, x0)
    return RunRecord(
        times=times,
        truth=truth,
        clean=clean,
        corrupted=corrupted,
        estimates=estimates,
        step_times_ns=step_times,
        failures=failures,
    )
