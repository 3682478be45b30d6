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
from dataclasses import dataclass, field
from itertools import groupby
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
    as_process_model,
    float_step,
    observe_points,
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
class InputProfile:
    """The four machine inputs as one piecewise constant signal: a table
    with one (t_m, e_f, u_t, phi) row per breakpoint.

    times must start at 0 and increase strictly; each row holds from its
    breakpoint until the next, and the final row beyond the last.
    """

    times: tuple[float, ...]
    values: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if not self.times or np.shape(self.values) != (len(self.times), 4):
            raise ValueError("a profile needs a time, and one row of four inputs per time")
        if self.times[0] != 0.0:
            raise ValueError("profiles must start at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("profile times must increase strictly")
        if not (np.isfinite(self.times).all() and np.isfinite(self.values).all()):
            raise ValueError("profile breakpoints must be finite")

    def as_array(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, np.asarray(times, dtype=float), side="right") - 1
        return np.asarray(self.values, dtype=float)[np.maximum(idx, 0)]


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
        if not self.t_on >= 0.0:
            raise InvalidWindow(f"fault onset must be nonnegative, got {self.t_on}")
        if not self.duration > 0.0:
            raise InvalidWindow(f"fault duration must be positive, got {self.duration}")
        if not (self.u_t_dip >= 0.0 and self.u_t_post >= 0.0):
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
            if not self.u_t_partial >= 0.0:
                raise InvalidWindow("fault voltages must be nonnegative")


def build_fault_profile(
    base: MachineInputs, fault: FaultSpec | None, t_end: float
) -> InputProfile:
    """Constant inputs with the terminal voltage dip spliced in: the base
    row, then one row per fault stage, which changes u_t alone.

    Raises:
        InvalidWindow: the fault does not fit inside [0, t_end].
    """
    stages = [(0.0, base.u_t)]
    if fault is not None:
        t_off = fault.t_on + fault.duration
        if fault.t_on <= 0.0 or t_off >= t_end:
            raise InvalidWindow(
                f"fault window [{fault.t_on}, {t_off}] must sit strictly inside (0, {t_end})"
            )
        stages.append((fault.t_on, fault.u_t_dip))
        if fault.duration_partial is not None:
            stages.append((fault.t_on + fault.duration_partial, fault.u_t_partial))
        stages.append((t_off, fault.u_t_post))
    return InputProfile(
        times=tuple(t for t, _ in stages),
        values=tuple((base.t_m, base.e_f, u_t, base.phi) for _, u_t in stages),
    )


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
        if not all(v > 0.0 for v in (*self.p0_diag, *self.q_diag)):
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
        if not self.t_end >= self.dt:
            raise ValueError("t_end must cover at least one step")
        _check_torque_mode(self.torque_mode)


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    """Grid 0, dt, ..., n*dt, where n*dt is the multiple of dt nearest
    t_end (t_end 20.009 at dt 0.02 ends at 20.0); timestamps are exact
    multiples of dt."""
    steps = int(round(cfg.t_end / cfg.dt))
    return np.arange(steps + 1) * cfg.dt


def equilibrium(cfg: ScenarioConfig) -> MachineState:
    """Pre-fault equilibrium of a scenario, shared by its truth and its
    filter prior.

    Raises:
        NoConvergence: no pre-fault equilibrium exists.
    """
    return steady_state_init(MachineInputs(*cfg.profile.values[0]), cfg.machine, cfg.torque_mode)


def simulate_truth(cfg: ScenarioConfig, x0: MachineState | None = None) -> np.ndarray:
    """Integrate the noise-free trajectory from x0.

    Returns a (steps + 1, 4) array, one state row per grid point, with
    inputs held constant over each step.  x0 is the start state, by
    default the pre-fault equilibrium.

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
    step = float_step(cfg.machine, cfg.dt, cfg.torque_mode)
    isfinite, pack = math.isfinite, struct.Struct("4d").pack
    out = np.empty((steps + 1, 4))
    x = (x0.delta, x0.delta_omega, x0.e_q_prime, x0.e_d_prime)
    out[0] = x
    flat = out.reshape(-1)
    # step k holds the inputs at t_k, which change only at the first grid
    # point at or after a profile breakpoint; a cut where no value changes
    # costs a restart of the cycle search, not a bit of the output
    cuts = sorted({c for c in np.searchsorted(times, cfg.profile.times[1:]).tolist() if c < steps})
    starts = [0, *cuts]
    segments = zip(starts, [*cuts, steps], cfg.profile.as_array(times[starts]).tolist())
    for a, e, (tm, ef, ut, phi) in segments:
        # Brent's cycle detection: the saved state moves to the newest one
        # when the steps since it was saved reach a power of two
        saved, t, power = x, a, 1
        k, cycle = a, 0
        # the float step takes a tuple state; states are stored a block of
        # rows at a time, since a list of every row of a long horizon would
        # take more memory than the array it fills
        while k < e and not cycle:
            first = k + 1
            block = []
            for k in range(first, min(first + TRUTH_BLOCK_ROWS, e + 1)):
                try:
                    x = step(*x, tm, ef, ut, phi)
                except _FLOAT_FAULTS as exc:
                    raise NonFiniteState(
                        f"truth integration failed at step {k}: {type(exc).__name__}: {exc}"
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
        per_step = {2: np.sqrt(power_variance_map(cfg.machine, cfg.sigmas)(truth, u_arr))}
    streams = [SeededStream(cfg.seed, (0, ch)) for ch in range(3)]
    corrupted = corrupt(clean, specs, streams, per_step)
    corrupted = inject_outliers(corrupted, cfg.outliers, cfg.dt)
    return clean, corrupted


def initial_filter_state(cfg: ScenarioConfig, series: np.ndarray) -> FilterState:
    """Batched prior of a stack of measurement series (cells, rows, 3),
    each built from its series' first row.

    Angle and speed come straight from the measurements; the EMFs take the
    pre-fault equilibrium values inflated by the configured relative bias,
    so the estimator never peeks at the truth.

    Returns:
        x_hat (cells, 4) and P (cells, 4, 4).

    Raises:
        NoConvergence: no pre-fault equilibrium exists.
    """
    first = np.asarray(series, dtype=float)[:, 0]
    x0 = equilibrium(cfg)
    bias = 1.0 + cfg.init.eprime_bias
    x_hat = np.empty((len(first), 4))
    x_hat[:, :2] = first[:, :2]
    x_hat[:, 1] -= 1.0
    x_hat[:, 2:] = (x0.e_q_prime * bias, x0.e_d_prime * bias)
    P = np.repeat(np.diag(cfg.init.p0_diag)[None], len(first), axis=0)
    return FilterState(x_hat=x_hat, P=P)


def batch_filters(cfg: ScenarioConfig, series: np.ndarray, variants: Sequence[str]):
    """Every requested variant on every measurement series of a stack
    (cells, rows, 3), as one batch; member c * len(variants) + v filters
    series c with variant v.  The filters get the channel variances of
    the measurement noise; the power channel's is re-evaluated each step
    at the predicted state, never at the truth.

    Returns:
        (prior, steps): the members' prior means (members, 4) and the
        filters.iter_batch iterator that advances them.
    """
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown filter variant {sorted(unknown)[0]!r}")
    times = time_grid(cfg)
    if series.ndim != 3 or series.shape[1] != len(times):
        raise ValueError(
            f"measurement stack has shape {series.shape}, expected (cells, {len(times)}, 3)"
        )
    model = as_process_model(cfg.machine, cfg.dt, cfg.torque_mode)
    u_arr = cfg.profile.as_array(times)
    sigmas = cfg.sigmas
    variance = power_variance_map(cfg.machine, sigmas)
    base_r = np.array([(sigmas.sigma_delta**2, sigmas.sigma_omega**2, 0.0)])

    def r_provider(predicted: FilterState, u_obs: np.ndarray) -> np.ndarray:
        r = base_r.repeat(len(predicted.x_hat), axis=0)
        r[:, 2] = variance(predicted.x_hat, u_obs)
        return r

    repeats = len(variants)
    prior = initial_filter_state(cfg, series)
    init = FilterState(
        x_hat=np.repeat(prior.x_hat, repeats, axis=0), P=np.repeat(prior.P, repeats, axis=0)
    )
    thresholds = np.tile([cfg.huber.c if v == RCKF else math.inf for v in variants], len(series))
    steps = iter_batch(
        model,
        init,
        u_arr,
        np.repeat(series[:, 1:].transpose(1, 0, 2), repeats, axis=1),
        np.diag(cfg.init.q_diag),
        r_provider,
        HuberConfig(thresholds, cfg.huber.max_reweight_passes),
    )
    return init.x_hat, steps


def filter_series(
    cfg: ScenarioConfig,
    corrupted: np.ndarray,
    variants: Sequence[str] = (CKF, RCKF),
):
    """Run filter variants over corrupted measurement series, as one batch.

    corrupted is a stack of series (cells, rows, 3) that share cfg's grid,
    inputs and filter tuning; a single series is a stack of one.  Every
    series gets every requested variant, and all of them advance in
    lockstep as one batch (batch_filters); each member's estimates are the
    bits it gets alone.  A member that diverges is dropped, and its
    message goes to its series' failures map.

    Returns:
        A list with one (estimates, failures) pair per series: estimates
        maps each variant that finished to its (rows, 4) array, in the
        order of variants; failures maps each variant that diverged to
        its message, in the order the members froze.
    """
    series = np.asarray(corrupted, dtype=float)
    prior, batch = batch_filters(cfg, series, variants)
    estimates = np.empty((len(prior), series.shape[1], 4))
    estimates[:, 0] = prior
    failed: dict[int, str] = {}
    stepped: list[tuple[np.ndarray, np.ndarray]] = []
    for members, state, frozen in batch:
        failed.update((member, str(exc)) for member, exc in frozen)
        stepped.append((members, state.x_hat))
    # iter_batch yields one members array until a member freezes, so the
    # steps are written one stretch of unchanged members at a time
    k = 0
    for _, stretch in groupby(stepped, key=lambda step: id(step[0])):
        members, posteriors = zip(*stretch)
        if members[0].size:
            estimates[members[0], k + 1 : k + 1 + len(posteriors)] = np.stack(posteriors, axis=1)
        k += len(posteriors)

    width = len(variants)
    return [
        (
            {
                variant: estimates[c * width + v]
                for v, variant in enumerate(variants)
                if c * width + v not in failed
            },
            {variants[m % width]: message for m, message in failed.items() if m // width == c},
        )
        for c in range(len(series))
    ]
