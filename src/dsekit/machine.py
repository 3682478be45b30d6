"""Fourth-order two-axis synchronous generator model.

State vector: rotor angle delta (rad), speed deviation delta_omega (p.u.),
and the transient EMFs e_q_prime, e_d_prime (p.u.).  Inputs: mechanical
torque t_m, field voltage e_f, terminal voltage magnitude u_t, and terminal
voltage phase phi.  All reactances and time constants are per unit and
seconds on the machine base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .filters import ProcessModel

POWER_EQUALS_TORQUE = "power_equals_torque"
DIVIDE_BY_SPEED = "divide_by_speed"
TORQUE_MODES = (POWER_EQUALS_TORQUE, DIVIDE_BY_SPEED)


def _check_torque_mode(torque_mode: str) -> None:
    if torque_mode not in TORQUE_MODES:
        raise ValueError(f"unknown torque mode {torque_mode!r}")


@dataclass(frozen=True)
class MachineParams:
    """Generator constants: reactances (p.u.), open-circuit time constants
    and inertia (s), damping (p.u. torque per p.u. speed), and synchronous
    electrical speed (rad/s)."""

    x_d: float
    x_d_prime: float
    x_q: float
    x_q_prime: float
    t_d0_prime: float
    t_q0_prime: float
    t_j: float
    damping: float
    omega_0: float = 120.0 * math.pi

    def __post_init__(self):
        if not (self.x_d > self.x_d_prime > 0.0):
            raise ValueError("require x_d > x_d_prime > 0")
        if not (self.x_q > self.x_q_prime > 0.0):
            raise ValueError("require x_q > x_q_prime > 0")
        for name in ("t_d0_prime", "t_q0_prime", "t_j", "omega_0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"require {name} > 0")
        if not self.damping >= 0.0:
            raise ValueError("require damping >= 0")


@dataclass(frozen=True)
class MachineState:
    delta: float
    delta_omega: float
    e_q_prime: float
    e_d_prime: float


@dataclass(frozen=True)
class MachineInputs:
    t_m: float
    e_f: float
    u_t: float
    phi: float

    def __post_init__(self):
        if not self.u_t >= 0.0:
            raise ValueError(f"terminal voltage magnitude must be >= 0, got {self.u_t}")
        if not all(map(math.isfinite, (self.t_m, self.e_f, self.u_t, self.phi))):
            raise ValueError(f"machine inputs must be finite, got {self}")


@dataclass(frozen=True)
class MeasurementSigmas:
    """Measurement noise magnitudes: angle stds in radians, speed std in
    p.u., and the terminal voltage std relative to its magnitude."""

    sigma_delta: float = math.radians(2.0)
    sigma_omega: float = 0.001
    sigma_u: float = 0.001
    sigma_phi: float = math.radians(0.1)

    def __post_init__(self):
        if not (self.sigma_delta > 0.0 and self.sigma_omega > 0.0):
            raise ValueError("sigma_delta and sigma_omega must be positive")
        if not (self.sigma_u >= 0.0 and self.sigma_phi >= 0.0):
            raise ValueError("sigma_u and sigma_phi must be nonnegative")


def _params_tuple(p: MachineParams) -> tuple:
    """The constants the formulas read, with their constant subexpressions
    (the saliency term 1 / x_q' - 1 / x_d' and the reactance drops
    x_d - x_d', x_q - x_q') evaluated once, from the same operands with the
    same operations as the formulas would, so they give the same bits."""
    return (
        p.x_d_prime,
        p.x_q_prime,
        1.0 / p.x_q_prime - 1.0 / p.x_d_prime,
        p.x_d - p.x_d_prime,
        p.x_q - p.x_q_prime,
        p.t_d0_prime,
        p.t_q0_prime,
        p.t_j,
        p.damping,
        p.omega_0,
    )


# The model formulas below are written once and evaluated either on floats
# with the math module or elementwise on arrays with _ARRAY_MATH, in the
# same operation order, so both give the same bits.  np.float_power is the
# C pow that a float's ** calls; x ** 2 on an array squares instead, which
# differs in the last bit for about one value in a thousand.
_ARRAY_MATH = SimpleNamespace(sin=np.sin, cos=np.cos, pow=np.float_power)

# Up to this many rows an array map evaluates its formula row by row on
# floats, where numpy's cost per call would outweigh the work; from there
# on, elementwise on arrays.  Float time over array time on a 2-core x86 VM
# (median of 21 paired timings, range over three such medians): an RK4 step
# 0.74-0.83 at 24 rows, 0.94-1.10 at 32 and 1.17-1.27 at 40;
# observe_points 0.92-1.00 at 16 rows and 1.28-1.37 at 24; the power
# variance, which shares FLOAT_ROWS, 0.78 at 16 and 1.08-1.13 at 24.  The
# filters map 8 cubature points per member, so these batches come in
# multiples of 8 rows, and R is evaluated at one row per member.
RK4_FLOAT_ROWS = 24
FLOAT_ROWS = 16


def _air_gap(th, eq, ed, ut, xdp, xqp, k, xp):
    """(u_t cos th, u_t sin th, electrical power) at angle difference th,
    with k the saliency term 1 / x_q' - 1 / x_d' of _params_tuple.

    The power is the closed-form three-term expression; it equals
    u_d * i_d + u_q * i_q with u_d = u_t sin th and u_q = u_t cos th.
    """
    ut_cos = ut * xp.cos(th)
    ut_sin = ut * xp.sin(th)
    p_e = 0.5 * ut * ut * xp.sin(2.0 * th) * k + ut_sin * eq / xdp - ut_cos * ed / xqp
    return ut_cos, ut_sin, p_e


def _derivative(d, w, eq, ed, tm, ef, ut, phi, pt, divide_by_speed, xp):
    xdp, xqp, k, xd_drop, xq_drop, td0, tq0, tj, damp, w0 = pt
    ut_cos, ut_sin, p_e = _air_gap(d - phi, eq, ed, ut, xdp, xqp, k, xp)
    i_d = (eq - ut_cos) / xdp
    i_q = (ut_sin - ed) / xqp
    t_e = p_e / (1.0 + w) if divide_by_speed else p_e
    return (
        w0 * w,
        (tm - t_e - damp * w) / tj,
        (ef - eq - xd_drop * i_d) / td0,
        (-ed + xq_drop * i_q) / tq0,
    )


def _rk4(d, w, eq, ed, tm, ef, ut, phi, pt, divide, dt, xp):
    a0, a1, a2, a3 = _derivative(d, w, eq, ed, tm, ef, ut, phi, pt, divide, xp)
    h = 0.5 * dt
    b0, b1, b2, b3 = _derivative(
        d + h * a0, w + h * a1, eq + h * a2, ed + h * a3, tm, ef, ut, phi, pt, divide, xp
    )
    c0, c1, c2, c3 = _derivative(
        d + h * b0, w + h * b1, eq + h * b2, ed + h * b3, tm, ef, ut, phi, pt, divide, xp
    )
    e0, e1, e2, e3 = _derivative(
        d + dt * c0, w + dt * c1, eq + dt * c2, ed + dt * c3, tm, ef, ut, phi, pt, divide, xp
    )
    sixth = dt / 6.0
    return (
        d + sixth * (a0 + 2.0 * (b0 + c0) + e0),
        w + sixth * (a1 + 2.0 * (b1 + c1) + e1),
        eq + sixth * (a2 + 2.0 * (b2 + c2) + e2),
        ed + sixth * (a3 + 2.0 * (b3 + c3) + e3),
    )


def _power_variance(d, eq, ed, ut, phi, xdp, xqp, k, sigma_u, sigma_phi, xp):
    # the partials of the power in u_t and in phi
    th = d - phi
    s = xp.sin(th)
    c = xp.cos(th)
    s2 = xp.sin(2.0 * th)
    c2 = xp.cos(2.0 * th)
    d_ut = ut * s2 * k + s * eq / xdp - c * ed / xqp
    d_phi = -ut * ut * c2 * k - ut * c * eq / xdp - ut * s * ed / xqp
    return xp.pow(d_ut * sigma_u * ut, 2.0) + xp.pow(d_phi * sigma_phi, 2.0)


# What a float evaluation of the formulas raises where the elementwise one
# gives a non-finite value instead: an overflowing power, a math domain
# error such as the sine of an infinity, and a division by zero (the
# divide_by_speed torque at a speed deviation of exactly -1).
_FLOAT_FAULTS = (ArithmeticError, ValueError)


def _rows_map(formula, x, u, width: int, float_rows: int = FLOAT_ROWS) -> np.ndarray:
    """formula(d, w, eq, ed, t_m, e_f, u_t, phi, xp), a tuple of width
    outputs, over the states in the rows of x (N, 4) under one input
    vector u or one per row, as an (N, width) array.  A row whose
    evaluation overflows or divides by zero comes out not finite."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[0] > float_rows:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            columns = formula(*x.T, *(u.T if u.ndim == 2 else u.tolist()), _ARRAY_MATH)
        out = np.empty((x.shape[0], width))
        for j, column in enumerate(columns):
            out[:, j] = column
        return out
    rows = x.tolist()
    inputs = u.tolist() if u.ndim == 2 else [u.tolist()] * len(rows)
    # one flat list of floats, which np.fromiter reads far faster than
    # np.array reads a list of tuples
    out = []
    for row, row_inputs in zip(rows, inputs):
        try:
            out.extend(formula(*row, *row_inputs, math))
        except _FLOAT_FAULTS:
            out.extend((math.nan,) * width)
    return np.fromiter(out, dtype=float, count=len(out)).reshape(len(rows), width)


def _measurement(params: MachineParams):
    xdp, xqp, k = _params_tuple(params)[:3]

    def formula(d, w, eq, ed, tm, ef, ut, phi, xp):
        return d, 1.0 + w, _air_gap(d - phi, eq, ed, ut, xdp, xqp, k, xp)[2]

    return formula


def observe_points(x: np.ndarray, u: np.ndarray, params: MachineParams) -> np.ndarray:
    """Noise-free measurement rows (delta, 1 + delta_omega, power) of the
    states in the rows of x, under one input vector u or one per row."""
    return _rows_map(_measurement(params), x, u, 3)


def power_variance_map(params: MachineParams, sigmas: MeasurementSigmas):
    """Variance of the power measurement channel as a map (x, u) -> (N,)
    over the states in the rows of x, under one input vector u or one per
    row, with the machine and the sigmas bound once.  It is propagated to
    first order from the terminal voltage magnitude and phase
    uncertainties; sigma_u scales with u_t."""
    xdp, xqp, k = _params_tuple(params)[:3]
    sigma_u, sigma_phi = sigmas.sigma_u, sigmas.sigma_phi

    def formula(d, w, eq, ed, tm, ef, ut, phi, xp):
        return (_power_variance(d, eq, ed, ut, phi, xdp, xqp, k, sigma_u, sigma_phi, xp),)

    return lambda x, u: _rows_map(formula, x, u, 1)[:, 0]


def as_process_model(
    params: MachineParams, dt: float, torque_mode: str = POWER_EQUALS_TORQUE
) -> ProcessModel:
    """Wrap the generator as a discrete-time model for the filters.

    transition_points advances each row of an (N, 4) array of states by one
    RK4 step of length dt with the input vector (t_m, e_f, u_t, phi) held
    over the step; observe_points maps each row to the triple (delta,
    1 + delta_omega, electrical power).  Every row gets the same bits at
    any N.  Neither map raises: a row it cannot evaluate comes out not
    finite, as the ProcessModel contract asks.
    """
    _check_torque_mode(torque_mode)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    pt = _params_tuple(params)
    divide = torque_mode == DIVIDE_BY_SPEED
    measurement = _measurement(params)

    def step(d, w, eq, ed, tm, ef, ut, phi, xp):
        return _rk4(d, w, eq, ed, tm, ef, ut, phi, pt, divide, dt, xp)

    return ProcessModel(
        n=4,
        m=3,
        transition_points=lambda points, u: _rows_map(step, points, u, 4, RK4_FLOAT_ROWS),
        observe_points=lambda points, u: _rows_map(measurement, points, u, 3),
    )
