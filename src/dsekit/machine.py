"""Fourth-order two-axis synchronous generator model.

State vector: rotor angle delta (rad), speed deviation delta_omega (p.u.),
and the transient EMFs e_q_prime, e_d_prime (p.u.).  Inputs: mechanical
torque t_m, field voltage e_f, terminal voltage magnitude u_t, and terminal
voltage phase phi.  All reactances and time constants are per unit and
seconds on the machine base.

Each model formula is written once, generic in its math namespace.  Where
a map gets at most its crossover number of rows (RK4_FLOAT_ROWS,
FLOAT_ROWS), it runs the formula's float kernel: straight-line Python
traced from the formula once per process, which computes the bits of the
formula evaluated on floats with math.  Above the crossover the formula
runs elementwise on NumPy arrays, with the same bits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple

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

# Up to this many rows an array map evaluates its formula row by row with
# its traced float kernel, where numpy's cost per call would outweigh the
# work; from there on, elementwise on arrays.  Float time over array time
# on a 2-core x86 VM (median of 21 paired timings, range over six to nine
# such medians from two or three sessions): an RK4 step 0.83-1.01 at 40
# rows, 0.97-1.20 at 48 and 1.14-1.29 at 56; observe_points 0.92-1.00 at
# 24 rows and 1.11-1.30 at 32; the power variance, which shares
# FLOAT_ROWS, 0.68-0.92 at 24 and 0.91-1.07 at 32.  The filters map 8
# cubature points per member, so these batches come in multiples of 8
# rows, and R is evaluated at one row per member.
RK4_FLOAT_ROWS = 40
FLOAT_ROWS = 24


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

# The names a traced formula reads: the state and the inputs of one row.
_ROW_NAMES = ("d", "w", "eq", "ed", "tm", "ef", "ut", "phi")


def _binary(text: str):
    """The operator and its reflection that record text over both operands."""
    return (lambda a, b: _record(text, a, b)), (lambda a, b: _record(text, b, a))


class _Traced:
    """A float that records the operations computed from it.  _kernel runs
    a formula once on these to emit it as straight-line source: text is
    the operation as a format template over args (operands, each a
    _Traced or a float literal), or a name for the formula's arguments;
    static marks a value that depends on the constants alone.  tape holds
    every distinct operation of one trace, in the order it was first
    computed."""

    __slots__ = ("tape", "text", "args", "static")

    def __init__(self, tape: dict, text: str, args: tuple = (), static: bool = False):
        self.tape, self.text, self.args, self.static = tape, text, args, static

    __add__, __radd__ = _binary("({} + {})")
    __sub__, __rsub__ = _binary("({} - {})")
    __mul__, __rmul__ = _binary("({} * {})")
    __truediv__, __rtruediv__ = _binary("({} / {})")

    def __neg__(self):
        return _record("(-{})", self)

    def __bool__(self):
        raise TypeError("a traced formula cannot branch on a value it computes")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: self.__bool__()


def _operand(x):
    if isinstance(x, _Traced):
        return x
    if not math.isfinite(x):
        raise ValueError(f"a traced formula holds the non-finite literal {x!r}")
    return float(x)


def _record(text: str, *args) -> _Traced:
    """The node of an operation on args, recorded once per tape: the same
    operation on the same operands gives the same bits, so a repeat is the
    node already recorded."""
    args = tuple(map(_operand, args))
    tape = next(a.tape for a in args if isinstance(a, _Traced))
    key = (text, *(id(a) if isinstance(a, _Traced) else a.hex() for a in args))
    node = tape.get(key)
    if node is None:
        static = all(a.static for a in args if isinstance(a, _Traced))
        node = tape[key] = _Traced(tape, text, args, static)
    return node


# The math a formula is traced with; the emitted source calls the math
# module's functions under the same names.
_TRACE_MATH = SimpleNamespace(
    sin=partial(_record, "sin({})"),
    cos=partial(_record, "cos({})"),
    pow=partial(_record, "pow({}, {})"),
)
_KERNEL_GLOBALS = {
    "sin": math.sin, "cos": math.cos, "pow": math.pow, "nan": math.nan, "_FAULTS": _FLOAT_FAULTS
}


class _Kernel(NamedTuple):
    """A formula(d, w, eq, ed, tm, ef, ut, phi, constants, xp) of width
    outputs, with make(*constants) -> (rows, one), its float evaluation
    traced into straight-line Python: rows(points, inputs) gives the
    outputs of every row of points under the matching row of inputs as one
    flat list, NaNs for a row whose evaluation raises one of _FLOAT_FAULTS;
    one(d, w, eq, ed, tm, ef, ut, phi) gives the outputs of one row as a
    tuple, and raises what the formula raises."""

    formula: Callable
    make: Callable
    width: int


def _kernel(formula, n_constants: int) -> _Kernel:
    """Trace formula once on _Traced stand-ins and compile what it computes
    on floats into make.  Each distinct operation keeps its operands and
    their order, so the kernel computes the bits of the formula evaluated
    with math.  An operation on the constants alone is computed once in
    make; one used more than once becomes a local; the rest nest into the
    expression that uses them.

    Raises:
        TypeError: the formula branches on a value it computes.
        ValueError: the formula holds a non-finite literal.
    """
    tape: dict = {}
    inputs = [_Traced(tape, name) for name in _ROW_NAMES]
    constants = tuple(_Traced(tape, f"c{i}", static=True) for i in range(n_constants))
    outputs = tuple(map(_operand, formula(*inputs, constants, _TRACE_MATH)))

    # uses of each node by the outputs and by the nodes they depend on;
    # the tape records operands before the nodes that use them
    uses = Counter(id(x) for x in outputs if isinstance(x, _Traced))
    nodes = list(tape.values())
    for node in reversed(nodes):
        if uses[id(node)]:
            uses.update(id(a) for a in node.args if isinstance(a, _Traced))
    text = {id(leaf): leaf.text for leaf in (*inputs, *constants)}

    def source(x):
        return text[id(x)] if isinstance(x, _Traced) else repr(x)

    factory, body = [], []
    for node in nodes:
        if not uses[id(node)]:
            continue
        expr = node.text.format(*map(source, node.args))
        if node.static:
            text[id(node)] = f"s{len(factory)}"
            factory.append(f"{text[id(node)]} = {expr}")
        elif uses[id(node)] > 1:
            text[id(node)] = f"t{len(body)}"
            body.append(f"{text[id(node)]} = {expr}")
        else:
            text[id(node)] = expr
    result = "(" + "".join(f"{source(x)}, " for x in outputs) + ")"
    lines = [
        f"def make({', '.join(c.text for c in constants)}):",
        *(f"    {line}" for line in factory),
        f"    def one({', '.join(_ROW_NAMES)}):",
        *(f"        {line}" for line in body),
        f"        return {result}",
        "    def rows(points, inputs):",
        "        out = []",
        "        for ({}, {}, {}, {}), ({}, {}, {}, {}) in zip(points, inputs):".format(
            *_ROW_NAMES
        ),
        "            try:",
        *(f"                {line}" for line in body),
        f"                out += {result}",
        "            except _FAULTS:",
        f"                out += ({'nan, ' * len(outputs)})",
        "        return out",
        "    return rows, one",
    ]
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile("\n".join(lines), f"<traced {formula.__qualname__}>", "exec"), namespace)
    return _Kernel(formula, namespace["make"], len(outputs))


def _step_formula(divide_by_speed: bool):
    def step(d, w, eq, ed, tm, ef, ut, phi, c, xp):
        return _rk4(d, w, eq, ed, tm, ef, ut, phi, c[:-1], divide_by_speed, c[-1], xp)

    return step


def _measurement(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    return d, 1.0 + w, _air_gap(d - phi, eq, ed, ut, *c, xp)[2]


def _variance(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    return (_power_variance(d, eq, ed, ut, phi, *c, xp),)


# Traced once per process: the RK4 step under each torque mode (constants
# _params_tuple and dt), the measurement (x_d', x_q' and the saliency term)
# and the power variance (those three and the two sigmas).
_STEP_KERNELS = {
    mode: _kernel(_step_formula(mode == DIVIDE_BY_SPEED), 11) for mode in TORQUE_MODES
}
_MEASUREMENT_KERNEL = _kernel(_measurement, 3)
_VARIANCE_KERNEL = _kernel(_variance, 5)


def _rows_map(kernel: _Kernel, constants: tuple, float_rows: int = FLOAT_ROWS):
    """The kernel's formula as a map (x, u) -> (N, width) over the states
    in the rows of x (N, 4), under one input vector u or one per row.  A
    row whose evaluation overflows or divides by zero comes out not
    finite."""
    formula, width = kernel.formula, kernel.width
    rows = kernel.make(*constants)[0]

    def rows_map(x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[0] > float_rows:
            inputs = u.T if u.ndim == 2 else u.tolist()
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                columns = formula(*x.T, *inputs, constants, _ARRAY_MATH)
            out = np.empty((x.shape[0], width))
            for j, column in enumerate(columns):
                out[:, j] = column
            return out
        points = x.tolist()
        # one flat list of floats, which np.fromiter reads far faster than
        # np.array reads a list of tuples
        out = rows(points, u.tolist() if u.ndim == 2 else [u.tolist()] * len(points))
        return np.fromiter(out, dtype=float, count=len(out)).reshape(len(points), width)

    return rows_map


def float_step(params: MachineParams, dt: float, torque_mode: str = POWER_EQUALS_TORQUE):
    """One RK4 step of length dt on one state, as a function (d, w, eq, ed,
    t_m, e_f, u_t, phi) -> the next (d, w, eq, ed) on floats.  It raises
    what the float formula raises (_FLOAT_FAULTS) where the array maps give
    a non-finite row."""
    _check_torque_mode(torque_mode)
    return _STEP_KERNELS[torque_mode].make(*_params_tuple(params), dt)[1]


def observe_points(x: np.ndarray, u: np.ndarray, params: MachineParams) -> np.ndarray:
    """Noise-free measurement rows (delta, 1 + delta_omega, power) of the
    states in the rows of x, under one input vector u or one per row."""
    return _rows_map(_MEASUREMENT_KERNEL, _params_tuple(params)[:3])(x, u)


def power_variance_map(params: MachineParams, sigmas: MeasurementSigmas):
    """Variance of the power measurement channel as a map (x, u) -> (N,)
    over the states in the rows of x, under one input vector u or one per
    row, with the machine and the sigmas bound once.  It is propagated to
    first order from the terminal voltage magnitude and phase
    uncertainties; sigma_u scales with u_t."""
    constants = (*_params_tuple(params)[:3], sigmas.sigma_u, sigmas.sigma_phi)
    variance = _rows_map(_VARIANCE_KERNEL, constants)
    return lambda x, u: variance(x, u)[:, 0]


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
    constants = _params_tuple(params)
    return ProcessModel(
        n=4,
        m=3,
        transition_points=_rows_map(
            _STEP_KERNELS[torque_mode], (*constants, dt), RK4_FLOAT_ROWS
        ),
        observe_points=_rows_map(_MEASUREMENT_KERNEL, constants[:3]),
    )
