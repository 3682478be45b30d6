"""Fourth-order two-axis synchronous generator model.

State vector: rotor angle delta (rad), speed deviation delta_omega (p.u.),
and the transient EMFs e_q_prime, e_d_prime (p.u.).  Inputs: mechanical
torque t_m, field voltage e_f, terminal voltage magnitude u_t, and terminal
voltage phase phi.  All reactances and time constants are per unit and
seconds on the machine base.

Each model formula is written once, generic in its math namespace, and
traced into two kernels of straight-line code, which compute the bits of
the formula evaluated on floats with math: the float kernel at import
(the RK4 step's on its first use), the array kernel on its first use.
Where a map gets at most FLOAT_ROWS = 24 rows, it runs the float kernel,
Python on the floats of one row at a time; above that, the array kernel,
one NumPy call per operation on all rows, with RK4's stage sums on the
(4, N) stacked state.
"""

from __future__ import annotations

import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
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


# The model formulas below are written once, generic in their math
# namespace xp: evaluated on floats with the math module, and traced by
# _kernel into the float and array kernels that the maps run.

# Up to this many rows an array map evaluates its formula row by row with
# its traced float kernel, where numpy's cost per call would outweigh the
# work; from there on, with its traced array kernel.  Float time over array
# time on a 2-core x86 VM (median of 21 paired timings, range over six to
# eight such medians from two separate runs): an RK4 step 0.50-0.73 at 16 rows,
# 0.76-1.07 at 24 and 1.07-1.40 at 32 (divide_by_speed 0.55-0.58 at 16,
# 0.83-0.98 at 24 and 1.09-1.27 at 32); observe_points 0.72-0.77 at 16,
# 1.02-1.09 at 24 and 1.28-1.40 at 32; the power variance, which shares
# FLOAT_ROWS, 0.67-0.71 at 16, 0.94-0.99 at 24 and 1.12-1.27 at 32.  The
# filters map 8 cubature points per member, so these batches come in
# multiples of 8 rows, and R is evaluated at one row per member.
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


class _Vec(tuple):
    """A small vector whose sums and scalings run per component, in
    component order and with the scalar on the left: on floats it gives
    the bits of the same formula written per component, and traced it
    records each component's operation.  A traced operation whose every
    component is a new node is also recorded whole, on the tape's vectors,
    and the array kernel runs it as one call on a (len, N) array."""

    def _map(self, op, other) -> _Vec:
        others = other if isinstance(other, _Vec) else (other,) * len(self)
        tape = next((a.tape for a in (*self, *others) if isinstance(a, _Traced)), None)
        known = len(tape) if tape is not None else 0
        out = _Vec(map(op, self, others))
        if tape is not None and len(tape) == known + len(out):
            tape.vectors.append(out)
        return out

    def __add__(self, other):
        return self._map(operator.add, other)

    def __rmul__(self, scalar):
        return self._map(lambda a, s: s * a, scalar)


def _rk4(d, w, eq, ed, tm, ef, ut, phi, pt, divide, dt, xp):
    def rates(x):
        return _Vec(_derivative(*x, tm, ef, ut, phi, pt, divide, xp))

    x = _Vec((d, w, eq, ed))
    a = rates(x)
    h = 0.5 * dt
    b = rates(x + h * a)
    c = rates(x + h * b)
    e = rates(x + dt * c)
    sixth = dt / 6.0
    return x + sixth * (a + 2.0 * (b + c) + e)


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


# What a float evaluation of the formulas raises where the array kernels
# give a non-finite value instead: an overflowing power, a math domain
# error such as the sine of an infinity, and a division by zero (the
# divide_by_speed torque at a speed deviation of exactly -1).
_FLOAT_FAULTS = (ArithmeticError, ValueError)

# The names a traced formula reads: the state and the inputs of one row.
_ROW_NAMES = ("d", "w", "eq", "ed", "tm", "ef", "ut", "phi")


def _binary(text: str):
    """The operator and its reflection that record text over both operands;
    a _Vec operand is left to _Vec's operators."""

    def op(a, b):
        return NotImplemented if isinstance(b, _Vec) else _record(text, a, b)

    return op, (lambda a, b: _record(text, b, a))


class _Tape(dict):
    """Every distinct operation of one trace by its key, in the order it
    was first computed, and vectors: the _Vec operations recorded whole."""

    def __init__(self):
        super().__init__()
        self.vectors = []


class _Traced:
    """A float that records the operations computed from it.  _kernel runs
    a formula once on these to emit it as straight-line source: text is
    the operation as a format template over args (operands, each a
    _Traced or a float literal), or a name for the formula's arguments;
    level is what the value depends on: 0 the constants alone, 1 the
    inputs too, 2 the state."""

    __slots__ = ("tape", "text", "args", "level")

    def __init__(self, tape: _Tape, text: str, args: tuple = (), level: int = 0):
        self.tape, self.text, self.args, self.level = tape, text, args, level

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


def _identity(x):
    return id(x) if isinstance(x, _Traced) else x.hex()


def _record(text: str, *args) -> _Traced:
    """The node of an operation on args, recorded once per tape: the same
    operation on the same operands gives the same bits, so a repeat is the
    node already recorded."""
    args = tuple(map(_operand, args))
    tape = next(a.tape for a in args if isinstance(a, _Traced))
    key = (text, *map(_identity, args))
    node = tape.get(key)
    if node is None:
        level = max(a.level for a in args if isinstance(a, _Traced))
        node = tape[key] = _Traced(tape, text, args, level)
    return node


# The math a formula is traced with; the float kernels call the math
# module's functions under the same names.
_TRACE_MATH = SimpleNamespace(
    sin=partial(_record, "sin({})"),
    cos=partial(_record, "cos({})"),
    pow=partial(_record, "pow({}, {})"),
)
_KERNEL_GLOBALS = {
    "sin": math.sin, "cos": math.cos, "pow": math.pow, "nan": math.nan, "_FAULTS": _FLOAT_FAULTS,
    "pack": struct.Struct("4d").pack,
}


class _Kernel(NamedTuple):
    """A formula(d, w, eq, ed, tm, ef, ut, phi, constants, xp) of width
    outputs traced into straight-line code.  make(*constants) -> (rows,
    steps) is its float evaluation: rows(points, inputs) gives the outputs
    of every row of points under the matching row of inputs as one flat
    list, NaNs for a row whose evaluation raises one of _FLOAT_FAULTS;
    steps is a step kernel's segment loop (segment_steps), else None.
    array(*constants) -> run is its NumPy evaluation with the same bits:
    run(x, u) gives the (N, width) outputs of the states in the rows of x
    (N, 4) under one input vector u or one row of u per state; a row that
    overflows or divides by zero comes out not finite, with NumPy's
    warning unless np.errstate ignores it."""

    formula: Callable
    make: Callable
    array: Callable
    width: int


def _trace(formula, n_constants: int) -> tuple:
    """The tape of formula run on _Traced stand-ins, its leaves (state,
    inputs, constants) and its outputs.

    Raises:
        TypeError: the formula branches on a value it computes.
        ValueError: the formula holds a non-finite literal.
    """
    tape = _Tape()
    state = [_Traced(tape, name, level=2) for name in _ROW_NAMES[:4]]
    inputs = [_Traced(tape, name, level=1) for name in _ROW_NAMES[4:]]
    constants = tuple(_Traced(tape, f"c{i}") for i in range(n_constants))
    outputs = tuple(map(_operand, formula(*state, *inputs, constants, _TRACE_MATH)))
    return tape, (*state, *inputs, *constants), outputs


def _kernel(formula, n_constants: int, steps: bool = False) -> _Kernel:
    """Trace formula and compile what it computes into its float and array
    kernels, the float one with a segment loop if steps.  Each distinct
    operation keeps its operands and their order, so both compute the bits
    of the formula evaluated with math.  The array kernel is traced again
    and compiled on its first use, which only maps of more rows than their
    crossover make, so that no tape is kept.

    Raises:
        TypeError: the formula branches on a value it computes.
        ValueError: the formula holds a non-finite literal.
    """

    def compiled(lines, kind, namespace):
        namespace = dict(namespace)
        code = compile("\n".join(lines), f"<traced {kind}{formula.__qualname__}>", "exec")
        exec(code, namespace)
        return namespace["make"]

    @cache
    def array():
        # imported here, so that importing the package does not compile it
        from .arraykernel import NAMESPACE, array_source

        return compiled(array_source(*_trace(formula, n_constants)), "array ", NAMESPACE)

    tape, leaves, outputs = _trace(formula, n_constants)
    return _Kernel(
        formula,
        compiled(_float_source(tape, leaves, outputs, steps), "", _KERNEL_GLOBALS),
        lambda *constants: array()(*constants),
        len(outputs),
    )


def _float_source(tape: _Tape, leaves: tuple, outputs: tuple, steps: bool) -> list:
    """The float kernel's make: an operation on the constants alone is
    computed once in make; one used more than once becomes a local, once
    per segment loop (segment_steps) if on the inputs alone; the rest nest
    into the expression that uses them."""
    # uses of each node by the outputs and by the nodes they depend on;
    # the tape records operands before the nodes that use them
    uses = Counter(id(x) for x in outputs if isinstance(x, _Traced))
    nodes = list(tape.values())
    for node in reversed(nodes):
        if uses[id(node)]:
            uses.update(id(a) for a in node.args if isinstance(a, _Traced))
    text = {id(leaf): leaf.text for leaf in leaves}

    def source(x):
        return text[id(x)] if isinstance(x, _Traced) else repr(x)

    factory, body, state = [], [], []
    for node in nodes:
        if not uses[id(node)]:
            continue
        expr = node.text.format(*map(source, node.args))
        if node.level == 0:
            text[id(node)] = f"s{len(factory)}"
            factory.append(f"{text[id(node)]} = {expr}")
        elif uses[id(node)] > 1:
            text[id(node)] = f"t{len(body)}"
            body.append(f"{text[id(node)]} = {expr}")
            state.append(node.level == 2)
        else:
            text[id(node)] = expr
    result = "(" + "".join(f"{source(x)}, " for x in outputs) + ")"
    row = ", ".join(_ROW_NAMES)
    loop = [
        f"    def steps({row}, k, e, size):",
        *(f"        {line}" for line, on in zip(body, state) if not on),
        "        x = saved = (d, w, eq, ed)",
        "        t, power, out = k, 1, []",
        "        try:",
        "            while k < e:",
        "                out = []",
        "                for k in range(k + 1, min(k + size, e) + 1):",
        *(f"                    {line}" for line, on in zip(body, state) if on),
        f"                    x = d, w, eq, ed = {result}",
        "                    out += x",
        "                    if x == saved and pack(*x) == pack(*saved):",
        "                        yield out, k - t",
        "                        return",
        "                    if k - t == power:",
        "                        saved, t, power = x, k, 2 * power",
        "                yield out, 0",
        "        except _FAULTS:",
        "            yield out, 0",
        "            raise",
    ]
    return [
        f"def make({', '.join(c.text for c in leaves[8:])}):",
        *(f"    {line}" for line in factory),
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
        *(loop if steps else ["    steps = None"]),
        "    return rows, steps",
    ]


def _step_formula(divide_by_speed: bool):
    def step(d, w, eq, ed, tm, ef, ut, phi, c, xp):
        return _rk4(d, w, eq, ed, tm, ef, ut, phi, c[:-1], divide_by_speed, c[-1], xp)

    return step


def _measurement(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    return d, 1.0 + w, _air_gap(d - phi, eq, ed, ut, *c, xp)[2]


def _variance(d, w, eq, ed, tm, ef, ut, phi, c, xp):
    return (_power_variance(d, eq, ed, ut, phi, *c, xp),)


# Traced once per process: the RK4 step under each torque mode (constants
# _params_tuple and dt) on its first use, the measurement (x_d', x_q' and
# the saliency term) and the power variance (those three and the two
# sigmas) at import.
_step_kernel = cache(lambda mode: _kernel(_step_formula(mode == DIVIDE_BY_SPEED), 11, steps=True))
_MEASUREMENT_KERNEL = _kernel(_measurement, 3)
_VARIANCE_KERNEL = _kernel(_variance, 5)


def _rows_map(kernel: _Kernel, constants: tuple):
    """The kernel's formula as a map (x, u) -> (N, width) over the states
    in the rows of x (N, 4), under one input vector u or one per row.  A
    row whose evaluation overflows or divides by zero comes out not
    finite."""
    rows, width = kernel.make(*constants)[0], kernel.width
    run = None

    def rows_map(x, u) -> np.ndarray:
        nonlocal run
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[0] > FLOAT_ROWS:
            run = run or kernel.array(*constants)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return run(x, u)
        points = x.tolist()
        # one flat list of floats, which np.fromiter reads far faster than
        # np.array reads a list of tuples
        out = rows(points, u.tolist() if u.ndim == 2 else [u.tolist()] * len(points))
        return np.fromiter(out, dtype=float, count=len(out)).reshape(len(points), width)

    return rows_map


def segment_steps(params: MachineParams, dt: float, torque_mode: str = POWER_EQUALS_TORQUE):
    """RK4 steps of length dt on floats, as a generated loop steps(d, w, eq,
    ed, t_m, e_f, u_t, phi, k, e, size) from row k's state to row e under
    one input row.  It yields (rows, period): at most size new rows as one
    flat list, and 0, or on the last list the period once a state repeats
    (Brent's cycle detection: the saved state moves when the steps since it
    was saved reach a power of two; a repeat is == and the same bits).  It
    tests no row for finiteness; a step that raises (_FLOAT_FAULTS) first
    yields the rows made since the last list."""
    _check_torque_mode(torque_mode)
    return _step_kernel(torque_mode).make(*_params_tuple(params), dt)[1]


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
        transition_points=_rows_map(_step_kernel(torque_mode), (*constants, dt)),
        observe_points=_rows_map(_MEASUREMENT_KERNEL, constants[:3]),
    )
