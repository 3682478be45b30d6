"""Independent reference for the benchmark's output checks.

Written from the package's documentation (README, PAPER.md) and imports
nothing from dsekit.  It holds the fourth-order generator model with the
inputs held constant over each grid step, the equilibrium it starts from,
the classical cubature Kalman filter and its Huber-reweighted variant with
the measurement covariance evaluated at the predicted state, and the two
indicators.  The code favours the textbook form over speed: states are
plain vectors, covariances go through np.linalg, and the power
sensitivities behind the measurement covariance come from complex-step
differentiation rather than closed-form partials.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import fsolve


@dataclass(frozen=True)
class Machine:
    x_d: float
    x_dp: float
    x_q: float
    x_qp: float
    t_d0p: float
    t_q0p: float
    t_j: float
    damping: float
    omega_0: float


@dataclass(frozen=True)
class Setup:
    """One scenario as the configuration document describes it."""

    machine: Machine
    dt: float
    steps: int
    base: tuple[float, float, float, float]  # t_m, e_f, u_t, phi
    fault: tuple[float, float, float, float] | None  # t_on, t_off, u_dip, u_post
    sig_delta: float
    sig_omega: float
    sig_u: float
    sig_phi: float
    huber_c: float
    passes: int
    divide_by_speed: bool
    p0: tuple[float, ...]
    q: tuple[float, ...]
    eprime_bias: float


def load_setup(path, t_end: float | None = None) -> Setup:
    """Read a dsekit configuration document.  Only the sections the model
    and the filters need are read; noise and outliers are not modelled."""
    with open(path) as fh:
        doc = json.load(fh)
    m = doc["machine"]
    sc = doc["scenario"]
    flt = doc.get("filter", {})
    ini = doc.get("init", {})
    sig = sc.get("sigmas", {})
    dt = float(sc["dt"])
    horizon = float(sc["t_end"] if t_end is None else t_end)
    b = sc["base_inputs"]
    fault = None
    if sc.get("fault"):
        f = sc["fault"]
        fault = (f["t_on"], f["t_on"] + f["duration"], f["u_t_dip"], f["u_t_post"])
    return Setup(
        machine=Machine(
            m["x_d"], m["x_d_prime"], m["x_q"], m["x_q_prime"],
            m["t_d0_prime"], m["t_q0_prime"], m["t_j"], m["damping"],
            2.0 * math.pi * m.get("f_hz", 60.0),
        ),
        dt=dt,
        steps=int(round(horizon / dt)),
        base=(b["t_m"], b["e_f"], b["u_t"], b["phi"]),
        fault=fault,
        sig_delta=math.radians(sig.get("delta_deg", 2.0)),
        sig_omega=sig.get("omega_pu", 0.001),
        sig_u=sig.get("u_rel", 0.001),
        sig_phi=math.radians(sig.get("phi_deg", 0.1)),
        huber_c=flt.get("huber_c", 1.5),
        passes=flt.get("reweight_passes", 1),
        divide_by_speed=flt.get("torque_mode") == "divide_by_speed",
        p0=tuple(ini.get("p0_diag", (1e-2, 1e-4, 1e-2, 1e-2))),
        q=tuple(ini.get("q_diag", (1e-6,) * 4)),
        eprime_bias=ini.get("eprime_bias", 0.1),
    )


# ---------------------------------------------------------------- model


def inputs_at(setup: Setup, k: int) -> tuple[float, float, float, float]:
    """Inputs held over grid step k: the fault breakpoints switch the
    terminal voltage at the first grid time at or after them."""
    t_m, e_f, u_t, phi = setup.base
    if setup.fault is not None:
        t = k * setup.dt
        t_on, t_off, u_dip, u_post = setup.fault
        if t >= t_off:
            u_t = u_post
        elif t >= t_on:
            u_t = u_dip
    return t_m, e_f, u_t, phi


def electrical_power(mc: Machine, delta, eqp, edp, u_t, phi):
    """Terminal power u_d i_d + u_q i_q in the rotor frame.  Works on
    complex arguments too, for complex-step differentiation."""
    trig = cmath if isinstance(u_t, complex) or isinstance(phi, complex) else math
    u_d = u_t * trig.sin(delta - phi)
    u_q = u_t * trig.cos(delta - phi)
    i_d = (eqp - u_q) / mc.x_dp
    i_q = (u_d - edp) / mc.x_qp
    return u_d * i_d + u_q * i_q


def derivative(mc: Machine, x, u, divide_by_speed=False):
    """Right-hand side of the swing and transient EMF equations."""
    delta, dw, eqp, edp = x
    t_m, e_f, u_t, phi = u
    u_d = u_t * math.sin(delta - phi)
    u_q = u_t * math.cos(delta - phi)
    i_d = (eqp - u_q) / mc.x_dp
    i_q = (u_d - edp) / mc.x_qp
    p_e = u_d * i_d + u_q * i_q
    t_e = p_e / (1.0 + dw) if divide_by_speed else p_e
    return [
        mc.omega_0 * dw,
        (t_m - t_e - mc.damping * dw) / mc.t_j,
        (e_f - eqp - (mc.x_d - mc.x_dp) * i_d) / mc.t_d0p,
        (-edp + (mc.x_q - mc.x_qp) * i_q) / mc.t_q0p,
    ]


def rk4(mc: Machine, x, u, dt, divide_by_speed=False):
    """Classical Runge-Kutta step with the inputs held over the step."""
    k1 = derivative(mc, x, u, divide_by_speed)
    k2 = derivative(mc, [a + 0.5 * dt * b for a, b in zip(x, k1)], u, divide_by_speed)
    k3 = derivative(mc, [a + 0.5 * dt * b for a, b in zip(x, k2)], u, divide_by_speed)
    k4 = derivative(mc, [a + dt * b for a, b in zip(x, k3)], u, divide_by_speed)
    return [
        a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
    ]


def equilibrium(setup: Setup) -> list[float]:
    """Pre-fault operating point at synchronous speed, solved as a root of
    the full right-hand side from a flat start."""
    mc = setup.machine
    u = inputs_at(setup, 0)

    def residual(v):
        delta, eqp, edp = v
        d = derivative(mc, (delta, 0.0, eqp, edp), u, setup.divide_by_speed)
        return [d[1] * mc.t_j, d[2] * mc.t_d0p, d[3] * mc.t_q0p]

    root = fsolve(residual, [0.5, 1.0, 0.0], xtol=1e-13)
    worst = max(abs(r) for r in residual(root))
    if worst > 1e-12:
        raise RuntimeError(f"equilibrium not found: residual {worst:.3e}")
    delta, eqp, edp = root
    return [float(delta), 0.0, float(eqp), float(edp)]


def truth(setup: Setup) -> np.ndarray:
    """(steps + 1, 4) trajectory from the equilibrium on the grid."""
    mc = setup.machine
    x = equilibrium(setup)
    out = [x]
    for k in range(setup.steps):
        x = rk4(mc, x, inputs_at(setup, k), setup.dt, setup.divide_by_speed)
        out.append(x)
    return np.array(out)


def observe(mc: Machine, x, u):
    """Measurement triple: angle, speed 1 + delta_omega, electrical power."""
    return [x[0], 1.0 + x[1], electrical_power(mc, x[0], x[2], x[3], u[2], u[3])]


def measurement_covariance(setup: Setup, x, u) -> np.ndarray:
    """Diagonal R: fixed angle and speed variances; the power variance
    propagated to first order from the terminal voltage magnitude (std
    sig_u * u_t) and phase (std sig_phi)."""
    mc = setup.machine
    h = 1e-30
    _, _, u_t, phi = u
    dp_du = electrical_power(mc, x[0], x[2], x[3], complex(u_t, h), phi).imag / h
    dp_dphi = electrical_power(mc, x[0], x[2], x[3], u_t, complex(phi, h)).imag / h
    var_pe = (dp_du * setup.sig_u * u_t) ** 2 + (dp_dphi * setup.sig_phi) ** 2
    return np.diag([setup.sig_delta**2, setup.sig_omega**2, var_pe])


# --------------------------------------------------------------- filters


def cubature(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """2n points x +/- sqrt(n) times the columns of the Cholesky factor."""
    n = x.size
    S = np.linalg.cholesky(P)
    cols = [math.sqrt(n) * S[:, i] for i in range(n)]
    return np.array([x + c for c in cols] + [x - c for c in cols])


def ckf(transition, observe_fn, r_of, x0, P0, Q, zs, us, us_obs, huber=None):
    """Cubature Kalman filter over measurements zs.

    transition(x, u) and observe_fn(x, u) map one state; r_of(x_pred,
    u_obs) gives the measurement covariance at the predicted state.  With
    huber=(c, passes) each innovation channel is standardized by the
    square root of its innovation variance and, outside |r| <= c, its R
    entry is divided by the weight c / |r|; each pass re-standardizes
    against the reweighted innovation variance, always dividing the
    original R.  Returns the (len(zs) + 1, n) estimates, prior first.
    """
    x = np.array(x0, dtype=float)
    P = np.array(P0, dtype=float)
    estimates = [x.copy()]
    for z, u, u_obs in zip(zs, us, us_obs):
        pts = cubature(x, P)
        prop = np.array([transition(p, u) for p in pts])
        x = prop.mean(axis=0)
        P = (prop - x).T @ (prop - x) / len(prop) + Q
        R = r_of(x, u_obs)
        pts = cubature(x, P)
        Z = np.array([observe_fn(p, u_obs) for p in pts])
        z_hat = Z.mean(axis=0)
        core = (Z - z_hat).T @ (Z - z_hat) / len(pts)
        P_xz = (pts - x).T @ (Z - z_hat) / len(pts)
        nu = np.asarray(z, dtype=float) - z_hat
        P_zz = core + R
        if huber is not None:
            c, passes = huber
            for _ in range(passes):
                r = nu / np.sqrt(np.diag(P_zz))
                w = np.where(np.abs(r) > c, c / np.maximum(np.abs(r), c), 1.0)
                P_zz = core + np.diag(np.diag(R) / w)
        K = P_xz @ np.linalg.inv(P_zz)
        x = x + K @ nu
        P = P - K @ P_zz @ K.T
        estimates.append(x.copy())
    return np.array(estimates)


def run_filters(setup: Setup, measurements: np.ndarray, perturb: float = 0.0) -> dict[str, np.ndarray]:
    """Both variants over a measurement series on the setup's grid, from
    the prior the package documents: angle and speed from the first
    measurement row, the equilibrium EMFs inflated by eprime_bias.  Adding
    perturb to every prior entry gives a second run that shows where the
    estimates are too sensitive to their inputs to be compared."""
    mc = setup.machine
    eq = equilibrium(setup)
    bias = 1.0 + setup.eprime_bias
    x0 = perturb + np.array(
        [measurements[0, 0], measurements[0, 1] - 1.0, eq[2] * bias, eq[3] * bias]
    )
    P0 = np.diag(setup.p0)
    Q = np.diag(setup.q)
    steps = measurements.shape[0] - 1
    us = [inputs_at(setup, k) for k in range(steps)]
    us_obs = [inputs_at(setup, k + 1) for k in range(steps)]

    def transition(x, u):
        return rk4(mc, list(x), u, setup.dt, setup.divide_by_speed)

    def obs(x, u):
        return observe(mc, x, u)

    def r_of(x, u):
        return measurement_covariance(setup, x, u)

    zs = measurements[1:]
    return {
        "ckf": ckf(transition, obs, r_of, x0, P0, Q, zs, us, us_obs),
        "rckf": ckf(
            transition, obs, r_of, x0, P0, Q, zs, us, us_obs,
            huber=(setup.huber_c, setup.passes),
        ),
    }


# ------------------------------------------------------------ indicators


def indicators(estimates: np.ndarray, truth_: np.ndarray, measurements: np.ndarray) -> dict:
    """epsilon1 (delta, omega) and epsilon2 (all four variables) with the
    initial step excluded.  Estimated and true angles are unwrapped, raw
    angle measurements are not; speeds are compared as 1 + delta_omega."""
    est = estimates[1:]
    tru = truth_[1:]
    meas = measurements[1:]
    series = {
        "delta": (np.unwrap(est[:, 0]), np.unwrap(tru[:, 0]), meas[:, 0]),
        "omega": (1.0 + est[:, 1], 1.0 + tru[:, 1], meas[:, 1]),
        "eqp": (est[:, 2], tru[:, 2], None),
        "edp": (est[:, 3], tru[:, 3], None),
    }
    eps1 = {}
    eps2 = {}
    for name, (e, t, z) in series.items():
        if z is not None:
            eps1[name] = math.sqrt(np.sum((e - t) ** 2)) / math.sqrt(np.sum((z - t) ** 2))
        eps2[name] = math.sqrt(np.mean(((e - t) / t) ** 2))
    return {"epsilon1": eps1, "epsilon2": eps2}
