"""Independent reference implementations used to pin expected values.

Everything here is deliberately written in the most literal textbook form
(explicit inverses, no square-root tricks) so it shares no code with the
package under test.
"""

import math

import numpy as np


def linear_kalman_filter(A, H, Q, R, x0, P0, measurements):
    """Textbook linear Kalman filter; returns [(x, P)] including the prior."""
    x = np.array(x0, dtype=float)
    P = np.array(P0, dtype=float)
    out = [(x.copy(), P.copy())]
    for z in measurements:
        x = A @ x
        P = A @ P @ A.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (z - H @ x)
        P = P - K @ S @ K.T
        out.append((x.copy(), P.copy()))
    return out


def random_stable_system(rng, n=4, m=3, spectral_radius=0.95):
    """Random discrete-time linear system with eigenvalues inside the unit
    circle and positive definite noise covariances."""
    A = rng.standard_normal((n, n))
    A *= spectral_radius / max(abs(np.linalg.eigvals(A)))
    H = rng.standard_normal((m, n))
    q = rng.uniform(0.01, 0.1, size=n)
    r = rng.uniform(0.01, 0.1, size=m)
    Q = np.diag(q**2)
    R = np.diag(r**2)
    x0 = rng.standard_normal(n)
    L = rng.standard_normal((n, n)) * 0.3
    P0 = L @ L.T + np.eye(n)
    return A, H, Q, R, x0, P0


def simulate_linear(rng, A, H, Q, R, x0, steps):
    """Roll a linear system forward with process and measurement noise."""
    n = x0.size
    m = H.shape[0]
    sq = np.linalg.cholesky(Q)
    sr = np.linalg.cholesky(R)
    x = np.array(x0, dtype=float)
    measurements = []
    for _ in range(steps):
        x = A @ x + sq @ rng.standard_normal(n)
        measurements.append(H @ x + sr @ rng.standard_normal(m))
    return measurements


# The generator's RK4 step with every constant subexpression evaluated
# where the formula uses it, as the model was first written.  Kept verbatim
# so that a test can hold the package's hoisted constants and its truth
# loop to the same bits on any libm: a reordered operation changes the
# last bit somewhere along a trajectory.


def _air_gap(th, eq, ed, ut, xdp, xqp, xp):
    ut_cos = ut * xp.cos(th)
    ut_sin = ut * xp.sin(th)
    p_e = (
        0.5 * ut * ut * xp.sin(2.0 * th) * (1.0 / xqp - 1.0 / xdp)
        + ut_sin * eq / xdp
        - ut_cos * ed / xqp
    )
    return ut_cos, ut_sin, p_e


def _derivative(d, w, eq, ed, tm, ef, ut, phi, pt, divide_by_speed, xp):
    xd, xdp, xq, xqp, td0, tq0, tj, damp, w0 = pt
    ut_cos, ut_sin, p_e = _air_gap(d - phi, eq, ed, ut, xdp, xqp, xp)
    i_d = (eq - ut_cos) / xdp
    i_q = (ut_sin - ed) / xqp
    t_e = p_e / (1.0 + w) if divide_by_speed else p_e
    return (
        w0 * w,
        (tm - t_e - damp * w) / tj,
        (ef - eq - (xd - xdp) * i_d) / td0,
        (-ed + (xq - xqp) * i_q) / tq0,
    )


def _rk4(d, w, eq, ed, tm, ef, ut, phi, pt, divide, dt, xp):
    k1 = _derivative(d, w, eq, ed, tm, ef, ut, phi, pt, divide, xp)
    h = 0.5 * dt
    k2 = _derivative(
        d + h * k1[0], w + h * k1[1], eq + h * k1[2], ed + h * k1[3],
        tm, ef, ut, phi, pt, divide, xp,
    )
    k3 = _derivative(
        d + h * k2[0], w + h * k2[1], eq + h * k2[2], ed + h * k2[3],
        tm, ef, ut, phi, pt, divide, xp,
    )
    k4 = _derivative(
        d + dt * k3[0], w + dt * k3[1], eq + dt * k3[2], ed + dt * k3[3],
        tm, ef, ut, phi, pt, divide, xp,
    )
    sixth = dt / 6.0
    return (
        d + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        w + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        eq + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
        ed + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
    )


def machine_rk4(x, u, params, dt, divide_by_speed):
    """One RK4 step of the generator from state x under inputs u, both
    sequences of four floats, as a tuple of floats."""
    pt = (
        params.x_d, params.x_d_prime, params.x_q, params.x_q_prime,
        params.t_d0_prime, params.t_q0_prime, params.t_j, params.damping, params.omega_0,
    )
    return _rk4(*x, *u, pt, divide_by_speed, dt, math)


def machine_observe(x, u, params):
    """The noise-free measurement (delta, 1 + delta_omega, electrical
    power) of state x under inputs u, as a tuple of floats."""
    d, w, eq, ed = x
    tm, ef, ut, phi = u
    return d, 1.0 + w, _air_gap(d - phi, eq, ed, ut, params.x_d_prime, params.x_q_prime, math)[2]


def machine_trajectory(x0, inputs, params, dt, divide_by_speed):
    """States (len(inputs) + 1, 4) from x0 with each row of inputs held
    over one step."""
    rows = [tuple(x0)]
    for u in inputs:
        rows.append(machine_rk4(rows[-1], u, params, dt, divide_by_speed))
    return np.array(rows)
