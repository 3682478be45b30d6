"""Cubature Kalman filtering with a Huber-robustified measurement update.

The classical filter propagates 2n equally weighted cubature points placed
at +/- sqrt(n) along the columns of the covariance square root (the
spherical-radial rule of Arasaratnam and Haykin).  The robust variant
standardizes each innovation channel by its predicted standard deviation,
derives Huber weights, and inflates the measurement covariance channel by
channel before the gain is formed, which bounds the influence a wild
measurement can exert on the posterior.

Every stage works on a batch: a state carries x_hat as (B, n) and P as
(B, n, n), and one call advances all members together; a single filter is
a batch of one.  run_filter takes and returns one filter's shapes, (n,)
and (n, n), and runs the filter as such a batch.  The classical filter is
the robust one with an infinite Huber threshold, which is exact because R
is diagonal, so both variants share one batch.
A stage that fails on some members raises with exc.members, the indices
of those members in the batch; the batch engine (iter_batch) freezes them
and carries on with the rest.  Members never mix: each member's result is
the same bits whatever else shares its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

# The batched LAPACK kernels behind np.linalg.cholesky and np.linalg.solve.
# Called directly, they skip the wrappers' argument handling, about half of
# each call at the filter's sizes; under errstate a member that fails comes
# out NaN instead of raising, so the finiteness gate after each call also
# catches the failures.  The exceptions come from the per-member scans,
# which keep to the np.linalg functions.
from numpy.linalg import _umath_linalg

from .errors import (
    DecompositionFailure,
    DegenerateChannel,
    InvalidConfig,
    NonFiniteState,
)

Array = np.ndarray

CKF = "ckf"
RCKF = "rckf"
VARIANTS = (CKF, RCKF)

# Escalating diagonal loading, applied relative to the mean diagonal.
JITTER_LADDER = (1e-12, 1e-9, 1e-6)

# Failures that freeze a batch member instead of aborting the batch.
MEMBER_FAILURES = (DecompositionFailure, NonFiniteState, DegenerateChannel)


@dataclass(frozen=True)
class ProcessModel:
    """Discrete-time nonlinear state-space model.

    transition and observe must be deterministic pure functions mapping a
    length-n state vector plus an input vector to, respectively, the next
    state vector and a length-m measurement vector.  The optional
    transition_points and observe_points map an (N, n) array of points at
    once, row for row, and must agree with the per-point maps; without
    them the filters apply the per-point maps row by row.
    """

    n: int
    m: int
    transition: Callable[[Array, Array], Array]
    observe: Callable[[Array, Array], Array]
    transition_points: Callable[[Array, Array], Array] | None = None
    observe_points: Callable[[Array, Array], Array] | None = None


@dataclass
class FilterState:
    """State estimate and error covariance at one step: x_hat (B, n) and
    P (B, n, n) for a batch of B filters, as the stages take and return
    them; run_filter's states are one filter's, x_hat (n,) and P (n, n)."""

    x_hat: Array
    P: Array
    step_index: int = 0


@dataclass(frozen=True)
class CubatureSet:
    """2n cubature points (rows) sharing one common weight."""

    points: Array
    weight: float


@dataclass(frozen=True)
class UpdateIntermediates:
    """Innovations-side quantities produced by a measurement update."""

    z_hat: Array
    P_zz: Array
    P_xz: Array
    gain: Array
    innovation: Array


@dataclass(frozen=True)
class HuberConfig:
    """Tuning of the robust update: threshold c and reweight pass count.

    c may also be an array with one threshold per batch member; math.inf
    makes a member's update the classical one.
    """

    c: float = 1.5
    max_reweight_passes: int = 1


@dataclass(frozen=True)
class HuberResult:
    standardized_residuals: Array
    weights: Array
    R_bar: Array


def _member_failure(kind: type, message: str, members) -> Exception:
    exc = kind(message)
    exc.members = np.atleast_1d(np.asarray(members, dtype=np.intp))
    return exc


def _all_finite(a: Array) -> bool:
    """Whole-array gate: True proves every entry finite.  The sum of the
    squares is NaN or infinite when an entry is, and can also overflow on
    finite entries, so False only sends the caller to its exact scan."""
    flat = a.reshape(-1)
    return math.isfinite(np.dot(flat, flat))


def _nonfinite_members(a: Array) -> Array:
    """Indices along the first axis of the members holding a non-finite entry."""
    if _all_finite(a):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1))


def _T(a: Array) -> Array:
    """Stack of matrices, each transposed."""
    return a.transpose(0, 2, 1)


def _symmetrized(a: Array) -> Array:
    """Stack of matrices, each replaced by the mean of itself and its
    transpose."""
    sym = a + _T(a)
    sym *= 0.5
    return sym


def _factor_member(sym: Array) -> tuple[Array | None, str]:
    """Cholesky factor of one symmetric matrix, escalating the jitter
    ladder when plain factorization fails; (None, reason) when it stays
    non-factorizable."""
    if not np.isfinite(sym).all():
        return None, "matrix contains non-finite entries"
    scale = float(np.trace(sym)) / sym.shape[0]
    if scale <= 0.0:
        scale = 1.0
    for jitter in (0.0,) + JITTER_LADDER:
        loaded = sym + (jitter * scale) * np.eye(sym.shape[0]) if jitter else sym
        # a one-member stack, so the factor has the bits of a batched call
        try:
            return np.linalg.cholesky(loaded[None])[0], ""
        except np.linalg.LinAlgError:
            continue
    return None, "matrix is not positive definite even after jitter escalation"


def cholesky_lower(P: Array) -> Array:
    """Lower-triangular S with S @ S.T equal to the symmetrized input, for
    one (n, n) matrix or a stack (B, n, n).

    The input is symmetrized first.  Members whose plain factorization
    fails get escalating diagonal jitter (1e-12, 1e-9, 1e-6 times their
    mean diagonal); the others are factorized as they are.

    Raises:
        DecompositionFailure: input is not a stack of square matrices, or
            some member is not finite or stays non-factorizable after the
            largest jitter; exc.members lists those members.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim not in (2, 3) or P.shape[-1] != P.shape[-2]:
        raise DecompositionFailure(f"expected a square matrix, got shape {P.shape}")
    single = P.ndim == 2
    stack = P[None] if single else P
    sym = _symmetrized(stack)
    with np.errstate(all="ignore"):
        S = _umath_linalg.cholesky_lo(sym, signature="d->d")
    # a member that fails comes out NaN; LAPACK lets some non-finite
    # inputs through, and their factors are not finite either
    if not _all_finite(S):
        S = np.empty_like(sym)
        failed: dict[int, str] = {}
        for b in range(sym.shape[0]):
            factor, reason = _factor_member(sym[b])
            if factor is None:
                failed[b] = reason
            else:
                S[b] = factor
        if failed:
            raise _member_failure(DecompositionFailure, next(iter(failed.values())), list(failed))
    return S[0] if single else S


@lru_cache(maxsize=None)
def _cubature_pattern(n: int) -> tuple[Array, Array]:
    """Column of S behind each of the 2n points, and its signed scale
    +/- sqrt(n), for points x_hat + scale * column."""
    columns = np.concatenate((np.arange(n), np.arange(n)))
    scale = np.concatenate((np.full(n, math.sqrt(n)), np.full(n, -math.sqrt(n))))[:, None]
    columns.flags.writeable = scale.flags.writeable = False
    return columns, scale


def cubature_points(x_hat: Array, S: Array) -> CubatureSet:
    """Spherical-radial point set for mean x_hat and covariance S @ S.T;
    points are (2n, n) for one filter and (B, 2n, n) for a batch."""
    n = x_hat.shape[-1]
    columns, scale = _cubature_pattern(n)
    # x + (-sqrt(n) * s) is x - sqrt(n) * s, bit for bit
    points = x_hat[..., None, :] + np.asarray(S).take(columns, axis=-1).swapaxes(-1, -2) * scale
    return CubatureSet(points=points, weight=1.0 / (2 * n))


def _map_points(points_map, point_map, points: Array, u) -> Array:
    """Model map over (B, N, n) points; a NonFiniteState from the map is
    traced to the members whose points raise it."""
    B, N, n = points.shape
    flat = points.reshape(B * N, n)
    try:
        if points_map is not None:
            out = points_map(flat, u)
        else:
            out = np.array([point_map(p, u) for p in flat])
    except NonFiniteState as exc:
        if B == 1:
            raise _member_failure(NonFiniteState, str(exc), [0]) from exc
        bad = []
        for b in range(B):
            try:
                _map_points(points_map, point_map, points[b : b + 1], u)
            except NonFiniteState:
                bad.append(b)
        raise _member_failure(NonFiniteState, str(exc), bad) from exc
    return np.asarray(out, dtype=float).reshape(B, N, -1)


def _mapped_points(
    x: Array, P: Array, points_map, point_map, u: Array, what: str
) -> tuple[Array, Array, Array]:
    """Cubature points on (x, P), and the mean of their images under a
    model map with each image's deviation from it, all (B, ...).

    Raises:
        DecompositionFailure: P cannot be factorized.
        NonFiniteState: an image is not finite.
    """
    pts = cubature_points(x, cholesky_lower(P)).points
    images = _map_points(points_map, point_map, pts, u)
    bad = _nonfinite_members(images)
    if bad.size:
        raise _member_failure(NonFiniteState, f"{what} points are not finite", bad)
    mean = np.add.reduce(images, axis=1) / pts.shape[1]
    return pts, mean, images - mean[:, None, :]


def time_predict(state: FilterState, model: ProcessModel, u: Array, Q: Array) -> FilterState:
    """Propagate the posterior through the transition map.

    Returns the predicted state with step_index advanced by one.  The
    predicted covariance is the centered sample covariance of the
    propagated points plus Q, symmetrized.

    Raises:
        NonFiniteState: a propagated point is not finite.
        DecompositionFailure: the posterior covariance cannot be factorized.
    """
    _, x_pred, centered = _mapped_points(
        state.x_hat, state.P, model.transition_points, model.transition, u,
        "propagated cubature",
    )
    P_pred = _T(centered) @ centered
    P_pred /= centered.shape[1]
    P_pred += Q
    return FilterState(x_hat=x_pred, P=_symmetrized(P_pred), step_index=state.step_index + 1)


def _measurement_stats(
    predicted: FilterState, model: ProcessModel, u: Array
) -> tuple[Array, Array, Array]:
    """Predicted measurement, centered innovation covariance core (no R),
    and cross covariance, all (B, ...) from a fresh point set on the prior."""
    x = predicted.x_hat
    pts, z_hat, Zc = _mapped_points(
        x, predicted.P, model.observe_points, model.observe, u, "projected measurement"
    )
    N = pts.shape[1]
    core = _T(Zc) @ Zc
    core /= N
    P_xz = _T(pts - x[:, None, :]) @ Zc
    P_xz /= N
    return z_hat, core, P_xz


def _channel_variances(P_zz: Array) -> Array:
    """The P_zz diagonal entries, (m,) or (B, m), the predicted variance of
    each channel.

    Raises:
        DegenerateChannel: some entry is not positive; exc.members lists
            the members concerned.
    """
    diag = P_zz.diagonal(0, -2, -1)
    # fmin passes over NaN entries, which are not nonpositive
    if np.fmin.reduce(diag, axis=None, initial=math.inf) <= 0.0:
        rows = diag.reshape(-1, diag.shape[-1])
        members = np.flatnonzero((rows <= 0.0).any(axis=1))
        bad = int(np.argmin(rows[members[0]]))
        raise _member_failure(
            DegenerateChannel,
            f"channel {bad} has nonpositive predicted variance {rows[members[0], bad]}",
            members,
        )
    return diag


def _corrected(
    predicted: FilterState, innovation: Array, z_hat: Array, P_zz: Array, P_xz: Array
) -> tuple[FilterState, UpdateIntermediates]:
    x, P = predicted.x_hat, predicted.P
    bad = _nonfinite_members(P_zz)
    if bad.size:
        raise _member_failure(DecompositionFailure, "matrix contains non-finite entries", bad)
    # gain @ P_zz = P_xz, solved as P_zz @ gain.T = P_xz.T; a singular
    # member's gain comes out NaN, and so does its posterior
    with np.errstate(all="ignore"):
        gain = _T(_umath_linalg.solve(P_zz, _T(P_xz), signature="dd->d"))
    x_post = x + (gain @ innovation[:, :, None])[:, :, 0]
    P_post = _symmetrized(P - gain @ P_zz @ _T(gain))
    if not (_all_finite(x_post) and _all_finite(P_post)):
        bad = np.flatnonzero(
            ~(np.isfinite(x_post).all(axis=1) & np.isfinite(P_post).all(axis=(1, 2)))
        )
        singular, cause = [], None
        for b in bad:
            try:
                np.linalg.solve(P_zz[b : b + 1], _T(P_xz[b : b + 1]))
            except np.linalg.LinAlgError as exc:
                singular.append(b)
                cause = cause or exc
        if singular:
            raise _member_failure(
                DecompositionFailure, "innovation covariance is singular", singular
            ) from cause
        if bad.size:
            raise _member_failure(NonFiniteState, "corrected estimate is not finite", bad)
    state = FilterState(x_hat=x_post, P=P_post, step_index=predicted.step_index)
    info = UpdateIntermediates(
        z_hat=z_hat, P_zz=P_zz, P_xz=P_xz, gain=gain, innovation=innovation
    )
    return state, info


def ckf_update(
    predicted: FilterState, z: Array, model: ProcessModel, u: Array, R: Array
) -> tuple[FilterState, UpdateIntermediates]:
    """Classical measurement update on a predicted state.

    The innovation covariance is the centered point statistic plus R; the
    gain solves gain @ P_zz = P_xz.

    Raises:
        DegenerateChannel: some P_zz diagonal entry is not positive, as in
            huber_reweight; exc.members lists the members concerned.
    """
    z_hat, core, P_xz = _measurement_stats(predicted, model, u)
    P_zz = core + R
    _channel_variances(P_zz)
    return _corrected(predicted, np.asarray(z, dtype=float) - z_hat, z_hat, P_zz, P_xz)


@lru_cache(maxsize=None)
def _identity(m: int) -> Array:
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def huber_reweight(
    innovation: Array, P_zz: Array, R: Array, config: HuberConfig
) -> HuberResult:
    """Channel-wise Huber weights from standardized innovations.

    Each residual is divided by the square root of the matching P_zz
    diagonal entry.  Channels inside the threshold keep weight one;
    outside, the weight decays as c / |r| and the matching R diagonal
    entry is divided by that weight.  R is treated as diagonal: the
    returned R_bar carries zero off-diagonals.  Shapes are (m,) and
    (m, m) for one filter or (B, m) and (B, m, m) for a batch, with c
    a float or one threshold per member.

    Raises:
        InvalidConfig: threshold c is not strictly positive.
        DegenerateChannel: some P_zz diagonal entry is not positive;
            exc.members lists the members concerned.
    """
    c = np.asarray(config.c, dtype=float)
    # a NaN threshold makes the minimum NaN, which is not positive either
    if not c.min(initial=math.inf) > 0.0:
        raise InvalidConfig(f"Huber threshold must be positive, got {config.c}")
    innovation = np.asarray(innovation, dtype=float)
    standardized = innovation / np.sqrt(_channel_variances(P_zz))
    magnitude = np.abs(standardized)
    c = c[..., None]
    weights = np.empty(magnitude.shape)
    weights.fill(1.0)
    np.divide(c, magnitude, out=weights, where=magnitude > c)
    R_bar = _identity(weights.shape[-1]) * (R.diagonal(0, -2, -1) / weights)[..., None, :]
    return HuberResult(standardized_residuals=standardized, weights=weights, R_bar=R_bar)


def rckf_update(
    predicted: FilterState,
    z: Array,
    model: ProcessModel,
    u: Array,
    R: Array,
    config: HuberConfig | None = None,
) -> tuple[FilterState, UpdateIntermediates, HuberResult]:
    """Huber-robustified measurement update.

    Starts from the classical innovation covariance, then runs the
    configured number of reweight passes.  Every pass re-standardizes the
    innovation against the current P_zz, but the inflation always divides
    the original R, so weights never compound.  With all channels inside
    the threshold, or c infinite, the result coincides with ckf_update.
    """
    if config is None:
        config = HuberConfig()
    if config.max_reweight_passes < 1:
        raise InvalidConfig(
            f"max_reweight_passes must be at least 1, got {config.max_reweight_passes}"
        )
    z = np.asarray(z, dtype=float)
    z_hat, core, P_xz = _measurement_stats(predicted, model, u)
    P_zz = core + R
    innovation = z - z_hat
    result = None
    for _ in range(config.max_reweight_passes):
        result = huber_reweight(innovation, P_zz, R, config)
        P_zz = core + result.R_bar
    state, info = _corrected(predicted, innovation, z_hat, P_zz, P_xz)
    return state, info, result


def iter_batch(
    model: ProcessModel,
    init: FilterState,
    inputs: Sequence[Array],
    measurements: Array,
    Q: Array,
    R_provider,
    huber: HuberConfig,
    observe_inputs: Sequence[Array] | None = None,
) -> Iterator[tuple[Array, FilterState, list[tuple[int, Exception]]]]:
    """Advance a batch of filters in lockstep over a measurement sequence.

    Args:
        model: process model shared by the members.
        init: batched prior at step 0, x_hat (B, n) and P (B, n, n).
        inputs: transition input per step, shared by the members.
        measurements: (T, B, m), the measurement of each member per step.
        Q: process noise covariance, fixed across steps.
        R_provider: fixed (m, m) diagonal measurement covariance, or a
            callable (step, predicted_batch, observe_input) -> (A, m, m)
            with one diagonal matrix per live member.
        huber: c is one threshold per member (math.inf for the
            classical filter) or one for all; max_reweight_passes is
            shared.
        observe_inputs: optional per-step input for the measurement map;
            defaults to the transition input of the same step.

    Yields once per step (members, posterior, failed): the indices of the
    members still live after the step, their batched posterior, and
    (member, exception) for each member frozen at this step.  A frozen
    member's exception carries the measurement index as a message prefix
    and as exc.step_index; it takes no further steps and does not touch
    the other members.
    """
    measurements = np.asarray(measurements, dtype=float)
    members = np.arange(measurements.shape[1])
    thresholds = np.broadcast_to(np.asarray(huber.c, dtype=float), members.shape)
    state = FilterState(init.x_hat, init.P, init.step_index)
    fixed_R = None if callable(R_provider) else np.asarray(R_provider, dtype=float)
    # one Q per member, which spares the predict's add a broadcast; it and
    # the update's tuning change only when a member freezes
    Q = np.array(np.broadcast_to(np.asarray(Q, dtype=float), np.shape(init.P)))
    classical = np.isinf(thresholds).all()
    config = HuberConfig(thresholds, huber.max_reweight_passes)
    for k in range(measurements.shape[0]):
        u = inputs[k]
        u_obs = observe_inputs[k] if observe_inputs is not None else u
        failed: list[tuple[int, Exception]] = []
        while members.size:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    predicted = time_predict(state, model, u, Q)
                    R = fixed_R if fixed_R is not None else R_provider(k, predicted, u_obs)
                    if classical:
                        # the same bits as the robust update with c = inf
                        state, _ = ckf_update(predicted, measurements[k], model, u_obs, R)
                    else:
                        state, _, _ = rckf_update(
                            predicted, measurements[k], model, u_obs, R, config
                        )
                break
            except MEMBER_FAILURES as exc:
                bad = getattr(exc, "members", None)
                if bad is None or not bad.size:
                    raise
                for b in bad:
                    wrapped = type(exc)(f"measurement index {k}: {exc}")
                    wrapped.step_index = k
                    failed.append((int(members[b]), wrapped))
                keep = np.setdiff1d(np.arange(members.size), bad)
                members = members[keep]
                state = FilterState(state.x_hat[keep], state.P[keep], state.step_index)
                thresholds = thresholds[keep]
                Q = Q[keep]
                classical = np.isinf(thresholds).all()
                config = HuberConfig(thresholds, huber.max_reweight_passes)
                measurements = measurements[:, keep]
        yield members, state, failed
        if not members.size:
            return


def run_filter(
    model: ProcessModel,
    variant: str,
    init: FilterState,
    inputs: Sequence[Array],
    measurements: Sequence[Array],
    Q: Array,
    R_provider,
    huber: HuberConfig | None = None,
    observe_inputs: Sequence[Array] | None = None,
) -> list[FilterState]:
    """Run one filter variant, a batch of one, over a measurement sequence.

    Args:
        model: process model shared by both variants.
        variant: "ckf" or "rckf".
        init: prior at step 0, x_hat (n,) and P (n, n); returned unchanged
            as the first element.
        inputs: transition input per step, same length as measurements.
        measurements: measurement vector per step.
        Q: process noise covariance, fixed across steps.
        R_provider: fixed diagonal measurement covariance matrix, or a
            callable (step, predicted_state, observe_input) -> matrix
            evaluated after each prediction on the one filter's state.
        huber: robust update tuning, used by the rckf variant only.
        observe_inputs: optional per-step input vector for the measurement
            map; defaults to the transition input of the same step.

    Returns:
        List of length len(measurements) + 1: the prior followed by one
        posterior per measurement, each x_hat (n,) and P (n, n).

    Raises:
        DecompositionFailure, NonFiniteState, DegenerateChannel: re-raised
            with the offending measurement index prefixed and stored as
            exc.step_index.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown filter variant {variant!r}")
    if len(inputs) != len(measurements):
        raise ValueError(
            f"inputs and measurements must have equal length, "
            f"got {len(inputs)} and {len(measurements)}"
        )
    if observe_inputs is not None and len(observe_inputs) != len(measurements):
        raise ValueError("observe_inputs length must match measurements")
    if huber is None:
        huber = HuberConfig()
    c = huber.c if variant == RCKF else math.inf
    if callable(R_provider):
        user_provider = R_provider

        def R_provider(k, predicted, u_obs):
            state = FilterState(predicted.x_hat[0], predicted.P[0], predicted.step_index)
            return np.asarray(user_provider(k, state, u_obs), dtype=float)[None]

    steps = iter_batch(
        model,
        FilterState(np.asarray(init.x_hat, dtype=float)[None], np.asarray(init.P, dtype=float)[None],
                    init.step_index),
        inputs,
        np.asarray(measurements, dtype=float).reshape(len(measurements), 1, model.m),
        np.asarray(Q, dtype=float),
        R_provider,
        HuberConfig(c, huber.max_reweight_passes),
        observe_inputs,
    )
    states = [init]
    for _, state, failed in steps:
        if failed:
            raise failed[0][1]
        states.append(FilterState(state.x_hat[0], state.P[0], state.step_index))
    return states
