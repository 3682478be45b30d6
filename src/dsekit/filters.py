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
The stages take P symmetric and return it symmetric: time_predict and the
updates each symmetrize the covariance they return, and factorize the one
they are given as it is.  cholesky_lower symmetrizes its input, and
iter_batch symmetrizes its prior once.
A stage that fails on some members raises with exc.members, the indices
of those members in the batch; the batch engine (iter_batch) freezes them
and carries on with the rest.  Members never mix: each member's result is
the same bits whatever else shares its batch.

The stages compute under the caller's floating-point error state: a
failing member's numbers come out NaN or infinite and are caught by the
finiteness gates, not by the error state.  iter_batch, and run_filter
through it, runs each step under np.errstate(all="ignore"), so a batch
step emits no floating-point warning.  A stage called directly on a
failing member may emit numpy's RuntimeWarning before it raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

# The batched LAPACK kernels behind np.linalg.cholesky and np.linalg.solve.
# Called directly, they skip the wrappers' argument handling, about half of
# each call at the filter's sizes; a member that fails comes out NaN
# instead of raising, so the finiteness gate after each call also catches
# the failures.  The exceptions come from the per-member scans,
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

    transition_points and observe_points must be deterministic pure
    functions mapping an (N, n) array of states, row for row, plus an input
    vector to, respectively, the (N, n) next states and the (N, m)
    measurements.  A row's image must not depend on the other rows.
    """

    n: int
    m: int
    transition_points: Callable[[Array, Array], Array]
    observe_points: Callable[[Array, Array], Array]


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


# Slotted, not frozen: a frozen dataclass sets each field through
# object.__setattr__, and records of arrays were never hashable anyway.
@dataclass(slots=True)
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

    Raises:
        InvalidConfig: some threshold is not strictly positive, or
            max_reweight_passes is below one.
    """

    c: float = 1.5
    max_reweight_passes: int = 1

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        # a NaN threshold makes the minimum NaN, which is not positive either
        if not c.min(initial=math.inf) > 0.0:
            raise InvalidConfig(f"Huber threshold must be positive, got {self.c}")
        if self.max_reweight_passes < 1:
            raise InvalidConfig(
                f"max_reweight_passes must be at least 1, got {self.max_reweight_passes}"
            )
        # the thresholds as a float column, c[..., None], for huber_reweight;
        # not a field, so the config's fields are the two tuning values
        object.__setattr__(self, "_column", c[..., None])


@dataclass(slots=True)
class HuberResult:
    standardized_residuals: Array
    weights: Array
    R_bar: Array


def _member_failure(kind: type, message: str, members) -> Exception:
    exc = kind(message)
    exc.members = np.atleast_1d(np.asarray(members, dtype=np.intp))
    return exc


# The largest array that _all_finite gates with a dot product.  OpenBLAS's
# ddot runs on one thread up to 10000 elements and on every CPU above, and
# worker processes that each start BLAS threads oversubscribe the machine.
# Up to here the dot is the faster gate: 0.3-0.6 of np.isfinite(a).all()'s
# time on one BLAS thread, from 128 to 8192 elements (2-core x86 VM,
# OpenBLAS 0.3.31).
GATE_DOT_SIZE = 8192


# a step gates about six array sizes, and they change only as members freeze
@lru_cache(maxsize=32)
def _tiny(size: int) -> Array:
    tiny = np.full(size, 2.0**-512)
    tiny.flags.writeable = False
    return tiny


def _all_finite(a: Array) -> bool:
    """Whole-array gate: True exactly when every entry is finite.  Up to
    GATE_DOT_SIZE entries it takes one dot product with 2**-512: no sum of
    finite terms below 2**512 in magnitude overflows, while an infinite or
    NaN entry makes the sum infinite or NaN.  (Against zeros it would be
    exact too, but inf * 0 raises the invalid flag, a warning on a direct
    call; here only infinities of both signs in one array do.)"""
    flat = a.reshape(-1)
    if flat.size > GATE_DOT_SIZE:
        return bool(np.isfinite(flat).all())
    # the method skips np.dot's dispatch through __array_function__
    return math.isfinite(flat.dot(_tiny(flat.size)))


_NO_MEMBERS = np.empty(0, dtype=np.intp)
_NO_MEMBERS.flags.writeable = False


def _nonfinite_members(a: Array) -> Array:
    """Indices along the first axis of the members holding a non-finite entry."""
    if _all_finite(a):
        return _NO_MEMBERS
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
    mean diagonal); the others are factorized as they are.  The batched
    factorization runs under the caller's floating-point error state, so a
    direct call on a member that does not factorize may emit numpy's
    RuntimeWarning before the jitter ladder or the exception.

    Raises:
        DecompositionFailure: input is not a stack of square matrices, or
            some member is not finite or stays non-factorizable after the
            largest jitter; exc.members lists those members.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim not in (2, 3) or P.shape[-1] != P.shape[-2]:
        raise DecompositionFailure(f"expected a square matrix, got shape {P.shape}")
    S = _factored(_symmetrized(P[None] if P.ndim == 2 else P))
    return S[0] if P.ndim == 2 else S


def _factored(sym: Array) -> Array:
    """cholesky_lower of a stack (B, n, n) that is already symmetric, as
    the stages' covariances are: the same factors, jitter ladder and
    exceptions, without the symmetrization."""
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
    return S


@lru_cache(maxsize=None)
def _cubature_pattern(n: int) -> tuple[Array, Array]:
    """Column of S behind each of the 2n points, and its signed scale
    +/- sqrt(n), for points x_hat + scale * column."""
    columns = np.concatenate((np.arange(n), np.arange(n)))
    scale = np.concatenate((np.full(n, math.sqrt(n)), np.full(n, -math.sqrt(n))))[:, None]
    columns.flags.writeable = scale.flags.writeable = False
    return columns, scale


def _points(x_hat: Array, S: Array) -> Array:
    """The cubature points of cubature_points, as one array."""
    columns, scale = _cubature_pattern(x_hat.shape[-1])
    # x + (-sqrt(n) * s) is x - sqrt(n) * s, bit for bit
    return x_hat[..., None, :] + S.take(columns, axis=-1).swapaxes(-1, -2) * scale


def cubature_points(x_hat: Array, S: Array) -> CubatureSet:
    """Spherical-radial point set for mean x_hat and covariance S @ S.T;
    points are (2n, n) for one filter and (B, 2n, n) for a batch."""
    return CubatureSet(points=_points(x_hat, np.asarray(S)), weight=1.0 / (2 * x_hat.shape[-1]))


def _map_points(points_map, points: Array, u) -> Array:
    """Model map over (B, N, n) points, as a C-contiguous array: the
    layout of a map's output, which may follow that of its input, would
    otherwise change the bits of the reductions over the points.  A
    NonFiniteState from the map is traced to the members whose points
    raise it."""
    B, N, n = points.shape
    try:
        out = points_map(points.reshape(B * N, n), u)
    except NonFiniteState as exc:
        if B == 1:
            raise _member_failure(NonFiniteState, str(exc), [0]) from exc
        bad = []
        for b in range(B):
            try:
                _map_points(points_map, points[b : b + 1], u)
            except NonFiniteState:
                bad.append(b)
        raise _member_failure(NonFiniteState, str(exc), bad) from exc
    return np.ascontiguousarray(out, dtype=float).reshape(B, N, -1)


def _mapped_points(
    x: Array, P: Array, points_map, u: Array, what: str
) -> tuple[Array, Array, Array]:
    """Cubature points on (x, P), and the mean of their images under a
    model map with each image's deviation from it, all (B, ...).

    Raises:
        DecompositionFailure: P cannot be factorized.
        NonFiniteState: an image is not finite.
    """
    pts = _points(x, _factored(P))
    images = _map_points(points_map, pts, u)
    bad = _nonfinite_members(images)
    if bad.size:
        raise _member_failure(NonFiniteState, f"{what} points are not finite", bad)
    mean = np.add.reduce(images, axis=1) / pts.shape[1]
    return pts, mean, images - mean[:, None, :]


def time_predict(state: FilterState, model: ProcessModel, u: Array, Q: Array) -> FilterState:
    """Propagate the posterior through the transition map.

    Returns the predicted state with step_index advanced by one.  The
    predicted covariance is the centered sample covariance of the
    propagated points plus Q, symmetrized.  state.P must be symmetric, as
    the stages return it: it is factorized as it is.

    Raises:
        NonFiniteState: a propagated point is not finite.
        DecompositionFailure: the posterior covariance cannot be factorized.
    """
    _, x_pred, centered = _mapped_points(
        state.x_hat, state.P, model.transition_points, u, "propagated cubature"
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
        x, predicted.P, model.observe_points, u, "projected measurement"
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
    gain solves gain @ P_zz = P_xz.  predicted.P must be symmetric, as
    time_predict returns it; the posterior covariance comes out
    symmetrized.  The update computes under the
    caller's floating-point error state, so a direct call on a failing
    member may emit numpy's RuntimeWarning before it raises.

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
    a float or one threshold per member; HuberConfig checked c when it
    was made.

    Raises:
        DegenerateChannel: some P_zz diagonal entry is not positive;
            exc.members lists the members concerned.
    """
    standardized = np.asarray(innovation, dtype=float) / np.sqrt(_channel_variances(P_zz))
    magnitude = np.abs(standardized)
    c = config._column
    # c / |r| only where |r| > c, so a zero residual divides nothing
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
    Like ckf_update it computes under the caller's floating-point error
    state, so a direct call on a failing member may emit numpy's
    RuntimeWarning before it raises; HuberConfig checked the tuning when
    it was made.
    """
    if config is None:
        config = HuberConfig()
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

    Each step runs under np.errstate(all="ignore"): a member whose numbers
    stop being finite is frozen by the stages' finiteness gates, and the
    step emits no floating-point warning.  init.P is symmetrized once,
    before the first step; the stages keep it symmetric from there.

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
    P0 = _symmetrized(np.asarray(init.P, dtype=float))
    state = FilterState(init.x_hat, P0, init.step_index)
    fixed_R = None if callable(R_provider) else np.asarray(R_provider, dtype=float)
    # one Q per member, which spares the predict's add a broadcast; it and
    # the update's tuning change only when a member freezes
    Q = np.array(np.broadcast_to(np.asarray(Q, dtype=float), P0.shape))
    classical = np.isinf(thresholds).all()
    config = HuberConfig(thresholds, huber.max_reweight_passes)
    for k in range(measurements.shape[0]):
        u = inputs[k]
        u_obs = observe_inputs[k] if observe_inputs is not None else u
        failed: list[tuple[int, Exception]] = []
        while members.size:
            try:
                with np.errstate(all="ignore"):
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
