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
a batch of one, x_hat (1, n) and P (1, n, n).  R is diagonal by type: the
filters take the measurement noise as a vector r of channel variances, so
the classical filter is exactly the robust one with an infinite Huber
threshold, and both variants share one batch and one update.
The stages take P symmetric and factorize it as it is.  rckf_update
symmetrizes the posterior it returns; time_predict returns C / N + Q as it
is, exactly symmetric because the centered point product C is and Q is:
iter_batch symmetrizes P0 and Q once, before the first step.
A stage that fails on some members raises with exc.members, the indices
of those members in the batch; the batch engine (iter_batch) freezes them
and carries on with the rest.  Members never mix: each member's result is
the same bits whatever else shares its batch.  The model maps never raise:
a point a map cannot evaluate comes out not finite, and the finiteness
gate on the mapped points names the member it belongs to.

The stages compute under the caller's floating-point error state: a
failing member's numbers come out NaN or infinite and are caught by the
finiteness gates, not by the error state.  iter_batch runs each step
under np.errstate(all="ignore"), so a batch step emits no floating-point
warning.  The stages, called directly on a failing member, may emit
numpy's RuntimeWarning before they raise.
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
    measurements.  A row's image must not depend on the other rows.  A map
    does not raise on a row it cannot evaluate: that row's image comes out
    not finite, and the filter stages' finiteness gate names the member
    it belongs to.
    """

    n: int
    m: int
    transition_points: Callable[[Array, Array], Array]
    observe_points: Callable[[Array, Array], Array]


@dataclass(slots=True)
class FilterState:
    """State estimate and error covariance at one step: x_hat (B, n) and
    P (B, n, n) for a batch of B filters, as the stages take and return
    them; a single filter is B = 1."""

    x_hat: Array
    P: Array


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
    makes a member's update the classical one, and a config whose every
    threshold is math.inf makes rckf_update skip the reweight.

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
        # the thresholds as a float column, c[..., None], for huber_reweight,
        # and whether every one is infinite, for rckf_update; not fields, so
        # the config's fields are the two tuning values
        object.__setattr__(self, "_column", c[..., None])
        object.__setattr__(self, "_classical", bool(np.isinf(c).all()))


@dataclass(slots=True)
class HuberResult:
    standardized_residuals: Array
    weights: Array
    r_bar: Array


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
    flat = a.ravel()
    if flat.size > GATE_DOT_SIZE:
        return bool(np.isfinite(flat).all())
    # the method skips np.dot's dispatch through __array_function__
    return math.isfinite(flat.dot(_tiny(flat.size)))


def _nonfinite_members(a: Array) -> Array:
    """Indices along the first axis of the members holding a non-finite
    entry; the scan behind a failed _all_finite gate."""
    return np.flatnonzero(~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1))


def _symmetrized(a: Array) -> Array:
    """Stack of matrices, each replaced by the mean of itself and its
    transpose."""
    sym = a + a.swapaxes(1, 2)
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


def _factored(sym: Array) -> Array:
    """Lower-triangular S with S @ S.T equal to each member of a stack
    (B, n, n) that is already symmetric, as the stages' covariances are.

    Members whose plain factorization fails get escalating diagonal jitter
    (JITTER_LADDER times their mean diagonal); the others are factorized
    as they are.

    Raises:
        DecompositionFailure: some member is not finite or stays
            non-factorizable after the largest jitter; exc.members lists
            those members.
    """
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
    """Spherical-radial point set for mean x_hat and covariance S @ S.T:
    the 2n points x_hat +/- sqrt(n) times each column of S, all sharing
    the weight 1 / (2n); (2n, n) for one filter and (B, 2n, n) for a
    batch, C-contiguous, so that a stack reshapes to rows without a copy."""
    columns, scale = _cubature_pattern(x_hat.shape[-1])
    pts = S.swapaxes(-1, -2).take(columns, axis=-2)
    # x + (-sqrt(n) * s) is x - sqrt(n) * s, bit for bit
    pts *= scale
    pts += x_hat[..., None, :]
    return pts


def _mapped_points(
    x: Array, P: Array, points_map, u: Array, failure: str
) -> tuple[Array, Array, Array]:
    """Cubature points on (x, P), and the mean of their images under a
    model map with each image's deviation from it, all (B, ...).

    Raises:
        DecompositionFailure: P cannot be factorized.
        NonFiniteState: an image is not finite, with the message failure;
            exc.members lists the members whose images those are.
    """
    pts = _points(x, _factored(P))
    B, N, n = pts.shape
    # C-contiguous: the layout of a map's output, which may follow that of
    # its input, would otherwise change the bits of the reductions below
    images = np.ascontiguousarray(points_map(pts.reshape(B * N, n), u), dtype=float)
    images = images.reshape(B, N, -1)
    if not _all_finite(images):
        raise _member_failure(NonFiniteState, failure, _nonfinite_members(images))
    mean = np.add.reduce(images, axis=1)
    mean /= N
    return pts, mean, images - mean[:, None, :]


def time_predict(state: FilterState, model: ProcessModel, u: Array, Q: Array) -> FilterState:
    """Propagate the posterior through the transition map.

    The predicted covariance is the centered sample covariance of the
    propagated points plus Q, not symmetrized: that product of the points
    with themselves is exactly symmetric, and Q must be symmetric too
    (iter_batch symmetrizes it once).  state.P must be symmetric, as the
    stages return it: it is factorized as it is.

    Raises:
        NonFiniteState: a propagated point is not finite.
        DecompositionFailure: the posterior covariance cannot be factorized.
    """
    _, x_pred, centered = _mapped_points(
        state.x_hat, state.P, model.transition_points, u,
        "integration step produced a non-finite state",
    )
    P_pred = centered.swapaxes(1, 2) @ centered
    P_pred /= centered.shape[1]
    P_pred += Q
    return FilterState(x_pred, P_pred)


def _positive_variances(variances: Array) -> Array:
    """The predicted channel variances (the P_zz diagonal), (m,) or (B, m),
    checked to be positive.

    Raises:
        DegenerateChannel: some entry is not positive; exc.members lists
            the members concerned.
    """
    # fmin passes over NaN entries, which are not nonpositive
    if np.fmin.reduce(variances, axis=None, initial=math.inf) <= 0.0:
        rows = variances.reshape(-1, variances.shape[-1])
        members = np.flatnonzero((rows <= 0.0).any(axis=1))
        bad = int(np.argmin(rows[members[0]]))
        raise _member_failure(
            DegenerateChannel,
            f"channel {bad} has nonpositive predicted variance {rows[members[0], bad]}",
            members,
        )
    return variances


def _raise_update_failure(P_zz: Array, P_xz: Array, x_post: Array, P_post: Array) -> None:
    """Raise for the members whose posterior is not finite, naming the
    cause: P_zz not finite, checked first over the whole batch; then P_zz
    singular, solved member by member; then the posterior itself."""
    if not _all_finite(P_zz):
        raise _member_failure(
            DecompositionFailure, "matrix contains non-finite entries", _nonfinite_members(P_zz)
        )
    bad = np.flatnonzero(~(np.isfinite(x_post).all(axis=1) & np.isfinite(P_post).all(axis=(1, 2))))
    singular, cause = [], None
    for b in bad:
        try:
            np.linalg.solve(P_zz[b : b + 1], P_xz[b : b + 1].swapaxes(1, 2))
        except np.linalg.LinAlgError as exc:
            singular.append(b)
            cause = cause or exc
    if singular:
        raise _member_failure(
            DecompositionFailure, "innovation covariance is singular", singular
        ) from cause
    if bad.size:
        raise _member_failure(NonFiniteState, "corrected estimate is not finite", bad)


@lru_cache(maxsize=None)
def _identity(m: int) -> Array:
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def huber_reweight(
    innovation: Array, variances: Array, r: Array, config: HuberConfig
) -> HuberResult:
    """Channel-wise Huber weights from standardized innovations.

    Each innovation is divided by the square root of its channel's
    predicted variance, the matching P_zz diagonal entry.  Channels whose
    standardized innovation e lies inside the threshold keep weight one;
    outside, the weight decays as c / |e|.  The result's r_bar is r, the
    measurement noise variance of each channel, divided by the weights.
    innovation and variances are (m,) for one filter or (B, m) for a
    batch, r is (m,) or (B, m), and c is a float or one threshold per
    member; HuberConfig checked c when it was made.

    Raises:
        DegenerateChannel: some predicted variance is not positive;
            exc.members lists the members concerned.
    """
    standardized = innovation / np.sqrt(_positive_variances(variances))
    magnitude = np.abs(standardized)
    c = config._column
    # c / |e| only where |e| > c, so a zero innovation divides nothing
    weights = np.empty(magnitude.shape)
    weights.fill(1.0)
    np.divide(c, magnitude, out=weights, where=magnitude > c)
    return HuberResult(standardized_residuals=standardized, weights=weights, r_bar=r / weights)


def rckf_update(
    predicted: FilterState,
    z: Array,
    model: ProcessModel,
    u: Array,
    r: Array,
    config: HuberConfig,
) -> tuple[FilterState, UpdateIntermediates, HuberResult | None]:
    """Huber-robustified measurement update; with c infinite, the
    classical one.

    r is the measurement noise variance of each channel, (m,) or (B, m).
    P_zz is the centered point statistic plus diag(r), and the gain solves
    gain @ P_zz = P_xz.  Each reweight pass re-standardizes the innovation
    against the current P_zz diagonal but divides the original r, so
    weights never compound.  With every threshold infinite the reweight,
    which would keep r, is skipped and the HuberResult is None.
    predicted.P must be symmetric, as time_predict returns it; the
    posterior comes out symmetrized.  A direct call on a failing member
    may emit numpy's RuntimeWarning before it raises.

    Raises:
        DegenerateChannel: some predicted channel variance is not
            positive; exc.members lists the members concerned.
        DecompositionFailure: P cannot be factorized, or some P_zz is
            not finite or singular.
        NonFiniteState: a projected point or the posterior is not finite.
    """
    r = np.asarray(r, dtype=float)
    x, P = predicted.x_hat, predicted.P
    pts, z_hat, Zc = _mapped_points(
        x, P, model.observe_points, u, "projected measurement points are not finite"
    )
    N = pts.shape[1]
    core = Zc.swapaxes(1, 2) @ Zc
    core /= N
    pts -= x[:, None, :]
    P_xz = pts.swapaxes(1, 2) @ Zc
    P_xz /= N
    innovation = z - z_hat
    r_bar, result = r, None
    if not config._classical:
        core_variances = core.diagonal(0, -2, -1)
        for _ in range(config.max_reweight_passes):
            result = huber_reweight(innovation, core_variances + r_bar, r, config)
            r_bar = result.r_bar
    # R_bar embedded as a diagonal matrix whose off-diagonals add +0.0
    P_zz = core + _identity(core.shape[-1]) * r_bar[..., None, :]
    if result is None:
        # the gate huber_reweight applies, on the same variances
        _positive_variances(P_zz.diagonal(0, -2, -1))
    # gain @ P_zz = P_xz, solved as P_zz @ gain.T = P_xz.T; a member whose
    # P_zz is singular or not finite gets a gain, and so a posterior, that
    # is not finite, so P_zz is gated only when the posterior fails
    gain = _umath_linalg.solve(P_zz, P_xz.swapaxes(1, 2), signature="dd->d").swapaxes(1, 2)
    x_post = (gain @ innovation[:, :, None])[:, :, 0]
    x_post += x
    P_post = gain @ P_zz @ gain.swapaxes(1, 2)
    np.subtract(P, P_post, out=P_post)
    P_post = _symmetrized(P_post)
    if not (_all_finite(x_post) and _all_finite(P_post)):
        _raise_update_failure(P_zz, P_xz, x_post, P_post)
    info = UpdateIntermediates(z_hat, P_zz, P_xz, gain, innovation)
    return FilterState(x_post, P_post), info, result


def iter_batch(
    model: ProcessModel,
    init: FilterState,
    inputs: Sequence[Array],
    measurements: Array,
    Q: Array,
    r,
    huber: HuberConfig,
) -> Iterator[tuple[Array, FilterState, list[tuple[int, Exception]]]]:
    """Advance a batch of filters in lockstep over a measurement sequence.

    Args:
        model: process model shared by the members.
        init: batched prior at step 0, x_hat (B, n) and P (B, n, n).
        inputs: T + 1 input rows, shared by the members, one per grid
            point: step k predicts with row k and observes measurement k
            with row k + 1.
        measurements: (T, B, m), the measurement of each member per step.
        Q: process noise covariance, (n, n) shared or (B, n, n) one per
            member, fixed across steps; symmetrized once, as init.P is.
        r: the measurement noise variance of each channel, R being
            diagonal: a fixed (m,) vector, or a callable
            (predicted_batch, observe_input) -> (A, m) with one row per
            live member; observe_input is the row step k observes with.
        huber: c is one threshold per member (math.inf for the
            classical filter) or one for all; max_reweight_passes is
            shared.

    Each step runs under np.errstate(all="ignore"): a member whose numbers
    stop being finite is frozen by the stages' finiteness gates, and the
    step emits no floating-point warning.  init.P and Q are symmetrized
    once, before the first step: time_predict keeps a symmetric P
    symmetric when Q is, and rckf_update symmetrizes its posterior.

    Yields once per step (members, posterior, failed): the indices of the
    members still live after the step, their batched posterior, and
    (member, exception) for each member frozen at this step.  A frozen
    member's exception carries the measurement index as a message prefix
    and as exc.step_index; it takes no further steps and does not touch
    the other members.

    Raises:
        ValueError: inputs does not hold T + 1 rows, or a fixed r is not
            (m,), raised before the first step; or a provided r is not
            (A, m), raised at the step it arrives.
    """
    measurements = np.asarray(measurements, dtype=float)
    if len(inputs) != measurements.shape[0] + 1:
        raise ValueError(
            f"inputs must hold one row more than the {measurements.shape[0]} "
            f"measurements, got {len(inputs)}"
        )
    m = model.m
    provider = r if callable(r) else None
    if provider is None:
        r = np.asarray(r, dtype=float)
        if r.shape != (m,):
            raise ValueError(f"a fixed r must have shape ({m},), got {r.shape}")
    members = np.arange(measurements.shape[1])
    thresholds = np.broadcast_to(np.asarray(huber.c, dtype=float), members.shape)
    P0 = _symmetrized(np.asarray(init.P, dtype=float))
    state = FilterState(init.x_hat, P0)
    # one Q per member, which spares the predict's add a broadcast; it and
    # the update's tuning change only when a member freezes
    Q = _symmetrized(np.broadcast_to(np.asarray(Q, dtype=float), P0.shape))
    config = HuberConfig(thresholds, huber.max_reweight_passes)
    for k in range(measurements.shape[0]):
        u = inputs[k]
        u_obs = inputs[k + 1]
        failed: list[tuple[int, Exception]] = []
        while members.size:
            try:
                with np.errstate(all="ignore"):
                    predicted = time_predict(state, model, u, Q)
                    if provider is not None:
                        r = np.asarray(provider(predicted, u_obs), dtype=float)
                        if r.shape != (members.size, m):
                            shape = f"({members.size}, {m}), got {r.shape}"
                            raise ValueError(f"the r provider must return shape {shape}")
                    state, _, _ = rckf_update(predicted, measurements[k], model, u_obs, r, config)
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
                state = FilterState(state.x_hat[keep], state.P[keep])
                thresholds = thresholds[keep]
                Q = Q[keep]
                config = HuberConfig(thresholds, huber.max_reweight_passes)
                measurements = measurements[:, keep]
        yield members, state, failed
        if not members.size:
            return
