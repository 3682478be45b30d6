"""Filter core: square roots, cubature statistics, updates, robust weights."""

import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsekit.errors import (
    DecompositionFailure,
    DegenerateChannel,
    InvalidConfig,
    NonFiniteState,
)
from dsekit.filters import (
    GATE_DOT_SIZE,
    FilterState,
    HuberConfig,
    ProcessModel,
    _all_finite,
    _factored,
    _points,
    huber_reweight,
    iter_batch,
    rckf_update,
    time_predict,
)

from oracles import linear_kalman_filter, random_stable_system, simulate_linear


def linear_model(A, H):
    n, m = A.shape[0], H.shape[0]
    return ProcessModel(
        n=n,
        m=m,
        transition_points=lambda x, u: x @ A.T,
        observe_points=lambda x, u: x @ H.T,
    )


def batch_of_one(state):
    """One filter's state in the batched shapes the stages take."""
    return FilterState(state.x_hat[None], state.P[None])


def run_one(model, init, inputs, measurements, Q, r, c=math.inf):
    """One filter run through iter_batch as a batch of one: its prior
    followed by each posterior, in one filter's shapes."""
    steps = iter_batch(
        model, batch_of_one(init), inputs, np.asarray(measurements, dtype=float)[:, None],
        Q, r, HuberConfig(c),
    )
    states = [init]
    for _, state, failed in steps:
        assert not failed
        states.append(member0(state))
    return states


def member0(result):
    """Member 0 of a batched stage result, or of a tuple of them, in one
    filter's shapes; None, the HuberResult of a classical update, stays."""
    if isinstance(result, tuple):
        return tuple(member0(r) for r in result)
    if result is None:
        return None
    values = {f.name: getattr(result, f.name) for f in fields(result)}
    return type(result)(
        **{k: v[0] if isinstance(v, np.ndarray) else v for k, v in values.items()}
    )


def random_spd(rng, n, scale=1.0):
    L = rng.standard_normal((n, n))
    return scale * (L @ L.T + n * np.eye(n))


class TestFactored:
    def test_known_factor(self):
        # [[4,2],[2,3]] has the exact factor [[2,0],[1,sqrt(2)]]
        S = _factored(np.array([[[4.0, 2.0], [2.0, 3.0]]]))[0]
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert_allclose(S, expected, rtol=0.0, atol=1e-15)

    def test_reconstructs_symmetric_input(self):
        rng = np.random.default_rng(7)
        P = random_spd(rng, 4)
        P = 0.5 * (P + P.T)
        S = _factored(P[None])[0]
        assert np.allclose(np.triu(S, 1), 0.0)
        assert_allclose(S @ S.T, P, rtol=1e-12, atol=1e-14)

    def test_jitter_rescues_singular_matrix(self):
        P = np.diag([1.0, 0.0])
        with np.errstate(invalid="ignore"):
            S = _factored(P[None])[0]
        assert np.isfinite(S).all()
        assert_allclose(S @ S.T, P, rtol=0.0, atol=1e-9)

    def test_indefinite_matrix_fails_after_ladder(self):
        with np.errstate(invalid="ignore"), pytest.raises(DecompositionFailure):
            _factored(np.array([[[1.0, 0.0], [0.0, -1.0]]]))

    def test_rejects_nonfinite(self):
        with np.errstate(invalid="ignore"), pytest.raises(DecompositionFailure):
            _factored(np.array([[[1.0, 0.0], [0.0, np.nan]]]))

    def test_members_factor_alone(self):
        # a stack's factors are the batched LAPACK call's bits, and a
        # member that needs the jitter ladder or fails leaves the others so
        rng = np.random.default_rng(11)
        stack = np.array([random_spd(rng, 4) for _ in range(6)])
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        np.testing.assert_array_equal(_factored(stack), np.linalg.cholesky(stack))
        # a singular member that the jitter ladder rescues, among healthy ones
        healthy = np.arange(6) != 2
        stack[2] = np.diag([1.0, 0.0, 2.0, 3.0])
        with np.errstate(invalid="ignore"):
            S = _factored(stack)
        np.testing.assert_array_equal(S[healthy], np.linalg.cholesky(stack[healthy]))
        assert np.isfinite(S).all()
        # an indefinite member fails alone, and is named
        stack[4] = np.diag([1.0, -1.0, 2.0, 3.0])
        with np.errstate(invalid="ignore"), pytest.raises(
            DecompositionFailure, match="not positive definite even after jitter"
        ) as info:
            _factored(stack)
        np.testing.assert_array_equal(info.value.members, [4])


class TestAllFinite:
    # the gate takes a dot product up to GATE_DOT_SIZE entries and
    # np.isfinite above; on either side it must be np.isfinite(a).all()
    @pytest.mark.parametrize(
        "size", [1, GATE_DOT_SIZE - 1, GATE_DOT_SIZE, GATE_DOT_SIZE + 1, 3 * GATE_DOT_SIZE + 4]
    )
    @pytest.mark.parametrize(
        "fill, entries",
        [
            (None, {}),
            # finite, though a plain sum of any two entries overflows
            (1e308, {}),
            (None, {-1: math.nan}),
            (None, {-1: math.inf}),
            (None, {0: -math.inf}),
            (None, {0: math.inf, -1: -math.inf}),
        ],
        ids=["finite", "1e308", "nan", "+inf", "-inf", "mixed-inf"],
    )
    def test_equals_isfinite_all(self, size, fill, entries):
        a = np.random.default_rng(size).standard_normal(size)
        if fill is not None:
            a[:] = fill
        for i, value in entries.items():
            a[i] = value
        # infinities of both signs raise the invalid flag in the dot
        with np.errstate(invalid="ignore"):
            assert _all_finite(a) is bool(np.isfinite(a).all())
            if size % 4 == 0:
                # the stages gate stacks of matrices
                stack = a.reshape(-1, 2, 2)
                assert _all_finite(stack) is bool(np.isfinite(stack).all())


class TestCubaturePoints:
    def test_structure_for_identity_covariance(self):
        x = np.array([1.0, -2.0, 0.5])
        points = _points(x, np.eye(3))
        assert points.shape == (6, 3)
        root = math.sqrt(3.0)
        for i in range(3):
            expected = x.copy()
            expected[i] += root
            assert_allclose(points[i], expected, rtol=0.0, atol=1e-15)
            expected[i] -= 2.0 * root
            assert_allclose(points[3 + i], expected, rtol=0.0, atol=1e-15)

    def test_moment_matching(self):
        # identity dynamics with Q = 0: the prediction is the mean and the
        # covariance of the equally weighted points, for 50 members at once
        rng = np.random.default_rng(11)
        members = [(rng.standard_normal(4), random_spd(rng, 4)) for _ in range(50)]
        model = ProcessModel(
            n=4, m=4, transition_points=lambda s, u: s, observe_points=lambda s, u: s
        )
        prior = FilterState(
            np.array([x for x, _ in members]),
            np.array([0.5 * (P + P.T) for _, P in members]),
        )
        pred = time_predict(prior, model, np.zeros(1), np.zeros((4, 4)))
        for (x, P), mean, cov in zip(members, pred.x_hat, pred.P):
            scale = max(1.0, float(np.abs(x).max()))
            assert np.abs(mean - x).max() <= 1e-12 * scale
            assert np.abs(cov - P).max() <= 1e-10 * float(np.abs(P).max())


class TestTimePredict:
    def test_identity_dynamics_zero_q(self):
        rng = np.random.default_rng(3)
        P = random_spd(rng, 4)
        x = rng.standard_normal(4)
        model = ProcessModel(
            n=4, m=1, transition_points=lambda s, u: s, observe_points=lambda s, u: s[:, :1]
        )
        pred = member0(
            time_predict(batch_of_one(FilterState(x, P)), model, np.zeros(1), np.zeros((4, 4)))
        )
        assert np.abs(pred.x_hat - x).max() <= 1e-12 * max(1.0, np.abs(x).max())
        assert np.abs(pred.P - P).max() <= 1e-10 * np.abs(P).max()

    def test_linear_dynamics_match_exact_propagation(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4)) * 0.4
        Q = np.diag(rng.uniform(0.001, 0.01, 4))
        P = random_spd(rng, 4)
        x = rng.standard_normal(4)
        model = linear_model(A, np.eye(4)[:2])
        pred = member0(time_predict(batch_of_one(FilterState(x, P)), model, np.zeros(1), Q))
        assert_allclose(pred.x_hat, A @ x, rtol=1e-12, atol=1e-13)
        assert_allclose(pred.P, A @ P @ A.T + Q, rtol=1e-10, atol=1e-12)
        assert_allclose(pred.P, pred.P.T, rtol=0.0, atol=1e-15)

    def test_nonfinite_propagation_raises(self):
        model = ProcessModel(
            n=2, m=1,
            transition_points=lambda s, u: np.full(s.shape, np.inf),
            observe_points=lambda s, u: s[:, :1],
        )
        with pytest.raises(NonFiniteState):
            time_predict(
                batch_of_one(FilterState(np.zeros(2), np.eye(2))), model, np.zeros(1),
                np.zeros((2, 2)),
            )


class TestCkfUpdate:
    def test_matches_exact_linear_update(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal((3, 4))
        R = np.diag(rng.uniform(0.01, 0.1, 3))
        P = random_spd(rng, 4)
        x = rng.standard_normal(4)
        z = rng.standard_normal(3)
        model = linear_model(np.eye(4), H)
        posterior, info, _ = member0(rckf_update(
            batch_of_one(FilterState(x, P)), z[None], model, np.zeros(1), np.diag(R),
            HuberConfig(math.inf),
        ))
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x_exact = x + K @ (z - H @ x)
        P_exact = P - K @ S @ K.T
        assert_allclose(posterior.x_hat, x_exact, rtol=1e-10, atol=1e-12)
        assert_allclose(posterior.P, P_exact, rtol=1e-9, atol=1e-11)
        assert_allclose(info.innovation, z - H @ x, rtol=1e-10, atol=1e-12)
        assert_allclose(info.P_zz, S, rtol=1e-9, atol=1e-11)

    def test_covariance_health(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            H = rng.standard_normal((3, 4))
            R = np.diag(rng.uniform(0.01, 0.1, 3))
            P = random_spd(rng, 4)
            x = rng.standard_normal(4)
            z = rng.standard_normal(3)
            posterior, _, _ = member0(rckf_update(
                batch_of_one(FilterState(x, P)), z[None], linear_model(np.eye(4), H),
                np.zeros(1), np.diag(R), HuberConfig(math.inf),
            ))
            asym = np.abs(posterior.P - posterior.P.T).max()
            assert asym <= 1e-12 * max(1.0, np.abs(posterior.P).max())
            eigs = np.linalg.eigvalsh(posterior.P)
            assert eigs.min() >= -1e-10 * np.trace(posterior.P)
            # conditioning on data cannot inflate total variance
            assert np.trace(posterior.P) <= np.trace(P) + 1e-12


class TestHuberConfig:
    # the tuning is checked once, when the config is made, not by every
    # update that reads it

    @pytest.mark.parametrize(
        "c", [0.0, math.nan, np.array([1.5, math.inf, -1.0])], ids=["zero", "nan", "array"]
    )
    def test_rejects_a_nonpositive_threshold(self, c):
        with pytest.raises(InvalidConfig, match="Huber threshold must be positive"):
            HuberConfig(c=c)

    def test_rejects_zero_passes(self):
        with pytest.raises(InvalidConfig, match="max_reweight_passes must be at least 1, got 0"):
            HuberConfig(c=1.5, max_reweight_passes=0)


class TestHuberReweight:
    def cfg(self, c=1.5):
        return HuberConfig(c=c)

    def test_inlier_weight_is_one(self):
        r = np.array([0.5, 0.5])
        res = huber_reweight(np.array([0.75, -0.75]), np.ones(2), r, self.cfg())
        assert_allclose(res.weights, [1.0, 1.0], rtol=0.0, atol=0.0)
        assert_allclose(res.r_bar, r, rtol=0.0, atol=0.0)

    def test_outlier_weight_decays(self):
        # standardized residual 2c gets weight exactly one half
        res = huber_reweight(np.array([3.0, 0.1]), np.ones(2), np.ones(2), self.cfg())
        assert res.weights[0] == pytest.approx(0.5, abs=0.0)
        assert res.weights[1] == 1.0
        assert res.r_bar[0] == pytest.approx(2.0, abs=0.0)

    def test_continuity_at_threshold(self):
        at = huber_reweight(np.array([1.5]), np.ones(1), np.ones(1), self.cfg())
        above = huber_reweight(np.array([1.5 + 1e-13]), np.ones(1), np.ones(1), self.cfg())
        assert at.weights[0] == 1.0
        assert abs(above.weights[0] - 1.0) <= 1e-12

    def test_standardization_uses_pzz_diagonal(self):
        variances = np.array([4.0, 0.25])
        res = huber_reweight(np.array([3.0, 0.3]), variances, np.ones(2), self.cfg())
        assert_allclose(res.standardized_residuals, [1.5, 0.6], rtol=0.0, atol=1e-15)
        assert_allclose(res.weights, [1.0, 1.0], rtol=0.0, atol=0.0)

    def test_rbar_divides_original_r_exactly(self):
        r = np.array([0.04, 0.09, 0.25])
        innovation = np.array([6.0, 0.5, -3.0])
        res = huber_reweight(innovation, np.ones(3), r, self.cfg())
        for i in range(3):
            assert res.r_bar[i] == r[i] / res.weights[i]

    def test_invalid_threshold(self):
        with pytest.raises(InvalidConfig):
            huber_reweight(np.zeros(2), np.ones(2), np.ones(2), HuberConfig(c=0.0))

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateChannel, match="channel 1"):
            huber_reweight(np.zeros(2), np.array([1.0, 0.0]), np.ones(2), self.cfg())

    def test_degenerate_member_found_beside_a_nan_member(self):
        # a NaN variance is not nonpositive, and must not hide a member
        # whose variance is
        variances = np.array([[np.nan, 1.0], [1.0, -2.0]])
        message = "channel 1 has nonpositive predicted variance -2.0"
        with pytest.raises(DegenerateChannel, match=message) as info:
            huber_reweight(np.zeros((2, 2)), variances, np.ones((2, 2)), self.cfg())
        assert info.value.members.tolist() == [1]


class TestRckfUpdate:
    def setup_case(self, seed=8):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((3, 4))
        r = rng.uniform(0.01, 0.05, 3)
        P = random_spd(rng, 4, scale=0.1)
        x = rng.standard_normal(4)
        return linear_model(np.eye(4), H), FilterState(x, P), H, r

    def test_coincides_with_ckf_for_inliers(self):
        model, prior, H, r = self.setup_case()
        z = H @ prior.x_hat  # zero innovation, every channel inside c
        c_state, _, _ = member0(
            rckf_update(batch_of_one(prior), z[None], model, np.zeros(1), r, HuberConfig(math.inf))
        )
        r_state, _, hub = member0(
            rckf_update(batch_of_one(prior), z[None], model, np.zeros(1), r, HuberConfig())
        )
        assert np.all(hub.weights == 1.0)
        assert np.abs(c_state.x_hat - r_state.x_hat).max() <= 1e-15
        assert np.abs(c_state.P - r_state.P).max() <= 1e-15

    def test_bounds_outlier_influence(self):
        model, prior, H, r = self.setup_case()
        z = H @ prior.x_hat
        z[1] += 50.0 * math.sqrt(r[1])
        c_state, _, _ = member0(
            rckf_update(batch_of_one(prior), z[None], model, np.zeros(1), r, HuberConfig(math.inf))
        )
        r_state, _, hub = member0(
            rckf_update(batch_of_one(prior), z[None], model, np.zeros(1), r, HuberConfig())
        )
        assert hub.weights[1] < 1.0
        assert hub.r_bar[1] > r[1]
        move_ckf = np.linalg.norm(c_state.x_hat - prior.x_hat)
        move_rckf = np.linalg.norm(r_state.x_hat - prior.x_hat)
        assert move_rckf < move_ckf
        assert np.trace(r_state.P) > np.trace(c_state.P)

    def test_multipass_restandardizes_against_original_r(self):
        model, prior, H, r = self.setup_case(9)
        z = H @ prior.x_hat
        z[0] += 30.0 * math.sqrt(r[0])
        one, _, hub1 = member0(
            rckf_update(batch_of_one(prior), z[None], model, np.zeros(1), r, HuberConfig(c=1.5))
        )
        three, _, hub3 = member0(rckf_update(
            batch_of_one(prior), z[None], model, np.zeros(1), r,
            HuberConfig(c=1.5, max_reweight_passes=3),
        ))
        # inflating P_zz shrinks |r'|, so later passes back off, but the
        # inflation is always relative to the original r
        assert hub3.weights[0] >= hub1.weights[0]
        assert hub3.r_bar[0] == r[0] / hub3.weights[0]
        assert np.isfinite(three.x_hat).all()

    def test_invalid_pass_count(self):
        model, prior, H, r = self.setup_case()
        with pytest.raises(InvalidConfig):
            rckf_update(
                batch_of_one(prior), np.zeros((1, 3)), model, np.zeros(1), r,
                HuberConfig(c=1.5, max_reweight_passes=0),
            )


class TestIterBatch:
    def test_matches_linear_kalman_oracle(self):
        rng = np.random.default_rng(12)
        A, H, Q, R, x0, P0 = random_stable_system(rng)
        measurements = simulate_linear(rng, A, H, Q, R, x0, steps=60)
        model = linear_model(A, H)
        init = FilterState(x0.copy(), P0.copy())
        states = run_one(model, init, [np.zeros(1)] * 61, measurements, Q, np.diag(R))
        oracle = linear_kalman_filter(A, H, Q, R, x0, P0, measurements)
        assert len(states) == 61
        for (x_ref, P_ref), state in zip(oracle, states):
            assert np.abs(state.x_hat - x_ref).max() <= 1e-10
            assert np.abs(state.P - P_ref).max() <= 1e-10

    def test_yields_once_per_measurement(self):
        model = linear_model(np.eye(2) * 0.5, np.eye(2))
        steps = iter_batch(
            model, FilterState(np.ones((1, 2)), np.eye(2)[None]), [np.zeros(1)] * 4,
            np.zeros((3, 1, 2)), np.eye(2) * 0.01, np.ones(2), HuberConfig(math.inf),
        )
        assert len(list(steps)) == 3

    def test_step_k_observes_with_input_row_k_plus_one(self):
        seen = {"transition": [], "observe": [], "r": []}

        def transition(x, u):
            seen["transition"].append(float(u[0]))
            return x

        def observe(x, u):
            seen["observe"].append(float(u[0]))
            return x

        def provider(predicted, u_obs):
            assert predicted.x_hat.shape == (1, 2) and predicted.P.shape == (1, 2, 2)
            seen["r"].append(float(u_obs[0]))
            return np.ones((1, 2))

        model = ProcessModel(n=2, m=2, transition_points=transition, observe_points=observe)
        steps = iter_batch(
            model, FilterState(np.zeros((1, 2)), np.eye(2)[None]),
            [np.array([10.0]), np.array([20.0]), np.array([30.0])],
            np.zeros((2, 1, 2)), np.eye(2) * 0.01, provider, HuberConfig(),
        )
        assert len(list(steps)) == 2
        assert seen == {
            "transition": [10.0, 20.0], "observe": [20.0, 30.0], "r": [20.0, 30.0]
        }

    @pytest.mark.parametrize("rows", [3, 5])
    def test_rejects_an_input_table_of_another_length(self, rows):
        # three measurements need four input rows
        calls = []

        def recorded(x, u):
            calls.append(u)
            return x

        def provider(predicted, u_obs):
            calls.append(u_obs)
            return np.ones((1, 2))

        model = ProcessModel(n=2, m=2, transition_points=recorded, observe_points=recorded)
        steps = iter_batch(
            model, FilterState(np.zeros((1, 2)), np.eye(2)[None]), [np.zeros(1)] * rows,
            np.zeros((3, 1, 2)), np.eye(2) * 0.01, provider, HuberConfig(),
        )
        with pytest.raises(ValueError, match=f"one row more than the 3 measurements, got {rows}"):
            next(steps)
        assert calls == []

    def test_divergence_is_annotated_with_step(self):
        model = linear_model(np.eye(2), np.eye(2))
        init = FilterState(np.zeros((1, 2)), np.eye(2)[None])
        measurements = np.zeros((4, 1, 2))
        measurements[2, 0, 0] = np.nan
        steps = list(iter_batch(
            model, init, [np.zeros(1)] * 5, measurements, np.eye(2) * 0.01, np.ones(2),
            HuberConfig(math.inf),
        ))
        # the batch ends with its one member frozen at measurement 2
        assert len(steps) == 3
        members, _, [(member, exc)] = steps[2]
        assert members.size == 0 and member == 0
        assert isinstance(exc, NonFiniteState)
        assert str(exc).startswith("measurement index 2: ")
        assert exc.step_index == 2

    def test_prior_is_symmetrized_once(self):
        # the stages factorize P as it is; the engine symmetrizes the prior
        # before the first step, so a skewed prior runs as its mean with
        # its transpose
        model = linear_model(np.eye(2) * 0.9, np.eye(2))
        skewed = np.array([[1.0, 0.3], [0.1, 2.0]])
        Q, r = np.eye(2) * 0.01, np.ones(2)
        measurements = [np.full(2, 0.5), np.array([4.0, 0.5]), np.zeros(2)]
        runs = [
            run_one(model, FilterState(np.ones(2), P0), [np.zeros(1)] * 4, measurements, Q, r, 1.5)
            for P0 in (skewed, 0.5 * (skewed + skewed.T))
        ]
        for a, b in zip(runs[0][1:], runs[1][1:]):
            np.testing.assert_array_equal(a.x_hat, b.x_hat)
            np.testing.assert_array_equal(a.P, b.P)

    def test_process_noise_is_symmetrized_once(self):
        # time_predict adds Q as it is; the engine symmetrizes Q before the
        # first step, so a skewed Q runs as its mean with its transpose
        model = linear_model(np.eye(2) * 0.9, np.eye(2))
        skewed = np.array([[0.01, 0.004], [-0.002, 0.03]])
        r = np.ones(2)
        measurements = [np.full(2, 0.5), np.array([4.0, 0.5]), np.zeros(2)]
        runs = [
            run_one(model, FilterState(np.ones(2), np.eye(2)), [np.zeros(1)] * 4, measurements,
                    Q, r, 1.5)
            for Q in (skewed, 0.5 * (skewed + skewed.T))
        ]
        for a, b in zip(runs[0][1:], runs[1][1:]):
            np.testing.assert_array_equal(a.x_hat, b.x_hat)
            np.testing.assert_array_equal(a.P, b.P)

    def test_rckf_posteriors_equal_stepping_the_stages(self):
        # a batch of one steps the public stages
        model = linear_model(np.eye(2) * 0.9, np.eye(2))
        init = FilterState(np.ones(2), np.eye(2))
        Q, r = np.eye(2) * 0.01, np.ones(2)
        measurements = [np.full(2, 0.5), np.array([4.0, 0.5]), np.full(2, 0.5), np.zeros(2)]
        states = run_one(model, init, [np.zeros(1)] * 5, measurements, Q, r, 1.5)
        assert len(states) == 5
        state = batch_of_one(init)
        for z, ref in zip(measurements, states[1:]):
            predicted = time_predict(state, model, np.zeros(1), Q)
            state, _, _ = rckf_update(predicted, z[None], model, np.zeros(1), r, HuberConfig())
            stepped = member0(state)
            np.testing.assert_array_equal(stepped.x_hat, ref.x_hat)
            np.testing.assert_array_equal(stepped.P, ref.P)
