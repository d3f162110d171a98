"""Oracle self-checks: each reference computation is validated against an
independent second route before the engine is measured with it."""

import numpy as np
import pytest

from paramsmc.benchmarks import LinearGaussianModel, slam_large, slam_small
from paramsmc.errors import PointBudgetError
from paramsmc.model import gaussian_logpdf, simulate
from paramsmc.oracles import (
    grid_posterior,
    kalman_filter,
    kl_factorized,
    mse,
    pf_log_likelihood,
    slam_exact_forward,
)
from paramsmc.quadrature import gauss_hermite_1d
from paramsmc.rng import substream


def enumerate_map_posterior(model, observations):
    """Independent route: per-map location-HMM likelihood, then normalize.

    Plain Python loops over every map hypothesis; deliberately shares no
    code with slam_exact_forward.
    """
    obs = [int(round(float(v))) for v in np.asarray(observations).reshape(-1)]
    n_maps = model.n_labels**model.n_cells
    wrong_p = (1.0 - model.p_obs) / (model.n_labels - 1)
    weights = np.zeros(n_maps)
    maps = []
    for k in range(n_maps):
        digits = []
        kk = k
        for _ in range(model.n_cells):
            digits.append(kk % model.n_labels)
            kk //= model.n_labels
        maps.append(digits)
        alpha = model.initial_location_dist.copy()
        lik = 1.0
        for t, label in enumerate(obs):
            if t > 0:
                new_alpha = np.zeros_like(alpha)
                for i in range(model.n_cells):
                    j = min(max(i + int(model.actions[t - 1]), 0), model.n_cells - 1)
                    if j == i:
                        new_alpha[i] += alpha[i]
                    else:
                        new_alpha[j] += alpha[i] * model.p_move
                        new_alpha[i] += alpha[i] * (1.0 - model.p_move)
                alpha = new_alpha
            emit = np.array(
                [model.p_obs if digits[i] == label else wrong_p for i in range(model.n_cells)]
            )
            alpha = alpha * emit
            z = alpha.sum()
            lik *= z
            alpha /= z
        weights[k] = lik
    weights /= weights.sum()
    marginals = np.zeros((model.n_cells, model.n_labels))
    for k, digits in enumerate(maps):
        for i, v in enumerate(digits):
            marginals[i, v] += weights[k]
    return marginals


class TestSlamExactForward:
    def test_no_observations_gives_uniform(self):
        model = slam_small()
        post = slam_exact_forward(model, np.zeros((0, 1)))
        assert np.allclose(post.map_marginals, 0.5, atol=1e-12)

    def test_noiseless_identifiable_case(self):
        # known start, deterministic moves, perfect sensing: the map
        # posterior is a point mass on the generating map
        start = np.zeros(8)
        start[0] = 1.0
        model = slam_small(p_move=1.0, p_obs=1.0, initial_location_dist=start,
                           actions=["R"] * 7)
        theta = model.true_map.astype(np.float64)
        _, obs = simulate(model, theta, model.n_steps(), substream(0, 0))
        post = slam_exact_forward(model, obs)
        for i in range(8):
            assert np.isclose(post.map_marginals[i, model.true_map[i]], 1.0, atol=1e-12)

    def test_matches_independent_enumeration(self):
        model = slam_small()
        theta = model.true_map.astype(np.float64)
        _, obs = simulate(model, theta, model.n_steps(), substream(3, 0))
        fast = slam_exact_forward(model, obs)
        slow = enumerate_map_posterior(model, obs)
        assert np.allclose(fast.map_marginals, slow, atol=1e-12)

    def test_marginals_normalized(self):
        model = slam_small()
        theta = model.true_map.astype(np.float64)
        _, obs = simulate(model, theta, 16, substream(5, 0))
        post = slam_exact_forward(model, obs)
        assert np.allclose(post.map_marginals.sum(axis=1), 1.0, atol=1e-12)
        assert np.isclose(post.location_marginal.sum(), 1.0, atol=1e-12)

    def test_budget_refusal_on_large_instance(self):
        model = slam_large()
        with pytest.raises(PointBudgetError):
            slam_exact_forward(model, np.zeros((3, 1)))


class TestKalman:
    def test_huge_obs_noise_keeps_prior_propagation(self):
        model = LinearGaussianModel(obs_sd=1e6)
        obs = np.array([0.3, -0.2, 0.5])
        res = kalman_filter(model, 0.9, obs)
        # posterior stays at the prior-propagated values: mean 0
        assert np.allclose(res.means, 0.0, atol=1e-6)

    def test_single_observation_conjugate(self):
        model = LinearGaussianModel(obs_sd=0.5, x0_mean=0.0, x0_sd=1.0)
        y = 0.8
        res = kalman_filter(model, 0.7, np.array([y]))
        # conjugate posterior: precision 1/1 + 1/0.25
        v = 1.0 / (1.0 + 4.0)
        m = v * (y * 4.0)
        assert np.isclose(res.means[0], m, atol=1e-12)
        assert np.isclose(res.variances[0], v, atol=1e-12)
        assert np.isclose(
            res.log_likelihood, gaussian_logpdf(y, 0.0, np.sqrt(1.25)), atol=1e-12
        )

    def test_loglik_against_iterated_quadrature(self):
        # brute force: E over the prior chain of the three observation
        # densities, evaluated by nested Gauss-Hermite rules
        model = LinearGaussianModel(trans_sd=0.8, obs_sd=0.6, x0_sd=1.0)
        theta = 0.7
        obs = np.array([0.4, -0.3, 0.9])
        res = kalman_filter(model, theta, obs)

        nodes, weights = gauss_hermite_1d(48)
        x0 = model.x0_mean + model.x0_sd * nodes
        f0 = np.exp(gaussian_logpdf(obs[0], x0, model.obs_sd))
        total = 0.0
        for i, x0i in enumerate(x0):
            x1 = theta * x0i + model.trans_sd * nodes
            f1 = np.exp(gaussian_logpdf(obs[1], x1, model.obs_sd))
            inner = np.zeros_like(x1)
            for j, x1j in enumerate(x1):
                x2 = theta * x1j + model.trans_sd * nodes
                f2 = np.exp(gaussian_logpdf(obs[2], x2, model.obs_sd))
                inner[j] = weights @ f2
            total += weights[i] * f0[i] * (weights @ (f1 * inner))
        assert np.isclose(res.log_likelihood, np.log(total), atol=1e-8)


class TestGridPosterior:
    def test_flat_likelihood_returns_prior(self):
        # zero observations of pure noise leave theta untouched only in
        # the no-data limit; use an empty observation set
        model = LinearGaussianModel()
        grid = np.linspace(-2, 2, 41)
        post = grid_posterior(model, np.zeros((0, 1)), grid, likelihood="exact")
        prior = np.exp(-0.5 * grid**2)
        prior /= prior.sum()
        assert np.allclose(post.masses, prior, atol=1e-12)

    def test_symmetric_data_symmetric_posterior(self):
        model = LinearGaussianModel()
        obs = np.array([0.0, 0.0])
        grid = np.linspace(-2, 2, 41)
        post = grid_posterior(model, obs, grid, likelihood="exact")
        assert np.allclose(post.masses, post.masses[::-1], atol=1e-12)
        assert abs(post.mean()) < 1e-12

    def test_grid_refinement_stability(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 60, substream(21, 0))
        coarse = grid_posterior(model, obs, np.linspace(-2, 2, 81), likelihood="exact")
        fine = grid_posterior(model, obs, np.linspace(-2, 2, 161), likelihood="exact")
        assert abs(coarse.mean() - fine.mean()) < 1e-3

    def test_concentrates_near_truth(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 200, substream(22, 0))
        post = grid_posterior(model, obs, np.linspace(-2, 2, 161), likelihood="exact")
        assert abs(post.mean() - 0.7) < 0.15

    @pytest.mark.slow
    def test_sin_pf_grid_concentrates(self):
        # at T=200 the posterior itself has sd ~0.1, so the dataset is
        # pinned to a typical realization
        from paramsmc.benchmarks import SinModel

        model = SinModel()
        _, obs = simulate(model, np.array([-0.5]), 200, substream(5, 0))
        grid = np.linspace(-1.0, 0.0, 21)
        post = grid_posterior(
            model, obs, grid, likelihood="pf", n_particles=1500, n_replications=3, seed=5
        )
        assert abs(post.mode() + 0.5) <= 0.1 + 1e-9


class TestKl:
    def test_identical_tables_zero(self):
        t = np.array([[0.3, 0.7], [0.5, 0.5]])
        assert kl_factorized(t, t) == 0.0

    def test_hand_value(self):
        exact = np.array([[1.0, 0.0]])
        estimate = np.array([[0.5, 0.5]])
        assert np.isclose(kl_factorized(estimate, exact), np.log(2.0), atol=1e-12)

    def test_floor_prevents_infinity(self):
        exact = np.array([[1.0, 0.0]])
        estimate = np.array([[0.0, 1.0]])
        val = kl_factorized(estimate, exact)
        assert np.isfinite(val)
        assert val > 20.0

    def test_nonnegative(self):
        rng = substream(9, 0)
        for _ in range(50):
            a = rng.random((4, 3)) + 1e-6
            a /= a.sum(axis=1, keepdims=True)
            b = rng.random((4, 3)) + 1e-6
            b /= b.sum(axis=1, keepdims=True)
            assert kl_factorized(b, a) >= -1e-12


class TestMse:
    def test_perfect_estimates(self):
        assert mse(np.full(10, -0.5), np.array([-0.5])) == 0.0

    def test_symmetric_miss(self):
        assert mse(np.array([0.5, -1.5]), np.array([-0.5])) == 1.0

    def test_multivariate_sums_dims(self):
        est = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert mse(est, np.array([0.0, 0.0])) == 5.0


class TestPfLogLikelihood:
    def test_matches_kalman_in_expectation(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 40, substream(31, 0))
        exact = kalman_filter(model, 0.7, obs).log_likelihood
        reps = np.array(
            [
                pf_log_likelihood(model, [0.7], obs, 2000, substream(31, r))
                for r in range(1, 9)
            ]
        )
        # the estimator is unbiased in linear space; in log space it is
        # biased low, so allow a small one-sided slack
        assert abs(reps.mean() - exact) < 0.5
        assert reps.std() < 1.0

    def test_nan_observation_gives_minus_inf(self):
        # a step with no weight has no likelihood: -inf, not an exception
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 20, substream(31, 0))
        obs[7] = np.nan
        assert pf_log_likelihood(model, [0.7], obs, 50, substream(31, 1)) == -np.inf
