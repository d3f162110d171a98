"""Oracle self-checks: each reference computation is validated against an
independent second route before the engine is measured with it."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from paramsmc import oracles
from paramsmc.benchmarks import LinearGaussianModel, SinModel, get_model, slam_large, slam_small
from paramsmc.errors import PointBudgetError
from paramsmc.model import gaussian_logpdf, simulate
from paramsmc.oracles import (
    grid_posterior,
    kalman_filter,
    kl_factorized,
    mse,
    pf_log_likelihood,
    slam_exact_forward,
    state_grid_log_likelihood,
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

    def test_fixed_theta_model_runs_at_its_own_theta_bits(self):
        # filtered at whatever theta was passed, not at the model's own
        obs = np.array([0.4, -0.3, 0.9, 1.2])
        fixed = kalman_filter(LinearGaussianModel(theta_fixed=0.5), None, obs)
        free = kalman_filter(LinearGaussianModel(), 0.5, obs)
        assert fixed.log_likelihood == free.log_likelihood
        assert np.array_equal(fixed.means, free.means) and np.array_equal(fixed.variances, free.variances)

    @pytest.mark.parametrize("fixed, theta", [(0.5, 0.9), (None, None)])
    def test_theta_given_exactly_when_the_model_is_free(self, fixed, theta):
        with pytest.raises(ValueError):
            kalman_filter(LinearGaussianModel(theta_fixed=fixed), theta, np.zeros(3))


class TestGridPosterior:
    def test_flat_likelihood_returns_prior(self):
        # zero observations of pure noise leave theta untouched only in
        # the no-data limit; use an empty observation set
        model = LinearGaussianModel()
        grid = np.linspace(-2, 2, 41)
        post = grid_posterior(model, np.zeros((0, 1)), grid)
        prior = np.exp(-0.5 * grid**2)
        prior /= prior.sum()
        assert np.allclose(post.masses, prior, atol=1e-12)

    def test_symmetric_data_symmetric_posterior(self):
        model = LinearGaussianModel()
        obs = np.array([0.0, 0.0])
        grid = np.linspace(-2, 2, 41)
        post = grid_posterior(model, obs, grid)
        assert np.allclose(post.masses, post.masses[::-1], atol=1e-12)
        assert abs(post.mean()) < 1e-12

    def test_grid_refinement_stability(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 60, substream(21, 0))
        coarse = grid_posterior(model, obs, np.linspace(-2, 2, 81))
        fine = grid_posterior(model, obs, np.linspace(-2, 2, 161))
        assert abs(coarse.mean() - fine.mean()) < 1e-3

    def test_concentrates_near_truth(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 200, substream(22, 0))
        post = grid_posterior(model, obs, np.linspace(-2, 2, 161))
        assert abs(post.mean() - 0.7) < 0.15

    def test_sin_state_grid_concentrates(self):
        # at T=200 the posterior itself has sd ~0.1, so the dataset is
        # pinned to a typical realization
        model = SinModel()
        _, obs = simulate(model, np.array([-0.5]), 200, substream(5, 0))
        post = grid_posterior(model, obs, np.linspace(-1.0, 0.0, 21))
        assert abs(post.mode() + 0.5) <= 0.1 + 1e-9

    def test_kalman_grid_is_the_pointwise_filter_bits(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 60, substream(21, 0))
        grid = np.linspace(-2, 2, 121)
        together = kalman_filter(model, grid, obs)
        apart = [kalman_filter(model, theta, obs) for theta in grid]
        assert together.log_likelihood.tobytes() == np.array([r.log_likelihood for r in apart]).tobytes()
        assert together.means.tobytes() == np.stack([r.means for r in apart], axis=1).tobytes()
        assert together.variances.tobytes() == np.stack([r.variances for r in apart], axis=1).tobytes()


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its file as a private module and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStateGrid:
    # The integrands vanish at the grid ends, so the rectangle rule is the
    # trapezoid rule, at least second order in the spacing h: the error at
    # h/2 is at most a quarter of the error at h, which is then at most 4/3
    # of the change from h to h/2.  (On these Gaussian integrands it does
    # far better: on the lg data below, halving h from 2.0 cuts the error
    # from 3.2 to 5e-3, from 1.0 to 7e-13.)  Rounding adds at most one eps
    # of the running sum per step.
    @pytest.mark.parametrize("spacing", [1.0, oracles.STATE_GRID_SPACING], ids=["coarse", "default"])
    def test_matches_kalman_on_lg(self, monkeypatch, spacing):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 200, substream(22, 0))
        grid = np.linspace(0.3, 1.1, 61)
        exact = kalman_filter(model, grid, obs).log_likelihood
        monkeypatch.setattr(oracles, "STATE_GRID_SPACING", spacing)
        at_h = state_grid_log_likelihood(model, obs, grid)
        monkeypatch.setattr(oracles, "STATE_GRID_SPACING", spacing / 2)
        at_half = state_grid_log_likelihood(model, obs, grid)
        rounding = obs.shape[0] * np.finfo(np.float64).eps * np.abs(exact).max()
        assert np.abs(at_h - exact).max() <= 4 / 3 * np.abs(at_h - at_half).max() + rounding

    # At the default grid the lg log-likelihood above is exact to rounding,
    # and the sin kernels are no narrower in x_{t-1} than trans_sd / 1.21
    # on these parameter grids.  Rounding moves the masses by about 1e-14;
    # 1e-12 leaves a hundredfold margin, while the 5e-3 discretization
    # error of the coarse lg grid would fail it.
    @pytest.mark.parametrize(
        "constant, factor", [("STATE_GRID_SPACING", 0.5), ("STATE_GRID_REACH", 2.0)], ids=["finer", "wider"]
    )
    @pytest.mark.parametrize("name, theta", [("sin", -0.5), ("sin-bimodal", 0.7)])
    def test_sin_posterior_does_not_move_with_the_grid(self, monkeypatch, name, theta, constant, factor):
        model = get_model(name)
        _, obs = simulate(model, np.array([theta]), 300, substream(7, 0))
        grid = theta + np.linspace(-0.4, 0.4, 41)
        default = grid_posterior(model, obs, grid)
        monkeypatch.setattr(oracles, constant, getattr(oracles, constant) * factor)
        changed = grid_posterior(model, obs, grid)
        assert np.abs(changed.masses - default.masses).max() < 1e-12
        assert abs(changed.mean() - default.mean()) < 1e-12
        assert abs(changed.variance() - default.variance()) < 1e-12

    @pytest.mark.parametrize("name, theta", [("sin", -0.5), ("sin-bimodal", 0.7)])
    def test_matches_the_perfbench_reference(self, monkeypatch, name, theta):
        # perfbench's own filter shares no code with this one; its default
        # state axis (161 points over +/-5.5) is off by up to 6e-10 here, so
        # it runs at the finer axis its own refinement test uses
        workloads = _perfbench_workloads()
        monkeypatch.setattr(workloads, "STATE_HALF_RANGE", 7.0)
        monkeypatch.setattr(workloads, "STATE_POINTS", 401)
        model = get_model(name)
        _, obs = simulate(model, np.array([theta]), 300, substream(7, 0))
        grid = theta + np.linspace(-0.4, 0.4, 41)
        mean, sd = workloads.sin_grid_posterior(obs[:, 0], grid, name == "sin-bimodal")
        post = grid_posterior(model, obs, grid)
        assert abs(post.mean() - mean) < 1e-12
        assert abs(np.sqrt(post.variance()) - sd) < 1e-12

    def test_same_bits_in_one_kernel_or_one_per_parameter(self, monkeypatch):
        model = SinModel()
        _, obs = simulate(model, np.array([-0.5]), 50, substream(8, 0))
        grid = np.linspace(-1.0, 0.0, 9)
        together = state_grid_log_likelihood(model, obs, grid)
        monkeypatch.setattr(oracles, "STATE_GRID_KERNEL_BYTES", 1)
        assert state_grid_log_likelihood(model, obs, grid).tobytes() == together.tobytes()

    def test_grid_past_the_budget_is_refused(self):
        # obs_sd 40 would reach 320 past the data at spacing 0.25: n^2 >> budget
        model = SinModel(obs_sd=40.0)
        with pytest.raises(PointBudgetError):
            state_grid_log_likelihood(model, np.zeros(3), np.array([0.5]))

    def test_model_without_a_state_grid_is_refused(self):
        with pytest.raises(ValueError):
            grid_posterior(slam_small(), np.zeros((3, 1)), np.array([0.5]))


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
