"""Filter-engine behavior: algorithm semantics, storage contract, baselines."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import paramsmc.model
import test_golden
from paramsmc import approx, engine, oracles
from paramsmc import rng as streams
from paramsmc.approx import gauss_hermite, monte_carlo
from paramsmc.benchmarks import LinearGaussianModel, SinModel, slam_small
from paramsmc.engine import (
    FilterConfig,
    PmmhConfig,
    run_assumed_density_filter,
    run_bootstrap_filter,
    run_liu_west_filter,
    run_pmmh,
)
from paramsmc.errors import (
    ConfigError,
    TotalDegeneracyError,
    UnsupportedParameterKindError,
)
from paramsmc.model import (
    DynamicModel,
    ParamLikelihood,
    gaussian_logpdf,
    make_param_likelihood,
    simulate,
)
from paramsmc.oracles import grid_posterior, kalman_filter, slam_exact_forward
from paramsmc.resampling import RESAMPLERS, multinomial_resample
from paramsmc.results import FusedPosterior
from paramsmc.rng import substream
from paramsmc.storage import ParticleStore


class ThetaFreeModel(DynamicModel):
    """Random walk whose densities never touch the (dummy) parameter."""

    def dims(self):
        return (1, 1, 1)

    def param_prior_sample(self, rng, n):
        return rng.standard_normal((n, 1))

    def param_prior_logdensity(self, thetas):
        return gaussian_logpdf(thetas[..., 0], 0.0, 1.0)

    def param_prior_moments(self):
        return np.zeros(1), np.eye(1)

    def state_prior_sample(self, rng, thetas):
        return rng.standard_normal((thetas.shape[0], 1))

    def transition_sample(self, rng, t, windows, thetas):
        return windows[:, -1, :] + rng.standard_normal((windows.shape[0], 1))

    def transition_logdensity(self, t, x_new, windows, thetas):
        return gaussian_logpdf(x_new[..., 0], windows[..., -1, 0], 1.0)

    def obs_sample(self, rng, t, states, thetas):
        return states + 0.5 * rng.standard_normal(states.shape)

    def obs_logdensity(self, t, y, states, thetas):
        return gaussian_logpdf(y[0], states[..., 0], 0.5)


class TwoParamThetaFreeModel(ThetaFreeModel):
    """ThetaFreeModel with a correlated two-dimensional parameter prior."""

    MEAN = np.array([1.0, -2.0])
    COV = np.array([[1.0, 0.6], [0.6, 2.0]])

    def dims(self):
        return (2, 1, 1)

    def param_prior_sample(self, rng, n):
        return self.MEAN + rng.standard_normal((n, 2)) @ np.linalg.cholesky(self.COV).T

    def param_prior_logdensity(self, thetas):
        dev = thetas - self.MEAN
        quad = np.einsum("ni,ij,nj->n", dev, np.linalg.inv(self.COV), dev)
        return -0.5 * quad - 0.5 * np.log(np.linalg.det(2 * np.pi * self.COV))

    def param_prior_moments(self):
        return self.MEAN.copy(), self.COV.copy()


class StatePriorModel(ThetaFreeModel):
    """x_0 ~ N(theta, 1), then a theta-free random walk observed as y = x + N(0, 0.25).

    Only the state prior carries information about theta: after y_0 alone
    the posterior is N(y_0 / 2.25, 1.25 / 2.25) under the N(0, 1) prior.
    """

    state_prior_depends_on_params = True

    def state_prior_sample(self, rng, thetas):
        return thetas + rng.standard_normal((thetas.shape[0], 1))

    def state_prior_logdensity(self, x0, thetas):
        return gaussian_logpdf(x0[..., 0], thetas[..., 0], 1.0)


def sin_data(steps=120, seed=0):
    model = SinModel()
    _, obs = simulate(model, np.array([-0.5]), steps, substream(seed, 99))
    return model, obs


def slam_data(steps):
    model = slam_small()
    _, obs = simulate(model, model.true_map.astype(float), steps, substream(4, 99))
    return model, obs


class TestFuse:
    """Each cloud collapses its N rows into one FusedPosterior."""

    def test_single_particle_is_identity(self):
        fused = approx.GaussianCloud(means=np.array([[0.4]]), covs=np.array([[[2.0]]])).fuse()
        assert np.allclose(fused.mean, [0.4])
        assert np.allclose(fused.cov, [[2.0]])

    def test_two_gaussians_total_variance(self):
        cloud = approx.GaussianCloud(means=np.array([[0.0], [2.0]]), covs=np.ones((2, 1, 1)))
        fused = cloud.fuse()
        assert np.isclose(fused.mean[0], 1.0)
        assert np.isclose(fused.cov[0, 0], 2.0)

    def test_mixture_particles_flatten(self):
        cloud = approx.MixtureCloud(
            alphas=np.array([[0.5, 0.5], [1.0, 0.0]]),
            means=np.array([[[-1.0], [1.0]], [[0.0], [5.0]]]),
            covs=np.ones((2, 2, 1, 1)),
        )
        fused = cloud.fuse()
        assert np.allclose(fused.mixture_weights, [0.25, 0.25, 0.5, 0.0])
        assert fused.mixture_means.shape == (4, 1)
        assert fused.mixture_covs.shape == (4, 1, 1)
        assert np.isclose(fused.mean[0], 0.0)
        assert np.isclose(fused.cov[0, 0], 1.5)

    def test_point_cloud(self):
        fused = engine._PointCloud(np.array([[0.0], [2.0]])).fuse()
        assert fused.kind == "points"
        assert np.isclose(fused.mean[0], 1.0)
        assert np.isclose(fused.cov[0, 0], 1.0)
        assert np.allclose(fused.point_weights, 0.5)

    def test_discrete_point_cloud(self):
        codes = np.array([[0, 2], [1, 2], [1, 0], [1, 1]])
        fused = engine._PointCloud(codes, cardinalities=np.array([2, 3])).fuse()
        assert fused.kind == "tables"
        assert np.allclose(fused.tables, [[0.25, 0.75, 0.0], [0.25, 0.25, 0.5]])
        assert np.allclose(fused.mean, codes.mean(axis=0))
        assert np.allclose(fused.cov, np.cov(codes.T, bias=True))

    def test_interval_mass_mixture(self):
        fused = FusedPosterior(
            "mixture",
            np.zeros(1),
            np.eye(1),
            mixture_weights=np.ones(1),
            mixture_means=np.zeros((1, 1)),
            mixture_covs=np.ones((1, 1, 1)),
        )
        assert np.isclose(fused.interval_mass(-1, 1), 0.6826894921370859, atol=1e-9)


class TestJointFilter:
    def test_theta_free_model_keeps_prior(self):
        model = ThetaFreeModel()
        _, obs = simulate(model, np.zeros(1), 40, substream(0, 0))
        config = FilterConfig(n_particles=64, scheme=gauss_hermite(7), seed=3)
        result = run_assumed_density_filter(model, obs, config)
        assert np.allclose(result.fused.mixture_means, 0.0, atol=1e-9)
        assert np.allclose(result.fused.mixture_covs, 1.0, atol=1e-7)

    def test_one_step_conjugate_posterior(self):
        # with one particle the parameter posterior after one transition
        # is available in closed form along the sampled path
        model = LinearGaussianModel(trans_sd=1.0, obs_sd=1.0)
        _, obs = simulate(model, np.array([0.7]), 1, substream(4, 0))
        config = FilterConfig(n_particles=1, scheme=gauss_hermite(21), seed=8)
        result = run_assumed_density_filter(model, obs, config)

        # replay the particle's states from the same streams
        from paramsmc import rng as streams

        q0 = model.param_prior_moments()
        theta0 = substream(8, streams.PARAM_DRAW).standard_normal((1, 1))[0]  # q0 = N(0,1)
        x0 = model.state_prior_sample(substream(8, streams.STATE_INIT), theta0[None, :])[0]
        # t=1 draws from a fresh q (unchanged: obs is theta-free), then propagates
        rng_draw = substream(8, streams.PARAM_DRAW)
        rng_draw.standard_normal((1, 1))
        theta1 = rng_draw.standard_normal((1, 1))[0]
        x1 = model.transition_sample(
            substream(8, streams.PROPAGATE), 1, x0.reshape(1, 1, 1), theta1[None, :]
        )[0]
        # conjugate posterior of theta given (x0, x1): N prior times
        # N(x1; theta x0, 1)
        prec = 1.0 + x0[0] ** 2
        mean = x0[0] * x1[0] / prec
        assert abs(result.fused.mean[0] - mean) < 1e-6
        assert abs(result.fused.cov[0, 0] - 1.0 / prec) < 1e-6

    def test_resample_before_update_saves_work(self):
        # near-deterministic observations concentrate the weights, so
        # distinct ancestors stay well below N
        model = LinearGaussianModel(obs_sd=0.05)
        _, obs = simulate(model, np.array([0.7]), 20, substream(5, 0))
        config = FilterConfig(n_particles=100, scheme=gauss_hermite(5), seed=2)
        result = run_assumed_density_filter(model, obs, config)
        assert result.n_updates.max() <= 100
        assert result.n_updates[1:].mean() < 50

    def test_exchangeability_under_permutation(self):
        model, obs = sin_data(steps=80, seed=2)
        rng = substream(77, 0)
        diffs = []
        for seed in range(14):
            perm = rng.permutation(200)
            a = run_assumed_density_filter(
                model, obs, FilterConfig(n_particles=200, scheme=gauss_hermite(7), seed=seed)
            )
            b = run_assumed_density_filter(
                model,
                obs,
                FilterConfig(
                    n_particles=200,
                    scheme=gauss_hermite(7),
                    seed=seed,
                    permute_hook=(4, perm),
                ),
            )
            diffs.append(a.estimate[0] - b.estimate[0])
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 3 * se + 5e-3

    def test_traced_memory_flat_in_steady_state(self, step_memory):
        model, obs = sin_data(steps=400, seed=3)
        config = FilterConfig(n_particles=500, scheme=gauss_hermite(7), seed=1)
        with step_memory() as mem:
            run_assumed_density_filter(mem.watch(model), obs, config)
        assert mem.steady_growth_kib() <= mem.LIMIT_KIB

    def test_discrete_exhaustive_matches_exact_posterior(self):
        # one-cell map: the factorized family is exact and the filter
        # should converge to the true posterior in total variation
        model = slam_small(
            n_cells=1, actions=["R"] * 10, true_map=[1], initial_location_dist=[1.0]
        )
        _, obs = simulate(model, np.array([1.0]), 10, substream(6, 0))
        exact = slam_exact_forward(model, obs)
        config = FilterConfig(n_particles=10_000, scheme=monte_carlo(8), seed=4)
        result = run_assumed_density_filter(model, obs, config)
        tv = 0.5 * np.abs(result.fused.tables - exact.map_marginals).sum()
        assert tv < 0.05

    def test_discrete_slam_smoke(self):
        model = slam_small()
        _, obs = simulate(model, model.true_map.astype(float), 16, substream(7, 0))
        config = FilterConfig(n_particles=200, scheme=monte_carlo(50), seed=9)
        result = run_assumed_density_filter(model, obs, config)
        assert result.fused.tables.shape == (8, 2)
        assert np.allclose(result.fused.tables.sum(axis=1), 1.0, atol=1e-9)
        assert result.param_tables.shape == (17, 8, 2)

    def test_mixture_prior_keeps_prior_moments_for_two_params(self):
        # a theta-free likelihood leaves the prior in place, so the fused
        # posterior after one step is the mixture prior the cloud starts from
        model = TwoParamThetaFreeModel()
        _, obs = simulate(model, model.MEAN, 0, substream(0, 0))
        n, l = 500, 5
        config = FilterConfig(
            n_particles=n, scheme=gauss_hermite(7), family="mixture", mixture_size=l, seed=2
        )
        fused = run_assumed_density_filter(model, obs, config).fused
        sd = np.sqrt(np.diag(model.COV))
        # n * l prior draws and one resampling leave errors of a few hundredths
        # of the prior's scale (at most 0.05 over seeds 0-2); components that
        # each kept the full prior covariance doubled it
        assert np.all(np.abs(fused.mean - model.MEAN) <= 0.1 * sd)
        assert np.all(np.abs(fused.cov - model.COV) <= 0.1 * np.outer(sd, sd))

    def test_state_prior_informs_parameter_at_step_zero(self):
        # the t = 0 factor must carry log p(x_0 | theta); without it the
        # filter returns the N(0, 1) prior unchanged
        model = StatePriorModel()
        y0 = 2.0
        config = FilterConfig(n_particles=4000, scheme=gauss_hermite(7), seed=1)
        fused = run_assumed_density_filter(model, np.array([[y0]]), config).fused
        # seeds 0-4 land within 0.014 (mean) and 0.006 (variance)
        assert abs(fused.mean[0] - y0 / 2.25) < 0.04
        assert abs(fused.cov[0, 0] - 1.25 / 2.25) < 0.03

    def test_step_zero_factor_includes_state_prior(self):
        model = StatePriorModel()
        lik = make_param_likelihood(model, 0, np.array([1.5]), None, np.array([2.0]))
        thetas = np.linspace(-2, 2, 9)[:, None]
        expected = stats.norm.logpdf(2.0, 1.5, 0.5) + stats.norm.logpdf(1.5, thetas[:, 0], 1.0)
        assert np.allclose(lik(thetas), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            {"mixture_size": 0},
            {"mixture_size": -2},
            {"shrinkage": 1.5},
            {"shrinkage": -0.1},
            {"shrinkage": float("nan")},
            {"shrinkage": float("inf")},
        ],
    )
    def test_invalid_config_raises(self, bad):
        with pytest.raises(ConfigError):
            FilterConfig(n_particles=10, **bad).validate(SinModel())

    def test_family_mismatch_rejected(self):
        model = slam_small()
        config = FilterConfig(n_particles=10, family="gaussian")
        with pytest.raises(ConfigError):
            run_assumed_density_filter(model, np.zeros((3, 1)), config)

    def test_empty_observations_rejected(self):
        model = SinModel()
        with pytest.raises(ConfigError):
            run_assumed_density_filter(model, np.zeros((0, 1)), FilterConfig(n_particles=4))

    def test_mixture_family_on_sin(self):
        # the stochastic grid oracle puts this dataset's posterior mean
        # near -0.73; the mixture family should land in the same region
        model, obs = sin_data(steps=100, seed=4)
        config = FilterConfig(
            n_particles=400, scheme=gauss_hermite(7), family="mixture", mixture_size=5, seed=5
        )
        result = run_assumed_density_filter(model, obs, config)
        assert result.fused.mixture_weights.shape == (2000,)
        assert np.isclose(result.fused.mixture_weights.sum(), 1.0, atol=1e-9)
        assert abs(result.estimate[0] + 0.73) < 0.35


class TestBootstrap:
    def test_state_means_match_kalman(self):
        model = LinearGaussianModel(theta_fixed=0.8)
        _, obs = simulate(model, np.zeros(0), 60, substream(8, 0))
        oracle = kalman_filter(LinearGaussianModel(), 0.8, obs)
        n = 4000
        config = FilterConfig(n_particles=n, seed=3)
        result = run_bootstrap_filter(model, obs, config)
        assert result.log_marginal_lik == pytest.approx(oracle.log_likelihood, abs=0.5)

    def test_single_particle_unit_ess(self):
        model, obs = sin_data(steps=25, seed=5)
        result = run_bootstrap_filter(model, obs, FilterConfig(n_particles=1, seed=0))
        assert np.allclose(result.ess, 1.0)

    def test_traced_memory_flat_in_steady_state(self, step_memory):
        model, obs = sin_data(steps=400, seed=6)
        with step_memory() as mem:
            run_bootstrap_filter(mem.watch(model), obs, FilterConfig(n_particles=500, seed=1))
        assert mem.steady_growth_kib() <= mem.LIMIT_KIB

    def test_systematic_resampling_flag(self):
        model = LinearGaussianModel(theta_fixed=0.8)
        _, obs = simulate(model, np.zeros(0), 40, substream(9, 0))
        result = run_bootstrap_filter(
            model, obs, FilterConfig(n_particles=500, seed=2, resample="systematic")
        )
        oracle = kalman_filter(LinearGaussianModel(), 0.8, obs)
        assert result.log_marginal_lik == pytest.approx(oracle.log_likelihood, abs=1.0)

    @pytest.mark.parametrize("run", [run_bootstrap_filter, run_liu_west_filter])
    def test_parameter_free_model(self, run):
        model = LinearGaussianModel(theta_fixed=0.8)
        _, obs = simulate(model, np.zeros(0), 20, substream(9, 0))
        result = run(model, obs, FilterConfig(n_particles=50, seed=1))
        assert result.fused.kind == "points"
        assert result.fused.points.shape == (50, 0)
        assert result.fused.mean.shape == (0,)
        assert result.param_mean.shape == (21, 0)
        assert np.isfinite(result.log_marginal_lik)

    def test_degenerate_observation_aborts(self):
        model = slam_small()
        bad_obs = np.full((3, 1), 7.0)  # label outside the code set
        with pytest.raises(TotalDegeneracyError):
            run_bootstrap_filter(model, bad_obs, FilterConfig(n_particles=16, seed=0))


OUTLIER_STEP = 20
OUTLIER_GRID = np.linspace(-1.0, 1.0, 201)


def outlier_data():
    """An lg series with one observation so far out that the weights of every
    particle but the nearest underflow to zero."""
    model = LinearGaussianModel()
    _, obs = simulate(model, np.array([0.7]), 40, substream(17, 0))
    obs[OUTLIER_STEP] = 1e5
    return model, obs


UNDERFLOW_CALLS = {
    "pf_log_likelihood": lambda model, obs: oracles.pf_log_likelihood(model, [0.7], obs, 50, substream(3, 0)).hex(),
    "pf": lambda model, obs: test_golden.run_digests(run_bootstrap_filter(model, obs, FilterConfig(n_particles=50, seed=3))),
    "api": lambda model, obs: test_golden.run_digests(
        run_assumed_density_filter(model, obs, FilterConfig(n_particles=50, scheme=gauss_hermite(5), seed=3))
    ),
    "grid_posterior": lambda model, obs: grid_posterior(model, obs, OUTLIER_GRID).masses.tobytes(),
}


class TestUnderflowErrorState:
    """A weight far below the largest underflows to zero.  The filters and the
    grid oracle let it, under an np.errstate they hold for the whole run: under
    a caller's np.errstate(under="raise") they raise nothing and return the bits
    they return under numpy's defaults."""

    def test_outlier_underflows_a_bare_exp(self):
        model, obs = outlier_data()
        # particle log weights at the outlier, over a wider spread of states than the filter holds
        states = np.linspace(-5.0, 5.0, 50)[:, None]
        log_weights = model.obs_logdensity(OUTLIER_STEP, obs[OUTLIER_STEP], states, np.full((50, 1), 0.7))
        log_post = model.param_prior_logdensity(OUTLIER_GRID[:, None]) + kalman_filter(model, OUTLIER_GRID, obs).log_likelihood
        for lw in (log_weights, log_post):
            with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
                np.exp(lw - lw.max())

    @pytest.mark.parametrize("call", sorted(UNDERFLOW_CALLS))
    def test_same_bits_under_a_raising_error_state(self, call):
        model, obs = outlier_data()
        default = UNDERFLOW_CALLS[call](model, obs)
        with np.errstate(under="raise"):
            raising = UNDERFLOW_CALLS[call](model, obs)
        assert raising == default


class TestKalmanAgreement:
    def test_filtered_state_means(self):
        # per-step particle state means against the exact filter
        model = LinearGaussianModel(theta_fixed=0.8)
        _, obs = simulate(model, np.zeros(0), 30, substream(10, 0))
        oracle = kalman_filter(LinearGaussianModel(), 0.8, obs)
        n = 20_000
        rng = substream(11, 1)
        x = model.state_prior_sample(rng, np.zeros((n, 0)))
        windows = np.zeros((n, 1, 1))
        for t in range(obs.shape[0]):
            if t > 0:
                windows[:, -1] = x
                x = model.transition_sample(rng, t, windows, np.zeros((n, 0)))
            logw = model.obs_logdensity(t, obs[t], x, np.zeros((n, 0)))
            w = np.exp(logw - logw.max())
            w /= w.sum()
            post_mean = w @ x[:, 0]
            sigma = np.sqrt(oracle.variances[t])
            assert abs(post_mean - oracle.means[t]) < 3 * sigma / np.sqrt(
                1.0 / np.sum(w * w)
            ) + 5 * sigma / np.sqrt(n)
            counts = rng.multinomial(n, w)
            anc = np.repeat(np.arange(n), counts)
            x = x[anc]


class TestLiuWest:
    def test_shrinkage_one_reduces_to_bootstrap(self):
        model, obs = sin_data(steps=60, seed=7)
        pf = run_bootstrap_filter(model, obs, FilterConfig(n_particles=300, seed=11))
        lw = run_liu_west_filter(
            model, obs, FilterConfig(n_particles=300, seed=11, shrinkage=1.0)
        )
        assert np.array_equal(pf.estimate, lw.estimate)
        assert np.array_equal(pf.param_mean, lw.param_mean)

    def test_discrete_parameters_rejected(self):
        model = slam_small()
        with pytest.raises(UnsupportedParameterKindError):
            run_liu_west_filter(model, np.zeros((3, 1)), FilterConfig(n_particles=16))

    def test_tracks_grid_oracle_on_lg(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 120, substream(12, 0))
        oracle = grid_posterior(model, obs, np.linspace(-2, 2, 201))
        result = run_liu_west_filter(
            model, obs, FilterConfig(n_particles=10_000, seed=3, shrinkage=0.98)
        )
        assert abs(result.estimate[0] - oracle.mean()) < 0.1


class TestPmmh:
    @pytest.mark.parametrize(
        "bad",
        [
            {"inner_particles": 0},
            {"iterations": -1},
            {"proposal_sd": 0.0},
            {"proposal_sd": float("nan")},
            {"proposal_sd": float("inf")},
            {"bounds": (1.0, 1.0)},
            {"bounds": (2.0, -2.0)},
        ],
    )
    def test_invalid_config_raises(self, bad):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 5, substream(13, 0))
        with pytest.raises(ConfigError):
            run_pmmh(model, obs, PmmhConfig(**{"iterations": 3, **bad}))

    def test_near_zero_proposal_freezes_chain(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 30, substream(13, 0))
        config = PmmhConfig(
            inner_particles=64, iterations=60, proposal_sd=1e-12, bounds=(-5, 5), seed=1
        )
        result = run_pmmh(model, obs, config)
        drift = np.abs(result.chain - result.chain[0]).max()
        assert drift < 1e-6
        # fresh likelihood estimates make self-moves stochastic but common
        assert result.acceptance_rate > 0.2

    def test_tracks_grid_oracle_on_lg(self):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 60, substream(14, 0))
        oracle = grid_posterior(model, obs, np.linspace(-2, 2, 201))
        config = PmmhConfig(
            inner_particles=50, iterations=800, proposal_sd=0.25, bounds=(-5, 5), seed=2
        )
        result = run_pmmh(model, obs, config)
        kept = result.burned_in()[:, 0]
        se = kept.std(ddof=1) / np.sqrt(max(1.0, _effective_draws(kept)))
        assert abs(result.estimate[0] - oracle.mean()) < 3 * se + 0.05

    def test_discrete_single_coordinate_proposal(self):
        model = slam_small(n_cells=3, actions=["R", "R", "L"])
        _, obs = simulate(model, model.true_map[:3].astype(float), 3, substream(15, 0))
        config = PmmhConfig(inner_particles=40, iterations=80, seed=3)
        result = run_pmmh(model, obs, config)
        moves = np.abs(np.diff(result.chain, axis=0)) > 0
        assert result.chain.shape == (81, 3)
        # proposals flip one coordinate at a time
        assert moves.sum(axis=1).max() <= 1

    def test_nonfinite_likelihoods_are_counted_and_rejected(self):
        # every likelihood of this chain is -inf: it has no posterior, and a
        # prior draw reported as its estimate would pass for a result
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 20, substream(16, 0))
        obs[7] = np.nan
        with pytest.raises(TotalDegeneracyError, match="no PMMH likelihood was finite"):
            run_pmmh(model, obs, PmmhConfig(inner_particles=16, iterations=12, seed=5))

    @staticmethod
    def likelihood_failing_at(monkeypatch, failing) -> None:
        """engine's pf_log_likelihood, returning -inf at the call numbers in failing."""
        real, calls = engine.pf_log_likelihood, []

        def scripted(*args):
            calls.append(len(calls))
            return -np.inf if calls[-1] in failing else real(*args)

        monkeypatch.setattr(engine, "pf_log_likelihood", scripted)

    def test_nonfinite_proposals_are_counted_and_rejected(self, monkeypatch):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 20, substream(16, 0))
        self.likelihood_failing_at(monkeypatch, failing=range(1, 13, 2))
        result = run_pmmh(model, obs, PmmhConfig(inner_particles=16, iterations=12, seed=5))
        assert result.rejected_nonfinite == 6
        assert not result.accepted[1::2].any()
        assert np.all(np.isfinite(result.log_liks))
        assert np.array_equal(result.chain[1::2], result.chain[:-1:2])

    def test_chain_escaping_a_nonfinite_start_is_a_result(self, monkeypatch):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 20, substream(16, 0))
        self.likelihood_failing_at(monkeypatch, failing={0})
        result = run_pmmh(model, obs, PmmhConfig(inner_particles=16, iterations=6, seed=5))
        # any finite proposal beats a -inf start
        assert result.log_liks[0] == -np.inf and result.accepted[1]
        assert np.all(np.isfinite(result.log_liks[1:]))
        assert result.rejected_nonfinite == 0


def reference_pmmh(model, obs, config):
    """run_pmmh's continuous chain with the proposal it used to draw.

    Each proposal comes from scipy.stats.truncnorm.rvs, and the Hastings
    correction works the truncation normaliser out by hand at the current
    state and at the proposal, inside the same MH loop on the same streams.
    """
    from scipy.special import ndtr

    lo, hi = config.bounds
    sd = config.proposal_sd

    def log_z(th):
        return float(np.sum(np.log(ndtr((hi - th) / sd) - ndtr((lo - th) / sd))))

    def loglik(th, it):
        stream = substream(config.seed, streams.CHAIN, 1 + it)
        return oracles.pf_log_likelihood(model, th, obs, config.inner_particles, stream)

    def logprior(th):
        return float(model.param_prior_logdensity(th[None, :])[0])

    rng = substream(config.seed, streams.CHAIN)
    theta = np.clip(model.param_prior_sample(rng, 1)[0].astype(np.float64), lo, hi)
    ll, lp = loglik(theta, 0), logprior(theta)
    chain, lls, accepted = [theta.copy()], [ll], [True]
    for it in range(1, config.iterations + 1):
        prop = stats.truncnorm.rvs((lo - theta) / sd, (hi - theta) / sd, loc=theta, scale=sd, random_state=rng)
        prop = np.atleast_1d(prop)
        ll_prop, lp_prop = loglik(prop, it), logprior(prop)
        log_alpha = (ll_prop + lp_prop) - (ll + lp) + log_z(theta) - log_z(prop)
        accept = bool(np.isfinite(ll_prop) and np.log(rng.random()) < log_alpha)
        if accept:
            theta, ll, lp = prop, ll_prop, lp_prop
        chain.append(theta.copy())
        lls.append(ll)
        accepted.append(accept)
    return np.asarray(chain), np.asarray(lls), np.asarray(accepted)


class TestPmmhProposal:
    """The inverse-CDF proposal walks the chain the truncnorm.rvs one walked."""

    @pytest.mark.parametrize(
        "sd, bounds, seed, starts_at_bound",
        [
            (0.15, (-5.0, 5.0), 0, False),
            (3.0, (-5.0, 5.0), 1, False),
            (1.0, (-1.0, 1.0), 2, False),
            (3.0, (0.6, 0.8), 0, True),
            (0.15, (0.6, 0.8), 2, True),
        ],
    )
    def test_chain_matches_truncnorm_reference(self, sd, bounds, seed, starts_at_bound):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 60, substream(seed, 0))
        config = PmmhConfig(inner_particles=20, iterations=120, proposal_sd=sd, bounds=bounds, seed=seed)
        result = run_pmmh(model, obs, config)
        chain, log_liks, accepted = reference_pmmh(model, obs, config)
        assert (result.chain[0, 0] in bounds) == starts_at_bound
        assert np.array_equal(result.accepted, accepted)
        assert 0 < accepted[1:].sum() < config.iterations
        np.testing.assert_allclose(result.chain, chain, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.log_liks, log_liks, rtol=0, atol=1e-6)
        assert np.all((result.chain >= bounds[0]) & (result.chain <= bounds[1]))

    def test_run_leaves_scipy_stats_unloaded(self):
        code = (
            "import sys, numpy as np, paramsmc\n"
            "from paramsmc.benchmarks import LinearGaussianModel\n"
            "from paramsmc.engine import PmmhConfig, run_pmmh\n"
            "obs = np.linspace(-1.0, 1.0, 21)\n"
            "result = run_pmmh(LinearGaussianModel(), obs, PmmhConfig(inner_particles=10, iterations=5))\n"
            "assert result.n_iterations == 5\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def counting(calls: Counter, name: str, fn):
    """fn, counting each call in calls[name]."""

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


class TestEngineRunsTheTestedCode:
    """The filters and PMMH's inner likelihood run one bootstrap step; the
    filters resample, measure ESS, build the likelihood factor and sample
    and update each approximation family with the functions the unit tests
    check, not with private copies; so do the public single-distribution
    functions."""

    @staticmethod
    def count_bootstrap_calls(monkeypatch) -> Counter:
        """Wrap the bootstrap core where its callers hold it, with its weighting and storage."""
        calls = Counter()
        for module in (engine, oracles):
            monkeypatch.setattr(module, "bootstrap_steps", counting(calls, "core", module.bootstrap_steps))
        weigh = counting(calls, "weigh", paramsmc.model.weigh_log_weights)
        monkeypatch.setattr(paramsmc.model, "weigh_log_weights", weigh)
        for meth in ("advance", "push", "resample"):
            monkeypatch.setattr(ParticleStore, meth, counting(calls, f"store.{meth}", vars(ParticleStore)[meth]))
        return calls

    @pytest.mark.parametrize("resample", sorted(RESAMPLERS))
    @pytest.mark.parametrize("run", [run_assumed_density_filter, run_bootstrap_filter])
    def test_run_calls_tested_functions(self, monkeypatch, run, resample):
        model, obs = sin_data(steps=9)
        calls = self.count_bootstrap_calls(monkeypatch)

        class CountingFactor(ParamLikelihood):
            def __call__(self, *args):
                calls["factor evaluated"] += 1
                return super().__call__(*args)

        monkeypatch.setitem(RESAMPLERS, resample, counting(calls, "resample", RESAMPLERS[resample]))
        monkeypatch.setattr(engine, "ess", counting(calls, "ess", engine.ess))
        monkeypatch.setattr(engine, "ParamLikelihood", counting(calls, "factor built", CountingFactor))
        config = FilterConfig(n_particles=32, scheme=gauss_hermite(5), seed=0, resample=resample)
        run(model, obs, config)
        assert calls["core"] == 1
        assert calls["resample"] == calls["ess"] == calls["factor built"] == 10
        # the step moves the store with one advance; push and resample are not its path
        assert calls["weigh"] == calls["store.advance"] == 10
        assert calls["store.push"] == calls["store.resample"] == 0
        evaluated = 10 if run is run_assumed_density_filter else 0
        assert calls["factor evaluated"] == evaluated

    def test_pmmh_likelihood_runs_the_bootstrap_core(self, monkeypatch):
        model = LinearGaussianModel()
        _, obs = simulate(model, np.array([0.7]), 9, substream(13, 0))
        calls = self.count_bootstrap_calls(monkeypatch)
        monkeypatch.setattr(oracles, "multinomial_resample", counting(calls, "multinomial", multinomial_resample))
        per_call = {"core": 1, "weigh": 10, "multinomial": 10, "store.advance": 10}
        oracles.pf_log_likelihood(model, [0.7], obs, 16, substream(13, 1))
        assert calls == per_call
        calls.clear()
        run_pmmh(model, obs, PmmhConfig(inner_particles=16, iterations=4, seed=2))
        assert calls == {name: 5 * count for name, count in per_call.items()}

    @staticmethod
    def count_family_calls(monkeypatch) -> Counter:
        """Wrap each family cloud's sample and update, the point kernel and the Gaussian match."""
        calls = Counter()
        for cls in (approx.GaussianCloud, approx.MixtureCloud, approx.DiscreteCloud):
            for meth in ("sample", "update"):
                monkeypatch.setattr(cls, meth, counting(calls, f"{cls.kind}.{meth}", vars(cls)[meth]))
        points = counting(calls, "points", approx.batch_gaussian_points)
        monkeypatch.setattr(approx, "batch_gaussian_points", points)
        match = counting(calls, "match", approx.batch_moment_match)
        monkeypatch.setattr(approx, "batch_moment_match", match)
        return calls

    def test_public_api_runs_the_family_clouds(self, monkeypatch):
        calls = self.count_family_calls(monkeypatch)
        rng = substream(0, 0)
        zero = lambda th: np.zeros(th.shape[0])  # noqa: E731
        gaussian = approx.GaussianApprox(np.zeros(1), np.eye(1))
        mixture = approx.MixtureApprox(np.array([0.5, 0.5]), np.array([[0.0], [1.0]]), np.ones((2, 1, 1)))
        tables = approx.FactorizedDiscreteApprox([np.array([0.3, 0.7])])
        approx.gaussian_update(gaussian, zero, gauss_hermite(5))
        approx.mixture_update(mixture, zero, gauss_hermite(5))
        approx.discrete_update(tables, zero, m=4)
        assert calls == {"gaussian.update": 1, "mixture.update": 1, "discrete.update": 1, "points": 2, "match": 2}
        gaussian.sample(rng, size=3)
        mixture.sample(rng)
        tables.sample(rng, size=3)
        assert calls["gaussian.sample"] == calls["mixture.sample"] == calls["discrete.sample"] == 1
        assert calls["points"] == 4
        approx.gauss_hermite_points(np.zeros(2), np.eye(2), 3)
        approx.unscented_points(np.zeros(2), np.eye(2))
        assert calls["points"] == 6

    @pytest.mark.parametrize(
        "family, data",
        [("gaussian", sin_data), ("mixture", sin_data), ("discrete", slam_data)],
    )
    def test_api_run_calls_the_family_cloud(self, monkeypatch, family, data):
        calls = self.count_family_calls(monkeypatch)
        model, obs = data(steps=9)
        config = FilterConfig(n_particles=32, scheme=gauss_hermite(5), family=family, mixture_size=3, seed=0)
        run_assumed_density_filter(model, obs, config)
        assert calls[f"{family}.sample"] == calls[f"{family}.update"] == len(obs)
        # one call for the evaluation points, one for the parameter draws; the
        # mixture match projects its components with the Gaussian one
        assert calls["points"] == (0 if family == "discrete" else 2 * len(obs))
        assert calls["match"] == (0 if family == "discrete" else len(obs))
        assert sum(calls.values()) == 2 * len(obs) + calls["points"] + calls["match"]

    def test_sampled_discrete_run_calls_the_kernels_in_every_block(self, monkeypatch):
        """Each block of a sampled update draws its codes with sample_codes
        and matches them with batch_discrete_match, and the update's tables
        are those kernels' results."""
        updates, blocks = [], {"sample_codes": [], "batch_discrete_match": []}

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                blocks[name].append(np.copy(result[0] if isinstance(result, tuple) else result))
                return result

            return wrapped

        update = approx.DiscreteCloud.update

        def recorded_update(cloud, prev, rows, *args):
            arrays, ok = update(cloud, prev, rows, *args)
            updates.append(arrays["tables"])
            return arrays, ok

        for name in blocks:
            monkeypatch.setattr(approx, name, recording(name, getattr(approx, name)))
        monkeypatch.setattr(approx.DiscreteCloud, "update", recorded_update)
        model, obs = slam_data(steps=9)
        model = test_golden.UnscopedSlam(model)
        m, p = 50, model.dims()[0]
        run_assumed_density_filter(model, obs, FilterConfig(n_particles=500, scheme=monte_carlo(m), seed=0))

        step = approx.CODE_BLOCK // (m * p)
        drawn = [codes for codes in blocks["sample_codes"] if codes.shape[1] == m]
        matched = blocks["batch_discrete_match"]
        assert len(blocks["sample_codes"]) - len(drawn) == len(obs)  # one parameter draw a step
        assert len(updates) == len(obs) and len(matched) == len(drawn) > len(obs)
        for tables in updates:
            sizes = [min(step, len(tables) - lo) for lo in range(0, len(tables), step)]
            assert [len(codes) for codes in drawn[: len(sizes)]] == sizes
            assert np.concatenate(matched[: len(sizes)]).tobytes() == tables.tobytes()
            drawn, matched = drawn[len(sizes) :], matched[len(sizes) :]
        assert not drawn and not matched

    def test_scoped_discrete_run_matches_once_a_step_and_draws_no_codes(self, monkeypatch):
        """SLAM's factor reads one cell, so each update enumerates that
        cell's codes and matches them in one call: sample_codes draws
        only the step's parameters, one code per particle."""
        calls = {"sample_codes": [], "batch_discrete_match": []}

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(approx, name, recording(name, getattr(approx, name)))
        model, obs = slam_data(steps=9)
        n = 500
        result = run_assumed_density_filter(model, obs, FilterConfig(n_particles=n, scheme=monte_carlo(50), seed=0))
        assert len(calls["batch_discrete_match"]) == len(obs)
        assert [args[3] for args in calls["sample_codes"]] == [1] * len(obs)  # m = 1: the parameter draw
        assert [len(args[0]) for args in calls["sample_codes"]] == [n] * len(obs)
        # each match sees the one scope table of each updated row
        assert [args[0].shape for args in calls["batch_discrete_match"]] == [(u, 1, 2) for u in result.n_updates]


def _effective_draws(chain: np.ndarray) -> float:
    """Crude autocorrelation-adjusted sample size for a scalar chain."""
    x = chain - chain.mean()
    if np.allclose(x, 0):
        return 1.0
    acf1 = float(np.corrcoef(x[:-1], x[1:])[0, 1]) if x.size > 2 else 0.0
    acf1 = min(max(acf1, 0.0), 0.99)
    return x.size * (1 - acf1) / (1 + acf1)
