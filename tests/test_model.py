"""Model-interface contracts: likelihood factors, simulation, rng streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from paramsmc.benchmarks import LinearGaussianModel, SinModel, get_model
from paramsmc.errors import DimensionMismatchError
from paramsmc.model import ParamLikelihood, make_param_likelihood, simulate
from paramsmc.rng import RngStream, substream

# Long-run moments of y under theta* = -0.5, frozen from a one-off
# 10^6-step brute-force simulation (scripts/compute_frozen_oracles.py).
SIN_LONGRUN_Y_MEAN = 0.001264
SIN_LONGRUN_Y_SD = 1.217509


class TestParamLikelihood:
    def test_prior_only_at_step_zero(self):
        # the parameter prior is the filter's starting point, not a factor:
        # obs density of SIN does not involve theta, so log t_0 is a
        # theta-free constant with no prior term
        model = SinModel()
        lik = make_param_likelihood(model, 0, np.array([0.4]), None, np.array([0.4]))
        thetas = np.linspace(-2, 2, 9)[:, None]
        vals = lik(thetas)
        expected = np.full(9, stats.norm.logpdf(0.4, 0.4, 0.5))
        assert np.allclose(vals, expected, atol=1e-12)

    def test_batched_rows_score_their_own_owner(self):
        # (B, J, p) points against owner rows: row b uses states[rows[b]]
        # and windows[rows[b]], and matches the single-state evaluator
        model = SinModel()
        rng = substream(5, 0)
        states = rng.standard_normal((4, 1))
        windows = rng.standard_normal((4, 1, 1))
        y = rng.standard_normal(1)
        lik = ParamLikelihood(model, 3, y, states, windows)
        rows = np.array([2, 0, 2])
        points = rng.standard_normal((3, 5, 1))
        got = lik(points, rows)
        assert got.shape == (3, 5)
        for b, r in enumerate(rows):
            single = make_param_likelihood(model, 3, states[r], windows[r], y)
            assert np.array_equal(got[b], single(points[b]))

    def test_zero_previous_state_kills_theta_dependence(self):
        # sin(theta * 0) = 0, so t_k is constant in theta
        model = SinModel()
        lik = make_param_likelihood(model, 3, np.array([0.2]), [np.array([0.0])], np.array([0.1]))
        vals = lik(np.linspace(-3, 3, 17)[:, None])
        assert np.allclose(vals, vals[0], atol=1e-12)

    def test_numeric_value_against_scipy(self):
        # independent evaluation of both Gaussian terms
        model = SinModel()
        lik = make_param_likelihood(model, 5, np.array([0.2]), [np.array([1.0])], np.array([0.2]))
        got = lik(np.array([[-0.5]]))[0]
        expected = stats.norm.logpdf(0.2, np.sin(-0.5), 1.0) + stats.norm.logpdf(0.2, 0.2, 0.5)
        assert np.isclose(got, expected, atol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_equals_sum_of_model_terms(self, seed):
        rng = substream(seed, 0)
        model = SinModel()
        x_new = rng.standard_normal(1)
        window = rng.standard_normal((1, 1))
        y = rng.standard_normal(1)
        lik = make_param_likelihood(model, 2, x_new, window, y)
        thetas = rng.standard_normal((100, 1))
        direct = model.obs_logdensity(2, y, np.broadcast_to(x_new, (100, 1)), thetas)
        direct = direct + model.transition_logdensity(
            2, np.broadcast_to(x_new, (100, 1)), np.broadcast_to(window, (100, 1, 1)), thetas
        )
        assert np.allclose(lik(thetas), direct, atol=1e-12)

    def test_dimension_errors(self):
        model = SinModel()
        with pytest.raises(DimensionMismatchError):
            make_param_likelihood(model, 0, np.zeros(2), None, np.zeros(1))
        with pytest.raises(DimensionMismatchError):
            make_param_likelihood(model, 0, np.zeros(1), None, np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            make_param_likelihood(model, 1, np.zeros(1), [np.zeros(1)] * 2, np.zeros(1))
        with pytest.raises(DimensionMismatchError):
            make_param_likelihood(model, 0, np.zeros(1), [np.zeros(1)], np.zeros(1))

    def test_pure_function(self):
        model = SinModel()
        lik = make_param_likelihood(model, 2, np.array([0.3]), [np.array([0.7])], np.array([0.1]))
        thetas = np.array([[0.25], [-1.5]])
        assert np.array_equal(lik(thetas), lik(thetas))


class TestTransitionDensityNormalization:
    @pytest.mark.parametrize(
        "model,theta",
        [
            (SinModel(), np.array([[-0.5]])),
            (SinModel(variant="bimodal"), np.array([[0.7]])),
            (LinearGaussianModel(), np.array([[0.8]])),
        ],
    )
    def test_integrates_to_one(self, model, theta):
        window = np.array([[[0.9]]])

        def density(x):
            return np.exp(model.transition_logdensity(1, np.array([[x]]), window, theta)[0])

        total, _ = integrate.quad(density, -12, 12)
        assert abs(total - 1.0) < 1e-6

    def test_slam_rows_normalize(self):
        model = get_model("slam-small")
        for t in (1, 5, 16):
            mat = model.location_transition_matrix(t)
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_transition_density_agrees_with_sampler(self):
        # kernel-density check on the 1-d SIN transition
        model = SinModel()
        theta = np.full((200_000, 1), -0.5)
        windows = np.full((200_000, 1, 1), 1.0)
        draws = model.transition_sample(substream(0, 1), 1, windows, theta)[:, 0]
        # compare histogram mass to the density over coarse bins
        edges = np.linspace(-4, 4, 17)
        hist, _ = np.histogram(draws, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.exp(
            model.transition_logdensity(
                1, centers[:, None], np.full((16, 1, 1), 1.0), np.full((16, 1), -0.5)
            )
        )
        assert np.allclose(hist, dens, atol=0.02)


class TestSimulate:
    def test_zero_steps(self):
        model = SinModel()
        states, obs = simulate(model, np.array([-0.5]), 0, substream(0, 0))
        assert states.shape == (1, 1)
        assert obs.shape == (1, 1)

    def test_deterministic_recursion_with_zero_noise(self):
        model = SinModel(trans_sd=0.0, obs_sd=0.0, x0_mean=1.0, x0_sd=0.0)
        states, obs = simulate(model, np.array([-0.5]), 1, substream(0, 0))
        assert np.isclose(states[0, 0], 1.0)
        assert np.isclose(states[1, 0], np.sin(-0.5))
        assert np.allclose(obs[:, 0], states[:, 0])

    def test_bit_reproducible(self):
        model = SinModel()
        a = simulate(model, np.array([-0.5]), 200, substream(7, 3))
        b = simulate(model, np.array([-0.5]), 200, substream(7, 3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_long_run_mean_matches_frozen_oracle(self):
        model = SinModel()
        states, obs = simulate(model, np.array([-0.5]), 5000, substream(42, 0))
        tol = 3 * SIN_LONGRUN_Y_SD / np.sqrt(obs.shape[0])
        assert abs(obs[:, 0].mean() - SIN_LONGRUN_Y_MEAN) < tol

    def test_slam_trajectory_in_range(self):
        model = get_model("slam-small")
        theta = model.true_map.astype(np.float64)
        states, obs = simulate(model, theta, model.n_steps(), substream(1, 0))
        assert states.shape == (17, 1)
        assert np.all((states[:, 0] >= 0) & (states[:, 0] < model.n_cells))
        assert set(np.unique(obs[:, 0])) <= {0.0, 1.0}


class TestRngStreams:
    def test_same_address_same_sequence(self):
        a = RngStream(123, 4).generator().standard_normal(16)
        b = RngStream(123, 4).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 4).generator().standard_normal(16)
        b = RngStream(123, 5).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substream_paths(self):
        assert np.array_equal(
            substream(9, 1, 2).standard_normal(4), substream(9, 1, 2).standard_normal(4)
        )
        assert not np.array_equal(
            substream(9, 1, 2).standard_normal(4), substream(9, 2, 1).standard_normal(4)
        )
