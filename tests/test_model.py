"""Model-interface contracts: likelihood factors, simulation, rng streams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import paramsmc.model as model_module
import test_engine
import test_golden
from paramsmc.approx import gauss_hermite, monte_carlo
from paramsmc.benchmarks import LinearGaussianModel, SinModel, get_model
from paramsmc.engine import FilterConfig, run_assumed_density_filter
from paramsmc.errors import DimensionMismatchError
from paramsmc.model import (
    LOG_2PI,
    DynamicModel,
    ParamLikelihood,
    gaussian_logpdf,
    make_param_likelihood,
    simulate,
)
from paramsmc.rng import substream

# Long-run moments of y under theta* = -0.5, frozen from a one-off
# 10^6-step brute-force simulation (scripts/compute_frozen_oracles.py).
SIN_LONGRUN_Y_MEAN = 0.001264
SIN_LONGRUN_Y_SD = 1.217509


def reference_gaussian_logpdf(x, mean, sd):
    """The allocating formula gaussian_logpdf is required to equal bit for bit."""
    sd = np.asarray(sd, dtype=np.float64)
    if np.any(sd <= 0):
        raise ValueError("gaussian_logpdf requires positive standard deviation")
    z = (np.asarray(x) - np.asarray(mean)) / sd
    return -0.5 * z * z - np.log(sd) - 0.5 * LOG_2PI


def _logpdf_cases():
    rng = substream(23, 0)
    n = 50
    return {
        "python-scalars": (0.3, -0.2, 1.5),
        "zero-d-arrays": (np.array(0.3), np.array(-0.2), np.array(1.5)),
        "array-x": (rng.standard_normal(n), 0.4, 0.7),
        "scalar-x-array-mean": (1.2, rng.standard_normal(n), 0.5),
        "array-sd": (rng.standard_normal(n), rng.standard_normal(n), rng.random(n) + 0.1),
        "broadcast-x-mean": (rng.standard_normal((5, 1)), rng.standard_normal((1, 4)), 2.0),
        "sd-higher-rank": (rng.standard_normal(4), 0.1, rng.random((3, 4)) + 0.1),
        "sd-broadcast-row": (rng.standard_normal((3, 4)), 0.0, rng.random(4) + 0.1),
        "sd-size-one": (rng.standard_normal(6), 0.0, np.array([0.3])),
        "int-x-mean": (np.arange(6), np.arange(6)[::-1], 1.5),
        "float32-x": (rng.standard_normal(6).astype(np.float32), 0.5, 0.9),
        "float32-x-mean": (rng.standard_normal(6).astype(np.float32), np.float32([0.5]), 0.9),
        "extreme": (np.array([1e300, -1e300, 1e-300, 0.0]), 0.0, 1e-200),
        "large": (rng.standard_normal(28_600), 0.25, 0.3),
        # what obs_logdensity passes: one observation against a strided view of the states
        "float64-scalar-x-array-mean": (np.float64(0.8), rng.standard_normal((n, 1))[..., 0], 0.5),
        # what transition_logdensity passes: (1, B) owner states against (J, B) drives
        "float64-broadcast-arrays": (rng.standard_normal((1, 12)), rng.standard_normal((7, 12)), 1.0),
        "float64-scalars": (np.float64(0.3), np.float64(-0.2), 1.5),
    }


class TestGaussianLogpdf:
    @pytest.mark.parametrize("name", sorted(_logpdf_cases()))
    def test_matches_reference_bits(self, name):
        x, mean, sd = _logpdf_cases()[name]
        inputs = [np.array(v, copy=True) for v in (x, mean, sd)]
        with np.errstate(over="ignore"):
            got = gaussian_logpdf(x, mean, sd)
            ref = reference_gaussian_logpdf(x, mean, sd)
        assert type(got) is type(ref)
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # the in-place arithmetic never writes to its inputs
        for before, after in zip(inputs, (x, mean, sd)):
            assert np.array_equal(before, np.asarray(after))

    @pytest.mark.parametrize("sd", [0.0, -1.0, np.array([0.5, 0.0]), np.array([[1.0], [-2.0]])])
    def test_nonpositive_sd_raises(self, sd):
        with pytest.raises(ValueError, match="positive standard deviation"):
            gaussian_logpdf(np.zeros(2), 0.0, sd)

    @pytest.mark.parametrize(
        "sd",
        [float("nan"), np.float64("nan"), np.array(np.nan), np.array([0.5, np.nan]), np.array([[np.nan], [1.0]])],
        ids=["float", "numpy-scalar", "zero-d", "array", "column"],
    )
    def test_nan_sd_raises(self, sd):
        # sd <= 0 is False for NaN: a NaN sd must not pass as positive
        with pytest.raises(ValueError, match="positive standard deviation"):
            gaussian_logpdf(np.zeros(3), 0.0, sd)


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
        # (J, B, p) points against (1, B) owner rows: column b uses
        # states[rows[b]] and windows[rows[b]], and matches the
        # single-state evaluator
        model = SinModel()
        rng = substream(5, 0)
        states = rng.standard_normal((4, 1))
        windows = rng.standard_normal((4, 1, 1))
        y = rng.standard_normal(1)
        lik = ParamLikelihood(model, 3, y, states, windows)
        rows = np.array([2, 0, 2])
        points = rng.standard_normal((5, 3, 1))
        got = lik(points, rows[None, :])
        assert got.shape == (5, 3)
        for b, r in enumerate(rows):
            single = make_param_likelihood(model, 3, states[r], windows[r], y)
            assert np.array_equal(got[:, b], single(points[:, b]))

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

    @pytest.mark.parametrize(
        "declare",
        [
            pytest.param(lambda states: states[:, :1], id="float"),
            pytest.param(lambda states: states[:, :1] > 0, id="bool"),
            pytest.param(lambda states: states[:, 0].astype(np.int64), id="one-axis"),
            pytest.param(lambda states: states[:1, :1].astype(np.int64), id="one-row"),
            pytest.param(lambda states: np.zeros((len(states), 0), dtype=np.int64), id="no-coordinate"),
            pytest.param(lambda states: np.full((len(states), 1), -1), id="negative"),
            pytest.param(lambda states: np.full((len(states), 1), 8), id="past-p"),
            pytest.param(lambda states: np.tile([3, 5, 3], (len(states), 1)), id="repeated"),
        ],
    )
    def test_malformed_scope_raises(self, declare):
        model = get_model("slam-small")
        model.param_scope = lambda t, states: declare(states)
        states = np.arange(6, dtype=np.float64)[:, None]
        lik = ParamLikelihood(model, 0, np.array([1.0]), states, None)
        with pytest.raises(DimensionMismatchError, match="param_scope"):
            lik.param_scope(np.array([4, 0, 2]))
        config = FilterConfig(n_particles=20, scheme=monte_carlo(20), seed=1)
        with pytest.raises(DimensionMismatchError, match="param_scope"):
            run_assumed_density_filter(model, np.ones((3, 1)), config)

    def test_scope_of_rows_is_the_models_declaration(self):
        model = get_model("slam-large")
        states = np.array([[3.0], [19.0], [0.0]])
        lik = ParamLikelihood(model, 2, np.array([1.0]), states, states[:, None])
        scope = lik.param_scope(np.array([1, 1, 0, 2]))
        assert scope.dtype == np.int64 and scope.tolist() == [[19], [19], [3], [0]]
        assert ParamLikelihood(test_golden.UnscopedSlam(model), 0, np.array([1.0]), states, None).param_scope(
            np.arange(3)
        ) is None

    def test_pure_function(self):
        model = SinModel()
        lik = make_param_likelihood(model, 2, np.array([0.3]), [np.array([0.7])], np.array([0.1]))
        thetas = np.array([[0.25], [-1.5]])
        assert np.array_equal(lik(thetas), lik(thetas))

    @staticmethod
    def _large_factor(name, k, b, j):
        model = get_model(name)
        p, d, _ = model.dims()
        rng = substream(17, k)
        n = 600
        if name == "slam-small":
            # sampled codes keep their (B, M, p) order, owners (B, 1)
            cells = model.n_cells
            states = rng.integers(0, cells, size=(n, 1)).astype(np.float64)
            windows = rng.integers(0, cells, size=(n, 1, 1)).astype(np.float64)
            points = rng.integers(0, model.n_labels, size=(b, j, p))
            y = np.array([1.0])
            rows = np.sort(rng.integers(0, n, size=b))[:, None]
        else:
            # Gaussian points are points-major (J, B, p), owners (1, B)
            states = rng.standard_normal((n, d))
            windows = rng.standard_normal((n, 1, d))
            points = rng.standard_normal((j, b, p))
            y = rng.standard_normal(1)
            rows = np.sort(rng.integers(0, n, size=b))[None, :]
        return ParamLikelihood(model, k, y, states, windows if k > 0 else None), points, rows

    @pytest.mark.parametrize(
        "name,k,b,j",
        [("sin-bimodal", 3, 20_001, 7), ("sin", 0, 20_001, 7), ("slam-small", 4, 3001, 50), ("sin", 2, 50_001, 3)],
        ids=["sin-bimodal-3-7", "sin-0-7", "slam-small-4-50", "sin-2-3-owner-split"],
    )
    def test_blocked_scoring_matches_one_call_bits(self, monkeypatch, name, k, b, j):
        # each owner holds j evaluations, so a block is FACTOR_BLOCK // j
        # owners: every case spans several blocks and ends in a partial one
        per_block = model_module.FACTOR_BLOCK // j
        assert b * j > model_module.FACTOR_BLOCK and b % per_block != 0
        lik, points, rows = self._large_factor(name, k, b, j)
        got = lik(points, rows)
        monkeypatch.setattr(model_module, "FACTOR_BLOCK", 10**9)
        whole = lik(points, rows)
        assert got.shape == whole.shape == points.shape[:-1]
        assert got.dtype == whole.dtype
        assert got.tobytes() == whole.tobytes()

    def test_scoring_temporaries_do_not_grow_with_the_batch(self, monkeypatch):
        # 80,000 rows x 7 points: one unblocked model call holds several
        # 4.5 MB arrays at once; blocked scoring holds its output and a few
        # FACTOR_BLOCK-sized arrays
        lik, points, rows = self._large_factor("sin-bimodal", 3, 80_000, 7)
        bound = 16 * model_module.FACTOR_BLOCK * 8

        def extra_memory():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = lik(points, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - before - out.nbytes

        assert extra_memory() < bound
        monkeypatch.setattr(model_module, "FACTOR_BLOCK", 10**9)
        assert extra_memory() > bound  # the batch is large enough to tell


def _test_module_models() -> dict:
    """Every DynamicModel subclass the test modules define, by name."""
    found, todo = {}, [DynamicModel]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("test_"):
                found[f"{cls.__module__}.{cls.__name__}"] = cls
    return found


TEST_MODULE_MODELS = _test_module_models()
CONTRACT_MODELS = {
    "sin": lambda: get_model("sin"),
    "sin-bimodal": lambda: get_model("sin-bimodal"),
    "lg": lambda: get_model("lg"),
    "lg-theta-fixed": lambda: get_model("lg", theta_fixed=0.6),
    "slam-small": lambda: get_model("slam-small"),
    "slam-large": lambda: get_model("slam-large"),
    **TEST_MODULE_MODELS,
}


class ParentStatePriorModel(DynamicModel):
    """test_engine.StatePriorModel as it was written for one leading batch
    axis, indexing thetas[:, 0], states[:, 0] and x0[:, 0]."""

    state_prior_depends_on_params = True

    def dims(self):
        return (1, 1, 1)

    def param_prior_sample(self, rng, n):
        return rng.standard_normal((n, 1))

    def param_prior_logdensity(self, thetas):
        return gaussian_logpdf(thetas[:, 0], 0.0, 1.0)

    def param_prior_moments(self):
        return np.zeros(1), np.eye(1)

    def state_prior_sample(self, rng, thetas):
        return thetas + rng.standard_normal((thetas.shape[0], 1))

    def state_prior_logdensity(self, x0, thetas):
        return gaussian_logpdf(x0[:, 0], thetas[:, 0], 1.0)

    def transition_sample(self, rng, t, windows, thetas):
        return windows[:, -1, :] + rng.standard_normal((windows.shape[0], 1))

    def transition_logdensity(self, t, x_new, windows, thetas):
        return gaussian_logpdf(x_new[:, 0], windows[:, -1, 0], 1.0)

    def obs_sample(self, rng, t, states, thetas):
        return states + 0.5 * rng.standard_normal(states.shape)

    def obs_logdensity(self, t, y, states, thetas):
        return gaussian_logpdf(y[0], states[:, 0], 0.5)


class TestBroadcastContract:
    """The log densities take leading batch axes that broadcast: on the
    layouts ParamLikelihood passes they equal their flat per-row values."""

    @staticmethod
    def _owners(model, rng, b):
        """Windows and states of b owners and an observation, drawn through the model's own samplers."""
        thetas = model.param_prior_sample(rng, b)
        windows = np.stack([model.state_prior_sample(rng, thetas) for _ in range(model.markov_order())], axis=1)
        states = model.transition_sample(rng, 1, windows, thetas)
        y = model.obs_sample(rng, 1, states, thetas)[0]
        return windows, states, y

    @staticmethod
    def _densities(model, y, states, windows, thetas):
        out = {
            "obs": model.obs_logdensity(1, y, states, thetas),
            "transition": model.transition_logdensity(1, states, windows, thetas),
        }
        try:
            out["state_prior"] = model.state_prior_logdensity(states, thetas)
        except NotImplementedError:
            pass
        return out

    @pytest.mark.parametrize("layout", ["points-major", "codes"])
    @pytest.mark.parametrize("name", sorted(CONTRACT_MODELS))
    def test_broadcast_inputs_equal_flat_rows_bits(self, name, layout):
        model = CONTRACT_MODELS[name]()
        rng = substream(31, len(name))
        b, j = 6, 5
        windows, states, y = self._owners(model, rng, b)
        p, d, _ = model.dims()
        if layout == "points-major":  # (J, B) points against (1, B) owners
            shape, states, windows = (j, b), states[None], windows[None]
        else:  # (B, M) codes against (B, 1) owners
            shape, states, windows = (b, j), states[:, None], windows[:, None]
        thetas = model.param_prior_sample(rng, j * b).reshape(shape + (p,))
        got = self._densities(model, y, states, windows, thetas)
        flat = self._densities(
            model,
            y,
            np.broadcast_to(states, shape + states.shape[-1:]).reshape(j * b, d),
            np.broadcast_to(windows, shape + windows.shape[-2:]).reshape((j * b,) + windows.shape[-2:]),
            thetas.reshape(j * b, p),
        )
        assert got.keys() == flat.keys()
        for term, values in got.items():
            assert flat[term].shape == (j * b,)
            spread = np.broadcast_to(values, shape)
            assert spread.dtype == flat[term].dtype
            assert spread.ravel().tobytes() == flat[term].tobytes(), term

    def test_every_test_module_model_is_checked(self):
        assert {"test_engine.StatePriorModel", "test_golden.OrderTwoModel", "test_golden.DriftModel"} <= set(
            TEST_MODULE_MODELS
        )
        assert test_engine.StatePriorModel is TEST_MODULE_MODELS["test_engine.StatePriorModel"]
        assert test_golden.WindowCheckingModel is TEST_MODULE_MODELS["test_golden.WindowCheckingModel"]

    def test_factor_refuses_a_model_indexing_one_batch_axis(self):
        # Scored through x0[:, 0] and thetas[:, 0], every owner would get
        # owner 0's values: without the check this run's mean came out
        # 0.64, not the 0.89 = y_0 / 2.25 the model's own posterior has.
        config = FilterConfig(n_particles=200, scheme=gauss_hermite(7), seed=1)
        with pytest.raises(DimensionMismatchError, match=r"thetas\[\.\.\., k\]"):
            run_assumed_density_filter(ParentStatePriorModel(), np.array([[2.0]]), config)
        fused = run_assumed_density_filter(test_engine.StatePriorModel(), np.array([[2.0]]), config).fused
        assert abs(fused.mean[0] - 2.0 / 2.25) < 0.1


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
    def test_substream_paths(self):
        assert np.array_equal(
            substream(9, 1, 2).standard_normal(4), substream(9, 1, 2).standard_normal(4)
        )
        assert not np.array_equal(
            substream(9, 1, 2).standard_normal(4), substream(9, 2, 1).standard_normal(4)
        )
