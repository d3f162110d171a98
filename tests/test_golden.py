"""Golden parity: pinned digests of small filter and PMMH runs, plus a window check.

Each filter run has two sha256 digests, every array in native byte
order.  "steps" covers the per-step outputs (parameter means and
covariances, state means, ESS, update counts, discrete tables), the log
evidence and the fused posterior's components (kind, mixture means and
covariances, points); "fused" covers the collapsed posterior (estimate,
mean, covariance, mixture and point weights, tables), so a change to how
a cloud is summarised shows apart from a change to the filter itself.  A
PMMH digest covers the chain, its log-likelihood estimates and its
acceptances; the pf-log-likelihood digest covers the lean inner filter's
estimates on the order-two model, where the order of the window shift
and the ancestor gather matters.
The digests were captured with numpy 2.4.6 and scipy 1.17.1 on x86-64;
another numpy or BLAS build may round differently and move them.

They pin the engine's arithmetic and random-stream use to the bit, so a
refactor of storage or clouds that changes any output fails here.  When
a change alters outputs on purpose, regenerate the table with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from paramsmc.approx import gauss_hermite, monte_carlo
from paramsmc.benchmarks import LinearGaussianModel, SinModel, slam_small
from paramsmc.engine import (
    FilterConfig,
    PmmhConfig,
    PmmhResult,
    run_assumed_density_filter,
    run_bootstrap_filter,
    run_liu_west_filter,
    run_pmmh,
)
from paramsmc.model import DynamicModel, gaussian_logpdf, simulate
from paramsmc.oracles import pf_log_likelihood
from paramsmc.rng import substream


class OrderTwoModel(DynamicModel):
    """AR(2) state x_t = theta * x_{t-1} - 0.3 * x_{t-2} + noise, observed in noise."""

    def dims(self):
        return (1, 1, 1)

    def markov_order(self):
        return 2

    def param_prior_sample(self, rng, n):
        return 0.5 * rng.standard_normal((n, 1))

    def param_prior_logdensity(self, thetas):
        return gaussian_logpdf(thetas[:, 0], 0.0, 0.5)

    def param_prior_moments(self):
        return np.zeros(1), np.array([[0.25]])

    def state_prior_sample(self, rng, thetas):
        return rng.standard_normal((thetas.shape[0], 1))

    def _mean(self, windows, thetas):
        return thetas[:, 0] * windows[:, -1, 0] - 0.3 * windows[:, 0, 0]

    def transition_sample(self, rng, t, windows, thetas):
        mean = self._mean(windows, thetas)
        return (mean + rng.standard_normal(mean.shape[0]))[:, None]

    def transition_logdensity(self, t, x_new, windows, thetas):
        return gaussian_logpdf(x_new[:, 0], self._mean(windows, thetas), 1.0)

    def obs_sample(self, rng, t, states, thetas):
        return states + 0.5 * rng.standard_normal(states.shape)

    def obs_logdensity(self, t, y, states, thetas):
        return gaussian_logpdf(y[0], states[:, 0], 0.5)


def _sin(variant="plain", steps=40):
    model = SinModel(variant=variant)
    _, obs = simulate(model, np.array([-0.5 if variant == "plain" else 0.7]), steps, substream(3, 99))
    return model, obs


def _slam(**overrides):
    model = slam_small(**overrides)
    _, obs = simulate(model, model.true_map.astype(float), model.n_steps(), substream(4, 99))
    return model, obs


def _order_two():
    model = OrderTwoModel()
    _, obs = simulate(model, np.array([0.5]), 40, substream(5, 99))
    return model, obs


def _lg():
    model = LinearGaussianModel()
    _, obs = simulate(model, np.array([0.7]), 40, substream(12, 99))
    return model, obs


def _api(data, **config):
    return lambda: run_assumed_density_filter(*data(), FilterConfig(**config))


def _pmmh(data, **config):
    return lambda: run_pmmh(*data(), PmmhConfig(**config))


def _pf_log_likelihoods():
    model, obs = _order_two()
    return np.array(
        [
            pf_log_likelihood(model, [theta], obs, 48, substream(13, i))
            for i, theta in enumerate([-0.4, 0.2, 0.5, 0.9])
        ]
    )


GH7 = gauss_hermite(7)

RUNS = {
    "gaussian": _api(_sin, n_particles=64, scheme=GH7, seed=1),
    "gaussian-systematic": _api(_sin, n_particles=64, scheme=GH7, seed=2, resample="systematic"),
    "gaussian-permuted": _api(
        _sin, n_particles=64, scheme=GH7, seed=1, permute_hook=(4, substream(6, 0).permutation(64))
    ),
    "gaussian-monte-carlo": _api(_sin, n_particles=64, scheme=monte_carlo(12), seed=3),
    "mixture": _api(
        lambda: _sin("bimodal"), n_particles=48, scheme=GH7, family="mixture", mixture_size=4, seed=4
    ),
    "discrete-sampled": _api(_slam, n_particles=64, scheme=monte_carlo(20), seed=5),
    "discrete-exhaustive": _api(
        lambda: _slam(n_cells=3, actions=["R", "R", "L", "R", "L", "L"], true_map=[1, 0, 1]),
        n_particles=64,
        scheme=monte_carlo(8),
        seed=6,
    ),
    "order-two": _api(_order_two, n_particles=64, scheme=GH7, seed=8),
    "pf": lambda: run_bootstrap_filter(*_sin(), FilterConfig(n_particles=64, seed=9)),
    "pf-permuted": lambda: run_bootstrap_filter(
        *_sin(), FilterConfig(n_particles=64, seed=9, permute_hook=(0, substream(6, 1).permutation(64)))
    ),
    "liu-west": lambda: run_liu_west_filter(*_sin(), FilterConfig(n_particles=64, seed=10)),
    "pmmh-lg": _pmmh(_lg, inner_particles=32, iterations=40, proposal_sd=0.2, seed=14),
    "pmmh-slam-small": _pmmh(_slam, inner_particles=32, iterations=40, seed=15),
    "pf-log-likelihood-order-two": _pf_log_likelihoods,
}

GOLDEN = {
    "discrete-exhaustive": {
        "steps": "4fda34719a094550fbfa10a3200689af1591d4b3ab1480ac40738c8cc23eae4c",
        "fused": "867b5e5baaa39c87b535bc56be4b53da9fe31b13032bf5e7efbd852f7f6e2a8e",
    },
    "discrete-sampled": {
        "steps": "640d8cbf21481fe0db78d1bc724a57c8f8e0c2a474e71da9096702ea0f0f3c53",
        "fused": "a0c3dbff59342f0227cc6562db4fd9335f1766207ea2787935996582b1cfd990",
    },
    "gaussian": {
        "steps": "ddeaa94d8e1d365ce9f5849bfa4df6744df3f0d5e1894893b10ab567b4b5b8a3",
        "fused": "5013f3999b778f76c71d66af44ccc5b15f31bf3e15aef2b26368def2abc6ac0a",
    },
    "gaussian-monte-carlo": {
        "steps": "927db3a8fe370a5593c48d01c89fbbf096372366548de25e42ad22498448e21a",
        "fused": "92c9e156af95b8503be7dfc5d302c6714890c01d827f4be2b0eb75415dcae7d1",
    },
    "gaussian-permuted": {
        "steps": "7b0f25cee335129e325279c7f5bf1b2bc86dae901806dc41f5c96897cd46f96e",
        "fused": "498496d9d9b4516b5366abbe4b90fb42e6307c7b514bc9deafe397cecb10bc74",
    },
    "gaussian-systematic": {
        "steps": "d2652b31a7c1cddbbe5e97a271eb4c2ff2c6fea018c4c757cc8d496954716ece",
        "fused": "6007ab4a757ac18da00bddf71303f4540866f3c0f2379a0a341f36978ebe7795",
    },
    "liu-west": {
        "steps": "8942397d5a102db9b46aa4a62c88272f749b3c8d28741a0982b3b4fe12cb2851",
        "fused": "2cb1db22aa1a5a90f10fa4ba5b5374680b179a6b77313d21ce493feb22b85fc4",
    },
    "mixture": {
        "steps": "bba2f368bfccfda32708e3ac3ef3485d97215dca8738cf8ae5784681cb19005f",
        "fused": "59180211bfa8efa916cac6138f92ef1e5f5ff704692c78d81b0dfb3b203cfe44",
    },
    "order-two": {
        "steps": "ee65203f213086737879df1ae8ae789fdc5bb1108c198c651aca24201f009d7f",
        "fused": "0c2fa9e95b9ca559042b2d118d89b2e89c84e9c528b3b3b0729c9cba158da084",
    },
    "pf": {
        "steps": "351a517677de46831f1c1869fd5035684f06fda78d331f8947369c379d36c888",
        "fused": "caa02c648ae68795c66b2896400f9cbd50f6fd3ae310f755d19df41dd8bd5f39",
    },
    "pf-log-likelihood-order-two": {
        "estimates": "6cf1c8bfc5de6eb5e74dd557f8cccc9eab248808491eecbd873f15955607018a",
    },
    "pf-permuted": {
        "steps": "d13054e5915926fde1dfd15d5186887a6c74d61765de0bf34bda28ebf420e031",
        "fused": "0a6860c5c5f91fb3c7cefc4856812ffbc53be7a215189baa0ef65d18d5576ba3",
    },
    "pmmh-lg": {
        "chain": "ab1874617d15e850bca0fb26c0a1cbaed9895ed5fa580bd79369dd46ef837f00",
    },
    "pmmh-slam-small": {
        "chain": "db639f66bf357a2489a1498ccc2359a81c8d92e7275bcb654a90120e649f2cc6",
    },
}


def run_digests(result) -> dict[str, str]:
    """sha256 digests over every output of a run that is not a timing.

    A filter run gets two: "steps" covers the per-step arrays, the log
    evidence and the fused posterior's components; "fused" covers the
    collapsed moments (estimate, mean, cov), the mixture and point weights
    and the fused tables.  A PMMH run or an array of estimates gets one.
    """
    hashes = {}

    def add(part, value):
        h = hashes.setdefault(part, hashlib.sha256())
        if value is None:
            h.update(b"none")
            return
        arr = np.asarray(value)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    if isinstance(result, np.ndarray):
        add("estimates", result)
    elif isinstance(result, PmmhResult):
        for value in (result.chain, result.log_liks, result.accepted, result.rejected_nonfinite):
            add("chain", value)
    else:
        fused = result.fused
        for value in (
            result.param_mean,
            result.param_cov,
            result.state_mean,
            result.ess,
            result.n_updates,
            result.param_tables,
            result.log_marginal_lik,
        ):
            add("steps", value)
        hashes["steps"].update(fused.kind.encode())
        for value in (fused.mixture_means, fused.mixture_covs, fused.points):
            add("steps", value)
        for value in (
            result.estimate,
            fused.mean,
            fused.cov,
            fused.mixture_weights,
            fused.tables,
            fused.point_weights,
        ):
            add("fused", value)
    return {part: h.hexdigest() for part, h in hashes.items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_digest(name):
    assert run_digests(RUNS[name]()) == GOLDEN[name]


NON_FILTER_RUNS = ("pf-log-likelihood-order-two", "pmmh-lg", "pmmh-slam-small")
LAST_ROW_RUNS = {
    **{name: run for name, run in RUNS.items() if name not in NON_FILTER_RUNS},
    "pf-slam-small": lambda: run_bootstrap_filter(*_slam(), FilterConfig(n_particles=64, seed=16)),
}


def _bits(value) -> tuple:
    arr = np.asarray(value)
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("name", sorted(LAST_ROW_RUNS))
def test_fused_posterior_is_last_row(name):
    """A run reports one posterior: its fused moments are its last row, to the bit."""
    result = LAST_ROW_RUNS[name]()
    fused = result.fused
    assert _bits(fused.mean) == _bits(result.param_mean[-1])
    assert _bits(result.estimate) == _bits(result.param_mean[-1])
    assert _bits(fused.cov) == _bits(result.param_cov[-1])
    if result.param_tables is not None:
        assert _bits(fused.tables) == _bits(result.param_tables[-1])


class WindowCheckingModel(OrderTwoModel):
    """Records the window each state was drawn from and checks every later use.

    A state's window must continue its parent's own history, and the
    projection update must score each owner's state against the window
    that state was drawn from: the pre-push window, in the row order the
    propagation used.
    """

    def __init__(self):
        self.born = {}
        self.mismatches = 0
        self.scored = 0

    def transition_sample(self, rng, t, windows, thetas):
        x = super().transition_sample(rng, t, windows, thetas)
        for xi, win in zip(x[:, 0], windows[:, :, 0]):
            parent = self.born.get(win[-1])
            if parent is not None and win[0] != parent[-1]:
                self.mismatches += 1
            self.born[xi] = win.copy()
        return x

    def transition_logdensity(self, t, x_new, windows, thetas):
        for xi, win in zip(x_new[:, 0], windows[:, :, 0]):
            self.scored += 1
            if not np.array_equal(self.born[xi], win):
                self.mismatches += 1
        return super().transition_logdensity(t, x_new, windows, thetas)


def test_update_scores_each_owner_against_its_own_window():
    _, obs = _order_two()
    model = WindowCheckingModel()
    config = FilterConfig(n_particles=32, scheme=GH7, seed=11)
    run_assumed_density_filter(model, obs, config)
    assert model.scored > 0
    assert model.mismatches == 0


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f'    "{name}": {{')
        for part, digest in run_digests(RUNS[name]()).items():
            print(f'        "{part}": "{digest}",')
        print("    },")
