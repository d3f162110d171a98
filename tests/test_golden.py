"""Golden parity: pinned digests of small filter and PMMH runs, plus a window check.

Each filter digest is the sha256 of a run's per-step outputs (parameter
means and covariances, state means, ESS, update counts, discrete tables,
log evidence) and of its fused posterior, every array in native byte
order.  A PMMH digest covers the chain, its log-likelihood estimates and
its acceptances; the pf-log-likelihood digest covers the lean inner
filter's estimates on the order-two model, where the order of the window
shift and the ancestor gather matters.
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
    "gaussian-update-first": _api(_sin, n_particles=64, scheme=GH7, seed=1, update_order="update_first"),
    "gaussian-systematic": _api(_sin, n_particles=64, scheme=GH7, seed=2, resample="systematic"),
    "gaussian-permuted": _api(
        _sin, n_particles=64, scheme=GH7, seed=1, permute_hook=(4, substream(6, 0).permutation(64))
    ),
    "gaussian-monte-carlo": _api(_sin, n_particles=64, scheme=monte_carlo(12), seed=3),
    "mixture": _api(
        lambda: _sin("bimodal"), n_particles=48, scheme=GH7, family="mixture", mixture_size=4, seed=4
    ),
    "mixture-update-first": _api(
        lambda: _sin("bimodal"),
        n_particles=48,
        scheme=GH7,
        family="mixture",
        mixture_size=4,
        seed=4,
        update_order="update_first",
    ),
    "discrete-sampled": _api(_slam, n_particles=64, scheme=monte_carlo(20), seed=5),
    "discrete-exhaustive": _api(
        lambda: _slam(n_cells=3, actions=["R", "R", "L", "R", "L", "L"], true_map=[1, 0, 1]),
        n_particles=64,
        scheme=monte_carlo(8),
        seed=6,
    ),
    "discrete-update-first": _api(
        _slam, n_particles=48, scheme=monte_carlo(20), seed=7, update_order="update_first"
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
    "discrete-exhaustive": "6effc3eaa2be4cee33df87efb3748c516dc12da4b393e61446619bc9a8c77b5f",
    "discrete-sampled": "994667972607462b4233f840b505e1f26f7a0c0166e04cab64aa614e9004bbc4",
    "discrete-update-first": "6c8ebe11325db2f0eeb1766f407b04e06d3288fbe0ebe5d39b162b5166e2df99",
    "gaussian": "3cbcd66d0875c4796cf9eeaefeb4da2782617203b61b7a7ec2f8c5883667a49b",
    "gaussian-monte-carlo": "edbb17927913d16749c973bbc0ebfde41dd58fb3df4d276a3a784b492cccc55f",
    "gaussian-permuted": "c5dbefd615ebda7fbfb03bf47574a6145912d4e976f74875094ba42ff63e4bc4",
    "gaussian-systematic": "91320c7ea51d30bb6391e4792bda385808989c2a46a3e7777960f0d5ef214642",
    "gaussian-update-first": "9e7ec0ad09b8e1ef0006562d9ea70b45ab4f25c970e2e1ff2a6a4ab15553058e",
    "liu-west": "106bd43244f2a9a4c08cc763a99952e74432a0e6e603bfd5fc0d25e8af308573",
    "mixture": "d45e462d1d038198c258a6a5dba87bdba235882197656e9917e443fee225951c",
    "mixture-update-first": "e3ed2759c76a08a1d6ffbb8ea1fa11d642991fac648303c95953e175208b2acf",
    "order-two": "b403f7f68a2dedc611d841c669b9d9ec20787c9a5c28a122b9d9340727904c0f",
    "pf": "b92066838a09be746d18160af61acc50ea5c9ab68bba18e329f67bdde3c30287",
    "pf-log-likelihood-order-two": "6cf1c8bfc5de6eb5e74dd557f8cccc9eab248808491eecbd873f15955607018a",
    "pf-permuted": "4e809a0f3b8b980f2fab0f476228d671e29d2363b44cc35de044c91869751e43",
    "pmmh-lg": "ab1874617d15e850bca0fb26c0a1cbaed9895ed5fa580bd79369dd46ef837f00",
    "pmmh-slam-small": "db639f66bf357a2489a1498ccc2359a81c8d92e7275bcb654a90120e649f2cc6",
}


def run_digest(result) -> str:
    """sha256 over every output of a run that is not a timing."""
    h = hashlib.sha256()

    def add(value):
        if value is None:
            h.update(b"none")
            return
        arr = np.asarray(value)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    if isinstance(result, np.ndarray):
        add(result)
        return h.hexdigest()
    if isinstance(result, PmmhResult):
        for value in (result.chain, result.log_liks, result.accepted, result.rejected_nonfinite):
            add(value)
        return h.hexdigest()
    for value in (
        result.param_mean,
        result.param_cov,
        result.state_mean,
        result.ess,
        result.n_updates,
        result.param_tables,
        result.estimate,
        result.log_marginal_lik,
    ):
        add(value)
    fused = result.fused
    h.update(fused.kind.encode())
    for value in (
        fused.mean,
        fused.cov,
        fused.mixture_weights,
        fused.mixture_means,
        fused.mixture_covs,
        fused.tables,
        fused.points,
        fused.point_weights,
    ):
        add(value)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_digest(name):
    assert run_digest(RUNS[name]()) == GOLDEN[name]


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


@pytest.mark.parametrize("update_order", ["resample_first", "update_first"])
def test_update_scores_each_owner_against_its_own_window(update_order):
    _, obs = _order_two()
    model = WindowCheckingModel()
    config = FilterConfig(n_particles=32, scheme=GH7, seed=11, update_order=update_order)
    run_assumed_density_filter(model, obs, config)
    assert model.scored > 0
    assert model.mismatches == 0


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f'    "{name}": "{run_digest(RUNS[name]())}",')
