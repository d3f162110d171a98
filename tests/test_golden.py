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
The public single-distribution API (the *_update functions, the point
rules and each family's sample) has one digest per call, over every
array it returns; one more covers every field, name and value, of the
two bundled SLAM instances, and one every code that sample_codes draws
in the discrete-sampled-blocks run.
Each command-line invocation has one digest over its exit code, its
stdout and stderr and every file it writes, with the temporary directory
in them replaced by a placeholder.  The wall_clock_ms column of result
CSVs and every elapsed_s entry of summary JSON are timings and are left
out; the path-valued config entries (data, exact, out) hash as a
placeholder.
The digests were captured on one numeric build: numpy 2.4.6 (SIMD
baseline X86_V2, with X86_V3, X86_V4, AVX512_ICL and AVX512_SPR found
and used) and scipy 1.17.1, with numpy's scipy-openblas 0.3.31.188.0
(DYNAMIC_ARCH) running its SkylakeX core, on an x86-64 Intel Xeon.
Another numpy or BLAS build, or another core of the same OpenBLAS
(OPENBLAS_CORETYPE), may round differently and move them.

They pin the engine's arithmetic and random-stream use to the bit, so a
refactor of storage or clouds that changes any output fails here.  When
a change alters outputs on purpose, regenerate the table with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from paramsmc import approx
from paramsmc.approx import (
    FactorizedDiscreteApprox,
    GaussianApprox,
    MixtureApprox,
    discrete_update,
    gauss_hermite,
    gauss_hermite_points,
    gaussian_update,
    mixture_update,
    monte_carlo,
    unscented,
    unscented_points,
)
from paramsmc.benchmarks import LinearGaussianModel, SinModel, SlamModel, slam_large, slam_small
from paramsmc.cli import main
from paramsmc.engine import (
    FilterConfig,
    PmmhConfig,
    PmmhResult,
    run_assumed_density_filter,
    run_bootstrap_filter,
    run_liu_west_filter,
    run_pmmh,
)
from paramsmc.io import write_tables_csv, write_trajectory_csv
from paramsmc.model import DynamicModel, gaussian_logpdf, simulate
from paramsmc.oracles import pf_log_likelihood, slam_exact_forward
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
        return gaussian_logpdf(thetas[..., 0], 0.0, 0.5)

    def param_prior_moments(self):
        return np.zeros(1), np.array([[0.25]])

    def state_prior_sample(self, rng, thetas):
        return rng.standard_normal((thetas.shape[0], 1))

    def _mean(self, windows, thetas):
        return thetas[..., 0] * windows[..., -1, 0] - 0.3 * windows[..., 0, 0]

    def transition_sample(self, rng, t, windows, thetas):
        mean = self._mean(windows, thetas)
        return (mean + rng.standard_normal(mean.shape[0]))[:, None]

    def transition_logdensity(self, t, x_new, windows, thetas):
        return gaussian_logpdf(x_new[..., 0], self._mean(windows, thetas), 1.0)

    def obs_sample(self, rng, t, states, thetas):
        return states + 0.5 * rng.standard_normal(states.shape)

    def obs_logdensity(self, t, y, states, thetas):
        return gaussian_logpdf(y[0], states[..., 0], 0.5)


class DriftModel(DynamicModel):
    """AR(1) with two parameters, x_t = theta_0 * x_{t-1} + theta_1 + noise, observed in noise."""

    def dims(self):
        return (2, 1, 1)

    def param_prior_sample(self, rng, n):
        return 0.5 * rng.standard_normal((n, 2))

    def param_prior_logdensity(self, thetas):
        return gaussian_logpdf(thetas[..., 0], 0.0, 0.5) + gaussian_logpdf(thetas[..., 1], 0.0, 0.5)

    def param_prior_moments(self):
        return np.zeros(2), 0.25 * np.eye(2)

    def state_prior_sample(self, rng, thetas):
        return rng.standard_normal((thetas.shape[0], 1))

    def _mean(self, windows, thetas):
        return thetas[..., 0] * windows[..., -1, 0] + thetas[..., 1]

    def transition_sample(self, rng, t, windows, thetas):
        mean = self._mean(windows, thetas)
        return (mean + rng.standard_normal(mean.shape[0]))[:, None]

    def transition_logdensity(self, t, x_new, windows, thetas):
        return gaussian_logpdf(x_new[..., 0], self._mean(windows, thetas), 1.0)

    def obs_sample(self, rng, t, states, thetas):
        return states + 0.5 * rng.standard_normal(states.shape)

    def obs_logdensity(self, t, y, states, thetas):
        return gaussian_logpdf(y[0], states[..., 0], 0.5)


def _sin(variant="plain", steps=40):
    model = SinModel(variant=variant)
    _, obs = simulate(model, np.array([-0.5 if variant == "plain" else 0.7]), steps, substream(3, 99))
    return model, obs


def _slam(**overrides):
    model = slam_small(**overrides)
    _, obs = simulate(model, model.true_map.astype(float), model.n_steps(), substream(4, 99))
    return model, obs


def _slam_large():
    model = slam_large()
    _, obs = simulate(model, model.true_map.astype(float), 12, substream(23, 99))
    return model, obs


class UnscopedSlam(SlamModel):
    """A copy of a SLAM model (slam_small by default) that declares no
    parameter scope, so that its discrete updates take the sampled path:
    the path of a model without a declaration."""

    def __init__(self, model: SlamModel | None = None):
        vars(self).update(vars(slam_small() if model is None else model))

    def param_scope(self, t, states):
        return None


def _unscoped(data):
    """data with its SLAM model's scope declaration taken away."""

    def unscoped_data():
        model, obs = data()
        return UnscopedSlam(model), obs

    return unscoped_data


def _order_two():
    model = OrderTwoModel()
    _, obs = simulate(model, np.array([0.5]), 40, substream(5, 99))
    return model, obs


def _lg():
    model = LinearGaussianModel()
    _, obs = simulate(model, np.array([0.7]), 40, substream(12, 99))
    return model, obs


def _lg_fixed():
    model = LinearGaussianModel(theta_fixed=0.5)
    _, obs = simulate(model, np.zeros(0), 30, substream(25, 99))
    return model, obs


def _drift():
    model = DriftModel()
    _, obs = simulate(model, np.array([0.6, 0.4]), 30, substream(17, 99))
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
    "discrete-sampled": _api(_unscoped(_slam), n_particles=64, scheme=monte_carlo(20), seed=5),
    # 271-354 distinct ancestors a step: 5 or 6 blocks of 65 rows, the last one partial
    "discrete-sampled-blocks": _api(_unscoped(_slam_large), n_particles=600, scheme=monte_carlo(50), seed=24),
    # the same runs on the bundled models, whose factors read one cell: scoped updates
    "discrete-scoped": _api(_slam, n_particles=64, scheme=monte_carlo(20), seed=5),
    "discrete-scoped-large": _api(_slam_large, n_particles=600, scheme=monte_carlo(50), seed=24),
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
    "gaussian-p2": _api(_drift, n_particles=48, scheme=GH7, seed=18),
    "mixture-p2": _api(
        _drift, n_particles=32, scheme=gauss_hermite(5), family="mixture", mixture_size=3, seed=19
    ),
    "api-lg": _api(_lg, n_particles=64, scheme=GH7, seed=27),
    "pf-lg-theta-fixed": lambda: run_bootstrap_filter(*_lg_fixed(), FilterConfig(n_particles=64, seed=26)),
    "pmmh-lg": _pmmh(_lg, inner_particles=32, iterations=40, proposal_sd=0.2, seed=14),
    "pmmh-slam-small": _pmmh(_slam, inner_particles=32, iterations=40, seed=15),
    "pf-log-likelihood-order-two": _pf_log_likelihoods,
}

GOLDEN = {
    "api-lg": {
        "steps": "755c7c237bf660c19393d748ac36aa6b72953e8c091fe7093e89204d12e923ec",
        "fused": "3bf3a15c1de28b62fc1dc90e024e2c9ce8be81d3beede270068d316c92939eaa",
    },
    "discrete-exhaustive": {
        "steps": "4fda34719a094550fbfa10a3200689af1591d4b3ab1480ac40738c8cc23eae4c",
        "fused": "867b5e5baaa39c87b535bc56be4b53da9fe31b13032bf5e7efbd852f7f6e2a8e",
    },
    "discrete-sampled": {
        "steps": "717f5db8329bf80f42779bd30eb3f94f23ce285aa37c55f066ea66c7bda1e9eb",
        "fused": "a1f14e4e37b2ed20f97cf3f2c084c99f62f35288e168df9178aa8a8f83301f09",
    },
    "discrete-sampled-blocks": {
        "steps": "1d85a313faf9ba5180d19e7cc56124c84d3910e35580d58386997fb0953907cb",
        "fused": "45ef3c8d241303d2ee95d5b70c6295bfc1f66edd1ccfc55ed4891f274ea94005",
    },
    "discrete-scoped": {
        "steps": "859720c609d8086a9bacc13a85b63a0b83c23db4720e9b5ef6f02e7db83f73a0",
        "fused": "850456ca598b742c908de4524a4bd0f72672bc304a35f6e7b3d15d5a0bfc030a",
    },
    "discrete-scoped-large": {
        "steps": "8c33924592f386c4b5a39335fa7528577ef7b5decbba49b1e8a1c0bcc68b6ff0",
        "fused": "9fbb0631c6b8f2db1e3a93a1956b5aee5d4e7d4ae2ab9cd62fcd71ef358f3a3a",
    },
    "gaussian": {
        "steps": "4cc0054c5af7021c5731caa6733acdd382147b7816a1b359f52df086dcd9ba2b",
        "fused": "03c41d8cfe39d0d2400da36ff492ade260d43a795dce9d8dcb97c44f7409f4a1",
    },
    "gaussian-monte-carlo": {
        "steps": "582e4d0c0aff5de07d2204e5430016f2f31ec8d067ad8b5b48241a33d986d6e1",
        "fused": "9b8948954a3c2d16fe277e029015f71d35c896f155ac2cc160f519be33206827",
    },
    "gaussian-p2": {
        "steps": "208e5bc5c0df8aecd4af74c0877d1e80f044d4eb7c4113d1a0413d039299a1fd",
        "fused": "6a31459c64f566f3f9063d600fd9ceb6d317dfd962eb7499be31511e386b73ec",
    },
    "gaussian-permuted": {
        "steps": "33d443c9aa97276f85b20f8f3cf46f9a60ff0781558735d56d2f8410e7b4b356",
        "fused": "2b360803e6458a1af566daaeb9763304a905d9b4ccb67b27e2cd3ea1a36ad387",
    },
    "gaussian-systematic": {
        "steps": "26888f26902fd115defd9b1ffa044d432ea9b7471a173e01a760a947226ee36b",
        "fused": "95801842f73bdc48ef44965b4128dd80c0292b0081e10bf87c28954771b039a2",
    },
    "liu-west": {
        "steps": "8942397d5a102db9b46aa4a62c88272f749b3c8d28741a0982b3b4fe12cb2851",
        "fused": "2cb1db22aa1a5a90f10fa4ba5b5374680b179a6b77313d21ce493feb22b85fc4",
    },
    "mixture": {
        "steps": "6f53a44d1b0b6d5c00f49078c1ea9398b9fd03aefc837f245e5fd47d23e7eeba",
        "fused": "17eaed5fe9d20162d5168950af56c0475ba537f9cf946f82071f0781d1f1d099",
    },
    "mixture-p2": {
        "steps": "c406f8caf765b48356e33a8d474ec941a319f7816fca34b5d676a0c33b74ef1d",
        "fused": "4ae47a27efff7dfef6ad241a2e51f9ad22576722080eb37f79683f7cb3fcf0af",
    },
    "order-two": {
        "steps": "26958435f86930ebe02215c4a067ccfa2c02ba1a6b0236f847776b9bcfb8d2c8",
        "fused": "aeb54cd7529fba571ccdab54b18a62093ed4193f4e920ce9c28a86d47dfc9c03",
    },
    "pf": {
        "steps": "351a517677de46831f1c1869fd5035684f06fda78d331f8947369c379d36c888",
        "fused": "caa02c648ae68795c66b2896400f9cbd50f6fd3ae310f755d19df41dd8bd5f39",
    },
    "pf-log-likelihood-order-two": {
        "estimates": "6cf1c8bfc5de6eb5e74dd557f8cccc9eab248808491eecbd873f15955607018a",
    },
    "pf-lg-theta-fixed": {
        "steps": "fc49531581d563c876cac3b5ec52e4a283cc306d425e3f1278203b1a7c7a20e3",
        "fused": "076b5d7e9b3e2629dadef5e2db231b6da550df429994280958db2e20e3c08609",
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


def _hash_value(h, value) -> None:
    if value is None:
        h.update(b"none")
        return
    arr = np.asarray(value)
    h.update(str(arr.dtype).encode() + str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def run_digests(result) -> dict[str, str]:
    """sha256 digests over every output of a run that is not a timing.

    A filter run gets two: "steps" covers the per-step arrays, the log
    evidence and the fused posterior's components; "fused" covers the
    collapsed moments (estimate, mean, cov), the mixture and point weights
    and the fused tables.  A PMMH run or an array of estimates gets one.
    """
    hashes = {}

    def add(part, value):
        _hash_value(hashes.setdefault(part, hashlib.sha256()), value)

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


# The tables of a sampled update can move in their last bits when the
# match sums in another order; this pins the codes they were matched from.
DRAWN_CODES_GOLDEN = "64bef6f6a36d38cdd9c1eaecd61152a50ebee6ba371aea96cd7ace5a141a99d0"


def drawn_codes_digest() -> str:
    """sha256 over each sample_codes output of the discrete-sampled-blocks run, taken as it is drawn."""
    h = hashlib.sha256()
    sample_codes = approx.sample_codes

    def recorded(*args, **kwargs):
        codes = sample_codes(*args, **kwargs)
        _hash_value(h, codes)
        return codes

    approx.sample_codes = recorded
    try:
        RUNS["discrete-sampled-blocks"]()
    finally:
        approx.sample_codes = sample_codes
    return h.hexdigest()


def test_drawn_codes_match_golden_digest():
    assert drawn_codes_digest() == DRAWN_CODES_GOLDEN


def _gaussian_loglik(mean, sd):
    return lambda thetas: gaussian_logpdf(thetas[:, 0], mean, sd)


def _drift_loglik(thetas):
    return gaussian_logpdf(thetas[:, 0], 0.5, 0.8) + gaussian_logpdf(thetas[:, 1], -0.3, 1.2)


CODE_FACTOR = np.arange(1.0, 19.0).reshape(2, 3, 3)


def _code_loglik(codes):
    return np.log(CODE_FACTOR[codes[:, 0], codes[:, 1], codes[:, 2]])


Q1 = GaussianApprox(0.3, 1.7)
Q2 = GaussianApprox([0.2, -0.1], [[1.1, 0.3], [0.3, 0.8]])
MIX = MixtureApprox([0.5, 0.3, 0.2], [[-1.0], [0.0], [1.5]], [[[0.3]], [[0.5]], [[0.2]]])
FAR_MIX = MixtureApprox([0.4, 0.4, 0.2], [[0.0], [0.5], [500.0]], [[[0.25]]] * 3)
TABLES = FactorizedDiscreteApprox([[0.2, 0.8], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
COV2 = [[2.0, 0.6], [0.6, 1.0]]

PUBLIC_CALLS = {
    "gaussian-update-gh7": lambda: gaussian_update(Q1, _gaussian_loglik(1.0, 0.8), GH7),
    "gaussian-update-monte-carlo": lambda: gaussian_update(
        Q2, _drift_loglik, monte_carlo(64), substream(20, 0)
    ),
    "gaussian-update-unscented-p2": lambda: gaussian_update(Q2, _drift_loglik, unscented()),
    "mixture-update": lambda: mixture_update(MIX, _gaussian_loglik(0.5, 0.6), GH7),
    "mixture-update-floor-drop": lambda: mixture_update(
        FAR_MIX, _gaussian_loglik(0.2, 0.3), gauss_hermite(9)
    ),
    "discrete-update-exhaustive": lambda: discrete_update(TABLES, _code_loglik, m=18),
    "discrete-update-sampled": lambda: discrete_update(TABLES, _code_loglik, m=10, rng=substream(21, 0)),
    "gauss-hermite-points-p1-m7": lambda: gauss_hermite_points([1.3], [[2.25]], 7),
    "gauss-hermite-points-p2-m5": lambda: gauss_hermite_points([0.5, -1.0], COV2, 5),
    "unscented-points-p2": lambda: unscented_points([0.5, -1.0], COV2),
    "gaussian-sample-p1": lambda: Q1.sample(substream(22, 0), size=50),
    "gaussian-sample-p2": lambda: Q2.sample(substream(22, 1), size=50),
    "mixture-sample": lambda: MIX.sample(substream(22, 2), size=50),
    "discrete-sample": lambda: TABLES.sample(substream(22, 3), size=50),
    "slam-instances": lambda: tuple(
        part for model in (slam_small(), slam_large()) for item in sorted(vars(model).items()) for part in item
    ),
}

PUBLIC_GOLDEN = {
    "discrete-sample": "531d76d84f798595e403e10e887ab4f0ef904123ad870be52f4d409bfe98ceb8",
    "discrete-update-exhaustive": "244bafd0da2c4072d92c1764aa3a00473f631aaccfd55a31435c3e44ffb44c65",
    "discrete-update-sampled": "7a20d87dba17ddae5cbc270774587b894d63bebba6546f6e95a72bc2d214b67f",
    "gauss-hermite-points-p1-m7": "ab036529742e9f385a574c8511b5b0fb0dc9c13d0fd14440508693d8e3b81e78",
    "gauss-hermite-points-p2-m5": "ca0bcd15af9c6a44218c7bcc8c240e6a65388642741391f9be147674ab186161",
    "gaussian-sample-p1": "a7177dd50411bb1486f61c9b986ab040e9663756a55090434de00c0060fa4d6e",
    "gaussian-sample-p2": "bea5e1294cb5305bb1345d50bf5bf898ed02e194d239d0119f6b4935b34c4840",
    "gaussian-update-gh7": "e3a9e2f51d6fbf09fc928b14f1bb10bdf844e678f418aa0d0b6b55a180efd437",
    "gaussian-update-monte-carlo": "c57859d306e5fda98bd91f7f5bf018f77a82c766759610485a03b1c3162059ae",
    "gaussian-update-unscented-p2": "fcb4ba16a341bf20ecfffe6506b068a7971889d18a574b43d08955875fa80f11",
    "mixture-sample": "941b95126c09f2180b88a5fe0da04c0005aa9d019414bade46be7a33321bd567",
    "mixture-update": "c253ed710801ad861dad1039e24e5102f09c6d0a087b66b225028553920b1f35",
    "mixture-update-floor-drop": "54105d715337462fa0deb7e1f318d7614a0c831f741c68a4ee90b4619a090e6b",
    "slam-instances": "163c80cea3d7c425ea16973a08f2c2da59a161166736d7a776850ff8a336d681",
    "unscented-points-p2": "155aae4fdda7ce9d62c5f9621f1927742b8823b272fd3aea464829391e89cb3c",
}


def public_digest(value) -> str:
    """sha256 over every array a public call returns, in field or tuple order."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif not isinstance(value, tuple):
        value = [value]
    h = hashlib.sha256()
    for part in value:
        _hash_value(h, part)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
def test_public_call_matches_golden_digest(name):
    assert public_digest(PUBLIC_CALLS[name]()) == PUBLIC_GOLDEN[name]


def _cli_inputs(root: Path) -> None:
    """Write the trajectories, exact tables and config files the CLI runs read."""
    root.mkdir()
    slam = slam_small()
    for name, model, theta, steps, seed in (
        ("sin", SinModel(), [-0.5], 20, 31),
        ("bimodal", SinModel(variant="bimodal"), [0.7], 15, 32),
        ("lg", LinearGaussianModel(), [0.7], 25, 33),
        ("slam", slam, slam.true_map, slam.n_steps(), 34),
    ):
        states, obs = simulate(model, np.asarray(theta, dtype=float), steps, substream(seed, 99))
        write_trajectory_csv(root / f"{name}.csv", states, obs)
        if model is slam:
            write_tables_csv(root / "slam_tables.csv", slam_exact_forward(slam, obs).map_marginals)
    configs = {
        "pmmh_lg": {
            "model": "lg",
            "algorithm": "pmmh",
            "data": str(root / "lg.csv"),
            "pmmh": {"inner_particles": 20, "iterations": 15, "proposal_sd": 0.3},
        },
        "pmmh_slam": {"algorithm": "pmmh", "pmmh": {"inner_particles": 20, "iterations": 15}},
        "data_seed": {"data_seed": 2, "steps": 15, "true_params": [0.4], "model_overrides": {"obs_sd": 0.8}},
        "simulate": {"model": "lg", "steps": 6, "seed": 2, "model_overrides": {"trans_sd": 0.5}},
        "oracle_seed": {"data_seed": 3, "steps": 12},
        "unknown_key": {"model": "sin", "particle_count": 10},
    }
    for name, cfg in configs.items():
        (root / f"{name}.json").write_text(json.dumps(cfg))


# {i}: the input directory, {o}: the output prefix
CLI_RUNS = {
    "simulate-sin": "simulate --model sin --steps 12 --seed 3 --out {o}.csv",
    "simulate-bimodal-theta": "simulate --model sin-bimodal --steps 8 --seed 4 --theta 0.6 --out {o}.csv",
    "simulate-lg-config": "simulate --config {i}/simulate.json --out {o}.csv",
    "simulate-slam-small": "simulate --model slam-small --seed 6 --out {o}.csv",
    "run-api-truth": (
        "run --model sin --algorithm api --particles 40 --data {i}/sin.csv --seed 1 --truth=-0.5 "
        "--out {o}"
    ),
    "run-pf-systematic": (
        "run --model sin --algorithm pf --particles 40 --data {i}/sin.csv --seed 2 "
        "--resample systematic --out {o}"
    ),
    "run-liu-west": (
        "run --model sin --algorithm liu-west --particles 40 --data {i}/sin.csv --seed 3 "
        "--shrinkage 0.95 --out {o}"
    ),
    "run-mixture": (
        "run --model sin-bimodal --algorithm api --family mixture --mixtures 3 --particles 24 "
        "--data {i}/bimodal.csv --seed 4 --out {o}"
    ),
    "run-monte-carlo": (
        "run --model sin --algorithm api --scheme monte_carlo --approx-samples 12 --particles 30 "
        "--data {i}/sin.csv --seed 5 --out {o}.csv"
    ),
    "run-slam-exact-truth": (
        "run --model slam-small --algorithm api --particles 60 --approx-samples 20 "
        "--data {i}/slam.csv --exact {i}/slam_tables.csv --truth 0,1,1,0,1,0,0,1 --seed 6 --out {o}"
    ),
    "run-pf-slam-exact": (
        "run --model slam-small --algorithm pf --particles 50 --data {i}/slam.csv "
        "--exact {i}/slam_tables.csv --seed 7 --out {o}"
    ),
    "run-pmmh-lg-truth": "run --config {i}/pmmh_lg.json --seed 8 --truth 0.7 --out {o}",
    "run-pmmh-slam-exact": (
        "run --config {i}/pmmh_slam.json --model slam-small --data {i}/slam.csv "
        "--exact {i}/slam_tables.csv --seed 9 --out {o}"
    ),
    "run-data-seed": (
        "run --config {i}/data_seed.json --model lg --algorithm api --particles 30 --seed 10 --out {o}"
    ),
    "sweep-2x2x2": (
        "sweep --model sin --algorithm api --particles-list 10,20 --samples-list 3,5 --seeds 1,2 "
        "--data {i}/sin.csv --workers 1 --out {o}"
    ),
    "oracle-slam-exact": "oracle --model slam-small --data {i}/slam.csv --out {o}",
    "oracle-grid-lg": "oracle --model lg --data {i}/lg.csv --grid-points 41 --out {o}",
    "oracle-grid-sin": (
        "oracle --model sin --data {i}/sin.csv --grid-lo -1 --grid-hi 1 --grid-points 9 --seed 3 --out {o}"
    ),
    "oracle-grid-data-seed": (
        "oracle --config {i}/oracle_seed.json --model lg --kind grid --grid-points 21 --out {o}.csv"
    ),
    "oracle-kalman": "oracle --model lg --kind kalman --theta 0.7 --data {i}/lg.csv --out {o}",
    "exit2-unknown-key": "run --config {i}/unknown_key.json --out {o}",
    "exit2-no-data": "run --model sin --algorithm pf --particles 4 --out {o}",
}

CLI_GOLDEN = {
    "exit2-no-data": "596a805d3143f1d04dacd6f2460475fd1222aa6e1dbe446159138c243696f465",
    "exit2-unknown-key": "83ce882fc8d62763485c88f465558d173fbce17738fd4c7ceaf77f8f367f2aaf",
    "oracle-grid-data-seed": "5dfdcc811714258c965d5eceab178547e9e42c35e8469df900519fd9dca7780d",
    "oracle-grid-lg": "35f2b881c84005e65a2375e986315c531fbb2e73ea93940b49af4430e14869c4",
    "oracle-grid-sin": "ea49814fd115a381cbab73c66daed52248d378929713db772c00baff249cb288",
    "oracle-kalman": "3a0ef765262932f4f20f7e9cc2c0f1e65c3e03597b68506a0b560cdcf14bd157",
    "oracle-slam-exact": "b8d1a40952672d43e43516838769eb93cdfcc9149bc831b4df417679db25f17a",
    "run-api-truth": "1bd4f80592a2f821bfff713d04a1f4786c8b339a834f7db3d3bcb5abd1052c98",
    "run-data-seed": "37d2edc19611fc94fa641871f1879bbccf9390539fb003614e38a702d7df45f7",
    "run-liu-west": "f702650440c0992a0be95e6d52f1f0ce4b707e7ea48be0714085c4961c9b07e1",
    "run-mixture": "dfb215ecf409dc745a3295e27175d1c29b6f0e2ba966d1738b4857989cf277a8",
    "run-monte-carlo": "73a626f1ed32a4a57423efb532b3c84791c16ea75081fd885fe220f0906394dd",
    "run-pf-slam-exact": "4b02bde9110ece17269bc78400c5fc31d966193a0443b9255499e9c955e47edb",
    "run-pf-systematic": "d4cbe5ff88f4ffc238059d2257f2d890c39c60932c3a18915507df0ff2ba26c3",
    "run-pmmh-lg-truth": "3297bcb3208979b3f08ceb3f68e716642caeb2363eaf5a0b2343ea78aad59566",
    "run-pmmh-slam-exact": "741df700a46d2d1213a855a18c9ebdcfff9cba47ee64641bafb4bc8cda2b49b6",
    "run-slam-exact-truth": "8757c2ec7822d27f44b1ac72be3ffe2cbd6df49afbb0da5e4f7e970ee0d80349",
    "simulate-bimodal-theta": "e823a531b3b38e542d866c1b2991287741ec08662c8c0c200dd89532d448c48c",
    "simulate-lg-config": "55e515a22b4fd780fba0168fdd37eb91be57bbf8a63461e3682ff9c816e9d22f",
    "simulate-sin": "39c107a24af271e934b7ce8e15795781a9818c85e15a3b81e6a6f992c7015907",
    "simulate-slam-small": "d77086cc204db022309e812e5f55f77f8124d8c9810dc37f227c2782cb29d2a1",
    "sweep-2x2x2": "b693145461b9ee42b8375e1c38f66c0b5ad5583a6b431d434ff2390ab1942603",
}

PATH_KEYS = ("data", "exact", "out")


def _strip_timings(value, in_config=False):
    """A summary with every elapsed_s dropped and the config's paths as placeholders."""
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    if not isinstance(value, dict):
        return value
    return {
        k: "<path>" if in_config and k in PATH_KEYS and v is not None else _strip_timings(v, k == "config")
        for k, v in value.items()
        if k != "elapsed_s"
    }


def _canonical(path: Path) -> bytes:
    text = path.read_text()
    if path.suffix == ".json":
        return json.dumps(_strip_timings(json.loads(text)), indent=2, sort_keys=True).encode()
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if "wall_clock_ms" not in header:
        return text.encode()
    drop = header.index("wall_clock_ms")
    kept = (",".join(c for j, c in enumerate(line.split(",")) if j != drop) for line in lines)
    return "\n".join(kept).encode()


def cli_digest(name: str, root: Path) -> str:
    """sha256 over one invocation's exit code, stdout, stderr and output files."""
    inputs, outputs = root / "in", root / "out"
    _cli_inputs(inputs)
    outputs.mkdir()
    argv = CLI_RUNS[name].format(i=inputs, o=outputs / "res").split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    h = hashlib.sha256(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        h.update(stream.getvalue().replace(str(root), "<dir>").encode() + b"\0")
    for path in sorted(outputs.iterdir()):
        h.update(path.name.encode() + b"\0" + _canonical(path) + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_matches_golden_digest(name, tmp_path):
    assert cli_digest(name, tmp_path) == CLI_GOLDEN[name]


@pytest.mark.parametrize(
    "runs, golden",
    [(RUNS, GOLDEN), (PUBLIC_CALLS, PUBLIC_GOLDEN), (CLI_RUNS, CLI_GOLDEN)],
    ids=["runs", "public", "cli"],
)
def test_every_golden_digest_has_its_run(runs, golden):
    """A digest without a run is never checked; a run without a digest fails by KeyError."""
    assert sorted(golden) == sorted(runs)


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
        # one entry per owner: x_new and windows share their leading axes
        for xi, win in zip(x_new[..., 0].ravel(), windows[..., 0].reshape(-1, windows.shape[-2])):
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
    print(f'DRAWN_CODES_GOLDEN = "{drawn_codes_digest()}"')
    for name in sorted(PUBLIC_CALLS):
        print(f'    "{name}": "{public_digest(PUBLIC_CALLS[name]())}",')
    for name in sorted(CLI_RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}": "{cli_digest(name, Path(tmp))}",')
