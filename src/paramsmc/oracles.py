"""Exact and brute-force reference computations plus evaluation metrics.

These are the independent yardsticks the engine is measured against: an
exact joint forward recursion for small SLAM instances, a Kalman filter
for the linear-Gaussian model, grid posteriors over a scalar parameter,
and the KL / MSE metrics.
"""

from dataclasses import dataclass

import numpy as np

from .benchmarks import LinearGaussianModel, SlamModel
from .errors import PointBudgetError, TotalDegeneracyError
from .model import bootstrap_steps, gaussian_logpdf
from .resampling import log_mean_exp, multinomial_resample, weigh_log_weights
from .rng import CHAIN, substream
from .storage import ParticleStore

# Largest joint (map, location) space slam_exact_forward enumerates.
EXACT_JOINT_BUDGET = 300_000
# Floor on estimated table entries in kl_factorized.
KL_FLOOR = 1e-12


@dataclass
class ExactDiscretePosterior:
    """Exact SLAM posterior: per-cell label marginals plus the location."""

    map_marginals: np.ndarray
    location_marginal: np.ndarray
    log_evidence: float


@dataclass
class GridPosterior:
    """Normalized posterior masses over a 1-d parameter grid."""

    grid: np.ndarray
    masses: np.ndarray

    def mean(self) -> float:
        return float(np.sum(self.grid * self.masses))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.sum(self.masses * (self.grid - mu) ** 2))

    def mode(self) -> float:
        return float(self.grid[np.argmax(self.masses)])


def slam_exact_forward(model: SlamModel, observations: np.ndarray) -> ExactDiscretePosterior:
    """Exact forward recursion over the joint (map, location) chain.

    Enumerates all n_labels**n_cells maps and runs the location HMM
    forward for each of them simultaneously.  Refuses instances whose
    joint state space exceeds EXACT_JOINT_BUDGET.

    Args:
        model: the SLAM instance (actions, noise levels, priors).
        observations: (T+1, 1) or (T+1,) label codes, one per timestep
            from 0 to the number of actions; may be empty for the prior.
    """
    n_maps = model.n_labels**model.n_cells
    if n_maps * model.n_cells > EXACT_JOINT_BUDGET:
        raise PointBudgetError(
            f"joint space {n_maps}*{model.n_cells} exceeds budget {EXACT_JOINT_BUDGET}"
        )
    obs = np.asarray(observations, dtype=np.float64).reshape(-1)
    # maps[k, i] = label of cell i under map hypothesis k
    maps = np.stack(
        np.meshgrid(*([np.arange(model.n_labels)] * model.n_cells), indexing="ij"),
        axis=-1,
    ).reshape(n_maps, model.n_cells)

    wrong_p = (1.0 - model.p_obs) / (model.n_labels - 1) if model.n_labels > 1 else 0.0

    def obs_matrix(label: int) -> np.ndarray:
        # (n_maps, n_cells): p(y = label | loc, map)
        return np.where(maps == label, model.p_obs, wrong_p)

    alpha = np.tile(model.initial_location_dist, (n_maps, 1)) / n_maps
    log_evidence = 0.0
    if obs.size > 0:
        alpha = alpha * obs_matrix(int(round(obs[0])))
        z = alpha.sum()
        log_evidence += np.log(z)
        alpha /= z
    for t in range(1, obs.size):
        trans = model.location_transition_matrix(t)
        alpha = (alpha @ trans) * obs_matrix(int(round(obs[t])))
        z = alpha.sum()
        log_evidence += np.log(z)
        alpha /= z

    map_post = alpha.sum(axis=1)
    location_marginal = alpha.sum(axis=0)
    marginals = np.zeros((model.n_cells, model.n_labels))
    for i in range(model.n_cells):
        for v in range(model.n_labels):
            marginals[i, v] = map_post[maps[:, i] == v].sum()
    return ExactDiscretePosterior(
        map_marginals=marginals,
        location_marginal=location_marginal,
        log_evidence=float(log_evidence),
    )


@dataclass
class KalmanResult:
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float


def kalman_filter(model: LinearGaussianModel, theta: float, observations: np.ndarray) -> KalmanResult:
    """Exact filter for the scalar AR(1)-plus-noise model at fixed theta.

    Returns per-step posterior means/variances of the state and the exact
    log marginal likelihood of the observations.
    """
    obs = np.asarray(observations, dtype=np.float64).reshape(-1)
    q = model.trans_sd**2
    r = model.obs_sd**2
    mean, var = model.x0_mean, model.x0_sd**2
    means = np.zeros(obs.size)
    variances = np.zeros(obs.size)
    loglik = 0.0
    for t, y in enumerate(obs):
        if t > 0:
            mean = theta * mean
            var = theta * theta * var + q
        innov_var = var + r
        loglik += gaussian_logpdf(y, mean, np.sqrt(innov_var))
        gain = var / innov_var
        mean = mean + gain * (y - mean)
        var = (1.0 - gain) * var
        means[t] = mean
        variances[t] = var
    return KalmanResult(means=means, variances=variances, log_likelihood=float(loglik))


def pf_log_likelihood(model, theta, observations, n_particles, rng) -> float:
    """Bootstrap-filter estimate of log p(y_{0:T} | theta); -inf when a step has no weight.

    model.bootstrap_steps at theta, with rng for every draw: the inner loop
    of the PMMH acceptance ratio and of the sampled grid oracle.
    """
    p, d, m = model.dims()
    obs = np.asarray(observations, dtype=np.float64).reshape(-1, m)
    thetas = np.tile(np.asarray(theta).reshape(1, p), (n_particles, 1))
    if model.param_kind == "discrete":
        thetas = thetas.astype(np.int64)
    store = ParticleStore(n_particles, d, model.markov_order())
    total = 0.0
    try:
        steps = bootstrap_steps(model, obs, lambda t: thetas, store, rng, rng, rng, multinomial_resample)
        for _t, _x, _windows, _w, increment, _anc in steps:
            total += increment
    except TotalDegeneracyError:
        return -np.inf
    return float(total)


def grid_posterior(
    model,
    observations,
    grid: np.ndarray,
    likelihood: str = "exact",
    n_particles: int = 10_000,
    n_replications: int = 20,
    seed: int = 0,
) -> GridPosterior:
    """Posterior over a scalar parameter, p(theta | y) on a fixed grid.

    likelihood "exact" uses the Kalman filter (linear-Gaussian models
    only); "pf" averages bootstrap-filter likelihood estimates over
    n_replications independent runs per grid point, a stochastic oracle
    whose error shrinks with both knobs.  Raises TotalDegeneracyError
    when a log posterior is NaN or every one is -inf.
    """
    grid = np.asarray(grid, dtype=np.float64).reshape(-1)
    log_post = np.zeros(grid.size)
    for i, theta in enumerate(grid):
        prior = model.param_prior_logdensity(np.array([[theta]]))[0]
        if likelihood == "exact":
            if not isinstance(model, LinearGaussianModel):
                raise ValueError("exact grid likelihood requires the linear-Gaussian model")
            ll = kalman_filter(model, theta, observations).log_likelihood
        elif likelihood == "pf":
            reps = np.array(
                [
                    pf_log_likelihood(
                        model, [theta], observations, n_particles, substream(seed, CHAIN, i, r)
                    )
                    for r in range(n_replications)
                ]
            )
            ll = log_mean_exp(reps)
        else:
            raise ValueError(f"unknown likelihood mode {likelihood!r}")
        log_post[i] = prior + ll
    return GridPosterior(grid=grid, masses=weigh_log_weights(log_post)[0])


def kl_factorized(estimate: np.ndarray, exact: np.ndarray) -> float:
    """Summed per-cell KL(exact || estimate) between factorized tables.

    The estimate entries are floored at KL_FLOOR and renormalized per cell
    before the divergence is taken, so empty estimated cells contribute a
    large-but-finite penalty instead of infinity.
    """
    exact = np.asarray(exact, dtype=np.float64)
    estimate = np.maximum(np.asarray(estimate, dtype=np.float64), KL_FLOOR)
    estimate = estimate / estimate.sum(axis=-1, keepdims=True)
    ratio = np.zeros_like(exact)
    positive = exact > 0
    ratio[positive] = exact[positive] * (np.log(exact[positive]) - np.log(estimate[positive]))
    return float(ratio.sum())


def mse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error of repeated estimates against the truth.

    estimates is (R,) or (R, p); multivariate errors are summed over
    dimensions before averaging over the R trials.
    """
    est = np.asarray(estimates, dtype=np.float64)
    if est.ndim == 1:
        est = est[:, None]
    truth = np.asarray(truth, dtype=np.float64).reshape(1, -1)
    return float(np.mean(np.sum((est - truth) ** 2, axis=1)))
