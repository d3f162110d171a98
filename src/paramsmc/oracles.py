"""Exact and brute-force reference computations plus evaluation metrics.

These are the independent yardsticks the engine is measured against: an
exact joint forward recursion for small SLAM instances, deterministic
grid posteriors over a scalar parameter (a Kalman filter on `lg`, a
forward filter over a state grid on the other scalar models), and KL / MSE.
"""

from dataclasses import dataclass

import numpy as np

from .benchmarks import LinearGaussianModel, ScalarGaussianModel, SlamModel
from .errors import PointBudgetError, TotalDegeneracyError
from .model import bootstrap_steps, gaussian_logpdf
from .resampling import multinomial_resample, weigh_log_weights
from .storage import ParticleStore

# Largest joint space an exact oracle fills: SLAM (map, location) pairs or state-grid (x_{t-1}, x_t) pairs.
EXACT_JOINT_BUDGET = 300_000
# state_grid_log_likelihood's reach past the data in obs_sd, its spacing in
# the narrowest noise sd, and the kernel size it filters thetas in.
STATE_GRID_REACH = 8.0
STATE_GRID_SPACING = 0.25
STATE_GRID_KERNEL_BYTES = 2**20
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
    log_likelihood: float | np.ndarray


def kalman_filter(model: LinearGaussianModel, theta, observations: np.ndarray) -> KalmanResult:
    """Exact filter for the scalar AR(1)-plus-noise model at a scalar theta or at (G,) thetas at once.

    Returns per-step posterior means/variances of the state, (T,) or (T, G),
    and the exact log marginal likelihood of the observations, a float or (G,).
    A model with theta_fixed runs at its own theta, and theta must be None.
    """
    if (theta is None) == (model.theta_fixed is None):
        raise ValueError("kalman_filter needs theta for a free model and theta=None for one with theta_fixed")
    obs = np.asarray(observations, dtype=np.float64).reshape(-1)
    theta = np.asarray(model.theta_fixed if theta is None else theta, dtype=np.float64)
    q, r = model.trans_sd**2, model.obs_sd**2
    mean, var = model.x0_mean, model.x0_sd**2
    means, variances = np.zeros((2, obs.size, *theta.shape))
    loglik = np.zeros(theta.shape)
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
    return KalmanResult(means=means, variances=variances, log_likelihood=loglik if theta.ndim else float(loglik))


def pf_log_likelihood(model, theta, observations, n_particles, rng) -> float:
    """Bootstrap-filter estimate of log p(y_{0:T} | theta); -inf when a step has no weight.

    model.bootstrap_steps at theta, with rng for every draw: the inner loop
    of the PMMH acceptance ratio.
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
        with np.errstate(under="ignore"):  # a tiny weight underflows to zero: once per call, not per step
            for _t, _x, _windows, _w, increment, _anc in steps:
                total += increment
    except TotalDegeneracyError:
        return -np.inf
    return float(total)


def state_grid_log_likelihood(model: ScalarGaussianModel, observations, thetas) -> np.ndarray:
    """log p(y_{0:T} | theta) at each of the (G,) thetas, by a forward filter over a grid of states.

    Initial weights, transition kernel and observation weights are the model's
    own densities at the grid points times the spacing h: each step's evidence
    is a rectangle-rule integral.  The filtered state lies near its observation
    (or between y_0 and x0_mean), so the grid spans the finite data and x0_mean,
    STATE_GRID_REACH obs_sd past either end, at STATE_GRID_SPACING of the
    narrowest noise sd.  NaN data give NaN.  Raises PointBudgetError when a
    kernel passes EXACT_JOINT_BUDGET entries.
    """
    obs = np.asarray(observations, dtype=np.float64).reshape(-1, 1)
    h = STATE_GRID_SPACING * min(model.trans_sd, model.obs_sd, model.x0_sd)
    ends = np.append(obs[np.isfinite(obs)], model.x0_mean)
    n = int(np.ceil((np.ptp(ends) + 2 * STATE_GRID_REACH * model.obs_sd) / h)) + 1
    if n * n > EXACT_JOINT_BUDGET:
        raise PointBudgetError(f"state grid kernel {n}*{n} exceeds budget {EXACT_JOINT_BUDGET}")
    xs = ends.min() - STATE_GRID_REACH * model.obs_sd + h * np.arange(n)
    chunk = max(1, STATE_GRID_KERNEL_BYTES // (8 * n * n))
    loglik = np.zeros(len(thetas))
    # broadcast views: x_i as the state, or as the window before x_j
    states, windows, x_new = xs[:, None], xs[:, None, None, None], xs[:, None]
    for lo in range(0, len(thetas), chunk):
        th = thetas[lo : lo + chunk, None, None]  # theta_g against states x_i, (G, 1, p = 1)
        # kernel[g, i, j] = p(x_j | x_i, theta_g) h
        kernel = np.exp(model.transition_logdensity(1, x_new, windows, th[..., None])) * h
        f = np.exp(model.state_prior_logdensity(states, th)) * h
        f = np.broadcast_to(f, (th.shape[0], n)).copy()
        for t, y in enumerate(obs):
            if t > 0:
                f = np.matmul(f[:, None, :], kernel)[:, 0, :]
            f *= np.exp(model.obs_logdensity(t, y, states, th))
            total = f.sum(axis=1)
            loglik[lo : lo + chunk] += np.log(total)
            f /= total[:, None]
    return loglik


def grid_posterior(model, observations, grid: np.ndarray) -> GridPosterior:
    """Posterior over a scalar parameter, p(theta | y) on a fixed grid, deterministically.

    The grid's log-likelihood is kalman_filter's on the linear-Gaussian model,
    state_grid_log_likelihood's on any other scalar Gaussian model.  Raises
    TotalDegeneracyError when a log posterior is NaN or every one is -inf.
    """
    grid = np.asarray(grid, dtype=np.float64).reshape(-1)
    if isinstance(model, LinearGaussianModel):
        loglik = kalman_filter(model, grid, observations).log_likelihood
    elif isinstance(model, ScalarGaussianModel):
        loglik = state_grid_log_likelihood(model, observations, grid)
    else:
        raise ValueError(f"grid posterior needs a scalar Gaussian model, not {type(model).__name__}")
    log_post = model.param_prior_logdensity(grid[:, None]) + loglik
    with np.errstate(under="ignore"):  # a mass far below the mode's underflows to zero
        masses = weigh_log_weights(log_post)[0]
    return GridPosterior(grid=grid, masses=masses)


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
