"""Inference algorithms over DynamicModel instances.

Three filters run the bootstrap step of model.bootstrap_steps over states
and differ only in the parameter "cloud" each particle carries:

* the joint filter: per-particle parameter posteriors maintained by
  assumed-density projection updates (algorithm id "api"); its clouds
  are the approximation families of approx.py, one row per particle,
* the bootstrap particle filter: parameters frozen at their prior draws
  (id "pf"),
* the Liu-West filter: parameter draws kernel-perturbed with shrinkage
  before every step after the first (id "liu-west").

Particle-marginal Metropolis-Hastings over the parameters (id "pmmh")
scores each proposal with oracles.pf_log_likelihood, the same bootstrap
step at a fixed parameter.

Every step resamples with the resampler named by FilterConfig.resample
(multinomial or systematic).  The joint filter resamples *before* the
projection update and performs the update once per distinct surviving
ancestor.  After every step each cloud collapses its N posteriors once,
with its fuse method, into the step's FusedPosterior: its mean and
covariance are the step's row of the run, and the last step's is the
run's posterior.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as streams
from .approx import (
    Cloud,
    FactorizedDiscreteApprox,
    GaussianApprox,
    MixtureApprox,
    MixtureCloud,
    MomentScheme,
    code_tables,
)
from .errors import ConfigError, TotalDegeneracyError, UnsupportedParameterKindError
from .model import DynamicModel, ParamLikelihood, bootstrap_steps
from .oracles import pf_log_likelihood
from .resampling import RESAMPLERS, ess
from .results import FusedPosterior, RunResult
from .rng import substream
from .storage import ParticleStore


@dataclass
class FilterConfig:
    """Knobs shared by the sequential filters.

    family "auto" resolves to a Gaussian approximation for continuous
    parameters and factorized tables for discrete ones; "mixture"
    requests mixture_size Gaussian components per particle.
    permute_hook = (step, permutation) relabels the particles right
    before that step runs; exchangeability checks use it.
    """

    n_particles: int
    scheme: MomentScheme = field(default_factory=MomentScheme)
    family: str = "auto"
    mixture_size: int = 10
    seed: int = 0
    resample: str = "multinomial"
    shrinkage: float = 0.98
    permute_hook: tuple[int, np.ndarray] | None = None

    def validate(self, model: DynamicModel) -> str:
        """Raise ConfigError on a setting this model cannot run with; return the resolved family."""
        if self.n_particles < 1:
            raise ConfigError("need at least one particle")
        if self.resample not in RESAMPLERS:
            raise ConfigError(f"unknown resampler {self.resample!r}")
        if self.mixture_size < 1:
            raise ConfigError(f"mixture_size must be >= 1, got {self.mixture_size}")
        if not 0.0 <= self.shrinkage <= 1.0:
            raise ConfigError(f"shrinkage must be in [0, 1], got {self.shrinkage}")
        family = self.family
        if family == "auto":
            family = "discrete" if model.param_kind == "discrete" else "gaussian"
        if family not in ("gaussian", "mixture", "discrete"):
            raise ConfigError(f"unknown approximation family {family!r}")
        if family == "discrete" and model.param_kind != "discrete":
            raise ConfigError("discrete approximation needs discrete parameters")
        if family in ("gaussian", "mixture") and model.param_kind != "continuous":
            raise ConfigError(f"{family} approximation needs continuous parameters")
        return family


class _PointCloud(Cloud):
    """Parameters as plain draws, one per particle: the pf and liu-west clouds.

    The cloud starts at prior draws.  With a shrinkage a, sample moves
    the draws by the Liu-West kernel before every step after the first,
    from the rng given here (the PERTURB substream); without one they stay
    the prior draws.  No likelihood factor is folded in, so
    assimilation is resampling alone.
    """

    kind = "points"

    def __init__(self, thetas: np.ndarray, cardinalities=None, shrinkage=None, rng=None):
        super().__init__(thetas=thetas)
        self.cards = cardinalities
        self.shrinkage, self.rng = shrinkage, rng
        self.started = False

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.started and self.shrinkage is not None:
            self.arrays["thetas"] = _liu_west_perturb(self.arrays["thetas"], self.shrinkage, self.rng)
        self.started = True
        return self.arrays["thetas"]

    def assimilate(self, anc, factor, scheme, rng) -> tuple[int, int]:
        self.take(anc)
        return 0, 0

    def fuse(self) -> FusedPosterior:
        """Empirical mean and covariance of the draws; code frequencies too
        when they are discrete."""
        thetas = self.arrays["thetas"]
        mean = thetas.mean(axis=0)
        dev = thetas - mean
        cov = dev.T @ dev / self.n
        if self.cards is not None:
            tables = code_tables(thetas, self.cards)
            return FusedPosterior("tables", mean, cov, tables=tables)
        weights = np.full(self.n, 1.0 / self.n)
        return FusedPosterior("points", mean, cov, points=thetas, point_weights=weights)


def _liu_west_perturb(thetas: np.ndarray, a: float, rng: np.random.Generator) -> np.ndarray:
    """Shrink toward the cloud mean and add matched kernel noise, as a new array."""
    n, p = thetas.shape
    if p == 0:
        return thetas
    mean = thetas.mean(axis=0)
    dev = thetas - mean
    cov = dev.T @ dev / n
    eps = 1e-12 * np.trace(cov) / p + 1e-30
    chol = np.linalg.cholesky(cov + eps * np.eye(p))
    scale = np.sqrt(max(0.0, 1.0 - a * a))
    z = rng.standard_normal((n, p))
    return a * thetas + (1.0 - a) * mean + scale * (z @ chol.T)


def _stratified_split(mean: np.ndarray, cov: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic l-component mixture representation of a 1-d prior:
    component means (l, 1) and covariances (l, 1, 1).

    Component means sit at symmetric prior quantiles (built as mirrored
    pairs, so even posteriors stay exactly balanced) and the shared
    component variance is shrunk to preserve the prior's total variance.
    """
    from scipy.special import ndtri  # imported here: scipy is most of the package import time

    sd = float(np.sqrt(cov[0, 0]))
    half = l // 2
    upper = ndtri((np.arange(half) + l - half + 0.5) / l)
    z = np.concatenate([-upper[::-1], [0.0] * (l % 2), upper])
    means = (mean[0] + sd * z)[:, None]
    comp_var = cov[0, 0] * max(1.0 - float(np.mean(z * z)), 0.05)
    return means, np.full((l, 1, 1), comp_var)


def _build_cloud(model: DynamicModel, config: FilterConfig, algorithm: str):
    """Resolve a filter run's settings against the model and build its parameter cloud.

    algorithm is the public id: "api", "pf" or "liu-west".  Every setting
    the model cannot run with raises ConfigError here.  The joint
    filter's Gauss-Hermite grid falls back to unscented points at p > 4
    or past the quadrature point budget.  Returns (cloud, scheme, notes):
    the scheme the run's updates use and the run's notes on it.
    """
    family = config.validate(model)
    n = config.n_particles
    p = model.dims()[0]
    scheme, notes = config.scheme, {}
    if algorithm != "api":
        if algorithm == "liu-west" and model.param_kind != "continuous":
            raise UnsupportedParameterKindError(
                "the kernel-perturbation filter supports continuous parameters only"
            )
        thetas = model.param_prior_sample(substream(config.seed, streams.PARAM_INIT), n)
        if model.param_kind == "discrete":
            cloud = _PointCloud(thetas.astype(np.int64), cardinalities=model.param_cardinalities)
        elif algorithm == "pf":
            cloud = _PointCloud(thetas.astype(np.float64))
        else:
            rng = substream(config.seed, streams.PERTURB)
            cloud = _PointCloud(thetas.astype(np.float64), shrinkage=config.shrinkage, rng=rng)
        return cloud, scheme, notes
    if p == 0:
        raise ConfigError("model has no parameters to approximate")
    if family != "discrete" and scheme.kind == "gauss_hermite" and (p > 4 or scheme.over_budget(p)):
        scheme = replace(scheme, kind="unscented")
        notes["scheme"] = f"gauss_hermite infeasible at p={p}; fell back to unscented"
    if family == "gaussian":
        return GaussianApprox(*model.param_prior_moments()).cloud(n), scheme, notes
    if family == "mixture":
        mean, cov = model.param_prior_moments()
        l = config.mixture_size
        alphas = np.full(l, 1.0 / l)
        if p == 1:
            return MixtureApprox(alphas, *_stratified_split(mean, cov, l)).cloud(n), scheme, notes
        # Liu-West-style kernel over prior draws: shrinking the draws toward
        # the prior mean by a = sqrt(1 - 1/L) leaves (1 - 1/L) of the prior
        # covariance in the component means, and each component carries the
        # remaining 1/L, so the fused prior keeps the prior's moments.
        rng = substream(config.seed, streams.PARAM_INIT)
        draws = model.param_prior_sample(rng, n * l).reshape(n, l, p)
        a = np.sqrt(1.0 - 1.0 / l)
        cloud = MixtureCloud(
            alphas=np.broadcast_to(alphas, (n, l)),
            means=a * draws + (1.0 - a) * mean,
            covs=np.broadcast_to(cov / l, (n, l, p, p)),
        )
        return cloud, scheme, notes
    tables = FactorizedDiscreteApprox(model.param_prior_tables(), model.param_cardinalities)
    return tables.cloud(n, scheme.m), scheme, notes


def _run_filter(model: DynamicModel, observations, config: FilterConfig, algorithm: str) -> RunResult:
    cloud, scheme, notes = _build_cloud(model, config, algorithm)
    p, d, m = model.dims()
    obs = np.asarray(observations, dtype=np.float64).reshape(-1, m)
    if obs.shape[0] == 0:
        raise ConfigError("observations must be nonempty")
    n = config.n_particles
    n_steps = obs.shape[0]
    store = ParticleStore(n, d, model.markov_order())
    seed = config.seed
    rng_param_draw, rng_moment = substream(seed, streams.PARAM_DRAW), substream(seed, streams.MOMENT)

    def thetas_at(t):
        if config.permute_hook is not None and config.permute_hook[0] == t:
            # relabel parameters and state windows alike
            perm = np.asarray(config.permute_hook[1])
            cloud.take(perm)
            store.resample(perm)
        return cloud.sample(rng_param_draw)

    rngs = [substream(seed, phase) for phase in (streams.STATE_INIT, streams.PROPAGATE, streams.RESAMPLE)]
    steps = bootstrap_steps(model, obs, thetas_at, store, *rngs, RESAMPLERS[config.resample])

    param_mean = np.zeros((n_steps, p))
    param_cov = np.zeros((n_steps, p, p))
    state_mean = np.zeros((n_steps, d))
    ess_trace = np.zeros(n_steps)
    stamps = np.zeros(n_steps + 1)
    n_updates = np.zeros(n_steps, dtype=np.int64)
    tables_trace = None
    if model.param_kind == "discrete":
        cmax = int(np.max(model.param_cardinalities))
        tables_trace = np.zeros((n_steps, p, cmax))

    log_ml = 0.0
    degenerate_updates = 0
    run_start = stamps[0] = time.perf_counter()

    # step t's time runs from the end of step t - 1, so it holds the generator's work;
    # a tiny weight underflows to zero in the weighing, under one errstate for the run
    with np.errstate(under="ignore"):
        for t, x, windows, w, increment, anc in steps:
            ess_trace[t] = ess(w)
            state_mean[t] = w @ x
            log_ml += increment
            factor = ParamLikelihood(model, t, obs[t], x, windows)
            fused = None  # it holds views of the arrays this update replaces: let them go
            n_updates[t], deg = cloud.assimilate(anc, factor, scheme, rng_moment)
            degenerate_updates += deg

            fused = cloud.fuse()
            param_mean[t], param_cov[t] = fused.mean, fused.cov
            if tables_trace is not None:
                tables_trace[t] = fused.tables
            stamps[t + 1] = time.perf_counter()

    if degenerate_updates:
        notes["degenerate_updates"] = degenerate_updates

    approximating = cloud.kind != "points"
    return RunResult(
        algorithm=algorithm,
        n_particles=n,
        approx_samples=scheme.m if approximating else 0,
        mixture_size=config.mixture_size if cloud.kind == "mixture" else 1,
        param_mean=param_mean,
        param_cov=param_cov,
        state_mean=state_mean,
        ess=ess_trace,
        step_ms=np.diff(stamps) * 1e3,
        n_updates=n_updates,
        fused=fused,
        estimate=fused.mean.copy(),
        log_marginal_lik=float(log_ml),
        elapsed_s=time.perf_counter() - run_start,
        param_tables=tables_trace,
        notes=notes,
    )


def run_assumed_density_filter(model, observations, config: FilterConfig) -> RunResult:
    """Joint state/parameter filter with per-particle projection posteriors."""
    return _run_filter(model, observations, config, "api")


def run_bootstrap_filter(model, observations, config: FilterConfig) -> RunResult:
    """Plain bootstrap filter; parameters stay at their time-zero prior draws."""
    return _run_filter(model, observations, config, "pf")


def run_liu_west_filter(model, observations, config: FilterConfig) -> RunResult:
    """Bootstrap filter plus shrinkage kernel perturbation of the parameters."""
    return _run_filter(model, observations, config, "liu-west")


# ---------------------------------------------------------------------------
# Particle-marginal Metropolis-Hastings.
# ---------------------------------------------------------------------------


@dataclass
class PmmhConfig:
    """A PMMH run is exactly `iterations` proposals after the initial draw.

    Nothing stops a chain early, so its outputs, timing fields aside, are
    a function of (config, seed).
    """

    inner_particles: int = 50
    iterations: int = 1000
    proposal_sd: float = 0.15
    bounds: tuple[float, float] = (-5.0, 5.0)
    seed: int = 0

    def validate(self) -> None:
        if self.inner_particles < 1:
            raise ConfigError("PMMH needs at least one inner particle")
        if self.iterations < 0:
            raise ConfigError("PMMH iterations must be >= 0")
        if not (math.isfinite(self.proposal_sd) and self.proposal_sd > 0):
            raise ConfigError(f"PMMH proposal_sd must be finite and > 0, got {self.proposal_sd}")
        if len(self.bounds) != 2 or not self.bounds[0] < self.bounds[1]:
            raise ConfigError(f"PMMH bounds must be (lo, hi) with lo < hi, got {self.bounds}")


@dataclass
class PmmhResult:
    chain: np.ndarray
    log_liks: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    elapsed_s: float
    rejected_nonfinite: int
    iter_ms: np.ndarray

    @property
    def n_iterations(self) -> int:
        return self.chain.shape[0] - 1

    def burned_in(self) -> np.ndarray:
        """The last half of the chain; the first half is burn-in."""
        return self.chain[self.chain.shape[0] // 2 :]

    @property
    def estimate(self) -> np.ndarray:
        return self.burned_in().mean(axis=0)

    def posterior_tables(self, cardinalities: np.ndarray) -> np.ndarray:
        """Marginal code frequencies of the post-burn-in chain."""
        return code_tables(self.burned_in(), cardinalities)


def run_pmmh(model: DynamicModel, observations, config: PmmhConfig) -> PmmhResult:
    """Metropolis-Hastings over theta with a particle likelihood estimate.

    Continuous parameters move by a truncated-Gaussian random walk inside
    config.bounds, drawn by inverting the normal CDF between the bounds,
    with the truncation-normalizer ratio included in the acceptance
    probability.  Discrete parameters redraw one uniformly chosen
    coordinate from its code set, a symmetric proposal.  The likelihood
    p(y | theta) is estimated by a fresh bootstrap filter with
    config.inner_particles at every proposal; iterations with a
    non-finite estimate are rejected and counted.  A chain none of whose
    likelihoods was finite has no posterior: it raises
    TotalDegeneracyError.  A chain that starts at -inf and moves to a
    finite proposal is a result.

    The result's estimate is the mean of its burned_in() chain.  iter_ms
    holds each chain entry's measured milliseconds; entry 0 is the
    initial likelihood.
    """
    config.validate()
    from scipy.special import ndtr, ndtri  # imported here: scipy is most of the package import time

    p, d, m = model.dims()
    if p == 0:
        raise ConfigError("model has no parameters to sample")
    obs = np.asarray(observations, dtype=np.float64).reshape(-1, m)
    discrete = model.param_kind == "discrete"
    rng = substream(config.seed, streams.CHAIN)
    lo, hi = config.bounds
    sd = config.proposal_sd

    def window(th):
        """Normal CDF at each bound around th, and the log of the mass between them."""
        cdf_lo = ndtr((lo - th) / sd)
        cdf_hi = ndtr((hi - th) / sd)
        return cdf_lo, cdf_hi, float(np.sum(np.log(cdf_hi - cdf_lo)))

    theta = model.param_prior_sample(rng, 1)[0].astype(np.float64)
    if not discrete:
        theta = np.clip(theta, lo, hi)
        win = window(theta)

    def loglik(th, it):
        return pf_log_likelihood(
            model, th, obs, config.inner_particles, substream(config.seed, streams.CHAIN, 1 + it)
        )

    started = time.perf_counter()
    ll = loglik(theta, 0)
    lp = float(model.param_prior_logdensity(theta[None, :])[0])
    chain = [theta.copy()]
    lls = [ll]
    accepted = [True]
    rejected_nonfinite = 0
    tic = time.perf_counter()
    iter_ms = [(tic - started) * 1e3]

    for it in range(1, config.iterations + 1):
        if discrete:
            prop = theta.copy()
            coord = rng.integers(0, p)
            card = int(model.param_cardinalities[coord])
            prop[coord] = rng.integers(0, card)
            log_q_correction, win_prop = 0.0, None
        else:
            cdf_lo, cdf_hi, log_z = win
            # the clip only catches rounding at a bound, where ndtri(1.0) is inf
            prop = np.clip(theta + sd * ndtri(cdf_lo + rng.random(p) * (cdf_hi - cdf_lo)), lo, hi)
            win_prop = window(prop)
            log_q_correction = log_z - win_prop[2]

        ll_prop = loglik(prop, it)
        lp_prop = float(model.param_prior_logdensity(prop[None, :])[0])
        if not np.isfinite(ll_prop):
            rejected_nonfinite += 1
            accept = False
        else:
            log_alpha = (ll_prop + lp_prop) - (ll + lp) + log_q_correction
            accept = np.log(rng.random()) < log_alpha
        if accept:
            theta, ll, lp, win = prop, ll_prop, lp_prop, win_prop
        chain.append(theta.copy())
        lls.append(ll)
        accepted.append(bool(accept))
        toc = time.perf_counter()
        iter_ms.append((toc - tic) * 1e3)
        tic = toc

    log_liks = np.asarray(lls)
    if not np.isfinite(log_liks).any():
        raise TotalDegeneracyError(f"no PMMH likelihood was finite over {len(lls)} chain entries")
    return PmmhResult(
        chain=np.asarray(chain),
        log_liks=log_liks,
        accepted=np.asarray(accepted, dtype=bool),
        acceptance_rate=float(np.mean(accepted[1:])) if len(accepted) > 1 else 0.0,
        elapsed_s=time.perf_counter() - started,
        rejected_nonfinite=rejected_nonfinite,
        iter_ms=np.asarray(iter_ms),
    )


ALGORITHMS = {
    "api": run_assumed_density_filter,
    "pf": run_bootstrap_filter,
    "liu-west": run_liu_west_filter,
}
