"""Sequential Monte Carlo engine for joint online state and parameter estimation."""

from .approx import (
    FactorizedDiscreteApprox,
    GaussianApprox,
    MixtureApprox,
    MomentScheme,
    discrete_update,
    gauss_hermite,
    gauss_hermite_points,
    gaussian_update,
    mixture_update,
    monte_carlo,
    unscented,
    unscented_points,
)
from .benchmarks import (
    LinearGaussianModel,
    SinModel,
    SlamModel,
    get_model,
)
from .engine import (
    ALGORITHMS,
    FilterConfig,
    PmmhConfig,
    run_assumed_density_filter,
    run_bootstrap_filter,
    run_liu_west_filter,
    run_pmmh,
)
from .model import DynamicModel, ParamLikelihood, make_param_likelihood, simulate
from .oracles import (
    GridPosterior,
    grid_posterior,
    kalman_filter,
    kl_factorized,
    mse,
    pf_log_likelihood,
    slam_exact_forward,
)
from .resampling import ess, multinomial_resample, systematic_resample
from .results import FusedPosterior, RunResult
from .rng import substream
from .storage import ParticleStore

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "DynamicModel",
    "FactorizedDiscreteApprox",
    "FilterConfig",
    "FusedPosterior",
    "GaussianApprox",
    "GridPosterior",
    "LinearGaussianModel",
    "MixtureApprox",
    "MomentScheme",
    "ParamLikelihood",
    "ParticleStore",
    "PmmhConfig",
    "RunResult",
    "SinModel",
    "SlamModel",
    "discrete_update",
    "ess",
    "gauss_hermite",
    "gauss_hermite_points",
    "gaussian_update",
    "get_model",
    "grid_posterior",
    "kalman_filter",
    "kl_factorized",
    "make_param_likelihood",
    "mixture_update",
    "monte_carlo",
    "mse",
    "multinomial_resample",
    "pf_log_likelihood",
    "run_assumed_density_filter",
    "run_bootstrap_filter",
    "run_liu_west_filter",
    "run_pmmh",
    "simulate",
    "slam_exact_forward",
    "substream",
    "systematic_resample",
    "unscented",
    "unscented_points",
]
