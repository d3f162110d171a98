"""Run outputs: per-step records, fused posteriors, and summaries."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FusedPosterior:
    """A particle cloud's parameter posterior, collapsed to one object.

    Each cloud builds one per step with its fuse method; mean and cov are
    that step's row of the run, and the last step's object is the run's
    posterior.  kind "mixture" carries the weighted Gaussian mixture over
    all per-particle components, "tables" the averaged discrete marginals
    (p, C), zero past each dimension's cardinality, and "points" an
    equal-weight sample cloud.  The component arrays may be views of the
    cloud's, which the cloud replaces and never writes into.
    """

    kind: str
    mean: np.ndarray
    cov: np.ndarray
    mixture_weights: np.ndarray | None = None
    mixture_means: np.ndarray | None = None
    mixture_covs: np.ndarray | None = None
    tables: np.ndarray | None = None
    points: np.ndarray | None = None
    point_weights: np.ndarray | None = None

    def interval_mass(self, lo: float, hi: float, dim: int = 0) -> float:
        """Posterior mass assigned to [lo, hi] along one coordinate."""
        if self.kind == "mixture":
            from scipy.special import ndtr  # scipy is most of the package import time

            mu = self.mixture_means[:, dim]
            sd = np.sqrt(self.mixture_covs[:, dim, dim])
            mass = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
            return float(np.sum(self.mixture_weights * mass))
        if self.kind == "points":
            inside = (self.points[:, dim] >= lo) & (self.points[:, dim] <= hi)
            return float(np.sum(self.point_weights[inside]))
        values = np.arange(self.tables.shape[1])
        inside = (values >= lo) & (values <= hi)
        return float(np.sum(self.tables[dim, inside]))


@dataclass
class RunResult:
    """Everything one filter run produces.

    Per-step arrays have one entry per assimilated observation.
    param_mean/param_cov hold each step's fused mean and covariance, and
    discrete runs add each step's fused tables in param_tables (param_mean
    then carries the per-dimension expected codes).  fused is the last
    step's FusedPosterior, so it and estimate equal the last rows.
    """

    algorithm: str
    n_particles: int
    approx_samples: int
    mixture_size: int
    param_mean: np.ndarray
    param_cov: np.ndarray
    state_mean: np.ndarray
    ess: np.ndarray
    step_ms: np.ndarray
    n_updates: np.ndarray
    fused: FusedPosterior
    estimate: np.ndarray
    log_marginal_lik: float
    elapsed_s: float
    param_tables: np.ndarray | None = None
    notes: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.ess.shape[0]
