"""Run outputs: per-step records, fused posteriors, and summaries."""

from dataclasses import dataclass, field

import numpy as np

from .approx import FactorizedDiscreteApprox, GaussianApprox, MixtureApprox


@dataclass
class FusedPosterior:
    """A particle cloud's parameter posterior, collapsed to one object.

    kind "mixture" carries an equal-or-weighted Gaussian mixture over all
    per-particle components, "tables" averaged discrete marginals, and
    "points" a weighted sample cloud.  mean and cov are always filled.
    """

    kind: str
    mean: np.ndarray
    cov: np.ndarray
    mixture_weights: np.ndarray | None = None
    mixture_means: np.ndarray | None = None
    mixture_covs: np.ndarray | None = None
    tables: np.ndarray | None = None
    cardinalities: np.ndarray | None = None
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

    def marginal_variances(self) -> np.ndarray:
        return np.diag(self.cov).copy()


def fuse_gaussians(means: np.ndarray, covs: np.ndarray, weights: np.ndarray | None = None) -> FusedPosterior:
    """Collapse stacked Gaussians (K, p) / (K, p, p) into their mixture.

    The fused covariance follows the law of total variance: the average
    component covariance plus the covariance of component means.
    """
    means = np.asarray(means, dtype=np.float64)
    covs = np.asarray(covs, dtype=np.float64)
    k = means.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    mean = w @ means
    dev = means - mean
    cov = np.einsum("k,kpq->pq", w, covs) + np.einsum("k,kp,kq->pq", w, dev, dev)
    return FusedPosterior(
        kind="mixture",
        mean=mean,
        cov=cov,
        mixture_weights=w,
        mixture_means=means,
        mixture_covs=covs,
    )


def fuse_tables(tables: np.ndarray, cardinalities: np.ndarray, weights: np.ndarray | None = None) -> FusedPosterior:
    """Average stacked factorized tables (K, p, C) into one table set."""
    tables = np.asarray(tables, dtype=np.float64)
    k = tables.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    fused = np.einsum("k,kpc->pc", w, tables)
    values = np.arange(tables.shape[2])
    mean = fused @ values
    second = fused @ (values * values)
    cov = np.diag(second - mean * mean)
    return FusedPosterior(
        kind="tables",
        mean=mean,
        cov=cov,
        tables=fused,
        cardinalities=np.asarray(cardinalities, dtype=np.int64),
    )


def fuse_points(points: np.ndarray, weights: np.ndarray | None = None) -> FusedPosterior:
    """Weighted mean and covariance of a plain parameter sample cloud."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = points.shape[0]
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    mean = w @ points
    dev = points - mean
    cov = np.einsum("k,kp,kq->pq", w, dev, dev)
    return FusedPosterior(
        kind="points", mean=mean, cov=cov, points=points, point_weights=w
    )


def fuse_discrete_points(codes: np.ndarray, cardinalities: np.ndarray, weights: np.ndarray | None = None) -> FusedPosterior:
    """Marginal code frequencies of an (N, p) integer parameter cloud."""
    codes = np.asarray(codes, dtype=np.int64)
    n, p = codes.shape
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    cmax = int(np.max(cardinalities))
    tables = np.zeros((1, p, cmax))
    for i in range(p):
        tables[0, i] = np.bincount(codes[:, i], weights=w, minlength=cmax)
    return fuse_tables(tables, cardinalities)


def fuse_param_posterior(particles, weights=None) -> FusedPosterior:
    """Fuse a sequence of per-particle approximations (or raw draws).

    Accepts a list of GaussianApprox, MixtureApprox, or
    FactorizedDiscreteApprox objects, or an (N, p) array of parameter
    vectors.  Mixture components are flattened with their within-particle
    weights scaled by the particle weights.
    """
    if isinstance(particles, np.ndarray):
        return fuse_points(particles, weights)
    particles = list(particles)
    n = len(particles)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    first = particles[0]
    if isinstance(first, GaussianApprox):
        means = np.stack([q.mean for q in particles])
        covs = np.stack([q.cov for q in particles])
        return fuse_gaussians(means, covs, w)
    if isinstance(first, MixtureApprox):
        all_w, all_m, all_c = [], [], []
        for wi, q in zip(w, particles):
            all_w.append(wi * q.weights / q.weights.sum())
            all_m.append(q.means)
            all_c.append(q.covs)
        return fuse_gaussians(
            np.concatenate(all_m), np.concatenate(all_c), np.concatenate(all_w)
        )
    if isinstance(first, FactorizedDiscreteApprox):
        tables = np.stack([q.tables for q in particles])
        return fuse_tables(tables, first.cardinalities, w)
    raise TypeError(f"cannot fuse particles of type {type(first)!r}")


@dataclass
class RunResult:
    """Everything one filter run produces.

    Per-step arrays have one entry per assimilated observation.  For
    continuous parameters param_mean/param_cov hold the per-step fused
    summaries; discrete runs fill param_tables instead (param_mean then
    carries the per-dimension expected codes).
    """

    algorithm: str
    model_name: str
    n_particles: int
    seed: int
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
    scheme_kind: str = ""
    notes: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.ess.shape[0]
