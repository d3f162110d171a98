"""Parameter-posterior approximation families and their projection updates.

Each family supports sampling and a Bayes update against a per-step
likelihood factor t(theta), followed by projection back into the family:

* Gaussians and Gaussian mixtures project by moment matching,
* fully factorized discrete tables project by marginal matching.

Updates evaluate t at weighted points (Monte Carlo draws, a Gauss-Hermite
tensor grid, or symmetric sigma points) and form the matched moments from
the weighted sums.  All heavy lifting happens in batched kernels that
operate on stacked arrays, so the particle engine can update thousands of
per-particle approximations in a handful of vector operations; the public
single-distribution functions are thin wrappers over the same kernels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUpdateError, PointBudgetError
from .quadrature import (
    DEFAULT_POINT_BUDGET,
    standard_gauss_hermite_grid,
    standard_unscented_grid,
)

# Updates whose total likelihood mass falls below exp(LOG_MASS_FLOOR) are
# treated as degenerate: the previous approximation is retained.
LOG_MASS_FLOOR = -700.0

# Mixture components below this weight are dropped and the rest renormalized.
COMPONENT_WEIGHT_FLOOR = 1e-12

# Relative diagonal jitter applied after every moment-matched covariance.
JITTER_RELATIVE = 1e-9

SCHEME_KINDS = ("monte_carlo", "gauss_hermite", "unscented")


@dataclass(frozen=True)
class MomentScheme:
    """How moment-matching integrals are evaluated.

    kind "monte_carlo" draws m samples from the current approximation;
    "gauss_hermite" uses an m-points-per-axis tensor grid (m**p points);
    "unscented" uses the fixed symmetric 2p-point rule and ignores m.
    """

    kind: str = "gauss_hermite"
    m: int = 7
    point_budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("scheme needs m >= 1")

    def n_points(self, p: int) -> int:
        if self.kind == "gauss_hermite":
            n = self.m**p
            if n > self.point_budget:
                raise PointBudgetError(
                    f"{self.m}^{p} Gauss-Hermite points exceed budget {self.point_budget}"
                )
            return n
        if self.kind == "unscented":
            return 2 * p
        return self.m


def monte_carlo(m: int) -> MomentScheme:
    return MomentScheme(kind="monte_carlo", m=m)


def gauss_hermite(m: int = 7) -> MomentScheme:
    return MomentScheme(kind="gauss_hermite", m=m)


def unscented() -> MomentScheme:
    return MomentScheme(kind="unscented")


@dataclass
class GaussianApprox:
    """A single multivariate Gaussian q(theta) = N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n = 1 if size is None else size
        chol = np.linalg.cholesky(self.cov)
        draws = self.mean[None, :] + rng.standard_normal((n, self.dim)) @ chol.T
        return draws[0] if size is None else draws


@dataclass
class MixtureApprox:
    """A Gaussian mixture q(theta) = sum_m alpha_m N(mean_m, cov_m)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.means.ndim == 1:
            self.means = self.means[:, None]
        l, p = self.means.shape
        self.covs = np.asarray(self.covs, dtype=np.float64).reshape(l, p, p)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def component(self, m: int) -> GaussianApprox:
        return GaussianApprox(self.means[m], self.covs[m])

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n = 1 if size is None else size
        comp = rng.choice(self.n_components, size=n, p=self.weights / self.weights.sum())
        chols = np.linalg.cholesky(self.covs)
        z = rng.standard_normal((n, self.dim))
        draws = self.means[comp] + np.einsum("nij,nj->ni", chols[comp], z)
        return draws[0] if size is None else draws


@dataclass
class FactorizedDiscreteApprox:
    """Independent categorical marginals q(theta) = prod_i q_i(theta_i).

    Tables may have differing cardinalities per dimension; internally they
    are stored padded to the maximum cardinality with zero mass.
    """

    tables: np.ndarray
    cardinalities: np.ndarray

    def __init__(self, tables, cardinalities=None):
        if cardinalities is None:
            tables = [np.asarray(t, dtype=np.float64) for t in tables]
            cardinalities = np.array([t.shape[0] for t in tables])
            cmax = int(cardinalities.max())
            padded = np.zeros((len(tables), cmax))
            for i, t in enumerate(tables):
                padded[i, : t.shape[0]] = t
            tables = padded
        self.tables = np.atleast_2d(np.asarray(tables, dtype=np.float64))
        self.cardinalities = np.asarray(cardinalities, dtype=np.int64)

    @property
    def dim(self) -> int:
        return self.tables.shape[0]

    def table(self, i: int) -> np.ndarray:
        return self.tables[i, : self.cardinalities[i]]

    def joint_cardinality(self) -> int:
        return int(np.prod(self.cardinalities.astype(object)))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n = 1 if size is None else size
        codes = sample_codes(self.tables[None, :, :], self.cardinalities, rng, n)[0]
        return codes[0] if size is None else codes


# ---------------------------------------------------------------------------
# Batched kernels.  B is the number of stacked distributions, J the number
# of evaluation points per distribution, p the parameter dimension.
# ---------------------------------------------------------------------------


def batch_cholesky(covs: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors, with a scalar fast path for p = 1."""
    if covs.shape[-1] == 1:
        return np.sqrt(covs)
    return np.linalg.cholesky(covs)


def batch_gaussian_points(
    means: np.ndarray,
    covs: np.ndarray,
    scheme: MomentScheme,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation points for each row's Gaussian.

    Returns points (B, J, p) and shared log-weights (J,).  Monte Carlo
    requires a generator; the deterministic rules do not.
    """
    b, p = means.shape
    if scheme.kind == "gauss_hermite":
        z, logw = standard_gauss_hermite_grid(p, scheme.m)
        if z.shape[0] > scheme.point_budget:
            raise PointBudgetError("Gauss-Hermite grid exceeds point budget")
    elif scheme.kind == "unscented":
        z, logw = standard_unscented_grid(p)
    else:
        if rng is None:
            raise ValueError("monte_carlo scheme needs a generator")
        z = rng.standard_normal((b, scheme.m, p))
        logw = np.full(scheme.m, -np.log(scheme.m))
    chols = batch_cholesky(covs)
    if p == 1:
        sd = chols[:, :, 0]
        if z.ndim == 2:
            points = sd[:, None, :] * z[None, :, :]
        else:
            points = sd[:, None, :] * z
        points += means[:, None, :]  # means + sd * z, in place
    elif z.ndim == 2:
        points = means[:, None, :] + np.einsum("bij,kj->bki", chols, z)
    else:
        points = means[:, None, :] + np.einsum("bij,bkj->bki", chols, z)
    return points, logw


def batch_moment_match(
    points: np.ndarray,
    log_weights: np.ndarray,
    log_t: np.ndarray,
    prev_means: np.ndarray,
    prev_covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moment-match each row's reweighted point cloud.

    Given points theta_bj with log-weights w_j and integrand values
    t_b(theta_bj), computes for every row b

        Z_b     = sum_j w_j t_b(theta_bj)
        mu_b    = sum_j w_j t_b theta_bj / Z_b
        Sigma_b = sum_j w_j t_b theta theta^T / Z_b - mu mu^T

    in max-shifted linear space.  Rows whose total mass vanishes (log Z
    below LOG_MASS_FLOOR, or every point at -inf) are flagged and keep
    their previous moments.

    Returns (means, covs, log_z, ok).
    """
    b, j, p = points.shape
    # a, and r after it, are worked in place: each is the size of log_t
    a = log_t + log_weights[None, :]
    a[np.isnan(a)] = -np.inf
    # A max over a short innermost axis pays NumPy's per-row overhead;
    # over the leading axis of a contiguous copy it runs as whole-row maxima.
    shift = np.ascontiguousarray(a.T).max(axis=0)
    ok = np.isfinite(shift)
    safe_shift = np.where(ok, shift, 0.0)
    with np.errstate(under="ignore"):
        # underflow to zero is exactly the max-shift semantics
        a -= safe_shift[:, None]
        r = np.exp(a, out=a)
    r[~ok] = 0.0
    total = r.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_z = safe_shift + np.log(total)
    log_z[~ok] = -np.inf
    ok = ok & (log_z >= LOG_MASS_FLOOR)

    denom = np.where(total > 0, total, 1.0)
    mu = np.einsum("bj,bjp->bp", r, points) / denom[:, None]
    second = np.einsum("bj,bjp,bjq->bpq", r, points, points) / denom[:, None, None]
    cov = second - np.einsum("bp,bq->bpq", mu, mu)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    eps = JITTER_RELATIVE * np.trace(cov, axis1=1, axis2=2) / p
    cov += eps[:, None, None] * np.eye(p)[None, :, :]

    means_out = np.where(ok[:, None], mu, prev_means)
    covs_out = np.where(ok[:, None, None], cov, prev_covs)
    return means_out, covs_out, log_z, ok


def batch_mixture_match(
    alphas: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    points: np.ndarray,
    log_weights: np.ndarray,
    log_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-component moment matching plus weight reweighting.

    Inputs are stacked per particle: alphas (B, L), means (B, L, p), covs
    (B, L, p, p); points and log_t are flattened over components with
    shapes (B*L, J, p) and (B*L, J).  Each component m is reweighted by
    its local normalizer beta_m = integral of t against the component, and
    the weights renormalize to alpha_m beta_m / sum_l alpha_l beta_l.
    Components falling below COMPONENT_WEIGHT_FLOOR are zeroed out and the
    rest renormalized; particles where every component degenerates are
    flagged and keep their previous state.

    Returns (alphas, means, covs, ok) with ok of shape (B,).
    """
    b, l = alphas.shape
    p = means.shape[2]
    flat_means = means.reshape(b * l, p)
    flat_covs = covs.reshape(b * l, p, p)
    new_means, new_covs, log_beta, comp_ok = batch_moment_match(
        points, log_weights, log_t, flat_means, flat_covs
    )
    log_beta = log_beta.reshape(b, l)
    comp_ok = comp_ok.reshape(b, l)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alphas)
    log_post = np.where(comp_ok, log_alpha + log_beta, -np.inf)
    shift = np.ascontiguousarray(log_post.T).max(axis=0)  # see batch_moment_match
    ok = np.isfinite(shift)
    safe_shift = np.where(ok, shift, 0.0)
    with np.errstate(under="ignore"):
        w = np.exp(log_post - safe_shift[:, None])
    w[~ok] = 0.0
    totals = w.sum(axis=1)
    w = w / np.where(totals > 0, totals, 1.0)[:, None]
    # Weight floor: drop tiny components, keep remaining ratios intact.
    w = np.where(w < COMPONENT_WEIGHT_FLOOR, 0.0, w)
    totals2 = w.sum(axis=1)
    w = w / np.where(totals2 > 0, totals2, 1.0)[:, None]

    alphas_out = np.where(ok[:, None], w, alphas)
    means_out = np.where(ok[:, None, None], new_means.reshape(b, l, p), means)
    covs_out = np.where(ok[:, None, None, None], new_covs.reshape(b, l, p, p), covs)
    return alphas_out, means_out, covs_out, ok


def sample_codes(
    tables: np.ndarray, cardinalities: np.ndarray, rng: np.random.Generator, m: int
) -> np.ndarray:
    """Draw (B, m, p) integer codes from stacked factorized tables (B, p, C).

    A code counts the interior CDF columns its uniform draw reaches, so no
    (B, m, p, C) comparison is built.  Columns at or past a dimension's
    last code are unreachable, so every code is below its cardinality even
    when a table's cumulative sum rounds below the draw.
    """
    b, p, cmax = tables.shape
    cdf = np.cumsum(tables[:, :, :-1], axis=-1)
    cdf[:, np.arange(cmax - 1) >= cardinalities[:, None] - 1] = np.inf
    u = rng.random((b, m, p))
    codes = np.zeros((b, m, p), dtype=np.int64)
    for c in range(cmax - 1):
        codes += u >= cdf[:, None, :, c]
    return codes


def code_tables(codes: np.ndarray, cardinalities: np.ndarray) -> np.ndarray:
    """Marginal code frequencies (p, C) of an (S, p) sample of integer codes."""
    codes = np.asarray(codes).astype(np.int64, copy=False)
    cmax = int(np.max(cardinalities))
    counts = [np.bincount(column, minlength=cmax) for column in codes.T]
    return np.stack(counts) / codes.shape[0]


def enumerate_codes(cardinalities: np.ndarray) -> np.ndarray:
    """All joint code combinations, shape (prod C_i, p), lexicographic."""
    grids = np.meshgrid(*[np.arange(c) for c in cardinalities], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def exhaustive_log_prior(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-code log mass (B, J) of enumerated codes (J, p) under stacked tables (B, p, C)."""
    log_prior = np.zeros((tables.shape[0], codes.shape[0]))
    with np.errstate(divide="ignore"):
        for i in range(codes.shape[1]):
            log_prior += np.log(tables[:, i, codes[:, i]])
    return log_prior


def batch_discrete_match(
    tables: np.ndarray,
    codes: np.ndarray,
    log_prior_w: np.ndarray | None,
    log_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal-matching update for stacked factorized tables.

    codes is (B, J, p) (or (J, p) shared across rows, as in exhaustive
    enumeration); log_prior_w carries per-code log q_prev mass in
    exhaustive mode and is None when codes were sampled from q_prev.  New
    marginals are the weight-suffixed code frequencies, renormalized per
    dimension.  Rows with vanishing total mass are flagged and keep their
    previous tables.

    Returns (tables, ok).
    """
    b, p, cmax = tables.shape
    if codes.ndim == 2:
        codes = np.broadcast_to(codes[None, :, :], (b,) + codes.shape)
    a = log_t if log_prior_w is None else log_t + log_prior_w
    a = np.where(np.isnan(a), -np.inf, a)
    shift = np.max(a, axis=1)
    finite = np.isfinite(shift)
    safe_shift = np.where(finite, shift, 0.0)
    with np.errstate(under="ignore"):
        r = np.exp(a - safe_shift[:, None])
    r[~finite] = 0.0
    total = r.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_z = safe_shift + np.log(np.where(total > 0, total, 1.0))
    ok = finite & (total > 0) & (log_z >= LOG_MASS_FLOOR)

    out = np.zeros_like(tables)
    offsets = (np.arange(b) * cmax)[:, None]
    flat_r = r.ravel()
    for i in range(p):
        idx = (codes[:, :, i] + offsets).ravel()
        acc = np.bincount(idx, weights=flat_r, minlength=b * cmax).reshape(b, cmax)
        out[:, i, :] = acc
    denom = np.where(total > 0, total, 1.0)
    out = out / denom[:, None, None]
    tables_out = np.where(ok[:, None, None], out, tables)
    return tables_out, ok


# ---------------------------------------------------------------------------
# Public single-distribution updates.
# ---------------------------------------------------------------------------


def gaussian_update(
    q_prev: GaussianApprox,
    log_t,
    scheme: MomentScheme,
    rng: np.random.Generator | None = None,
) -> GaussianApprox:
    """Project q_prev(theta) * t(theta) back onto a Gaussian.

    log_t is the step's likelihood factor, called with one argument: a
    (J, p) array of evaluation points, returning their (J,) log values.
    A single-state ParamLikelihood from make_param_likelihood is one.  It
    must leave out the parameter prior, whose role q_prev plays.  Raises
    DegenerateUpdateError when the total mass under the scheme's points
    vanishes, in which case callers should keep q_prev.
    """
    means = q_prev.mean[None, :]
    covs = q_prev.cov[None, :, :]
    points, logw = batch_gaussian_points(means, covs, scheme, rng)
    log_t_vals = np.asarray(log_t(points[0])).reshape(1, -1)
    new_means, new_covs, _, ok = batch_moment_match(points, logw, log_t_vals, means, covs)
    if not ok[0]:
        raise DegenerateUpdateError("likelihood mass vanished at every evaluation point")
    return GaussianApprox(new_means[0], new_covs[0])


def mixture_update(
    q_prev: MixtureApprox,
    log_t,
    scheme: MomentScheme,
    rng: np.random.Generator | None = None,
) -> MixtureApprox:
    """Component-wise projection of a Gaussian-mixture approximation.

    Each component is moment matched against t using the scheme's points
    drawn from that component, and component weights are scaled by the
    component-local normalizers.  Components under the weight floor are
    dropped and the remainder renormalized.  log_t follows the call
    contract of gaussian_update.
    """
    l = q_prev.n_components
    p = q_prev.dim
    points, logw = batch_gaussian_points(q_prev.means, q_prev.covs, scheme, rng)
    log_t_vals = np.asarray(log_t(points.reshape(l * points.shape[1], p))).reshape(l, -1)
    alphas, means, covs, ok = batch_mixture_match(
        q_prev.weights[None, :],
        q_prev.means[None, :, :],
        q_prev.covs[None, :, :, :],
        points,
        logw,
        log_t_vals,
    )
    if not ok[0]:
        raise DegenerateUpdateError("all mixture components lost their likelihood mass")
    keep = alphas[0] > 0
    return MixtureApprox(alphas[0][keep] / alphas[0][keep].sum(), means[0][keep], covs[0][keep])


def discrete_update(
    q_prev: FactorizedDiscreteApprox,
    log_t,
    m: int,
    rng: np.random.Generator | None = None,
) -> FactorizedDiscreteApprox:
    """Marginal-matching update of a factorized discrete approximation.

    When the joint cardinality does not exceed m the full joint is
    enumerated and the update is exact (exhaustive mode); otherwise m
    joint samples are drawn from q_prev and weighted by t.  log_t follows
    the call contract of gaussian_update, with (J, p) integer codes.
    """
    tables = q_prev.tables[None, :, :]
    cards = q_prev.cardinalities
    if q_prev.joint_cardinality() <= m:
        codes = enumerate_codes(cards)
        log_prior = exhaustive_log_prior(tables, codes)
    else:
        if rng is None:
            raise ValueError("sampled discrete update needs a generator")
        codes = sample_codes(tables, cards, rng, m)[0]
        log_prior = None
    log_t_vals = np.asarray(log_t(codes)).reshape(1, -1)
    new_tables, ok = batch_discrete_match(tables, codes[None, :, :], log_prior, log_t_vals)
    if not ok[0]:
        raise DegenerateUpdateError("likelihood mass vanished at every sampled code")
    return FactorizedDiscreteApprox(new_tables[0], cards)
