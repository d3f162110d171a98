"""Parameter-posterior approximation families and their projection updates.

Each family supports sampling and a Bayes update against a per-step
likelihood factor t(theta), followed by projection back into the family:

* Gaussians and Gaussian mixtures project by moment matching,
* fully factorized discrete tables project by marginal matching.

Updates evaluate t at weighted points theta = m + L z, each row's mean m
and Cholesky factor L applied to standard points z (Monte Carlo draws, a
Gauss-Hermite tensor grid, or symmetric sigma points).  The Gaussian
projections form the matched moments from weighted sums over z, in each
row's standardized frame, and map them back through m and L, so an update
is the same wherever the row sits (the frame of adaptive Gauss-Hermite
quadrature).  Each family is implemented once, as a "cloud": many
approximations held as stacked arrays, one row each, whose sample and
update run batched kernels over every row in a handful of vector
operations.  The particle engine keeps one row per particle.  The public
single-distribution API (GaussianApprox.sample, gaussian_update, the point
rules and the rest) is the same cloud at one row, or at `size` broadcast
rows for sampling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUpdateError, PointBudgetError, SingularCovarianceError
from .quadrature import (
    DEFAULT_POINT_BUDGET,
    standard_gauss_hermite_grid,
    standard_unscented_grid,
)
from .resampling import distinct_sorted
from .results import FusedPosterior

# Updates whose total likelihood mass falls below exp(LOG_MASS_FLOOR) are
# treated as degenerate: the previous approximation is retained.
LOG_MASS_FLOOR = -700.0

# Mixture components below this weight are dropped and the rest renormalized.
COMPONENT_WEIGHT_FLOOR = 1e-12

# Relative diagonal jitter applied after every moment-matched covariance.
JITTER_RELATIVE = 1e-9

SCHEME_KINDS = ("monte_carlo", "gauss_hermite", "unscented")

# Code entries (rows x m x p) a sampled discrete update draws, scores and
# matches at once: 65 rows at m = 50, p = 20, whose scratch arrays take
# about 1 MB however many rows the update carries (see DiscreteCloud).
CODE_BLOCK = 65_536


@dataclass(frozen=True)
class MomentScheme:
    """How moment-matching integrals are evaluated.

    kind "monte_carlo" draws m samples from the current approximation;
    "gauss_hermite" uses an m-points-per-axis tensor grid (m**p points);
    "unscented" uses the fixed symmetric 2p-point rule and ignores m.
    """

    kind: str = "gauss_hermite"
    m: int = 7

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("scheme needs m >= 1")

    def over_budget(self, p: int) -> bool:
        """Whether this scheme's Gauss-Hermite grid in p dimensions exceeds DEFAULT_POINT_BUDGET."""
        return self.kind == "gauss_hermite" and self.m**p > DEFAULT_POINT_BUDGET


def monte_carlo(m: int) -> MomentScheme:
    return MomentScheme(kind="monte_carlo", m=m)


def gauss_hermite(m: int = 7) -> MomentScheme:
    return MomentScheme(kind="gauss_hermite", m=m)


def unscented() -> MomentScheme:
    return MomentScheme(kind="unscented")


def _rows(n: int, array: np.ndarray) -> np.ndarray:
    """n read-only broadcast copies of array, stacked on a new leading axis."""
    return np.broadcast_to(array, (n,) + array.shape)


class _Distribution:
    """One distribution of a family; cloud(n) is its family cloud over n
    broadcast rows, and every operation runs on that cloud."""

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """One draw, or size draws stacked, as the cloud draws one per row."""
        draws = self.cloud(1 if size is None else size).sample(rng)
        return draws[0] if size is None else draws


@dataclass
class GaussianApprox(_Distribution):
    """A single multivariate Gaussian q(theta) = N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))

    def cloud(self, n: int = 1) -> "GaussianCloud":
        return GaussianCloud(means=_rows(n, self.mean), covs=_rows(n, self.cov))


@dataclass
class MixtureApprox(_Distribution):
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

    def cloud(self, n: int = 1) -> "MixtureCloud":
        return MixtureCloud(
            alphas=_rows(n, self.weights), means=_rows(n, self.means), covs=_rows(n, self.covs)
        )


@dataclass
class FactorizedDiscreteApprox(_Distribution):
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

    def table(self, i: int) -> np.ndarray:
        return self.tables[i, : self.cardinalities[i]]

    def cloud(self, n: int = 1, m_samples: int = 0) -> "DiscreteCloud":
        return DiscreteCloud(_rows(n, self.tables), self.cardinalities, m_samples)


# ---------------------------------------------------------------------------
# Batched kernels.  B is the number of stacked distributions, J the number
# of evaluation points per distribution, p the parameter dimension.  The
# Gaussian kernels and the enumerated discrete match lay points out
# points-major, (J, B, p): a reduction over a row's points runs over the
# leading axis, as whole-row vector operations rather than B short ones.
# ---------------------------------------------------------------------------


def batch_cholesky(covs: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors, with a scalar fast path for p = 1.

    Raises SingularCovarianceError when a covariance is not positive definite.
    """
    if covs.shape[-1] == 1:
        if not np.minimum.reduce(covs, axis=None) > 0:  # a NaN minimum is not positive either
            raise SingularCovarianceError("a variance is not positive")
        return np.sqrt(covs)
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("a covariance is not positive definite") from exc


def batch_gaussian_points(
    means: np.ndarray,
    covs: np.ndarray,
    scheme: MomentScheme,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluation points for each row's Gaussian, points-major, and their frame.

    Returns (points, log_weights, z, chols): points (J, B, p) = means +
    chols z, point j of every row in slice j; shared log-weights (J,);
    the standard points z, a (J, p) grid shared by every row or, for
    Monte Carlo, (J, B, p) draws; and the rows' Cholesky factors
    (B, p, p).  batch_moment_match works in that frame.
    Monte Carlo requires a generator, from which it draws z as one
    (J, B, p) array; the deterministic rules do not.
    """
    b, p = means.shape
    if scheme.over_budget(p):
        raise PointBudgetError(
            f"Gauss-Hermite grid of {scheme.m}^{p} points exceeds budget {DEFAULT_POINT_BUDGET}"
        )
    if scheme.kind == "gauss_hermite":
        z, logw = standard_gauss_hermite_grid(p, scheme.m)
    elif scheme.kind == "unscented":
        z, logw = standard_unscented_grid(p)
    else:
        if rng is None:
            raise ValueError("monte_carlo scheme needs a generator")
        z = rng.standard_normal((scheme.m, b, p))
        logw = np.full(scheme.m, -np.log(scheme.m))
    chols = batch_cholesky(covs)
    if p == 1:
        # (B, 1) standard deviations times z; a shared (J, 1) grid broadcasts over the rows
        points = chols[:, 0] * (z[:, None, :] if z.ndim == 2 else z)
        points += means  # means + sd * z, in place
    elif z.ndim == 2:
        points = means + np.einsum("bij,kj->kbi", chols, z)
    else:
        points = means + np.einsum("bij,kbj->kbi", chols, z)
    return points, logw, z, chols


def _shifted_mass(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights exp(a - max a) along axis, worked in a's place.

    NaN counts as -inf.  Returns (weights, total, log Z, ok), the last
    three with axis reduced away: a row is ok when its log total mass
    log Z is finite and at least LOG_MASS_FLOOR.  A row whose max is not
    finite is dead: its weights are 0, its log Z is -inf and its total is
    1.  A live row's total is at least 1, its largest weight being
    exp(0), so every row can divide by its total.  NaN and dead rows are
    rare, so they cost work only when a max shows one.
    """
    shift = a.max(axis=axis, keepdims=True)
    dead = None
    if not np.isfinite(shift).all():
        if np.isnan(shift).any():  # the max of a row holding NaN is NaN
            a[np.isnan(a)] = -np.inf
            shift = a.max(axis=axis, keepdims=True)
        dead = ~np.isfinite(shift)
        shift[dead] = 0.0
    with np.errstate(under="ignore"):
        # underflow to zero is exactly the max-shift semantics
        a -= shift
        r = np.exp(a, out=a)
    total = r.sum(axis=axis)
    if dead is not None:
        np.copyto(r, 0.0, where=dead)
        total[dead.reshape(total.shape)] = 1.0
    log_z = shift.reshape(total.shape) + np.log(total)
    if dead is not None:
        log_z[dead.reshape(total.shape)] = -np.inf
    return r, total, log_z, log_z >= LOG_MASS_FLOOR


def batch_moment_match(
    z: np.ndarray,
    log_weights: np.ndarray,
    log_t: np.ndarray,
    prev_means: np.ndarray,
    prev_covs: np.ndarray,
    chols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moment-match each row's reweighted points in the row's standard frame.

    Row b's points are theta_jb = m_b + L_b z_j, from its previous mean
    m_b (prev_means, (B, p)), its Cholesky factor L_b (chols, (B, p, p))
    and standard points z, a (J, p) grid shared by the rows or (J, B, p)
    draws, as batch_gaussian_points returns them.  With log-weights w_j
    (J,) and integrand values t_b(theta_jb) (J, B), it computes for every
    row b, with r_jb = w_j t_b(theta_jb),

        Z_b       = sum_j r_jb
        mu_z      = sum_j r_jb z_j / Z_b
        Sigma_z   = sum_j r_jb z_j z_j^T / Z_b - mu_z mu_z^T
        mu_b      = m_b + L_b mu_z
        Sigma_b   = L_b Sigma_z L_b^T

    in max-shifted linear space.  The standardized sums are of order one
    wherever the row sits, so the second moment does not cancel as the
    raw sum of theta theta^T less mu mu^T does when |m_b| is far above the
    row's spread, and the match is the same at any location.  Every sum
    runs over the leading point axis, so each row adds its points in
    order, whatever J is.  Rows whose total mass vanishes (log Z below
    LOG_MASS_FLOOR, or every point at -inf) are flagged and keep their
    previous moments, and so are rows whose matched variance is not
    positive on some axis: all of their mass on one point.

    Returns (means, covs, log_z, ok).
    """
    b, p = prev_means.shape
    r, total, log_z, ok = _shifted_mass(log_t + log_weights[:, None], axis=0)
    if z.ndim == 2:
        # The shared grid's z and z z^T side by side, (J, p + p^2), in one
        # contraction whose (p + p^2, B) result runs along the rows.
        grid = np.concatenate((z, (z[:, :, None] * z[:, None, :]).reshape(len(z), p * p)), axis=1)
        moments = np.einsum("jk,jb->kb", grid, r)
        moments /= total
        mu_z, second = moments[:p].T, moments[p:].T.reshape(b, p, p)
    else:
        mu_z = np.einsum("jb,jbp->bp", r, z)
        mu_z /= total[:, None]
        second = np.einsum("jb,jbp,jbq->bpq", r, z, z)
        second /= total[:, None, None]
    cov_z = second - mu_z[:, :, None] * mu_z[:, None, :]
    if p == 1:
        # L Sigma_z L^T is Sigma_z times the previous variance, L L^T
        mu = chols[:, 0] * mu_z
        mu += prev_means
        cov = cov_z * prev_covs
        var = cov[:, 0]
        var += JITTER_RELATIVE * var
        ok &= var[:, 0] > 0
    else:
        # einsum, not matmul: its sums run in index order, whatever the BLAS build
        mu = np.einsum("bij,bj->bi", chols, mu_z)
        mu += prev_means
        cov = np.einsum("bik,blk->bil", np.einsum("bij,bjk->bik", chols, cov_z), chols)
        cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
        diag = np.einsum("bii->bi", cov)  # a writeable view, whatever cov's layout
        diag += JITTER_RELATIVE * diag.sum(axis=1, keepdims=True) / p
        ok &= (diag > 0).all(axis=1)
    if ok.all():
        return mu, cov, log_z, ok
    means_out = np.where(ok[:, None], mu, prev_means)
    covs_out = np.where(ok[:, None, None], cov, prev_covs)
    return means_out, covs_out, log_z, ok


def batch_mixture_match(
    alphas: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    z: np.ndarray,
    log_weights: np.ndarray,
    log_t: np.ndarray,
    chols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-component moment matching plus weight reweighting.

    Inputs are stacked per particle: alphas (B, L), means (B, L, p), covs
    (B, L, p, p).  The components' frame is flattened over components, as
    batch_gaussian_points returns it for the (B*L, p) means: standard
    points z, (J, p) or (J, B*L, p), and Cholesky factors chols
    (B*L, p, p); log_t (J, B*L) is points-major.  Each component is moment
    matched by batch_moment_match in its own frame.  Each component m
    is reweighted by its local normalizer beta_m = integral of t against
    the component, and the weights renormalize to alpha_m beta_m /
    sum_l alpha_l beta_l.
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
        z, log_weights, log_t, flat_means, flat_covs, chols
    )
    log_beta = log_beta.reshape(b, l)
    comp_ok = comp_ok.reshape(b, l)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alphas)
    log_post = np.where(comp_ok, log_alpha + log_beta, -np.inf)
    w, totals, log_mass, _ = _shifted_mass(log_post, axis=1)
    ok = np.isfinite(log_mass)  # some component kept its mass; no floor on the sum
    w = w / totals[:, None]
    # Weight floor: drop tiny components, keep remaining ratios intact.
    w = np.where(w < COMPONENT_WEIGHT_FLOOR, 0.0, w)
    totals2 = w.sum(axis=1)
    w = w / np.where(totals2 > 0, totals2, 1.0)[:, None]
    if ok.all():
        return w, new_means.reshape(b, l, p), new_covs.reshape(b, l, p, p), ok
    alphas_out = np.where(ok[:, None], w, alphas)
    means_out = np.where(ok[:, None, None], new_means.reshape(b, l, p), means)
    covs_out = np.where(ok[:, None, None, None], new_covs.reshape(b, l, p, p), covs)
    return alphas_out, means_out, covs_out, ok


def sample_codes(
    tables: np.ndarray,
    cardinalities: np.ndarray,
    rng: np.random.Generator,
    m: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Draw (B, m, p) integer codes from stacked factorized tables (B, p, C).

    A code counts the interior CDF columns its uniform draw reaches, so no
    (B, m, p, C) comparison is built.  The columns are C - 2 adds of a
    copy of the tables, the order np.cumsum adds them in, without its cost
    on a short trailing axis.  Columns at or past a dimension's last code
    are unreachable, so every code is below its cardinality even when a
    table's cumulative sum rounds below the draw; only a dimension with
    fewer than C codes has any.

    out, when given, is (draws, codes) scratch of shape (B, m, p), float64
    and int64.  The uniforms are drawn into draws, the same bits as a
    fresh draw, and the codes counted into codes, which is returned; with
    C <= 2 nothing of size (B, m, p) is allocated.
    """
    b, p, cmax = tables.shape
    cdf = tables[:, :, :-1].copy()
    for c in range(1, cmax - 1):
        cdf[:, :, c] += cdf[:, :, c - 1]
    if (cardinalities < cmax).any():
        cdf[:, np.arange(cmax - 1) >= cardinalities[:, None] - 1] = np.inf
    if out is None:
        draws, codes = rng.random((b, m, p)), np.empty((b, m, p), dtype=np.int64)
    else:
        draws, codes = out
        rng.random(out=draws)
    # The first interior column counts straight into codes; with C = 1
    # there is none and every code is 0.
    np.greater_equal(draws, cdf[:, None, :, 0] if cmax > 1 else np.inf, out=codes)
    for c in range(1, cmax - 1):
        codes += draws >= cdf[:, None, :, c]
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
    """Per-code log mass (J, B) of enumerated codes (J, p) under stacked tables (B, p, C), points-major."""
    log_prior = np.zeros((codes.shape[0], tables.shape[0]))
    with np.errstate(divide="ignore"):
        for i in range(codes.shape[1]):
            log_prior += np.log(tables[:, i].T[codes[:, i]])
    return log_prior


def _code_indicators(codes: np.ndarray, cmax: int) -> np.ndarray:
    """The 0/1 indicators (J, p * C) of codes (J, p): column i * C + c marks the codes whose coordinate i is c."""
    j, p = codes.shape
    return (codes[:, :, None] == np.arange(cmax)).reshape(j, p * cmax).astype(np.float64)


def batch_discrete_match(
    tables: np.ndarray,
    codes: np.ndarray,
    log_prior_w: np.ndarray | None,
    log_t: np.ndarray,
    weights: np.ndarray | None = None,
    indicators: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal-matching update for stacked factorized tables (B, p, C).

    Enumerated mode, when log_prior_w is given: every row holds the same
    J codes, codes (J, p), and log_prior_w, their per-row log q_prev mass,
    and log_t are (J, B), points-major as the Gaussian kernels lay them
    out, so the max-shift reduces over the leading axis.  indicators, when
    given, are the codes' 0/1 indicators (J, p * C) as _code_indicators
    builds them; a caller that matches the same codes on every update
    builds them once.  Sampled mode, when log_prior_w is None: codes
    (B, M, p) were drawn from q_prev, row by row, and log_t is (B, M).
    New marginals are the weight-summed code frequencies, renormalized
    per dimension.  Rows with vanishing total mass are flagged and keep
    their previous tables.

    A weighted code count is a matrix product: the rows' point weights
    times the codes' 0/1 indicators, summed by np.matmul (BLAS) in its own
    order rather than in point order, so a table's last bits follow the
    BLAS build, except where each table entry has one nonzero term.
    Enumerated mode contracts the (B, J) weights with the (J, p * C)
    indicators in one product.  A sampled block takes one product per
    code value c, over the indicator of codes == c, which is written into
    weights when a float64 (B, M, p) buffer is given, so nothing of that
    size is allocated.  codes is never written.

    Returns (tables, ok).
    """
    b, p, cmax = tables.shape
    if log_prior_w is not None:
        r, total, _, ok = _shifted_mass(log_t + log_prior_w, axis=0)
        if indicators is None:
            indicators = _code_indicators(codes, cmax)
        out = (r.T @ indicators).reshape(b, p, cmax)
    else:
        r, total, _, ok = _shifted_mass(np.array(log_t, dtype=np.float64), axis=1)
        if weights is None:
            weights = np.empty(codes.shape)
        out = np.empty((b, p, cmax))
        for c in range(cmax):
            np.equal(codes, c, out=weights)
            # (B, p, M) indicators times (B, M, 1) weights: code c's column of every table
            np.matmul(weights.transpose(0, 2, 1), r[:, :, None], out=out[:, :, c : c + 1])
    out /= total[:, None, None]
    tables_out = np.where(ok[:, None, None], out, tables)
    return tables_out, ok


# ---------------------------------------------------------------------------
# Family clouds: stacked approximations as named arrays, row axis first.
# Every operation replaces the arrays rather than writing into them, so a
# row gathered before an update never aliases the cloud, and a
# FusedPosterior holding views of them stays valid.
# ---------------------------------------------------------------------------

# One Monte Carlo point per row: a draw from each row's Gaussian.
_ONE_DRAW = MomentScheme(kind="monte_carlo", m=1)


class Cloud:
    """Shared row bookkeeping.  Subclasses supply sample, one parameter
    draw per row; update(prev, rows, factor, scheme, rng), which folds the
    likelihood factor into the rows prev and returns (arrays, ok); and
    fuse, which collapses the rows into one FusedPosterior."""

    def __init__(self, **arrays: np.ndarray):
        self.arrays = arrays
        self.n = next(iter(arrays.values())).shape[0]

    def take(self, rows: np.ndarray) -> None:
        """Row i becomes old row rows[i]: permutation or resampling."""
        self.arrays = {k: v.take(rows, axis=0) for k, v in self.arrays.items()}

    def assimilate(self, anc, factor, scheme, rng) -> tuple[int, int]:
        """Resample the rows to anc, folding the step's likelihood factor in.

        Each distinct ancestor is updated once and the result scattered to
        its copies; the factor's owners are the rows in pre-resample order.
        Returns (rows updated, degenerate updates).
        """
        u, inv = distinct_sorted(anc)
        prev = {k: v.take(u, axis=0) for k, v in self.arrays.items()}
        new, ok = self.update(prev, u, factor, scheme, rng)
        self.arrays = new
        self.take(inv)
        return len(u), int(np.sum(~ok))


class GaussianCloud(Cloud):
    """Rows of Gaussians: means (n, p) and covs (n, p, p)."""

    kind = "gaussian"
    _weights = None  # fuse's equal weights, built at its first call

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return batch_gaussian_points(self.arrays["means"], self.arrays["covs"], _ONE_DRAW, rng)[0][0]

    def update(self, prev, rows, factor, scheme, rng):
        points, logw, z, chols = batch_gaussian_points(prev["means"], prev["covs"], scheme, rng)
        logt = factor(points, rows[None, :])
        means, covs, _, ok = batch_moment_match(z, logw, logt, prev["means"], prev["covs"], chols)
        return {"means": means, "covs": covs}, ok

    def fuse(self) -> FusedPosterior:
        """Equal-weight mixture of the N Gaussians, moments by total variance.

        The means are np.mean's sum and division, without its wrapper, so
        the bits are the same; every FusedPosterior of the cloud shares one
        read-only weights array.
        """
        means, covs = self.arrays["means"], self.arrays["covs"]
        mean = np.add.reduce(means, axis=0) / self.n
        dev = means - mean
        cov = np.add.reduce(covs, axis=0) / self.n + dev.T @ dev / self.n
        if self._weights is None:
            self._weights = np.full(self.n, 1.0 / self.n)
            self._weights.setflags(write=False)
        return FusedPosterior(
            "mixture", mean, cov, mixture_weights=self._weights, mixture_means=means, mixture_covs=covs
        )


class MixtureCloud(Cloud):
    """Rows of L-component Gaussian mixtures: alphas (n, L), means
    (n, L, p) and covs (n, L, p, p)."""

    kind = "mixture"

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        alphas, means, covs = self.arrays["alphas"], self.arrays["means"], self.arrays["covs"]
        n, l = alphas.shape
        # A draw counts the cumulative weights it reaches.  Those that equal
        # the row's total, from its last positive weight on, are out of
        # reach, so no draw lands on a zero-weight component even when the
        # total rounds below the draw.  The cumulative weights are built
        # components-major, (L, n), adding in np.cumsum's order, so every
        # step is one vector operation over the rows.
        cdf = alphas.T.copy()
        for c in range(1, l):
            cdf[c] += cdf[c - 1]
        np.copyto(cdf, np.inf, where=cdf >= cdf[-1])
        comp = (rng.random(n) >= cdf).sum(axis=0)
        rows = np.arange(n)
        return batch_gaussian_points(means[rows, comp], covs[rows, comp], _ONE_DRAW, rng)[0][0]

    def update(self, prev, rows, factor, scheme, rng):
        k, l, p = prev["means"].shape
        flat_m = prev["means"].reshape(k * l, p)
        flat_c = prev["covs"].reshape(k * l, p, p)
        points, logw, z, chols = batch_gaussian_points(flat_m, flat_c, scheme, rng)
        j = points.shape[0]
        # each owner scores its L components' points through a (J, K, L, p) view
        logt = factor(points.reshape(j, k, l, p), rows[None, :, None]).reshape(j, k * l)
        alphas, means, covs, ok = batch_mixture_match(
            prev["alphas"], prev["means"], prev["covs"], z, logw, logt, chols
        )
        return {"alphas": alphas, "means": means, "covs": covs}, ok

    def fuse(self) -> FusedPosterior:
        """All N * L components in one mixture, each weight alpha / N."""
        p = self.arrays["means"].shape[-1]
        w = (self.arrays["alphas"] / self.n).ravel()
        means = self.arrays["means"].reshape(-1, p)
        covs = self.arrays["covs"].reshape(-1, p, p)
        mean = w @ means
        dev = means - mean
        cov = np.einsum("k,kpq->pq", w, covs)
        cov += np.einsum("k,kp,kq->pq", w, dev, dev)
        return FusedPosterior("mixture", mean, cov, mixture_weights=w, mixture_means=means, mixture_covs=covs)


class DiscreteCloud(Cloud):
    """Rows of factorized tables (n, p, C) over codes below cardinalities (p,).

    An update takes the first of three paths that applies:

    * exhaustive, when the joint has at most m_samples codes: it
      enumerates them, which is exact;
    * scoped, when the factor declares the k coordinates each row's
      factor reads (a param_scope(rows) method returning (B, k), as
      ParamLikelihood has) and C**k <= m_samples: it enumerates the C**k
      codes of each row's scope and matches the scope's k tables as the
      exhaustive path matches the joint.  A factorized q times a factor
      of the scope alone leaves the other marginals as they were, so
      this is the exact projection too, and those tables are copied bit
      for bit (Boyen & Koller, UAI 1998);
    * sampled, otherwise: it weights m_samples joint draws from each
      row's tables.  It runs in blocks of rows holding at most
      CODE_BLOCK codes, and draws, scores and matches each block in
      scratch arrays that the cloud keeps from one update to the next.

    The enumerated paths lay codes out points-major, (J, B, p) scored
    against (1, B) owners, as the Gaussian clouds lay out their points;
    the cloud enumerates the joint, and each scope width's codes, and
    builds their indicators once.  Every path's match is a matrix
    product of point weights and code indicators (see
    batch_discrete_match), so the exhaustive and sampled tables' last
    bits follow the BLAS build; a scoped table at k = 1 sums one nonzero
    term per entry and does not, and the drawn codes do not depend on it.
    """

    kind = "discrete"

    def __init__(self, tables: np.ndarray, cardinalities: np.ndarray, m_samples: int = 0):
        super().__init__(tables=tables)
        self.cards = np.asarray(cardinalities, dtype=np.int64)
        self.m_samples = m_samples
        joint = float(np.prod(self.cards.astype(np.float64)))
        self.joint_codes = enumerate_codes(self.cards) if joint <= m_samples else None
        if self.joint_codes is not None:
            self._joint_indicators = _code_indicators(self.joint_codes, tables.shape[2])
        self._scope_codes = {}  # k -> the C**k scope codes (J, k) and their indicators
        self._scratch = None  # sample_codes' out for the largest block so far

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return sample_codes(self.arrays["tables"], self.cards, rng, 1)[:, 0, :]

    def update(self, prev, rows, factor, scheme, rng):
        tables = prev["tables"]
        if self.joint_codes is not None:
            joint = self.joint_codes
            log_prior = exhaustive_log_prior(tables, joint)
            codes = np.broadcast_to(joint[:, None, :], (len(joint), len(rows), joint.shape[1]))
            log_t = factor(codes, rows[None, :])
            new_tables, ok = batch_discrete_match(
                tables, joint, log_prior, log_t, indicators=self._joint_indicators
            )
            return {"tables": new_tables}, ok
        scope = factor.param_scope(rows) if hasattr(factor, "param_scope") else None
        if scope is not None and tables.shape[2] ** scope.shape[1] <= self.m_samples:
            return self._scoped_update(tables, rows, factor, scope)
        if rng is None:
            raise ValueError("sampled discrete update needs a generator")
        m = self.m_samples
        if m < 1:
            raise ValueError(f"sampled discrete update needs m >= 1 codes per row, got {m}")
        b, p, _ = tables.shape
        step = max(1, CODE_BLOCK // (m * p))
        if self._scratch is None or self._scratch[0].shape[0] < min(step, b):
            shape = (min(step, b), m, p)
            self._scratch = (np.empty(shape), np.empty(shape, dtype=np.int64))
        new_tables = np.empty(tables.shape)
        ok = np.empty(b, dtype=bool)
        # The blocks draw the uniforms of one (b, m, p) draw in order.  The
        # factor must not keep the codes it scores: the next block reuses them.
        for lo in range(0, b, step):
            block = slice(lo, lo + step)
            draws, codes = (a[: min(step, b - lo)] for a in self._scratch)
            codes = sample_codes(tables[block], self.cards, rng, m, out=(draws, codes))
            logt = factor(codes, rows[block, None])
            # the draws are spent once the codes are counted; their buffer takes the code indicators
            new_tables[block], ok[block] = batch_discrete_match(tables[block], codes, None, logt, draws)
        return {"tables": new_tables}, ok

    def _scoped_update(self, tables, rows, factor, scope):
        """The exact update of the (B, k) scope's tables; every other table is copied."""
        b, k = scope.shape
        p, cmax = tables.shape[1:]
        if k not in self._scope_codes:
            local = enumerate_codes(np.full(k, cmax))
            self._scope_codes[k] = local, _code_indicators(local, cmax)
        local, indicators = self._scope_codes[k]  # (J, k) scope codes, alike in every row
        owner = np.arange(b)[:, None]
        scope_tables = tables[owner, scope]  # (B, k, C)
        if (self.cards < cmax).any():
            # a code past its coordinate's cardinality has no prior mass: the factor scores code 0 there
            local_in_range = np.where(local[:, None, :] < self.cards[scope], local[:, None, :], 0)
        else:
            local_in_range = local[:, None, :]
        # each row's codes hold its scope codes and 0 at every coordinate the factor does not read
        codes = np.zeros((len(local), b, p), dtype=np.int64)
        codes[:, owner, scope] = local_in_range
        log_t = factor(codes, rows[None, :])
        log_prior = exhaustive_log_prior(scope_tables, local)
        matched, ok = batch_discrete_match(scope_tables, local, log_prior, log_t, indicators=indicators)
        new_tables = tables.copy()
        new_tables[owner, scope] = matched  # a flagged row's matched tables are its previous ones
        return {"tables": new_tables}, ok

    def fuse(self) -> FusedPosterior:
        """The N factorized table sets averaged into one; each dimension's
        expected code and its variance."""
        tables = self.arrays["tables"].mean(axis=0)
        values = np.arange(tables.shape[1])
        mean = tables @ values
        second = tables @ (values * values)
        cov = np.diag(second - mean * mean)
        return FusedPosterior("tables", mean, cov, tables=tables)


# ---------------------------------------------------------------------------
# Public single-distribution API: the clouds above at one row.
# ---------------------------------------------------------------------------


def _update_one(cloud: Cloud, log_t, scheme: MomentScheme | None, rng) -> dict:
    """A one-row cloud's updated arrays; log_t scores (J, p) points, where
    the engine's factors score points of many owners at once."""

    def factor(points, rows):
        values = log_t(points.reshape(-1, points.shape[-1]))
        return np.asarray(values).reshape(points.shape[:-1])

    arrays, ok = cloud.update(cloud.arrays, np.zeros(1, dtype=np.int64), factor, scheme, rng)
    if not ok[0]:
        raise DegenerateUpdateError("likelihood mass vanished or fell on a single point")
    return arrays


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
    vanishes or the matched variance is not positive, in which case
    callers should keep q_prev.
    """
    new = _update_one(q_prev.cloud(), log_t, scheme, rng)
    return GaussianApprox(new["means"][0], new["covs"][0])


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
    new = _update_one(q_prev.cloud(), log_t, scheme, rng)
    alphas = new["alphas"][0]
    keep = alphas > 0
    return MixtureApprox(alphas[keep] / alphas[keep].sum(), new["means"][0][keep], new["covs"][0][keep])


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
    the call contract of gaussian_update, with (J, p) integer codes; it
    declares no scope, so DiscreteCloud's scoped path is not taken.
    """
    new = _update_one(q_prev.cloud(1, m), log_t, None, rng)
    return FactorizedDiscreteApprox(new["tables"][0], q_prev.cardinalities)


def gauss_hermite_points(mean: np.ndarray, cov: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-grid Gauss-Hermite rule for N(mean, cov).

    The grid grows exponentially in p, so m**p is capped at
    quadrature.DEFAULT_POINT_BUDGET: past it this raises PointBudgetError,
    and callers are expected to fall back to another scheme.

    Args:
        mean: (p,) location.
        cov: (p, p) positive definite covariance.
        m: points per axis; the grid has m**p points total.

    Returns:
        (points, weights): (m**p, p) locations and (m**p,) positive
        weights summing to one.
    """
    return _point_rule(mean, cov, gauss_hermite(m))


def unscented_points(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric 2p-point rule: mean +/- sqrt(p) times the columns of chol(cov).

    The point set reproduces the mean and covariance of N(mean, cov)
    exactly; all weights equal 1/(2p).
    """
    return _point_rule(mean, cov, unscented())


def _point_rule(mean, cov, scheme: MomentScheme) -> tuple[np.ndarray, np.ndarray]:
    """One row of batch_gaussian_points, with linear weights summing to one."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    points, logw, _, _ = batch_gaussian_points(mean[None, :], cov[None, :, :], scheme, None)
    weights = np.exp(logw)
    return points[:, 0], weights / weights.sum()
