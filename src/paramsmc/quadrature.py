"""Deterministic point rules for the standard normal in p dimensions.

Two rules are provided: tensor-grid Gauss-Hermite quadrature (exact for
polynomial integrands up to degree 2M-1 per axis) and the symmetric 2p
sigma-point rule that reproduces the first two moments exactly.  Both
are cached, read-only grids; approx.batch_gaussian_points maps them onto
any N(mean, cov), and approx.gauss_hermite_points and unscented_points
are that map at one row.
"""

from functools import lru_cache

import numpy as np

# Largest tensor grid (m**p points) a Gauss-Hermite rule builds; past it
# approx.batch_gaussian_points raises and the joint filter falls back to
# unscented points.
DEFAULT_POINT_BUDGET = 100_000


@lru_cache(maxsize=64)
def gauss_hermite_1d(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[f(Z)] with Z ~ N(0, 1).

    The physicists' rule for integral f(x) exp(-x^2) dx is rescaled to the
    probabilists' convention, so the weights sum to one.  Rules are cached;
    the returned arrays are read-only.
    """
    if m < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.hermite.hermgauss(m)
    x = x * np.sqrt(2.0)
    w = w / np.sqrt(np.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def standard_gauss_hermite_grid(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid for a standard normal in p dimensions.

    Returns (m**p, p) nodes and (m**p,) log-weights (normalized); cached
    and read-only.
    """
    xi, wi = gauss_hermite_1d(m)
    if p == 1:
        z, logw = xi[:, None].copy(), np.log(wi)
    else:
        grids = np.meshgrid(*([xi] * p), indexing="ij")
        z = np.stack([g.ravel() for g in grids], axis=1)
        logw = np.zeros(m**p)
        lw1 = np.log(wi)
        wgrids = np.meshgrid(*([lw1] * p), indexing="ij")
        for g in wgrids:
            logw += g.ravel()
        logw -= _logsumexp(logw)
    z.setflags(write=False)
    logw.setflags(write=False)
    return z, logw


@lru_cache(maxsize=64)
def standard_unscented_grid(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sigma points for a standard normal: +/- sqrt(p) e_j, log-weights."""
    eye = np.sqrt(p) * np.eye(p)
    z = np.concatenate([eye, -eye], axis=0)
    logw = np.full(2 * p, -np.log(2 * p))
    z.setflags(write=False)
    logw.setflags(write=False)
    return z, logw


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return m
    return m + np.log(np.sum(np.exp(a - m)))
