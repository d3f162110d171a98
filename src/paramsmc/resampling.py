"""Weight normalization, resampling, and degeneracy diagnostics.

The resamplers and ess take the normalized weights that
normalize_log_weights returns and the filters hold.
"""

import numpy as np

from .errors import TotalDegeneracyError


def normalize_log_weights(log_weights: np.ndarray) -> np.ndarray:
    """Exponentiate max-shifted log weights and normalize to sum one.

    Raises TotalDegeneracyError when every weight is zero (all -inf) or
    any weight is NaN, since no ancestor distribution exists then.
    """
    lw = np.asarray(log_weights, dtype=np.float64)
    if np.any(np.isnan(lw)):
        raise TotalDegeneracyError("NaN particle weight")
    m = np.max(lw)
    if not np.isfinite(m):
        raise TotalDegeneracyError("every particle weight is zero")
    with np.errstate(under="ignore"):
        w = np.exp(lw - m)
    return w / w.sum()


def multinomial_resample(
    weights: np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw ancestor indices i.i.d. from normalized weights.

    weights must sum to one, as normalize_log_weights returns them.  The
    indices come out sorted ascending.  Sorting an i.i.d. multinomial
    sample is distribution-preserving for the unordered ancestor
    multiset, which is all resampling consumes.
    """
    n = weights.shape[0] if size is None else size
    counts = rng.multinomial(n, weights)
    return np.repeat(np.arange(weights.shape[0]), counts)


def systematic_resample(
    weights: np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Low-variance systematic resampling of normalized weights; sorted by construction."""
    n = weights.shape[0] if size is None else size
    positions = (np.arange(n) + rng.random()) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(max=weights.shape[0] - 1)


RESAMPLERS = {
    "multinomial": multinomial_resample,
    "systematic": systematic_resample,
}


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum w^2 of normalized weights."""
    with np.errstate(under="ignore"):
        return 1.0 / float(weights @ weights)


def log_mean_exp(log_values: np.ndarray) -> float:
    """log of the average of exp(values), max-shifted; -inf if all -inf."""
    lv = np.asarray(log_values, dtype=np.float64)
    m = np.max(lv)
    if not np.isfinite(m):
        return float(m)
    with np.errstate(under="ignore"):
        return float(m + np.log(np.mean(np.exp(lv - m))))


def distinct_sorted(ancestors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and inverse map of an already-sorted index array.

    Returns (unique, inverse) with unique[inverse] == ancestors.
    """
    unique, inverse = np.unique(ancestors, return_inverse=True)
    return unique, inverse
