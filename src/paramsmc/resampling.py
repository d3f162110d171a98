"""Weight normalization, resampling, and degeneracy diagnostics.

The resamplers and ess take the normalized weights that
weigh_log_weights returns and the filters hold.
"""

import math

import numpy as np

from .errors import TotalDegeneracyError


def weigh_log_weights(log_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized weights and the log mean weight, from one exp and one sum.

    Returns (w, m + log(s / n)): w is exp(log_weights - m) / s, with m
    the largest log weight and s the sum of the shifted exponentials, and
    the second value is the log of the mean weight, the step's
    log-evidence increment.  Raises TotalDegeneracyError when every weight
    is zero (all -inf) or any weight is NaN, since no ancestor
    distribution exists then.

    A weight far below the largest underflows to zero in the exp.  The
    caller owns the floating-point error state: the loops that weigh once
    per step hold np.errstate(under="ignore") for their whole run, which
    costs about a microsecond to enter, a twentieth of a 50-particle step.
    """
    lw = np.asarray(log_weights, dtype=np.float64)
    # the ufunc reductions that lw.max() and w.sum() call, without their wrappers
    m = np.maximum.reduce(lw, axis=None)  # NaN if any weight is NaN
    if not math.isfinite(m):
        raise TotalDegeneracyError(
            "NaN particle weight" if math.isnan(m) else "every particle weight is zero"
        )
    w = np.exp(lw - m)
    s = np.add.reduce(w, axis=None)
    w /= s
    # s / size is how np.mean divides
    return w, float(m + np.log(s / lw.size))


def multinomial_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one ancestor index per weight, i.i.d. from normalized weights.

    weights must sum to one, as weigh_log_weights returns them.  The
    indices come out sorted ascending.  Sorting an i.i.d. multinomial
    sample is distribution-preserving for the unordered ancestor
    multiset, which is all resampling consumes.
    """
    n = weights.shape[0]
    counts = rng.multinomial(n, weights)
    return np.arange(n).repeat(counts)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Low-variance systematic resampling of normalized weights; sorted by construction."""
    n = weights.shape[0]
    positions = (np.arange(n) + rng.random()) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(max=n - 1)


RESAMPLERS = {
    "multinomial": multinomial_resample,
    "systematic": systematic_resample,
}


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum w^2 of normalized weights.

    A tiny weight's square underflows to zero.  As with weigh_log_weights,
    the caller owns the floating-point error state: the filters hold
    np.errstate(under="ignore") for their whole run.
    """
    return 1.0 / float(weights @ weights)


def distinct_sorted(ancestors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and inverse map of an already-sorted 1-d index array.

    Returns (unique, inverse) with unique[inverse] == ancestors, equal to
    np.unique(ancestors, return_inverse=True) without its re-sort: a new
    value starts wherever a neighbour differs.
    """
    ancestors = np.asarray(ancestors)
    starts = np.empty(ancestors.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(ancestors[1:], ancestors[:-1], out=starts[1:])
    return ancestors[starts], np.cumsum(starts) - 1
