"""State-space model interface and generic model-level operations.

A model describes a partially observed Markov process with static
parameters theta:

    x_0 ~ p(x_0)
    x_t | window ~ p(x_t | x_{t-D:t-1}, theta)
    y_t | x_t   ~ p(y_t | x_t, theta)

All model methods are vectorized over a leading batch axis: `thetas` has
shape (n, p), states (n, d), state windows (n, D, d) with the newest state
last.  Log-densities return (n,) arrays whose entries are finite or -inf,
never NaN.  Models must be immutable after construction and are safe to
share across threads.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .approx import code_tables
from .errors import DimensionMismatchError
from .resampling import weigh_log_weights
from .rng import substream
from .storage import ParticleStore

LOG_2PI = np.log(2.0 * np.pi)
HALF_LOG_2PI = 0.5 * LOG_2PI
# Evaluations per model call when ParamLikelihood scores a large batch:
# 64 KB arrays, so the factor's temporaries stay a few hundred KB however
# many rows an update carries (see ParamLikelihood.__call__).
FACTOR_BLOCK = 8192

# Array conventions: a parameter vector is (p,) float64 (continuous) or
# (p,) int64 codes (discrete); states are (d,) and observations (m,)
# float64.  Batched variants stack along a leading axis.


class DynamicModel(ABC):
    """Interface every model implements.

    Attributes:
        param_kind: "continuous" or "discrete".
        param_cardinalities: (p,) int array of per-dimension code
            cardinalities; only meaningful for discrete parameters.
        state_prior_depends_on_params: whether p(x_0) depends on theta.
            When true, the k=0 likelihood factor includes the state prior
            term.
    """

    param_kind: str = "continuous"
    param_cardinalities: np.ndarray | None = None
    state_prior_depends_on_params: bool = False

    @abstractmethod
    def dims(self) -> tuple[int, int, int]:
        """(p, d, m): parameter, state, and observation dimensions."""

    def markov_order(self) -> int:
        return 1

    @abstractmethod
    def param_prior_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw (n, p) parameters from the prior."""

    @abstractmethod
    def param_prior_logdensity(self, thetas: np.ndarray) -> np.ndarray:
        """(n,) log prior density at each row of thetas."""

    @abstractmethod
    def state_prior_sample(self, rng: np.random.Generator, thetas: np.ndarray) -> np.ndarray:
        """Draw (n, d) initial states, one per theta row."""

    @abstractmethod
    def transition_sample(
        self, rng: np.random.Generator, t: int, windows: np.ndarray, thetas: np.ndarray
    ) -> np.ndarray:
        """Draw x_t given the (n, D, d) state windows."""

    @abstractmethod
    def transition_logdensity(
        self, t: int, x_new: np.ndarray, windows: np.ndarray, thetas: np.ndarray
    ) -> np.ndarray:
        """(n,) log density of x_new under the transition kernel."""

    @abstractmethod
    def obs_sample(self, rng: np.random.Generator, t: int, states: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Draw (n, m) observations."""

    @abstractmethod
    def obs_logdensity(self, t: int, y: np.ndarray, states: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """(n,) log density of observation y at each state/theta row."""

    def state_prior_logdensity(self, x0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """(n,) log density of x0: for state_prior_depends_on_params, and for the state-grid oracle."""
        raise NotImplementedError

    # Prior summaries used to seed parameter approximations.  The defaults
    # estimate moments from a fixed internal sample; models with known
    # priors should override with exact values.

    def param_prior_moments(self) -> tuple[np.ndarray, np.ndarray]:
        rng = substream(0x9E3779B9, 0)
        draws = self.param_prior_sample(rng, 8192)
        mean = draws.mean(axis=0)
        dev = draws - mean
        cov = dev.T @ dev / (draws.shape[0] - 1)
        return mean, cov

    def param_prior_tables(self) -> np.ndarray:
        if self.param_cardinalities is None:
            raise NotImplementedError("model does not declare discrete parameters")
        draws = self.param_prior_sample(substream(0x9E3779B9, 1), 8192)
        return code_tables(draws, self.param_cardinalities)


@dataclass(frozen=True)
class ParamLikelihood:
    """The per-step parameter likelihood factor, for a batch of owners.

    Owner i is the propagated state states[i], drawn from windows[i] (the
    D states before it, newest last), and the step's observation y.  As a
    pure function of theta the factor is

        log t_0(theta) = log p(y_0 | x_0, theta) [+ log p(x_0 | theta)]
        log t_k(theta) = log p(y_k | x_k, theta) + log p(x_k | window, theta)

    where the bracketed state-prior term is present only for models with
    state_prior_depends_on_params.  The parameter prior is not a factor:
    it is the approximation a filter starts from.

    Calling it with (B, J, p) evaluation points and (B,) owner rows
    returns the (B, J) log values, row b scored against owner rows[b].
    A (J, p) array of parameters is scored against owner 0 alone and
    gives (J,) values.

    Rows are scored in blocks of about FACTOR_BLOCK evaluations.  Every
    value depends on its own row alone, so the blocks give the same bits;
    they keep the model's temporaries small, and with them the memory a
    step takes from the allocator and hands back.
    """

    model: DynamicModel
    k: int
    y: np.ndarray
    states: np.ndarray
    windows: np.ndarray | None

    def __call__(self, points: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            return self(np.atleast_2d(points)[None], np.zeros(1, dtype=np.intp))[0]
        b, j, p = points.shape
        flat = points.reshape(b * j, p)
        step = max(1, FACTOR_BLOCK // j)
        if b <= step:
            return self._score(flat, rows, j).reshape(b, j)
        out = None
        for lo in range(0, b, step):
            block = self._score(flat[lo * j : (lo + step) * j], rows[lo : lo + step], j)
            if out is None:
                out = np.empty(b * j, dtype=block.dtype)
            out[lo * j : lo * j + block.shape[0]] = block
        return out.reshape(b, j)

    def _score(self, flat: np.ndarray, rows: np.ndarray, j: int) -> np.ndarray:
        """Flat log values of J consecutive points per owner row."""
        owner = np.repeat(rows, j)
        x = self.states[owner]
        out = self.model.obs_logdensity(self.k, self.y, x, flat)
        if self.k > 0:
            out = out + self.model.transition_logdensity(self.k, x, self.windows[owner], flat)
        elif self.model.state_prior_depends_on_params:
            out = out + self.model.state_prior_logdensity(x, flat)
        return out


def make_param_likelihood(
    model: DynamicModel,
    k: int,
    x_new: np.ndarray,
    window: list[np.ndarray] | np.ndarray | None,
    y: np.ndarray,
) -> ParamLikelihood:
    """Build the log t_k evaluator for one assimilated observation.

    Args:
        model: the state-space model.
        k: timestep; k = 0 has no transition term and must be given an
            empty window.
        x_new: (d,) state at time k.
        window: the D previous states (list or (D, d) array), newest last;
            empty/None at k = 0.
        y: (m,) observation at time k.
    """
    p, d, m = model.dims()
    x_new = np.asarray(x_new, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x_new.shape[0] != d:
        raise DimensionMismatchError(f"state has dim {x_new.shape[0]}, model declares {d}")
    if y.shape[0] != m:
        raise DimensionMismatchError(f"observation has dim {y.shape[0]}, model declares {m}")
    if k == 0:
        if window is not None and len(window) != 0:
            raise DimensionMismatchError("window must be empty at k = 0")
        win = None
    else:
        win = np.asarray(window, dtype=np.float64)
        if win.ndim == 1:
            win = win[:, None]
        if win.shape != (model.markov_order(), d):
            raise DimensionMismatchError(
                f"window shape {win.shape} != ({model.markov_order()}, {d})"
            )
    return ParamLikelihood(
        model=model,
        k=k,
        y=y,
        states=x_new[None, :],
        windows=None if win is None else win[None],
    )


def simulate(
    model: DynamicModel,
    theta: np.ndarray,
    steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a length steps+1 trajectory under a fixed parameter.

    Returns (states, observations) of shapes (steps+1, d) and
    (steps+1, m).  Deterministic given the generator state.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    p, d, m = model.dims()
    theta_row = np.asarray(theta).reshape(1, p)
    states = np.zeros((steps + 1, d))
    obs = np.zeros((steps + 1, m))
    store = ParticleStore(1, d, model.markov_order())
    x = model.state_prior_sample(rng, theta_row)
    states[0] = x[0]
    obs[0] = model.obs_sample(rng, 0, x, theta_row)[0]
    for t in range(1, steps + 1):
        store.push(x)
        x = model.transition_sample(rng, t, store.window(), theta_row)
        states[t] = x[0]
        obs[t] = model.obs_sample(rng, t, x, theta_row)[0]
    return states, obs


def bootstrap_steps(model, obs, thetas_at, store, rng_init, rng_prop, rng_res, resample):
    """The bootstrap filter, one propagate-weight-resample step per row of obs.

    At parameters thetas_at(t), x_t comes from the state prior (rng_init)
    at t = 0 and from the transition (rng_prop) after; the ancestors from
    resample(w, rng_res).  Yields (t, x, windows, w, log-evidence
    increment, ancestors); windows is None at t = 0.  Asked for the next
    step, it advances the store by x and the ancestors, which builds new
    windows and leaves the yielded ones as they were.  Raises
    TotalDegeneracyError when a step has no weight.
    """
    for t in range(obs.shape[0]):
        thetas = thetas_at(t)
        if t == 0:
            windows = None
            x = model.state_prior_sample(rng_init, thetas)
        else:
            windows = store.window()
            x = model.transition_sample(rng_prop, t, windows, thetas)
        w, increment = weigh_log_weights(model.obs_logdensity(t, obs[t], x, thetas))
        anc = resample(w, rng_res)
        yield t, x, windows, w, increment, anc
        store.advance(x, anc)


def gaussian_logpdf(x, mean, sd):
    """Elementwise scalar Gaussian log density; sd must be positive (not NaN).

    Computes -0.5 * z * z - log(sd) - 0.5 * log(2 pi) with z = (x - mean) / sd,
    operation by operation in that order, but in place where the shapes
    allow: it is the likelihood kernel of every filter step.  A Python
    float sd, what the benchmark models pass, is used as it is rather
    than as a 0-d array; the bits are the same.
    """
    scalar = type(sd) is float
    if scalar:
        positive = sd > 0
    else:
        sd = np.asarray(sd, dtype=np.float64)
        positive = (sd > 0) if sd.ndim == 0 else np.all(sd > 0)
    if not positive:  # a NaN sd is not positive either
        raise ValueError("gaussian_logpdf requires positive standard deviation")
    z = np.asarray(x) - np.asarray(mean)
    if z.dtype == np.float64 and (scalar or sd.ndim == 0 or sd.shape == z.shape):
        z /= sd
    else:  # a float64 divisor promotes z, whether sd came as a float or an array
        z = z / (np.float64(sd) if scalar else sd)
    out = -0.5 * z
    out *= z
    out -= np.log(sd)
    out -= HALF_LOG_2PI
    return out
