"""State-space model interface and generic model-level operations.

A model describes a partially observed Markov process with static
parameters theta:

    x_0 ~ p(x_0)
    x_t | window ~ p(x_t | x_{t-D:t-1}, theta)
    y_t | x_t   ~ p(y_t | x_t, theta)

Samplers are vectorized over one leading batch axis: `thetas` has shape
(n, p), states (n, d), state windows (n, D, d) with the newest state
last.  Log densities take leading batch axes that broadcast against each
other, thetas (..., p), states (..., d) and windows (..., D, d), and
return the broadcast shape of those leading axes (a term that does not
read an input may keep that input's size-one axes), entries finite or
-inf, never NaN.  Models must be immutable after construction and are
safe to share across threads.
"""

import math
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
# Most evaluations per model call when ParamLikelihood scores a large
# batch: 512 KiB arrays, so the factor's temporaries stay a few MB however
# many rows an update carries (see ParamLikelihood.__call__).
FACTOR_BLOCK = 65536

# Array conventions: a parameter vector is (p,) float64 (continuous) or
# (p,) int64 codes (discrete); states are (d,) and observations (m,)
# float64.  Batched variants stack along a leading axis.


class DynamicModel(ABC):
    """Interface every model implements.

    Samplers take and return one leading batch axis, (n, p) parameters
    and (n, d) states.  The log densities take any leading batch axes
    that broadcast: the projection update passes (J, B, p) points with
    (1, B, d) owner states (enumerated discrete codes, scoped or
    exhaustive, are laid out the same way, (C**k, B, p) or (J, B, p)),
    and sampled discrete updates (B, M, p) codes with (B, 1, d) states,
    and expects the broadcast (J, B) or (B, M) shape back (a theta-free
    term may keep a size-one axis where its inputs do).  So index from
    the right, thetas[..., k], states[..., 0], windows[..., -1, 0]; an
    index like thetas[:, k] picks owner 0 or point 0 instead, and
    ParamLikelihood raises DimensionMismatchError when a result does not
    span its owners.

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
        """Log prior density at each parameter of thetas (..., p)."""

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
        """Log density of x_new (..., d) under the transition kernel from windows (..., D, d)."""

    @abstractmethod
    def obs_sample(self, rng: np.random.Generator, t: int, states: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Draw (n, m) observations."""

    @abstractmethod
    def obs_logdensity(self, t: int, y: np.ndarray, states: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Log density of observation y at each broadcast state (..., d) and theta (..., p)."""

    def state_prior_logdensity(self, x0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Log density of x0 (..., d) at thetas (..., p): for state_prior_depends_on_params, and for the state-grid oracle."""
        raise NotImplementedError

    def param_scope(self, t: int, states: np.ndarray) -> np.ndarray | None:
        """The parameter coordinates step t's likelihood factor reads, per owner.

        states is (B, d), the owners' states at t.  A model returns a
        (B, k) integer array, row b naming k distinct coordinates in
        [0, p): every term of the factor of owner b (the observation
        density, and the transition or state-prior term) reads theta at
        those coordinates only.  A factorized discrete update then
        changes only those marginals, exactly (see DiscreteCloud).  The
        default, None, declares nothing, and the update treats every
        coordinate as read.
        """
        return None

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

    Calling it with evaluation points (..., p) and owner indices rows
    shaped to broadcast against points.shape[:-1] returns the log values
    of that broadcast shape, each point scored against its owner: (1, B)
    owners for (J, B, p) Gaussian points and enumerated codes, (1, K, 1)
    for the (J, K, L, p) view of mixture points, (B, 1) for (B, M, p)
    sampled codes.  Each owner's
    state and window are gathered once and broadcast into the model's
    log densities.  A (J, p) array of parameters is scored against owner
    0 alone and gives (J,) values.

    A batch of at most FACTOR_BLOCK evaluations, or of a single owner, is
    scored in one call of each log density.  A larger one is split along
    its owner axis, the one axis that rows varies on, into blocks of
    whole owners holding at most FACTOR_BLOCK evaluations (at least one
    owner each).  Every value depends on its own point and owner alone,
    so the blocks give the same bits; they keep the model's temporaries
    small, and with them the memory a step takes from the allocator and
    hands back.  Every term of every block is checked: a log density
    whose result does not span the owner axes (a model indexing
    thetas[:, k] where the contract says thetas[..., k]) raises
    DimensionMismatchError.

    param_scope(rows) is the model's declaration of the coordinates each
    owner's factor reads (DynamicModel.param_scope), checked.
    """

    model: DynamicModel
    k: int
    y: np.ndarray
    states: np.ndarray
    windows: np.ndarray | None

    def param_scope(self, rows: np.ndarray) -> np.ndarray | None:
        """The coordinates the factors of owners rows (B,) read: None, or a (B, k) integer array.

        Raises DimensionMismatchError unless the model's declaration is
        None or a (B, k) integer array, k >= 1, of coordinates in [0, p)
        that are distinct within each row.
        """
        scope = self.model.param_scope(self.k, self.states[rows])
        if scope is None:
            return None
        scope = np.asarray(scope)
        b, p = len(rows), self.model.dims()[0]
        if scope.ndim != 2 or scope.shape[0] != b or scope.shape[1] < 1 or not np.issubdtype(scope.dtype, np.integer):
            raise DimensionMismatchError(
                f"param_scope returned a {scope.dtype} array of shape {scope.shape} for {b} owners; "
                f"it must be ({b}, k) integers, k >= 1"
            )
        if (scope < 0).any() or (scope >= p).any():
            raise DimensionMismatchError(f"param_scope names a coordinate outside [0, {p})")
        if scope.shape[1] > 1:  # one coordinate a row cannot repeat
            ordered = np.sort(scope, axis=1)
            if (ordered[:, 1:] == ordered[:, :-1]).any():
                raise DimensionMismatchError("param_scope names a coordinate twice in one row")
        return scope

    def __call__(self, points: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            return self(np.atleast_2d(points), np.zeros(1, dtype=np.intp))
        shape = points.shape[:-1]
        rows = rows.reshape((1,) * (len(shape) - rows.ndim) + rows.shape)
        out = np.empty(shape)
        size = math.prod(shape)
        if size <= FACTOR_BLOCK or rows.size == 1:
            self._score(points, rows, out)
            return out
        # blocks of whole owners, along the one axis that rows varies on
        axis = next(i for i, n in enumerate(rows.shape) if n > 1)
        step = max(1, FACTOR_BLOCK // (size // shape[axis]))
        lead = (slice(None),) * axis
        for lo in range(0, shape[axis], step):
            block = lead + (slice(lo, lo + step),)
            self._score(points[block], rows[block], out[block])
        return out

    def _score(self, points: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
        """Write into out the log values of points against the states and windows of their owners rows."""
        x = self.states[rows]
        owners = rows.shape
        obs = self.model.obs_logdensity(self.k, self.y, x, points)
        _check_spans_owners(obs, owners, out.shape)
        if self.k > 0:
            term = self.model.transition_logdensity(self.k, x, self.windows[rows], points)
        elif self.model.state_prior_depends_on_params:
            term = self.model.state_prior_logdensity(x, points)
        else:
            out[...] = obs
            return
        _check_spans_owners(term, owners, out.shape)
        np.add(obs, term, out=out)


def _check_spans_owners(term, owners: tuple, shape: tuple) -> None:
    """Raise DimensionMismatchError unless term broadcasts to shape with
    the full length of every axis along which owners varies."""
    term_shape = np.shape(term)
    if term_shape == shape:
        return
    padded = (1,) * (len(shape) - len(term_shape)) + term_shape
    if len(padded) != len(shape) or any(
        [n != full and (n != 1 or o != 1) for n, o, full in zip(padded, owners, shape)]
    ):
        raise DimensionMismatchError(
            f"a log density returned shape {term_shape} for points of shape {shape} and owners of "
            f"shape {owners}: index the leading axes as thetas[..., k], states[..., 0] and windows[..., -1, 0]"
        )


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

    The caller holds np.errstate(under="ignore") while it iterates (see
    weigh_log_weights).  The methods a step calls are looked up once, on
    the first step: a wrapper installed on the model or the store after
    that is not seen.
    """
    propagate, obs_logdensity, advance = model.transition_sample, model.obs_logdensity, store.advance
    for t in range(obs.shape[0]):
        thetas = thetas_at(t)  # before the windows are read: it may relabel the store
        if t == 0:
            windows = None
            x = model.state_prior_sample(rng_init, thetas)
        else:
            windows = store.windows
            x = propagate(rng_prop, t, windows, thetas)
        w, increment = weigh_log_weights(obs_logdensity(t, obs[t], x, thetas))
        anc = resample(w, rng_res)
        yield t, x, windows, w, increment, anc
        advance(x, anc)


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
