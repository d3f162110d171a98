"""Benchmark models: SIN, its bimodal variant, linear-Gaussian, grid SLAM.

SIN and linear-Gaussian share one scalar Gaussian state-space class and
differ only in the drive of x_t.  Every model implements the vectorized
DynamicModel interface.  Canned instances are loadable by name via
:func:`get_model`.
"""

import json
from abc import abstractmethod
from importlib import resources

import numpy as np

from .errors import ConfigError
from .model import DynamicModel, gaussian_logpdf


class ScalarGaussianModel(DynamicModel):
    """Scalar model x_t = drive(theta, x_{t-1}) + v_t, y_t = x_t + w_t, with Gaussian noise.

    The keywords are the sds of v_t and w_t, the prior N(prior_mean,
    prior_sd^2) of each of the p = dims()[0] parameters and the initial
    state N(x0_mean, x0_sd^2).  A subclass supplies the drive, and dims()
    if it fixes theta (p = 0).  Zero noise scales are accepted as a test
    hook for deterministic simulation; densities then refuse to evaluate.
    """

    def __init__(
        self,
        obs_sd: float,
        trans_sd: float = 1.0,
        prior_mean: float = 0.0,
        prior_sd: float = 1.0,
        x0_mean: float = 0.0,
        x0_sd: float = 1.0,
    ):
        self.obs_sd = float(obs_sd)
        self.trans_sd = float(trans_sd)
        self.prior_mean = float(prior_mean)
        self.prior_sd = float(prior_sd)
        self.x0_mean = float(x0_mean)
        self.x0_sd = float(x0_sd)

    def dims(self):
        return (1, 1, 1)

    @abstractmethod
    def _drive(self, thetas, x_prev):
        """Means of x_t given parameters (..., p) and previous states (...,), leading axes broadcast."""

    def param_prior_sample(self, rng, n):
        return self.prior_mean + self.prior_sd * rng.standard_normal((n, self.dims()[0]))

    def param_prior_logdensity(self, thetas):
        return gaussian_logpdf(thetas, self.prior_mean, self.prior_sd).sum(axis=-1)

    def param_prior_moments(self):
        p = self.dims()[0]
        return np.full(p, self.prior_mean), self.prior_sd**2 * np.eye(p)

    def state_prior_sample(self, rng, thetas):
        n = thetas.shape[0]
        return self.x0_mean + self.x0_sd * rng.standard_normal((n, 1))

    def state_prior_logdensity(self, x0, thetas):
        return gaussian_logpdf(x0[..., 0], self.x0_mean, self.x0_sd)

    def transition_sample(self, rng, t, windows, thetas):
        loc = self._drive(thetas, windows[:, -1, 0])
        return (loc + self.trans_sd * rng.standard_normal(windows.shape[0]))[:, None]

    def transition_logdensity(self, t, x_new, windows, thetas):
        return gaussian_logpdf(x_new[..., 0], self._drive(thetas, windows[..., -1, 0]), self.trans_sd)

    def obs_sample(self, rng, t, states, thetas):
        return states + self.obs_sd * rng.standard_normal(states.shape)

    def obs_logdensity(self, t, y, states, thetas):
        return gaussian_logpdf(y[0], states[..., 0], self.obs_sd)


class SinModel(ScalarGaussianModel):
    """The scalar model with drive sin(theta * x_{t-1}) and obs_sd 0.5.

    The bimodal variant drives the recursion with sin(theta^2 * x_{t-1}),
    which makes the parameter posterior symmetric in theta and therefore
    bimodal at +/- the generating value.
    """

    def __init__(self, variant: str = "plain", obs_sd: float = 0.5, **scales):
        if variant not in ("plain", "bimodal"):
            raise ConfigError(f"unknown SIN variant {variant!r}")
        self.variant = variant
        super().__init__(obs_sd, **scales)

    def _drive(self, thetas, x_prev):
        theta = thetas[..., 0]
        if self.variant == "bimodal":
            return np.sin(theta * theta * x_prev)
        return np.sin(theta * x_prev)


class LinearGaussianModel(ScalarGaussianModel):
    """The scalar AR(1) model: drive theta * x_{t-1}, obs_sd 1.0.

    Admits exact Kalman filtering at fixed theta, which makes it the
    validation model for the particle baselines.  Pass theta_fixed to
    obtain the state-only variant with an empty parameter vector.
    """

    def __init__(
        self, trans_sd: float = 1.0, obs_sd: float = 1.0, *, theta_fixed: float | None = None, **scales
    ):
        super().__init__(obs_sd, trans_sd, **scales)
        self.theta_fixed = None if theta_fixed is None else float(theta_fixed)

    def dims(self):
        return (0 if self.theta_fixed is not None else 1, 1, 1)

    def _drive(self, thetas, x_prev):
        if self.theta_fixed is not None:
            return self.theta_fixed * x_prev
        return thetas[..., 0] * x_prev


class SlamModel(DynamicModel):
    """1-d grid localization with an unknown cell-label map.

    The parameters are the n_cells discrete labels; the state is the
    robot's cell index.  An action sequence drives the transition: the
    robot moves one cell in the commanded direction with probability
    p_move and otherwise stays (wheel slip).  Moves into a wall clamp, so
    commanding left at cell 0 stays put with probability one.  The label
    of the occupied cell is observed correctly with probability p_obs,
    and uniformly among the wrong labels otherwise.  A step's factor thus
    reads one label, the owner's cell's, which param_scope declares.
    """

    param_kind = "discrete"

    def __init__(
        self,
        n_cells: int,
        actions,
        n_labels: int = 2,
        p_move: float = 0.8,
        p_obs: float = 0.9,
        initial_location_dist: np.ndarray | None = None,
        true_map: np.ndarray | None = None,
    ):
        if len(actions) == 0:
            raise ConfigError("SLAM needs a nonempty action sequence")
        self.n_cells = int(n_cells)
        self.n_labels = int(n_labels)
        self.p_move = float(p_move)
        self.p_obs = float(p_obs)
        self.actions = np.array([+1 if a in ("R", "right", 1, +1) else -1 for a in actions])
        if initial_location_dist is None:
            self.initial_location_dist = np.full(self.n_cells, 1.0 / self.n_cells)
        else:
            dist = np.asarray(initial_location_dist, dtype=np.float64)
            self.initial_location_dist = dist / dist.sum()
        self.true_map = None if true_map is None else np.asarray(true_map, dtype=np.int64)
        self.param_cardinalities = np.full(self.n_cells, self.n_labels, dtype=np.int64)

    def dims(self):
        return (self.n_cells, 1, 1)

    def n_steps(self) -> int:
        return len(self.actions)

    def _action(self, t: int) -> int:
        # action[t-1] drives the transition into time t
        return int(self.actions[t - 1])

    def param_prior_sample(self, rng, n):
        return rng.integers(0, self.n_labels, size=(n, self.n_cells)).astype(np.int64)

    def param_prior_logdensity(self, thetas):
        return np.full(thetas.shape[:-1], -self.n_cells * np.log(self.n_labels))

    def param_prior_tables(self):
        return np.full((self.n_cells, self.n_labels), 1.0 / self.n_labels)

    def state_prior_sample(self, rng, thetas):
        n = thetas.shape[0]
        locs = rng.choice(self.n_cells, size=n, p=self.initial_location_dist)
        return locs.astype(np.float64)[:, None]

    def _targets(self, locs: np.ndarray, t: int) -> np.ndarray:
        return np.clip(locs + self._action(t), 0, self.n_cells - 1)

    def transition_sample(self, rng, t, windows, thetas):
        locs = windows[:, -1, 0].astype(np.int64)
        targets = self._targets(locs, t)
        move = rng.random(locs.shape[0]) < self.p_move
        return np.where(move, targets, locs).astype(np.float64)[:, None]

    def transition_logdensity(self, t, x_new, windows, thetas):
        locs = windows[..., -1, 0].astype(np.int64)
        targets = self._targets(locs, t)
        new = x_new[..., 0].astype(np.int64)
        out = np.full(locs.shape, -np.inf)
        stay_p = np.where(targets == locs, 1.0, 1.0 - self.p_move)
        out = np.where(new == targets, np.log(self.p_move), out)
        with np.errstate(divide="ignore"):
            out = np.where(new == locs, np.log(stay_p), out)
        return out

    def obs_sample(self, rng, t, states, thetas):
        locs = states[:, 0].astype(np.int64)
        truth = thetas[np.arange(thetas.shape[0]), locs]
        correct = rng.random(locs.shape[0]) < self.p_obs
        offset = rng.integers(1, self.n_labels, size=locs.shape[0])
        wrong = (truth + offset) % self.n_labels
        return np.where(correct, truth, wrong).astype(np.float64)[:, None]

    def obs_logdensity(self, t, y, states, thetas):
        # each parameter's label at its state's cell; the leading axes broadcast
        locs = states[..., :1].astype(np.int64)
        truth = np.take_along_axis(thetas, locs, axis=-1)[..., 0]
        label = int(round(float(np.asarray(y).reshape(-1)[0])))
        if label < 0 or label >= self.n_labels:
            return np.full(truth.shape, -np.inf)
        wrong_p = (1.0 - self.p_obs) / (self.n_labels - 1) if self.n_labels > 1 else 0.0
        with np.errstate(divide="ignore"):
            return np.where(truth == label, np.log(self.p_obs), np.log(wrong_p))

    def param_scope(self, t, states):
        # the observation reads the label of the owner's cell; the transition reads no label
        return states[:, :1].astype(np.int64)

    def location_transition_matrix(self, t: int) -> np.ndarray:
        """(n_cells, n_cells) matrix P[i, j] = p(loc_t = j | loc_{t-1} = i)."""
        cells = np.arange(self.n_cells)
        targets = self._targets(cells, t)
        mat = np.zeros((self.n_cells, self.n_cells))
        mat[cells, targets] = self.p_move
        mat[cells, cells] = np.where(targets == cells, 1.0, 1.0 - self.p_move)
        return mat


def slam_small(**overrides) -> SlamModel:
    """The 8-cell instance: p_move 0.8, p_obs 0.9, 16 actions."""
    spec = json.loads(resources.files("paramsmc").joinpath("data/slam_small.json").read_text())
    kwargs = {k: v for k, v in spec.items() if not k.startswith("_")}
    return SlamModel(**{**kwargs, **overrides})


def slam_large(**overrides) -> SlamModel:
    """The enlarged instance: 20 cells, the small map and action list cycled to 20 cells and 164 actions."""
    small = slam_small()
    cycled = {"n_cells": 20, "actions": np.resize(small.actions, 164), "true_map": np.resize(small.true_map, 20)}
    return slam_small(**{**cycled, **overrides})


MODEL_BUILDERS = {
    "sin": lambda **kw: SinModel(variant="plain", **kw),
    "sin-bimodal": lambda **kw: SinModel(variant="bimodal", **kw),
    "lg": lambda **kw: LinearGaussianModel(**kw),
    "slam-small": slam_small,
    "slam-large": slam_large,
}

# Generating parameter used by `simulate` when none is given explicitly.
DEFAULT_TRUE_PARAMS = {
    "sin": np.array([-0.5]),
    "sin-bimodal": np.array([0.7]),
    "lg": np.array([0.7]),
}


def get_model(name: str, **overrides) -> DynamicModel:
    """Construct a canned model by name, with field overrides."""
    if name not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    try:
        return MODEL_BUILDERS[name](**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad override for model {name!r}: {exc}") from exc


def default_true_params(name: str, model: DynamicModel) -> np.ndarray:
    """The generating parameters simulate uses when none are given, p = dims()[0] of them."""
    if name in DEFAULT_TRUE_PARAMS:
        return DEFAULT_TRUE_PARAMS[name][: model.dims()[0]].copy()
    if isinstance(model, SlamModel) and model.true_map is not None:
        return model.true_map.astype(np.float64)
    raise ConfigError(f"model {name!r} has no default generating parameters")
