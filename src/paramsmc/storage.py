"""Particle state history as one stacked (N, D, d) window array.

D is the model's Markov order.  Entry [:, -1] of the windows is the
newest state; slots older than time zero hold zeros.  Pushing a timestep
shifts the windows in place, so a windows array handed out earlier
shifts with it; resampling builds a new array.  The bootstrap step
(model.bootstrap_steps) pushes only once its consumer is done with the
step's pre-push windows.
"""

import numpy as np


class ParticleStore:
    """State windows for N particles over the last D timesteps."""

    def __init__(self, n_particles: int, state_dim: int, markov_order: int):
        if n_particles < 1 or markov_order < 1:
            raise ValueError("need n_particles >= 1 and markov_order >= 1")
        self.n = n_particles
        self.d = max(state_dim, 1)
        self.windows = np.zeros((n_particles, markov_order, self.d))

    def push(self, states: np.ndarray) -> None:
        """Append the states for the next timestep in place, dropping the oldest slot."""
        self.windows[:, :-1] = self.windows[:, 1:]
        self.windows[:, -1] = states.reshape(self.n, self.d)

    def window(self) -> np.ndarray:
        """The (n, D, d) windows for propagating the next step."""
        return self.windows

    def gather_current(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Read the newest states for the given particle rows."""
        return np.take(self.windows[:, -1], rows, axis=0, out=out)

    def resample(self, ancestors: np.ndarray) -> None:
        """Reassign particle identities: row i takes ancestor ancestors[i]'s history."""
        self.windows = self.windows[ancestors]
