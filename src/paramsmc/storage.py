"""Particle state history as one stacked (N, D, d) window array.

D is the model's Markov order.  Entry [:, -1] of the windows is the
newest state; slots older than time zero hold zeros.  The bootstrap step
(model.bootstrap_steps) moves to the next timestep with advance, which
builds the next windows with one gather, so a windows array handed out
earlier keeps its rows; so does resample.  push, the one-particle
simulator's move, shifts the windows in place and a windows array
handed out earlier shifts with it.
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

    def advance(self, states: np.ndarray, ancestors: np.ndarray) -> None:
        """push(states) then resample(ancestors), as one gather into a new array."""
        states = np.asarray(states, dtype=np.float64).reshape(self.n, 1, self.d)
        if self.windows.shape[1] > 1:
            states = np.concatenate((self.windows[:, 1:], states), axis=1)
        self.windows = states[ancestors]

    def resample(self, ancestors: np.ndarray) -> None:
        """Reassign particle identities: row i takes ancestor ancestors[i]'s history."""
        self.windows = self.windows[ancestors]
