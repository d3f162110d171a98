"""Deterministic random-stream management.

Every stochastic phase of an algorithm (parameter draws, state propagation,
resampling, moment-matching samples, ...) owns a named substream derived
from the run seed.  Changing how one phase consumes randomness therefore
never perturbs any other phase, which keeps paired-seed experiments and
regression tests meaningful.
"""

import numpy as np

# Fixed stream ids, one per algorithm phase.
PARAM_INIT = 1
STATE_INIT = 2
PARAM_DRAW = 3
PROPAGATE = 4
RESAMPLE = 5
MOMENT = 6
PERTURB = 7
DATA = 8
CHAIN = 9


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator addressed by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))
