"""Deterministic RNG stream derivation.

Every run consumes randomness through generators derived from a single
64-bit master seed and a small integer path.  The path encodes what the
stream is for (phase constant, then iteration index where the phase
repeats), so results never depend on scheduling or thread count.
"""

from __future__ import annotations

import numpy as np

# phase constants used as the first path component
PHASE_DATA = 0
PHASE_INIT = 1
PHASE_RESAMPLE = 2
PHASE_MUTATE = 3
PHASE_MCMC = 5  # 4 is unused: renumbering would move the MCMC streams


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for (master_seed, *path); same arguments, same stream."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
