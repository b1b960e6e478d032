"""Deterministic parallel random streams.

Monte Carlo work is split into fixed-size chunks of trials.  Each chunk gets
its own counter-based Philox stream keyed by (master seed, purpose tag,
chunk index), so results are a pure function of (seed, config): reordering
chunks across workers, or changing the worker count, cannot change a single
draw.  The chunk size is a constant of the implementation, never derived
from the worker count.
"""

from __future__ import annotations

import math

import numpy as np

# Trials per chunk. Fixed: changing this would change which stream serves
# which trial, so it is part of the reproducibility contract.
CHUNK_TRIALS = 1 << 14

# Purpose tags keep calibration and evaluation streams disjoint even under
# the same master seed.
PURPOSE_CALIBRATE = 1
PURPOSE_H0 = 2
PURPOSE_H1 = 3


def stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Philox generator keyed by the master seed plus integer stream ids."""
    seq = np.random.SeedSequence((int(master_seed),) + tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(seq))


def chunk_spans(total: int) -> list[tuple[int, int]]:
    """(chunk_index, chunk_size) pairs covering `total` trials."""
    return [(idx, min(CHUNK_TRIALS, total - idx * CHUNK_TRIALS))
            for idx in range(math.ceil(total / CHUNK_TRIALS))]
