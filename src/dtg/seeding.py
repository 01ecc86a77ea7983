"""Named deterministic RNG substreams.

Every random draw in a run descends from one 64-bit seed through substreams
keyed by (seed, tag, *indices).  Independent pipeline stages (corpus,
teachers, student init, sampling, probe split) therefore never perturb each
other, and per-sample streams make the sampled pair independent of batch
composition.
"""

from __future__ import annotations

import numpy as np

from .binio import fnv1a64

_MASK64 = (1 << 64) - 1


def substream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Generator for the (seed, tag, *indices) stream."""
    keys = [int(seed) & _MASK64, fnv1a64(tag.encode("utf-8"))]
    keys.extend(int(i) & _MASK64 for i in indices)
    return np.random.default_rng(np.random.SeedSequence(keys))


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """A fresh 64-bit seed for a child component (e.g. the k-th teacher)."""
    keys = [int(seed) & _MASK64, fnv1a64(tag.encode("utf-8"))]
    keys.extend(int(i) & _MASK64 for i in indices)
    state = np.random.SeedSequence(keys).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])
