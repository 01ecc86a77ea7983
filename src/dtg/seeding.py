"""Named deterministic RNG substreams.

Every random draw in a run descends from one 64-bit seed through substreams
keyed by (seed, tag, *indices).  Independent pipeline stages (corpus,
teachers, student init, sampling, probe split) therefore never perturb each
other, and per-sample streams make the sampled pair independent of batch
composition.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``; keys each stream by its tag."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _sequence(seed: int, tag: str, indices) -> np.random.SeedSequence:
    keys = [int(seed) & _MASK64, fnv1a64(tag.encode("utf-8"))]
    keys.extend(int(i) & _MASK64 for i in indices)
    return np.random.SeedSequence(keys)


def substream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Generator for the (seed, tag, *indices) stream."""
    return np.random.default_rng(_sequence(seed, tag, indices))


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """A fresh 64-bit seed for a child component (e.g. the k-th teacher)."""
    state = _sequence(seed, tag, indices).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])
