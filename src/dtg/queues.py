"""Fixed-capacity FIFO of guidance features used as contrastive negatives.

Each teacher owns one queue.  Entries are unit-norm feature vectors; once
``capacity`` entries have been pushed the queue is warm and every further
push evicts the oldest entry.  Reading negatives from a cold queue is an
error: the trainer skips the update until every queue is warm.
"""

from __future__ import annotations

import numpy as np

_UNIT_TOL = 1e-10


class ColdQueueError(RuntimeError):
    """Raised when negatives are requested before the queue is full."""


class GuidanceQueue:
    """Ring buffer of the last ``capacity`` unit-norm d-vectors."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._buf = np.zeros((capacity, dim))
        self._head = 0  # next slot to overwrite
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def warm(self) -> bool:
        return self._count == self.capacity

    def entries(self) -> np.ndarray:
        """Current contents, oldest first, as a copy.  May hold fewer than
        ``capacity`` rows while the queue is cold."""
        if self._count < self.capacity:
            return self._buf[: self._count].copy()
        return np.concatenate([self._buf[self._head:], self._buf[: self._head]])


def enqueue_batch(q: GuidanceQueue, feats: np.ndarray) -> GuidanceQueue:
    """Append rows of ``feats`` in order, evicting the oldest entries once
    the queue is full.  An empty batch is a no-op.  Rows must be finite,
    ``q.dim``-dimensional, and unit-norm; violations raise ValueError rather
    than being silently fixed, since a non-unit negative would skew every
    similarity computed against it.  Mutates and returns ``q``.
    """
    f = np.asarray(feats, dtype=np.float64)
    if f.size == 0:
        return q
    if f.ndim == 1:
        f = f[None, :]
    if f.ndim != 2 or f.shape[1] != q.dim:
        raise ValueError(f"expected shape (B, {q.dim}), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("queue entries must be finite")
    norms = np.linalg.norm(f, axis=1)
    bad = np.abs(norms - 1.0) > _UNIT_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"queue entries must be unit-norm; row {i} has norm {norms[i]!r}"
        )
    # Only the last `capacity` rows of an oversized batch can survive.
    if f.shape[0] > q.capacity:
        f = f[-q.capacity:]
    n = f.shape[0]
    q._buf[(q._head + np.arange(n)) % q.capacity] = f
    q._head = (q._head + n) % q.capacity
    q._count = min(q._count + n, q.capacity)
    return q


def negatives(q: GuidanceQueue) -> np.ndarray:
    """Snapshot of all K negatives, oldest first.  Returns a copy; later
    enqueues do not mutate it.  Raises ColdQueueError until the queue has
    been filled once.
    """
    if not q.warm:
        raise ColdQueueError(
            f"queue holds {len(q)}/{q.capacity} entries; "
            "negatives are undefined until it is full"
        )
    return q.entries()
