"""Fixed-capacity FIFO of guidance features used as contrastive negatives.

Every teacher has its own ring of negatives, and the trainer feeds all of
them the same batch at every step, so the N rings share one head and one
count.  One ``GuidanceQueue`` therefore holds all of them as an (N, K, d)
buffer that advances in lockstep: ``enqueue_batch`` takes an (N, B, d) stack
and ``negatives`` returns an (N, K, d) snapshot.  Without a teacher count
the queue is a single (K, d) ring fed (B, d) batches.

Entries are unit-norm feature vectors; once ``capacity`` entries have been
pushed the queue is warm and every further push evicts the oldest entry.
Reading negatives from a cold queue is an error: the trainer skips the
update until the queue is warm.
"""

from __future__ import annotations

import numpy as np

_UNIT_TOL = 1e-10


class ColdQueueError(RuntimeError):
    """Raised when negatives are requested before the queue is full."""


class GuidanceQueue:
    """Ring buffer of the last ``capacity`` unit-norm d-vectors, one per
    teacher when ``teachers`` is given, all advancing together."""

    def __init__(self, capacity: int, dim: int, teachers: int | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if teachers is not None and teachers < 1:
            raise ValueError("teachers must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._lead = () if teachers is None else (int(teachers),)
        self._buf = np.zeros(self._lead + (capacity, dim))
        self._head = 0  # next slot to overwrite, shared by every teacher's ring
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def warm(self) -> bool:
        return self._count == self.capacity


def enqueue_batch(q: GuidanceQueue, feats: np.ndarray) -> GuidanceQueue:
    """Append rows of ``feats`` in order, evicting the oldest entries once
    the queue is full.  ``feats`` is (B, d), or (N, B, d) with one batch per
    teacher for a queue built with ``teachers=N``; a single d-vector counts
    as a (1, d) batch.  An empty batch is a no-op.  Rows must be finite,
    ``q.dim``-dimensional, and unit-norm; violations raise ValueError and
    leave the queue unchanged rather than being silently fixed, since a
    non-unit negative would skew every similarity computed against it.
    Mutates and returns ``q``.
    """
    f = np.asarray(feats, dtype=np.float64)
    if f.size == 0:
        return q
    if f.ndim == 1:
        f = f[None, :]
    if f.ndim != len(q._lead) + 2 or f.shape[:-2] != q._lead or f.shape[-1] != q.dim:
        want = ", ".join(map(str, q._lead + ("B", q.dim)))
        raise ValueError(f"expected shape ({want}), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("queue entries must be finite")
    norms = np.linalg.norm(f, axis=-1)
    bad = np.abs(norms - 1.0) > _UNIT_TOL
    if np.any(bad):
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f"row {at[-1]}" + (f" of teacher {at[0]}" if len(at) > 1 else "")
        raise ValueError(
            f"queue entries must be unit-norm; {where} has norm {norms[at]!r}"
        )
    # Only the last `capacity` rows of an oversized batch can survive.
    if f.shape[-2] > q.capacity:
        f = f[..., -q.capacity:, :]
    n = f.shape[-2]
    q._buf[..., (q._head + np.arange(n)) % q.capacity, :] = f
    q._head = (q._head + n) % q.capacity
    q._count = min(q._count + n, q.capacity)
    return q


def negatives(q: GuidanceQueue) -> np.ndarray:
    """Snapshot of all K negatives, oldest first: (K, d), or (N, K, d) for a
    queue with a teacher axis.  Returns a copy; later enqueues do not mutate
    it.  Raises ColdQueueError until the queue has been filled once.
    """
    if not q.warm:
        raise ColdQueueError(
            f"queue holds {len(q)}/{q.capacity} entries; "
            "negatives are undefined until it is full"
        )
    return np.concatenate((q._buf[..., q._head:, :], q._buf[..., :q._head, :]), axis=-2)
