import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg.queues import ColdQueueError, GuidanceQueue, enqueue_batch, negatives

from conftest import unit_rows


def _unit(d, value=None, seed=0):
    if value is not None:
        v = np.asarray(value, dtype=np.float64)
    else:
        v = np.random.default_rng(seed).standard_normal(d)
    return v / np.linalg.norm(v)


def test_fifo_eviction_order():
    q = GuidanceQueue(capacity=2, dim=3, teachers=1)
    a, b, c = (_unit(3, seed=s) for s in (1, 2, 3))
    enqueue_batch(q, np.stack([a, b])[None])
    enqueue_batch(q, c[None, None])
    out = negatives(q)
    assert np.array_equal(out, np.stack([b, c])[None])


def test_oversized_batch_keeps_last_k():
    q = GuidanceQueue(capacity=4, dim=3, teachers=1)
    batch = unit_rows(np.random.default_rng(0), 7, 3)[None]
    enqueue_batch(q, batch)
    assert np.array_equal(negatives(q), batch[:, -4:])


def test_empty_batch_is_identity():
    q = GuidanceQueue(capacity=2, dim=3, teachers=1)
    enqueue_batch(q, unit_rows(np.random.default_rng(1), 2, 3)[None])
    before = negatives(q)
    enqueue_batch(q, np.zeros((1, 0, 3)))
    assert np.array_equal(negatives(q), before)


def test_cold_queue_negatives_raise():
    q = GuidanceQueue(capacity=3, dim=2, teachers=1)
    with pytest.raises(ColdQueueError):
        negatives(q)
    enqueue_batch(q, unit_rows(np.random.default_rng(2), 2, 2)[None])
    assert not q.warm
    with pytest.raises(ColdQueueError):
        negatives(q)


def test_warm_is_permanent():
    q = GuidanceQueue(capacity=2, dim=2, teachers=1)
    enqueue_batch(q, unit_rows(np.random.default_rng(3), 5, 2)[None])
    assert q.warm
    enqueue_batch(q, unit_rows(np.random.default_rng(4), 1, 2)[None])
    assert q.warm and len(q) == 2


def test_snapshot_immutable_under_later_enqueues():
    q = GuidanceQueue(capacity=2, dim=3, teachers=1)
    rng = np.random.default_rng(5)
    enqueue_batch(q, unit_rows(rng, 2, 3)[None])
    snap = negatives(q)
    copy = snap.copy()
    enqueue_batch(q, unit_rows(rng, 2, 3)[None])
    assert np.array_equal(snap, copy)


def test_non_unit_rows_rejected():
    q = GuidanceQueue(capacity=2, dim=3, teachers=1)
    with pytest.raises(ValueError, match="unit-norm"):
        enqueue_batch(q, np.array([[[1.0, 1.0, 1.0]]]))
    assert len(q) == 0


def test_dimension_mismatch_rejected():
    q = GuidanceQueue(capacity=2, dim=3, teachers=1)
    with pytest.raises(ValueError):
        enqueue_batch(q, unit_rows(np.random.default_rng(7), 2, 4)[None])


def test_nonfinite_rejected():
    q = GuidanceQueue(capacity=2, dim=2, teachers=1)
    with pytest.raises(ValueError):
        enqueue_batch(q, np.array([[[np.nan, 1.0]]]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=0, max_size=24),
       st.integers(1, 6), st.integers(0, 2 ** 32))
def test_queue_matches_list_model(batch_sizes, capacity, seed):
    """The queue always holds the last `capacity` enqueued rows, in order."""
    rng = np.random.default_rng(seed)
    q = GuidanceQueue(capacity=capacity, dim=3, teachers=1)
    model: list[np.ndarray] = []
    for size in batch_sizes:
        batch = unit_rows(rng, size, 3) if size else np.zeros((0, 3))
        enqueue_batch(q, batch[None])
        model.extend(batch)
        model = model[-capacity:]
        assert len(q) == len(model)
        assert q.warm == (len(model) == capacity)
        if q.warm:
            assert np.array_equal(negatives(q)[0], np.stack(model))
