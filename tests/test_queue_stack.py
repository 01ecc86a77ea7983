import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg.queues import ColdQueueError, GuidanceQueue, enqueue_batch, negatives

from conftest import unit_rows


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(-3, 3)), max_size=20),
       st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 32))
def test_stacked_queue_matches_independent_queues(steps, capacity, teachers, seed):
    """An N-teacher queue always equals N single queues, each fed its
    teacher's rows; a batch with one non-unit row changes nothing."""
    rng = np.random.default_rng(seed)
    q = GuidanceQueue(capacity, 3, teachers)
    singles = [GuidanceQueue(capacity, 3) for _ in range(teachers)]
    for size, bad in steps:
        batch = unit_rows(rng, teachers * size, 3).reshape(teachers, size, 3)
        if size and 0 <= bad < teachers:
            batch[bad, rng.integers(size)] *= 1.5
            count = len(q)
            with pytest.raises(ValueError, match=rf"unit-norm; row \d+ of teacher {bad} "):
                enqueue_batch(q, batch)
            assert len(q) == count
        else:
            enqueue_batch(q, batch)
            for single, rows in zip(singles, batch):
                enqueue_batch(single, rows)
        assert len(q) == len(singles[0])
        assert q.warm == singles[0].warm
        if q.warm:
            assert np.array_equal(negatives(q), np.stack([negatives(s) for s in singles]))
        else:
            with pytest.raises(ColdQueueError):
                negatives(q)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4, 3), (1, 2, 4, 3), (2, 4, 2)])
def test_stacked_queue_rejects_other_shapes(shape):
    q = GuidanceQueue(capacity=3, dim=3, teachers=2)
    with pytest.raises(ValueError, match=r"expected shape \(2, B, 3\)"):
        enqueue_batch(q, np.ones(shape) / np.sqrt(shape[-1]))
    assert len(q) == 0


def test_single_queue_rejects_a_teacher_axis():
    q = GuidanceQueue(capacity=3, dim=3)
    with pytest.raises(ValueError, match=r"expected shape \(B, 3\)"):
        enqueue_batch(q, unit_rows(np.random.default_rng(0), 4, 3).reshape(2, 2, 3))
