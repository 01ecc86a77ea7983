"""The window holds all N teachers' negatives in one (N, K + V, d) stream;
each teacher's rows behave as if that teacher were trained alone."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg.corpus import CorpusSpec, generate_corpus
from dtg.losses import WeightScheme, contrastive_batch
from dtg.model import TeacherBank, build_teacher
from dtg.trainer import TrainConfig, pretrain

from conftest import record_windows, unit_rows


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 10), st.integers(2, 4),
       st.integers(0, 2 ** 32))
def test_stacked_queue_matches_independent_queues(k, batch, extra, teachers, seed):
    """An N-teacher run hands teacher i the positives and negatives that a
    run with teacher i alone hands it, at every step."""
    corpus = generate_corpus(CorpusSpec(1, k + extra, 4, 3, 2, seed=extra))
    bank = [build_teacher(corpus, rho, 2, seed=7) for rho in (0.9, 0.6, 0.3, 0.1)[:teachers]]
    config = TrainConfig(epochs=2, batch_size=batch, K=k, d=2, h=3, segments=2,
                         milestones=(), seed=seed)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        log = record_windows(mp)
        for run in [bank] + [[t] for t in bank]:
            log["calls"] = []
            pretrain(config, corpus, TeacherBank(tuple(run)))
            calls.append(log["calls"])
    stacked, singles = calls[0], calls[1:]
    assert stacked
    for i, single in enumerate(singles):
        assert len(single) == len(stacked)
        for (pos, neg), (pos_i, neg_i) in zip(stacked, single):
            assert np.array_equal(pos[i:i + 1], pos_i) and np.array_equal(neg[i:i + 1], neg_i)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4, 3), (1, 2, 4, 3), (2, 4, 2)])
def test_stacked_queue_rejects_other_shapes(shape):
    # the loss takes a 2-teacher, width-3 window only as (2, K, 3)
    rng = np.random.default_rng(0)
    anchors, positives = unit_rows(rng, 4, 3), unit_rows(rng, 8, 3).reshape(2, 4, 3)
    with pytest.raises(ValueError, match=r"negatives must be \(N, K, d\)|disagree on shape"):
        contrastive_batch(anchors, positives, np.ones(shape) / np.sqrt(shape[-1]), 0.07,
                          WeightScheme.UNIFORM)
