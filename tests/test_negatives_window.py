"""The negatives window of ``trainer.run_epoch``: each step's negatives are
the last K guidance rows fed before it, oldest first, and a step trains only
once K rows have been fed.  The window holds all N teachers' negatives in one
(N, K + V, d) stream; each teacher's rows behave as if that teacher were
trained alone.  Every case is a tiny real pretrain whose rows are read back
through ``record_windows``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg import trainer
from dtg.corpus import CorpusSpec, generate_corpus
from dtg.losses import FusionLevel, WeightScheme, contrastive_batch
from dtg.model import TeacherBank, build_bank
from dtg.numerics import DegenerateInputError, FieldError
from dtg.trainer import TrainConfig, pretrain

from conftest import check_against_list_model, list_model, record_windows, unit_rows



def _pretrain(log, videos, batch, k, epochs=2, teachers=1, embed_dim=2, seed=0,
              bias=None, fusion=FusionLevel.LOSS):
    corpus = generate_corpus(CorpusSpec(1, videos, 4, 3, 2, seed=videos))
    bank = build_bank(corpus, (0.9, 0.6, 0.3, 0.1)[:teachers], embed_dim, seeds=(7,) * teachers)
    if bias is not None:
        bank.bias[0] = bias
    for entries in log.values():
        entries.clear()
    return pretrain(TrainConfig(epochs=epochs, batch_size=batch, K=k, d=2, h=3, segments=2,
                                milestones=(), seed=seed, fusion_level=fusion), corpus, bank)


def test_fifo_eviction_order(monkeypatch):
    # K = 2, one video per step: each step drops the oldest row, across the
    # epoch boundary too
    log = record_windows(monkeypatch)
    _pretrain(log, videos=5, batch=1, k=2)
    (g0, g1), (o0, o1) = log["guidance"], log["orders"]
    negs = [neg[0] for _, neg in log["calls"]]
    assert len(negs) == 2 * 5 - 2
    for step in range(3):  # epoch 0, b0 = 2, 3, 4
        assert np.array_equal(negs[step], g0[o0[step:step + 2]])
    assert np.array_equal(negs[3], g0[o0[3:5]])
    assert np.array_equal(negs[4], np.stack([g0[o0[4]], g1[o1[0]]]))
    assert np.array_equal(negs[5], g1[o1[0:2]])


def test_oversized_batch_keeps_last_k(monkeypatch):
    # batch 7 > K = 3: the step after a batch reads that batch's last 3 rows
    log = record_windows(monkeypatch)
    _pretrain(log, videos=9, batch=7, k=3)
    (g0, g1), (o0, o1) = log["guidance"], log["orders"]
    negs = [neg[0] for _, neg in log["calls"]]
    assert len(negs) == 3  # epoch 0's first step is cold
    assert np.array_equal(negs[0], g0[o0[4:7]])
    assert np.array_equal(negs[1], g0[o0[6:9]])  # one row of the big batch, two of the short
    assert np.array_equal(negs[2], g1[o1[4:7]])


def test_cold_queue_negatives_raise(monkeypatch):
    """The window is never read cold.  A run whose epoch cannot fill it
    (K >= V) raises before any step; a valid run's cold steps, the ones
    fewer than K rows precede, reach no loss call and record no loss."""
    log = record_windows(monkeypatch)
    with pytest.raises(FieldError, match=r"^train\.K "):
        _pretrain(log, videos=5, batch=2, k=5)
    assert log["orders"] == [] and log["calls"] == []
    _, report = _pretrain(log, videos=5, batch=3, k=4, epochs=1)  # b0 = 0, 3: both cold
    assert log["calls"] == [] and report.records[0].contrastive_loss is None
    _, report = _pretrain(log, videos=5, batch=2, k=4, epochs=1)  # b0 = 4 is warm
    assert len(log["calls"]) == 1 and report.records[0].contrastive_loss is not None


def test_warm_is_permanent(monkeypatch):
    # once K rows have been fed, every later step of every epoch trains
    log = record_windows(monkeypatch)
    _, report = _pretrain(log, videos=7, batch=3, k=5, epochs=3)
    warm = [window is not None for _, window in list_model(log, 3, 5)]
    assert warm == [False, False] + [True] * 7
    assert check_against_list_model(log, 3, 5) == 7
    assert all(r.contrastive_loss is not None for r in report.records)


def test_snapshot_immutable_under_later_enqueues(monkeypatch):
    """A row read as a positive is read unchanged as a negative by the
    steps after it: the loss writes nothing into the window it is handed,
    and nothing it returns shares memory with that window."""
    log = record_windows(monkeypatch)
    recorded = trainer.contrastive_batch

    def guarded(anchors, positives, negatives, *args, **kw):
        before = positives.copy(), negatives.copy()
        out = recorded(anchors, positives, negatives, *args, **kw)
        assert np.array_equal(positives, before[0]) and np.array_equal(negatives, before[1])
        for name, value in vars(out).items():
            for given in (positives, negatives):
                assert value is None or not np.shares_memory(value, given), name
        return out

    monkeypatch.setattr(trainer, "contrastive_batch", guarded)
    _pretrain(log, videos=11, batch=3, k=4, epochs=3, teachers=2)
    assert check_against_list_model(log, 3, 4) == 3 * 4 - 2


@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_each_epoch_scores_its_steps_in_one_workspace(monkeypatch, fusion):
    """Every loss call of an epoch writes its logits into one buffer, the
    epoch's last, short batch too: the first rows of a (B, M, 1 + Q)
    array, M and Q being N and K under loss fusion, 1 and N*K under
    feature fusion."""
    log = record_windows(monkeypatch)
    _pretrain(log, videos=11, batch=3, k=4, epochs=3, teachers=2, fusion=fusion)
    m, q = (2, 4) if fusion is FusionLevel.LOSS else (1, 8)
    assert [e for e, _ in log["works"]] == [0] * 2 + [1] * 4 + [2] * 4
    assert [len(w) for _, w in log["works"]] == [3, 2] + [3, 3, 3, 2] * 2
    for epoch in range(3):
        works = [w for e, w in log["works"] if e == epoch]
        for work in works:
            assert work.shape[1:] == (m, 1 + q)
            assert np.shares_memory(work, works[0]), epoch


def test_dimension_mismatch_rejected(monkeypatch):
    # teachers of width 3 cannot fill a d = 2 window: rejected before any step
    log = record_windows(monkeypatch)
    with pytest.raises(FieldError, match=r"^train\.d teacher dimension 3"):
        _pretrain(log, videos=6, batch=2, k=2, embed_dim=3)
    assert log["orders"] == [] and log["calls"] == []


def test_nonfinite_rejected(monkeypatch):
    # a non-finite guidance row is rejected where it is made, before any step
    log = record_windows(monkeypatch)
    with pytest.raises(DegenerateInputError, match="guidance feature has non-finite norm"):
        _pretrain(log, videos=6, batch=2, k=2, teachers=2, bias=np.nan)
    assert log["calls"] == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 12), st.integers(1, 3),
       st.integers(2, 3), st.integers(0, 2 ** 32))
def test_queue_matches_list_model(k, batch, extra, teachers, epochs, seed):
    """The window always holds the last K rows fed, in order, and a step
    trains exactly when K rows precede it."""
    with pytest.MonkeyPatch.context() as mp:
        log = record_windows(mp)
        _pretrain(log, videos=k + extra, batch=batch, k=k, epochs=epochs,
                  teachers=teachers, seed=seed)
    check_against_list_model(log, batch, k)



@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 10), st.integers(2, 4),
       st.integers(0, 2 ** 32))
def test_stacked_queue_matches_independent_queues(k, batch, extra, teachers, seed):
    """An N-teacher run hands teacher i the positives and negatives that a
    run with teacher i alone hands it, at every step."""
    corpus = generate_corpus(CorpusSpec(1, k + extra, 4, 3, 2, seed=extra))
    bank = build_bank(corpus, (0.9, 0.6, 0.3, 0.1)[:teachers], 2, seeds=(7,) * teachers)
    config = TrainConfig(epochs=2, batch_size=batch, K=k, d=2, h=3, segments=2,
                         milestones=(), seed=seed)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        log = record_windows(mp)
        for run in [bank] + [TeacherBank(bank.weight[i:i + 1], bank.bias[i:i + 1])
                             for i in range(teachers)]:
            log["calls"] = []
            pretrain(config, corpus, run)
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
