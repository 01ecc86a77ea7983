import csv
import dataclasses
import json

import numpy as np
import pytest

from dtg.corpus import CorpusSpec, generate_corpus
from dtg.losses import WeightScheme
from dtg.model import TeacherBank, build_head, build_student, build_teacher
from dtg.trainer import (NumericAbortError, TrainConfig, lr_at, pretrain,
                         report_to_dict, sgd_step, train_joint, write_report)


def _corpus(seed=21, videos_per_class=5):
    spec = CorpusSpec(num_classes=2, videos_per_class=videos_per_class,
                      frames_per_video=8, frame_dim=8, signal_dim=4,
                      video_spread=1.0, frame_noise=0.3, seed=seed)
    return generate_corpus(spec)


def _bank(corpus, rhos=(0.9,), seed=3, embed_dim=6):
    return TeacherBank(teachers=tuple(
        build_teacher(corpus, rho, embed_dim=embed_dim, seed=seed, name=f"t{i}")
        for i, rho in enumerate(rhos)))


def _config(**kw):
    base = dict(epochs=2, batch_size=4, K=4, d=6, h=8, milestones=(), seed=0)
    base.update(kw)
    return TrainConfig(**base)


def _enc_params(enc):
    return {k: v.copy() for k, v in enc.parameters()}


# --- schedule and optimizer ---

def test_lr_schedule_paper_milestones():
    cfg = TrainConfig(epochs=600, milestones=(300, 500))
    assert lr_at(cfg, 0) == pytest.approx(0.1)
    assert lr_at(cfg, 350) == pytest.approx(0.01)
    assert lr_at(cfg, 550) == pytest.approx(0.001)
    assert lr_at(cfg, 299) == pytest.approx(0.1)
    assert lr_at(cfg, 300) == pytest.approx(0.01)


def test_lr_rejects_out_of_range_epoch():
    cfg = TrainConfig(epochs=10, milestones=())
    with pytest.raises(ValueError):
        lr_at(cfg, 10)


def test_sgd_plain_gradient_descent():
    p = {"x": np.array([1.0, 2.0])}
    g = {"x": np.array([0.5, -0.5])}
    v = {"x": np.zeros(2)}
    new_p, _ = sgd_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(new_p["x"], [0.95, 2.05])


def test_sgd_pure_momentum_coasting():
    p = {"x": np.array([1.0])}
    g = {"x": np.array([0.0])}
    v = {"x": np.array([2.0])}
    new_p, new_v = sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.allclose(new_v["x"], [1.8])
    assert np.allclose(new_p["x"], [1.0 - 0.18])


def test_sgd_hand_worked_value():
    p = {"x": np.array([1.0])}
    g = {"x": np.array([1.0])}
    v = {"x": np.array([0.0])}
    new_p, new_v = sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0005)
    assert new_v["x"][0] == pytest.approx(1.0005, abs=1e-15)
    assert new_p["x"][0] == pytest.approx(0.89995, abs=1e-15)


def test_sgd_rejects_nan_gradient_and_bad_shapes():
    p = {"x": np.zeros(2)}
    v = {"x": np.zeros(2)}
    with pytest.raises(NumericAbortError):
        sgd_step(p, {"x": np.array([np.nan, 0.0])}, v, 0.1, 0.9, 0.0)
    with pytest.raises(ValueError):
        sgd_step(p, {"x": np.zeros(3)}, v, 0.1, 0.9, 0.0)
    with pytest.raises(ValueError):
        sgd_step(p, {"y": np.zeros(2)}, v, 0.1, 0.9, 0.0)


# --- config validation ---

def test_config_rejects_bad_milestones():
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, milestones=(5, 5))
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, milestones=(12,))


def test_config_requires_accuracies_for_offline():
    with pytest.raises(ValueError):
        TrainConfig(weight_scheme=WeightScheme.OFFLINE, milestones=())


def test_k_must_be_below_video_count():
    corpus = _corpus()
    cfg = _config(K=corpus.num_videos)
    with pytest.raises(ValueError, match="smaller"):
        pretrain(cfg, corpus, _bank(corpus))


def test_teacher_dimension_must_match_student():
    corpus = _corpus()
    with pytest.raises(ValueError, match="teacher dimension 8"):
        pretrain(_config(d=6), corpus, _bank(corpus, embed_dim=8))


# --- pretraining ---

def test_epochs_zero_returns_initial_encoder():
    corpus = _corpus()
    cfg = _config(epochs=0)
    enc, report = pretrain(cfg, corpus, _bank(corpus))
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    for k, v in enc.parameters():
        assert np.array_equal(v, dict(fresh.parameters())[k])
    assert report.records == ()


def test_pretrain_deterministic():
    corpus = _corpus()
    cfg = _config(epochs=3)
    bank = _bank(corpus)
    enc1, rep1 = pretrain(cfg, corpus, bank)
    enc2, rep2 = pretrain(cfg, corpus, bank)
    for (k, v1), (_, v2) in zip(enc1.parameters(), enc2.parameters()):
        assert np.array_equal(v1, v2), k
    assert report_to_dict(rep1) == report_to_dict(rep2)


def test_pretrain_changes_parameters_and_logs_epochs():
    corpus = _corpus()
    cfg = _config(epochs=2)
    enc, report = pretrain(cfg, corpus, _bank(corpus))
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    assert not np.array_equal(enc.W1, fresh.W1)
    assert len(report.records) == 2
    assert report.records[1].contrastive_loss is not None
    assert report.records[1].ce_loss is None


def test_teachers_untouched_by_training():
    corpus = _corpus()
    bank = _bank(corpus, rhos=(0.9, 0.3))
    before = [(t.weight.copy(), t.bias.copy()) for t in bank.teachers]
    pretrain(_config(epochs=2), corpus, bank)
    for t, (w, b) in zip(bank.teachers, before):
        assert np.array_equal(t.weight, w) and np.array_equal(t.bias, b)


def test_cold_start_skips_first_epoch_when_k_needs_it():
    # 10 videos, batch 2, K=9: the warm check precedes the enqueue, so every
    # epoch-0 batch is skipped and epoch 1 trains on a full queue.
    corpus = _corpus()
    cfg = _config(epochs=2, batch_size=2, K=9)
    enc, report = pretrain(cfg, corpus, _bank(corpus))
    assert report.records[0].contrastive_loss is None
    assert report.records[0].mean_weights == ()
    assert report.records[1].contrastive_loss is not None
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    assert not np.array_equal(enc.W1, fresh.W1)  # epoch 1 did update


def test_online1_weights_vary_within_epoch_offline_constant():
    corpus = _corpus()
    bank = _bank(corpus, rhos=(0.9, 0.3))
    on = _config(epochs=2, weight_scheme=WeightScheme.ONLINE1)
    _, rep_on = pretrain(on, corpus, bank)
    assert max(rep_on.records[-1].std_weights) > 0.0

    off = _config(epochs=2, weight_scheme=WeightScheme.OFFLINE,
                  offline_accuracies=(0.6, 0.4))
    _, rep_off = pretrain(off, corpus, bank)
    assert rep_off.records[-1].std_weights == (0.0, 0.0)
    assert rep_off.records[-1].mean_weights == pytest.approx((0.6, 0.4))


def test_uniform_weights_logged_as_equal():
    corpus = _corpus()
    bank = _bank(corpus, rhos=(0.9, 0.3))
    _, report = pretrain(_config(epochs=1), corpus, bank)
    assert report.records[0].mean_weights == pytest.approx((0.5, 0.5))


# --- joint training ---

def test_alpha_zero_reduces_to_plain_ce():
    corpus = _corpus()
    cfg = _config(epochs=2, alpha=0.0)
    (enc_a, head_a), _ = train_joint(cfg, corpus, _bank(corpus, rhos=(0.9,)))
    (enc_b, head_b), _ = train_joint(cfg, corpus, _bank(corpus, rhos=(0.1,), seed=99))
    # the contrastive branch differs wildly between banks; with alpha=0 it
    # must not leave a trace in the trajectory
    for (k, va), (_, vb) in zip(enc_a.parameters(), enc_b.parameters()):
        assert np.array_equal(va, vb), k
    assert np.array_equal(head_a.W, head_b.W)


def test_beta_zero_head_stays_at_init():
    corpus = _corpus()
    cfg = _config(epochs=2, beta=0.0, weight_decay=0.0)
    (enc, head), report = train_joint(cfg, corpus, _bank(corpus))
    init_head = build_head(cfg.d, corpus.spec.num_classes, cfg.seed)
    assert np.array_equal(head.W, init_head.W)
    assert np.array_equal(head.b, init_head.b)
    # the student still trains through the contrastive branch
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    assert not np.array_equal(enc.W1, fresh.W1)
    assert report.records[-1].ce_loss is not None


def test_joint_resumes_from_init_checkpoint():
    corpus = _corpus()
    cfg = _config(epochs=1)
    enc0 = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, seed=123)
    head0 = build_head(cfg.d, corpus.spec.num_classes, seed=124)
    w_before = enc0.W1.copy()
    (enc, _), _ = train_joint(cfg, corpus, _bank(corpus), init=(enc0, head0))
    assert np.array_equal(enc0.W1, w_before)  # caller's copy untouched
    assert not np.array_equal(enc.W1, w_before)


@pytest.mark.parametrize("frame_dim,h,d,classes,head_d", [
    (8, 8, 6, 3, 6),   # a head for three classes on a 2-class corpus
    (8, 8, 3, 2, 3),   # a d = 3 checkpoint in a d = 6 run
    (8, 5, 6, 2, 6),   # hidden width differs from train.h
    (7, 8, 6, 2, 6),   # frame dimension differs from the corpus
    (8, 8, 6, 2, 4),   # head width differs from the encoder's d
])
def test_joint_init_must_fit_the_run(frame_dim, h, d, classes, head_d):
    corpus = _corpus()
    cfg = _config(epochs=1)
    init = (build_student(frame_dim, h, d, seed=1), build_head(head_d, classes, seed=2))
    with pytest.raises(ValueError, match="init (encoder|head) has"):
        train_joint(cfg, corpus, _bank(corpus), init=init)


def test_joint_deterministic():
    corpus = _corpus()
    cfg = _config(epochs=2)
    bank = _bank(corpus)
    (e1, h1), r1 = train_joint(cfg, corpus, bank)
    (e2, h2), r2 = train_joint(cfg, corpus, bank)
    assert np.array_equal(e1.W3, e2.W3)
    assert np.array_equal(h1.W, h2.W)
    assert report_to_dict(r1) == report_to_dict(r2)


# --- report serialization ---

def test_write_report_artifacts(tmp_path):
    corpus = _corpus()
    cfg = _config(epochs=2)
    _, report = pretrain(cfg, corpus, _bank(corpus))
    write_report(report, tmp_path, {"train": {"epochs": 2}})

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["seed"] == cfg.seed
    assert doc["config"] == {"train": {"epochs": 2}}
    assert len(doc["epochs"]) == 2
    assert "wall_time" not in json.dumps(doc)  # kept out for byte-stable reruns

    lines = (tmp_path / "epochs.csv").read_text().splitlines()
    assert lines[0].startswith(f"# seed={cfg.seed}")
    assert lines[1].split(",")[:4] == ["epoch", "lr", "contrastive_loss", "ce_loss"]
    assert len(lines) == 2 + 2
    for cell in (c for row in csv.reader(lines[2:]) for c in row if c):
        float(cell)  # raises on a numpy repr such as "np.float64(1.0)"


def test_write_report_blank_cells_for_cold_epoch(tmp_path):
    corpus = _corpus()
    cfg = _config(epochs=2, batch_size=2, K=9)
    _, report = pretrain(cfg, corpus, _bank(corpus))
    write_report(report, tmp_path)
    rows = (tmp_path / "epochs.csv").read_text().splitlines()
    cold = rows[2].split(",")
    assert cold[2] == ""  # no contrastive loss recorded
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["epochs"][0]["contrastive_loss"] is None
