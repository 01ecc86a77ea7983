"""Reference experiment setup and the studies run on it.

The setup is a 10-class, 500-video synthetic corpus, a default single
teacher at alignment 0.9, and a 4-teacher bank spanning alignments 0.9 to
0.1.  The studies are the per-seed work behind the acceptance suite's
training-effect criteria and ``scripts/experiments.py``: pretrained vs
random init, teacher weighting schemes, and the joint objective.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .corpus import Corpus, CorpusSpec, generate_corpus, split_videos
from .evaluation import class_overlap, linear_probe, teacher_view_accuracies, video_features
from .losses import WeightScheme
from .model import TeacherBank, build_student, build_teacher
from .seeding import derive_seed
from .trainer import RunReport, TrainConfig, pretrain, train_joint

BANK_RHOS = (0.9, 0.7, 0.3, 0.1)


def reference_corpus_spec(seed: int = 0, **overrides) -> CorpusSpec:
    base = dict(
        num_classes=10,
        videos_per_class=50,
        frames_per_video=32,
        frame_dim=16,
        signal_dim=8,
        video_spread=1.0,
        frame_noise=1.5,
        drift=0.1,
        seed=seed,
    )
    base.update(overrides)
    return CorpusSpec(**base)


def reference_corpus(seed: int = 0, **overrides) -> Corpus:
    return generate_corpus(reference_corpus_spec(seed, **overrides))


def reference_train_config(seed: int = 0, **overrides) -> TrainConfig:
    cfg = TrainConfig(seed=seed)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def make_bank(corpus: Corpus, rhos, embed_dim: int = 16, seed: int = 0) -> TeacherBank:
    """One teacher per alignment value.

    All teachers in a bank share one readout isometry (same derived seed) and
    differ only in rho.  With independent readouts the student can happen to
    align with a noisier teacher's image subspace, which scrambles learned
    weight order across seeds; sharing the readout isolates the alignment
    knob as the only difference.
    """
    readout_seed = derive_seed(seed, "teacher-readout")
    teachers = tuple(
        build_teacher(corpus, rho, embed_dim, readout_seed, name=f"rho{rho:g}")
        for rho in rhos
    )
    return TeacherBank(teachers)


def reference_bank(corpus: Corpus, seed: int = 0, embed_dim: int = 16) -> TeacherBank:
    """Single well-aligned teacher (rho 0.9), the default pretraining setup."""
    return make_bank(corpus, (0.9,), embed_dim=embed_dim, seed=seed)


def four_teacher_bank(corpus: Corpus, seed: int = 0, embed_dim: int = 16) -> TeacherBank:
    return make_bank(corpus, BANK_RHOS, embed_dim=embed_dim, seed=seed)


def pretrain_and_probe(cfg: TrainConfig, corpus: Corpus, bank: TeacherBank
                       ) -> tuple[float, RunReport]:
    """Pretrain on ``corpus`` and return the encoder's linear-probe top-1 on
    the same corpus, with the run's report."""
    enc, report = pretrain(cfg, corpus, bank)
    return linear_probe(video_features(enc, corpus), corpus.labels()).top1, report


def ssl_vs_random(seed: int) -> tuple[float, float]:
    """Probe top-1 of the pretrained student and of the same student
    architecture left at its random init, on the reference setup."""
    corpus = reference_corpus(seed)
    cfg = reference_train_config(seed)
    ssl, _ = pretrain_and_probe(cfg, corpus, reference_bank(corpus, seed))
    rnd_enc = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, seed)
    return ssl, linear_probe(video_features(rnd_enc, corpus), corpus.labels()).top1


def weighting_setup(seed: int = 0):
    """Corpus, 4-teacher bank and config for the weighting study, plus the
    bank's teacher-view accuracies that the offline scheme weights by.
    Returns (corpus, bank, accuracies, config)."""
    corpus = reference_corpus(seed)
    bank = four_teacher_bank(corpus, seed)
    accs = teacher_view_accuracies(corpus, bank, seed=seed)
    return corpus, bank, accs, reference_train_config(seed)


def weighting_arm(setup, scheme: WeightScheme) -> tuple[float, tuple[float, ...]]:
    """One scheme of the weighting study on ``weighting_setup``'s result:
    probe top-1 and the final epoch's mean teacher weights."""
    corpus, bank, accs, cfg = setup
    cfg = dataclasses.replace(
        cfg, weight_scheme=scheme,
        offline_accuracies=accs if scheme is WeightScheme.OFFLINE else None)
    top1, report = pretrain_and_probe(cfg, corpus, bank)
    return top1, report.records[-1].mean_weights


def joint_experiment_setup(seed: int = 0):
    """Corpus, split, bank and config for the supervised joint-loss study.

    The contrastive term pays off when labels are scarce and classes are
    wide enough that a CE-only model latches onto per-video nuisance, so
    this experiment widens the within-class spread and trains on a 20%
    labeled split (queue shrunk to fit).  Held-out videos never enter
    training.  Returns (train_corpus, held_out_corpus, bank, config).
    """
    corpus = reference_corpus(seed=seed, video_spread=2.0)
    train, held_out = split_videos(corpus, 0.2, seed)
    bank = reference_bank(corpus, seed=seed)
    cfg = reference_train_config(seed=seed, alpha=0.1, beta=1.0, K=64)
    return train, held_out, bank, cfg


def joint_arm(setup, alpha: float) -> tuple[float, float]:
    """One arm of the joint study on ``joint_experiment_setup``'s result,
    trained with ``alpha`` (0 is plain cross-entropy): held-out class
    overlap of the encoder features and held-out classifier top-1."""
    train, held, bank, cfg = setup
    (enc, head), _ = train_joint(dataclasses.replace(cfg, alpha=alpha), train, bank)
    feats = video_features(enc, held)
    labels = held.labels()
    top1 = float((np.argmax(head.logits(feats), axis=1) == labels).mean())
    return class_overlap(feats, labels), top1
