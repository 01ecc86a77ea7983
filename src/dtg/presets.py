"""Reference experiment setup and the table of studies run on it.

The setup is a 10-class, 500-video synthetic corpus, a default single
teacher at alignment 0.9, and a 4-teacher bank spanning alignments 0.9 to
0.1.  ``STUDIES`` is the work behind the acceptance suite's training-effect
criteria and ``scripts/experiments.py``: each study is a per-seed ``Setup``
builder, one function that turns a setup and a config into named columns,
and its arms, each a name and the ``TrainConfig`` overrides it runs with.
``study`` runs every arm on every seed's setup.  A new arm is one more entry
in a study's ``arms``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .corpus import Corpus, CorpusSpec, generate_corpus, split_videos
from .evaluation import class_overlap, linear_probe, teacher_view_accuracies, video_features
from .losses import WeightScheme
from .model import TeacherBank, build_bank
from .sampling import PairMode
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
    rhos = tuple(rhos)
    readout_seed = derive_seed(seed, "teacher-readout")
    return build_bank(corpus, rhos, embed_dim, (readout_seed,) * len(rhos))


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


@dataclasses.dataclass(frozen=True)
class Setup:
    """One seed's inputs to a study; ``held_out`` never enters training."""
    corpus: Corpus
    bank: TeacherBank
    config: TrainConfig
    held_out: Corpus | None = None


@dataclasses.dataclass(frozen=True)
class Study:
    setup: Callable[[int], Setup]
    columns: Callable[[Setup, TrainConfig], dict]
    arms: dict[str, dict]  # arm name -> TrainConfig overrides, in run order


def reference_setup(seed: int) -> Setup:
    corpus = reference_corpus(seed)
    return Setup(corpus, reference_bank(corpus, seed), reference_train_config(seed))


def weighting_setup(seed: int) -> Setup:
    """The 4-teacher bank, with the teacher-view accuracies that only the
    offline scheme weights by in every arm's config."""
    corpus = reference_corpus(seed)
    bank = four_teacher_bank(corpus, seed)
    accs = teacher_view_accuracies(corpus, bank, seed=seed)
    return Setup(corpus, bank, reference_train_config(seed, offline_accuracies=accs))


def joint_setup(seed: int) -> Setup:
    """The supervised joint-loss setup.

    The contrastive term pays off when labels are scarce and classes are
    wide enough that a CE-only model latches onto per-video nuisance, so
    this setup widens the within-class spread and trains on a 20% labeled
    split (queue shrunk to fit); the other 80% is held out.
    """
    corpus = reference_corpus(seed=seed, video_spread=2.0)
    train, held_out = split_videos(corpus, 0.2, seed)
    cfg = reference_train_config(seed=seed, alpha=0.1, beta=1.0, K=64)
    return Setup(train, reference_bank(corpus, seed=seed), cfg, held_out)


def probe_columns(setup: Setup, cfg: TrainConfig) -> dict:
    """Pretrain, then probe: ``top1``, and when the run has epochs the final
    epoch's mean teacher weights ``w0`` ... ``w{N-1}``."""
    top1, report = pretrain_and_probe(cfg, setup.corpus, setup.bank)
    weights = report.records[-1].mean_weights if report.records else ()
    return {"top1": top1, **{f"w{i}": w for i, w in enumerate(weights)}}


def held_out_columns(setup: Setup, cfg: TrainConfig) -> dict:
    """Joint training, then the held-out class ``overlap`` of the encoder's
    features and the held-out ``top1`` of its classifier head."""
    (enc, head), _ = train_joint(cfg, setup.corpus, setup.bank)
    feats = video_features(enc, setup.held_out)
    labels = setup.held_out.labels()
    return {"overlap": class_overlap(feats, labels),
            "top1": float((np.argmax(head.logits(feats), axis=1) == labels).mean())}


STUDIES = {
    # 0 epochs return the student at its random init
    "ssl-vs-random": Study(reference_setup, probe_columns,
                           {"pretrained": {}, "random": {"epochs": 0}}),
    "weighting": Study(weighting_setup, probe_columns,
                       {s.value: {"weight_scheme": s} for s in WeightScheme}),
    "joint": Study(joint_setup, held_out_columns, {"joint": {}, "ce": {"alpha": 0.0}}),
    "input-modes": Study(reference_setup, probe_columns,
                         {m.value: {"pair_mode": m} for m in PairMode}),
}


def study(name: str, seeds) -> list[dict]:
    """One row ``{"seed", "arm", **columns}`` per seed and arm, seed-major,
    with the arms in ``STUDIES`` order."""
    s = STUDIES[name]
    rows = []
    for seed in seeds:
        setup = s.setup(seed)
        for arm, overrides in s.arms.items():
            cfg = dataclasses.replace(setup.config, **overrides)
            rows.append({"seed": seed, "arm": arm, **s.columns(setup, cfg)})
    return rows
