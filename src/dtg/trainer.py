"""Training loops: self-supervised pretraining and supervised joint training.

Both loops share the same machinery.  Each epoch visits every video once in
a seeded random order; each step samples one contrastive pair per video,
embeds anchors with the student and guidance with every teacher, reads a
snapshot of negatives from each teacher's queue, applies one SGD step to
the student (and classifier head in joint mode), then enqueues the fresh
guidance features.  Teachers are never updated.

Queues start cold.  Until every queue has seen K features the loss and the
parameter update are skipped; guidance features are still enqueued each
step, so training proper begins within the first epoch (K is smaller than
the video count).  Per-sample randomness is keyed by (seed, video_id,
epoch), so the pair sampled for a video does not depend on which batch it
lands in or on the other videos beside it.  That lets each epoch draw every
video's pair in one ``sample_pairs`` call over one ``substreams`` batch of
streams, pool both views once, and slice its batches out of the pooled
arrays in the epoch's shuffled order.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .losses import (
    ContrastiveOutcome,
    FusionLevel,
    WeightScheme,
    contrastive_batch,
    cross_entropy_batch,
    joint_loss,
)
from .model import (
    ClassifierHead,
    StudentEncoder,
    TeacherBank,
    backward_batch,
    build_head,
    build_student,
    forward_batch,
    pool_frames,
    teacher_features,
)
from .queues import GuidanceQueue, enqueue_batch, negatives
from .sampling import PairMode, sample_pairs
from .seeding import substream, substreams


class NumericAbortError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    milestones: tuple[int, ...] = (30, 50)
    decay: float = 0.1
    tau: float = 0.07
    K: int = 256
    alpha: float = 0.1
    beta: float = 1.0
    pair_mode: PairMode = PairMode.SEQ_SEQ_OVERLAP
    weight_scheme: WeightScheme = WeightScheme.UNIFORM
    fusion_level: FusionLevel = FusionLevel.LOSS
    d: int = 16
    h: int = 32
    seed: int = 0
    segments: int = 4
    mask_frac: float = 0.0
    offline_accuracies: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("milestones must be strictly increasing")
        if any(m >= self.epochs for m in ms) and self.epochs > 0:
            raise ValueError("milestones must be < epochs")
        if min(self.d, self.h, self.segments) < 1:
            raise ValueError("d, h and segments must be >= 1")
        if not 0 <= self.mask_frac < 1:
            raise ValueError("mask_frac must lie in [0, 1)")
        if self.weight_scheme is WeightScheme.OFFLINE and self.offline_accuracies is None:
            raise ValueError("offline weighting requires offline_accuracies")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    contrastive_loss: float | None   # None if every step was a cold-queue skip
    ce_loss: float | None            # None outside joint mode
    mean_weights: tuple[float, ...]  # applied teacher weights, mean over the epoch
    std_weights: tuple[float, ...]   # spread across samples (0 for fixed schemes)


@dataclass(frozen=True)
class RunReport:
    seed: int
    records: tuple[EpochRecord, ...]
    checkpoint_path: str | None = None
    wall_time_s: float = 0.0


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: lr0 * decay^(number of milestones <= epoch)."""
    if not 0 <= epoch < max(config.epochs, 1):
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    drops = sum(1 for m in config.milestones if m <= epoch)
    return config.lr0 * config.decay ** drops


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], lr: float, momentum: float,
             weight_decay: float) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """One momentum step with coupled weight decay.

    v <- momentum * v + g + weight_decay * p
    p <- p - lr * v
    """
    if set(params) != set(grads) or set(params) != set(velocity):
        raise ValueError("params, grads and velocity must share keys")
    new_p, new_v = {}, {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape or velocity[name].shape != p.shape:
            raise ValueError(f"shape mismatch for parameter {name}")
        if not np.all(np.isfinite(g)):
            raise NumericAbortError(f"non-finite gradient for parameter {name}")
        v = momentum * velocity[name] + g + weight_decay * p
        new_v[name] = v
        new_p[name] = p - lr * v
    return new_p, new_v


def _validate_run(config: TrainConfig, corpus: Corpus, bank: TeacherBank) -> None:
    if config.K >= corpus.num_videos:
        raise ValueError(
            f"queue capacity {config.K} must be smaller than the "
            f"number of training videos ({corpus.num_videos})"
        )
    if corpus.spec.frames_per_video < config.segments:
        raise ValueError("segments exceed frames per video")
    if bank.embed_dim != config.d:
        raise ValueError(
            f"teacher dimension {bank.embed_dim} differs from the student's d = {config.d}"
        )
    acc = config.offline_accuracies
    if acc is not None and len(acc) != len(bank):
        raise ValueError(f"expected {len(bank)} offline accuracies, got {len(acc)}")


@dataclass
class _EpochStats:
    ct_sum: float = 0.0
    ce_sum: float = 0.0
    count: int = 0
    weights: list = field(default_factory=list)

    def record(self, out: ContrastiveOutcome, ce_loss=None):
        self.ct_sum += float(out.loss.sum())
        self.count += len(out.loss)
        self.weights.append(out.weights)
        if ce_loss is not None:
            self.ce_sum += ce_loss * len(out.loss)

    def close(self, epoch: int, lr: float, joint: bool) -> EpochRecord:
        if self.count == 0:  # every batch this epoch hit a cold queue
            return EpochRecord(epoch, lr, None, None, (), ())
        w = np.concatenate(self.weights)
        std = w.std(axis=0)
        std[(w == w[0]).all(axis=0)] = 0.0  # constant schemes log exactly zero
        return EpochRecord(
            epoch=epoch,
            lr=lr,
            contrastive_loss=self.ct_sum / self.count,
            ce_loss=(self.ce_sum / self.count) if joint else None,
            mean_weights=tuple(w.mean(axis=0).tolist()),
            std_weights=tuple(std.tolist()),
        )


def _run_loop(config: TrainConfig, corpus: Corpus, bank: TeacherBank,
              enc: StudentEncoder, head: ClassifierHead | None):
    start = time.perf_counter()
    joint = head is not None
    queues = [GuidanceQueue(config.K, config.d) for _ in bank.teachers]
    params = dict(enc.parameters())
    if joint:
        params.update(head.parameters())
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    labels_all = corpus.labels()
    frames_all = corpus.frames()
    ids = corpus.ids()
    records = []
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        order = substream(config.seed, "epoch-order", epoch).permutation(corpus.num_videos)
        anchors, guides = sample_pairs(frames_all, config.pair_mode, config.segments,
                                       substreams(config.seed, "pair", ids, epoch),
                                       config.mask_frac)
        pooled_anchors, pooled_guides = pool_frames(anchors), pool_frames(guides)
        stats = _EpochStats()
        for b0 in range(0, corpus.num_videos, config.batch_size):
            batch_idx = order[b0:b0 + config.batch_size]
            n = len(batch_idx)
            pooled_guid = pooled_guides[batch_idx]
            guidance = np.stack([teacher_features(t, pooled_guid) for t in bank.teachers])

            if not all(q.warm for q in queues):
                # Cold start: no loss, no update; just feed the queues.
                for k, q in enumerate(queues):
                    enqueue_batch(q, guidance[k])
                continue

            feats, cache = forward_batch(enc, pooled_anchors[batch_idx])
            negs = np.stack([negatives(q) for q in queues])

            out = contrastive_batch(feats, guidance.transpose(1, 0, 2), negs, config.tau,
                                    config.weight_scheme, config.fusion_level,
                                    accuracies=config.offline_accuracies)
            ct_loss = float(out.loss.mean())
            d_feats = out.grad_anchor / n

            ce_loss = None
            if joint:
                logits = head.logits(feats)
                ce_loss, d_logits = cross_entropy_batch(logits, labels_all[batch_idx])
                d_feats = config.alpha * d_feats + config.beta * (d_logits @ head.W)
                head_grads = {
                    "head.W": config.beta * (d_logits.T @ feats),
                    "head.b": config.beta * d_logits.sum(axis=0),
                }
                step_loss = joint_loss(ct_loss, ce_loss, config.alpha, config.beta)
            else:
                step_loss = ct_loss
            if not np.isfinite(step_loss):
                raise NumericAbortError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // config.batch_size}"
                )

            grads = backward_batch(enc, cache, d_feats)
            if joint:
                grads.update(head_grads)
            params, velocity = sgd_step(params, grads, velocity, lr,
                                        config.momentum, config.weight_decay)
            enc.set_parameters([params[k] for k, _ in enc.parameters()])
            if joint:
                head.W = params["head.W"]
                head.b = params["head.b"]

            for k, q in enumerate(queues):
                enqueue_batch(q, guidance[k])
            stats.record(out, ce_loss)
        records.append(stats.close(epoch, lr, joint))
    report = RunReport(seed=config.seed, records=tuple(records),
                       wall_time_s=time.perf_counter() - start)
    return enc, head, report


def pretrain(config: TrainConfig, corpus: Corpus, bank: TeacherBank
             ) -> tuple[StudentEncoder, RunReport]:
    """Self-supervised training of the student against frozen teachers."""
    _validate_run(config, corpus, bank)
    enc = build_student(corpus.spec.frame_dim, config.h, config.d, config.seed)
    enc, _, report = _run_loop(config, corpus, bank, enc, head=None)
    return enc, report


def train_joint(config: TrainConfig, corpus: Corpus, bank: TeacherBank,
                init: tuple[StudentEncoder, ClassifierHead] | None = None
                ) -> tuple[tuple[StudentEncoder, ClassifierHead], RunReport]:
    """Supervised training of alpha * contrastive + beta * cross-entropy.

    The contrastive branch sees the raw pair; the classifier head sees the
    anchor feature.  Teachers stay frozen and queue discipline matches
    pretraining exactly.
    """
    _validate_run(config, corpus, bank)
    if init is None:
        enc = build_student(corpus.spec.frame_dim, config.h, config.d, config.seed)
        head = build_head(config.d, corpus.spec.num_classes, config.seed)
    else:
        enc, head = init[0].copy(), ClassifierHead(init[1].W.copy(), init[1].b.copy())
    enc, head, report = _run_loop(config, corpus, bank, enc, head)
    return (enc, head), report


def report_to_dict(report: RunReport, resolved_config: dict | None = None) -> dict:
    """JSON-ready view of a run.  Wall time is deliberately left out so the
    serialized report is byte-identical across repeated seeded runs."""
    return {
        "seed": report.seed,
        "checkpoint": report.checkpoint_path,
        "config": resolved_config or {},
        "epochs": [
            {
                "epoch": r.epoch,
                "lr": r.lr,
                "contrastive_loss": r.contrastive_loss,
                "ce_loss": r.ce_loss,
                "mean_weights": list(r.mean_weights),
                "std_weights": list(r.std_weights),
            }
            for r in report.records
        ],
    }


def write_report(report: RunReport, out_dir, resolved_config: dict | None = None) -> None:
    """Emit report.json plus a per-epoch epochs.csv under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report_to_dict(report, resolved_config), indent=2, sort_keys=True)
    (out / "report.json").write_text(payload + "\n")
    with open(out / "epochs.csv", "w", newline="") as fh:
        fh.write(f"# seed={report.seed}; full run configuration in report.json\n")
        writer = csv.writer(fh)
        n_teachers = max((len(r.mean_weights) for r in report.records), default=0)
        header = ["epoch", "lr", "contrastive_loss", "ce_loss"]
        header += [f"w{t}_mean" for t in range(n_teachers)]
        header += [f"w{t}_std" for t in range(n_teachers)]
        writer.writerow(header)
        blank = lambda x: "" if x is None else repr(x)
        for r in report.records:
            row = [r.epoch, repr(r.lr), blank(r.contrastive_loss), blank(r.ce_loss)]
            row += [repr(x) for x in r.mean_weights] + [""] * (n_teachers - len(r.mean_weights))
            row += [repr(x) for x in r.std_weights] + [""] * (n_teachers - len(r.std_weights))
            writer.writerow(row)
