"""Training loops: self-supervised pretraining and supervised joint training.

Both loops share the same machinery.  Each epoch visits every video once in
a seeded random order.  It samples one contrastive pair per video, pools
both views, and reads every teacher's guidance for the whole epoch at once
as an (N, V, d) stack.  Each step then embeds its anchors with the student,
reads one (N, K, d) snapshot of negatives from the queue, applies one SGD
step to the student (and classifier head in joint mode), and enqueues its
(N, B, d) slice of the guidance.  Teachers are never updated.  The training
state is the encoder's and head's own arrays, one momentum velocity per
parameter and the queue, and every step updates them in place.

Every teacher has its own ring of negatives, but all N rings are fed the
same batch at every step, so they live in one ``GuidanceQueue`` that
advances in lockstep.  The queue starts cold.  Until it has seen K features
the loss and the parameter update are skipped; guidance features are still
enqueued each step, so training proper begins within the first epoch (K is
smaller than the video count).  Per-sample randomness is keyed by (seed,
video_id, epoch), so the pair sampled for a video does not depend on which
batch it lands in or on the other videos beside it.  That lets each epoch
draw every video's pair in one ``sample_pairs`` call over one
``substreams`` batch of streams, pool both views and read the teachers
once, and slice its batches out of those arrays in the epoch's shuffled
order.
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
from .numerics import FieldError, check_fields, declared
from .queues import GuidanceQueue, enqueue_batch, negatives
from .sampling import PairMode, sample_pairs
from .seeding import substream, substreams


class NumericAbortError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = declared(int, 60, ge=0)
    batch_size: int = declared(int, 64, ge=1)
    lr0: float = declared(float, 0.1, gt=0)
    # momentum of 1 or more never forgets a gradient
    momentum: float = declared(float, 0.9, ge=0, lt=1)
    weight_decay: float = declared(float, 0.0005, ge=0)
    milestones: tuple[int, ...] = declared(tuple, (30, 50), ge=0)
    # a decay above 1 grows the step and one at or below 0 flips or zeroes it
    decay: float = declared(float, 0.1, gt=0, le=1)
    tau: float = declared(float, 0.07, gt=0)
    K: int = declared(int, 256, ge=1)
    alpha: float = declared(float, 0.1, ge=0)
    beta: float = declared(float, 1.0, ge=0)
    pair_mode: PairMode = declared(PairMode, PairMode.SEQ_SEQ_OVERLAP)
    weight_scheme: WeightScheme = declared(WeightScheme, WeightScheme.UNIFORM)
    fusion_level: FusionLevel = declared(FusionLevel, FusionLevel.LOSS)
    d: int = declared(int, 16, ge=1)
    h: int = declared(int, 32, ge=1)
    seed: int = declared(int, 0, ge=0, lt=2 ** 64)
    segments: int = declared(int, 4, ge=1)
    mask_frac: float = declared(float, 0.0, ge=0, lt=1)
    offline_accuracies: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        ms = self.milestones
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise FieldError("milestones", f"must be strictly increasing, got {list(ms)}")
        if self.epochs > 0 and any(m >= self.epochs for m in ms):
            raise FieldError("milestones", f"must be < epochs = {self.epochs}, got {list(ms)}")
        if self.weight_scheme is WeightScheme.OFFLINE:
            total = sum(map(float, self.offline_accuracies or ()))
            if not 0 < total < np.inf:
                raise FieldError("offline_accuracies",
                                 "must be given for offline weighting and sum to a finite "
                                 f"number > 0, got {self.offline_accuracies!r}")


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
             weight_decay: float) -> None:
    """One momentum step with coupled weight decay, in place on ``params``
    and ``velocity``:

    v <- momentum * v + g + weight_decay * p
    p <- p - lr * v

    Every gradient is checked before anything is written, so a rejected
    step leaves both dicts unchanged.
    """
    if set(params) != set(grads) or set(params) != set(velocity):
        raise ValueError("params, grads and velocity must share keys")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape or velocity[name].shape != p.shape:
            raise ValueError(f"shape mismatch for parameter {name}")
        if not np.all(np.isfinite(g)):
            raise NumericAbortError(f"non-finite gradient for parameter {name}")
    for name, p in params.items():
        v = velocity[name]
        # one term at a time, in the order of the formula above: the sum
        # rounds exactly as momentum * v + g + weight_decay * p
        v *= momentum
        v += grads[name]
        v += weight_decay * p
        p -= lr * v


def _validate_run(config: TrainConfig, corpus: Corpus, bank: TeacherBank) -> None:
    if config.K >= corpus.num_videos:
        raise ValueError(
            f"queue capacity {config.K} must be smaller than the "
            f"number of training videos ({corpus.num_videos})"
        )
    if corpus.spec.frames_per_video < config.segments:
        raise ValueError("segments exceed frames per video")
    half = corpus.spec.frames_per_video // 2
    if config.pair_mode is PairMode.SEQ_SEQ_DISJOINT and config.segments > half:
        raise ValueError(
            f"seq-seq-disjoint draws each view from half a video: segments "
            f"{config.segments} exceed frames_per_video // 2 = {half}"
        )
    if bank.embed_dim != config.d:
        raise ValueError(
            f"teacher dimension {bank.embed_dim} differs from the student's d = {config.d}"
        )
    acc = config.offline_accuracies
    if acc is not None and len(acc) != len(bank):
        raise ValueError(f"expected {len(bank)} offline accuracies, got {len(acc)}")


def _validate_init(config: TrainConfig, corpus: Corpus, enc: StudentEncoder,
                   head: ClassifierHead) -> None:
    want = {"frame_dim": corpus.spec.frame_dim, "hidden_dim": config.h, "embed_dim": config.d}
    got = {"frame_dim": enc.frame_dim, "hidden_dim": enc.hidden_dim, "embed_dim": enc.embed_dim}
    if got != want:
        raise ValueError(f"init encoder has {got}; this run needs {want} "
                         "(corpus frame_dim, train.h, train.d)")
    shape = (corpus.spec.num_classes, config.d)
    if head.W.shape != shape or head.b.shape != shape[:1]:
        raise ValueError(f"init head has weights {head.W.shape} and bias {head.b.shape}; "
                         f"this run needs {shape} and {shape[:1]} (classes, train.d)")


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
              enc: StudentEncoder, head: ClassifierHead | None) -> RunReport:
    start = time.perf_counter()
    joint = head is not None
    queue = GuidanceQueue(config.K, config.d, len(bank))
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
        guidance_all = np.stack([teacher_features(t, pooled_guides) for t in bank.teachers])
        stats = _EpochStats()
        for b0 in range(0, corpus.num_videos, config.batch_size):
            batch_idx = order[b0:b0 + config.batch_size]
            n = len(batch_idx)
            # (N, B, d) in teacher-major memory, as the loss and the queue take it
            guidance = np.take(guidance_all, batch_idx, axis=1)

            # Cold start: until the queue is warm there is no loss and no
            # update; the guidance is still enqueued below.
            if queue.warm:
                feats, cache = forward_batch(enc, pooled_anchors[batch_idx])
                out = contrastive_batch(feats, guidance, negatives(queue),
                                        config.tau, config.weight_scheme, config.fusion_level,
                                        accuracies=config.offline_accuracies)
                ct_loss = float(out.loss.mean())
                d_feats = out.grad_anchor / n

                ce_loss = None
                grads = {}
                if joint:
                    logits = head.logits(feats)
                    ce_loss, d_logits = cross_entropy_batch(logits, labels_all[batch_idx])
                    d_feats = config.alpha * d_feats + config.beta * (d_logits @ head.W)
                    grads["head.W"] = config.beta * (d_logits.T @ feats)
                    grads["head.b"] = config.beta * d_logits.sum(axis=0)
                    step_loss = joint_loss(ct_loss, ce_loss, config.alpha, config.beta)
                else:
                    step_loss = ct_loss
                if not np.isfinite(step_loss):
                    raise NumericAbortError(
                        f"non-finite loss at epoch {epoch}, batch {b0 // config.batch_size}"
                    )

                grads.update(backward_batch(enc, cache, d_feats))
                sgd_step(params, grads, velocity, lr, config.momentum, config.weight_decay)
                stats.record(out, ce_loss)

            enqueue_batch(queue, guidance)
        records.append(stats.close(epoch, lr, joint))
    return RunReport(seed=config.seed, records=tuple(records),
                     wall_time_s=time.perf_counter() - start)


def pretrain(config: TrainConfig, corpus: Corpus, bank: TeacherBank
             ) -> tuple[StudentEncoder, RunReport]:
    """Self-supervised training of the student against frozen teachers."""
    _validate_run(config, corpus, bank)
    enc = build_student(corpus.spec.frame_dim, config.h, config.d, config.seed)
    return enc, _run_loop(config, corpus, bank, enc, head=None)


def train_joint(config: TrainConfig, corpus: Corpus, bank: TeacherBank,
                init: tuple[StudentEncoder, ClassifierHead] | None = None
                ) -> tuple[tuple[StudentEncoder, ClassifierHead], RunReport]:
    """Supervised training of alpha * contrastive + beta * cross-entropy.

    The contrastive branch sees the raw pair; the classifier head sees the
    anchor feature.  Teachers stay frozen and queue discipline matches
    pretraining exactly.  An ``init`` (encoder, head) pair must fit the run:
    the corpus frame dimension, ``config.h`` and ``config.d``, and the
    corpus class count; otherwise ValueError before any training.
    """
    _validate_run(config, corpus, bank)
    if init is None:
        enc = build_student(corpus.spec.frame_dim, config.h, config.d, config.seed)
        head = build_head(config.d, corpus.spec.num_classes, config.seed)
    else:
        _validate_init(config, corpus, *init)
        enc, head = init[0].copy(), ClassifierHead(init[1].W.copy(), init[1].b.copy())
    return (enc, head), _run_loop(config, corpus, bank, enc, head)


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
