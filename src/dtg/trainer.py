"""Training loops: self-supervised pretraining and supervised joint training.

Both run ``run_epoch`` once per epoch on a ``TrainState``, which holds what
carries from one epoch to the next: the flat float64 parameter and momentum
velocity vectors with their ``ParamLayout``, the guidance ``stream``, and the
next epoch.  The encoder and head are never stored; ``TrainState.models()``
derives them as reshaped views of the parameter vector, so the SGD step, in
place on the flat vectors, trains them.  Teachers are never updated.

An epoch visits every video once in a seeded random order.  It samples one
contrastive pair per video, pools both views as it gathers them, and reads the
bank's guidance in one product.  Each step embeds its anchors, scores them
against their guidance and K negatives per teacher, and takes one SGD step.
A step's negatives are the last K guidance rows fed before it, oldest first
(a FIFO, as in MoCo), for all N teachers at once: a window on the
(N, K + V, d) ``stream``, whose first K columns carry the previous epoch's last
K rows and whose other V columns take this epoch's rows in visiting order.
The batch at offset b0 takes columns [K + b0, K + b0 + B) as positives and
[b0, b0 + K) as negatives, a slice, not a gather.  Until K rows have been fed
(b0 < K in the first epoch) the loss and the update are skipped.  Every
step's loss writes its logits into one workspace that ``run_epoch`` makes
per epoch, and under loss fusion reads its negatives window in place.
Per-sample randomness is keyed by (seed, video_id, epoch), so a video's pair
depends neither on its batch nor on the model, and ``_pair_draws`` draws the
pairs of a chunk of whole epochs in one call.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .binio import write_csv, write_json
from .corpus import Corpus
from .losses import (
    FusionLevel,
    WeightScheme,
    contrastive_batch,
    cross_entropy_batch,
    logits_shape,
)
from .model import (
    ClassifierHead,
    StudentEncoder,
    TeacherBank,
    backward_batch,
    build_head,
    build_student,
    forward_batch,
    teacher_features,
)
from .numerics import FieldError, check_fields, check_value, declared
from .sampling import PairMode, draw_pairs, pooled_view
from .seeding import substream, substreams


class NumericAbortError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


_ACCURACY = declared(float, ge=0).metadata  # the rule of each offline accuracy
# A run draws its pairs for this many (video, epoch) rows at a time: 32
# epochs of the 500-video reference corpus, and a few MB of streams and
# indices.
_PAIR_ROWS = 2 ** 14


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
    # the loss scales by 1/tau, which overflows for a subnormal tau
    tau: float = declared(float, 0.07, ge=sys.float_info.min)
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
    offline_accuracies: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        ms = self.milestones
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise FieldError("milestones", f"must be strictly increasing, got {list(ms)}")
        if self.epochs > 0 and any(m >= self.epochs for m in ms):
            raise FieldError("milestones", f"must be < epochs = {self.epochs}, got {list(ms)}")
        for acc in self.offline_accuracies or ():
            check_value("offline_accuracies", acc, _ACCURACY)
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
    contrastive_loss: float | None   # None if every step was a cold skip
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


@dataclass(frozen=True)
class ParamLayout:
    """Where each named parameter sits in a flat float64 vector: the names
    and shapes, in vector order, of the arrays it holds end to end."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]

    @cached_property
    def ends(self) -> np.ndarray:
        return np.cumsum([int(np.prod(s)) for s in self.shapes])

    @property
    def size(self) -> int:
        return int(self.ends[-1])

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> the reshaped view of ``flat`` that holds that parameter."""
        starts = (0, *self.ends[:-1])
        return {name: flat[a:b].reshape(shape)
                for name, shape, a, b in zip(self.names, self.shapes, starts, self.ends)}

    def name_at(self, index: int) -> str:
        """The parameter that holds element ``index`` of the flat vector."""
        return self.names[int(np.searchsorted(self.ends, index, side="right"))]


def sgd_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float, weight_decay: float, layout: ParamLayout) -> None:
    """One momentum step with coupled weight decay, in place on the flat
    vectors ``params`` and ``velocity``:

    v <- momentum * v + g + weight_decay * p
    p <- p - lr * v

    All three vectors hold every parameter where ``layout`` places it.  The
    whole gradient is checked before anything is written, so a rejected
    step leaves both vectors unchanged; its error names the parameter that
    holds the first non-finite entry.
    """
    shape = (layout.size,)
    if params.shape != shape or grads.shape != shape or velocity.shape != shape:
        raise ValueError(f"params, grads and velocity must have the layout's shape {shape}, "
                         f"got {params.shape}, {grads.shape} and {velocity.shape}")
    if not np.isfinite(grads).all():
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise NumericAbortError(f"non-finite gradient for parameter {layout.name_at(bad)}")
    # one term at a time, in the order of the formula above: each element
    # rounds exactly as momentum * v + g + weight_decay * p
    velocity *= momentum
    velocity += grads
    velocity += weight_decay * params
    params -= lr * velocity


def _validate_run(config: TrainConfig, corpus: Corpus, bank: TeacherBank) -> None:
    """The rules that relate the config to the corpus and the teachers; each
    message starts with the config key it names, as ``FieldError``'s do."""
    # The first warm step of every epoch after the first takes all K negatives
    # from the previous epoch's tail, so an epoch must feed more than K rows.
    if config.K >= corpus.num_videos:
        raise FieldError("train.K", f"queue capacity {config.K} must be smaller than the "
                                    f"number of training videos ({corpus.num_videos})")
    if config.pair_mode is PairMode.IMG_IMG:  # one frame per view: segments is not read
        if corpus.spec.frames_per_video < 2:
            raise FieldError("train.pair_mode / corpus.frames_per_video",
                             "img-img draws two distinct frames of a video: frames_per_video "
                             f"must be at least 2, got {corpus.spec.frames_per_video}")
    elif corpus.spec.frames_per_video < config.segments:
        raise FieldError("train.segments / corpus.frames_per_video",
                         f"segments exceed frames per video ({config.segments} > "
                         f"{corpus.spec.frames_per_video})")
    half = corpus.spec.frames_per_video // 2
    if config.pair_mode is PairMode.SEQ_SEQ_DISJOINT and config.segments > half:
        raise FieldError("train.segments / corpus.frames_per_video",
                         f"seq-seq-disjoint draws each view from half a video: segments "
                         f"{config.segments} exceed frames_per_video // 2 = {half}")
    if bank.embed_dim != config.d:
        raise FieldError("train.d", f"teacher dimension {bank.embed_dim} differs from the "
                                    f"student's d = {config.d}")
    acc = config.offline_accuracies
    if acc is not None and len(acc) != len(bank):
        raise FieldError("train.offline_accuracies",
                         f"expected {len(bank)} offline accuracies, got {len(acc)}")


def _validate_init(config: TrainConfig, corpus: Corpus, enc: StudentEncoder,
                   head: ClassifierHead | None) -> None:
    want = {"frame_dim": corpus.spec.frame_dim, "hidden_dim": config.h, "embed_dim": config.d}
    got = {"frame_dim": enc.frame_dim, "hidden_dim": enc.hidden_dim, "embed_dim": enc.embed_dim}
    if got != want:
        raise ValueError(f"init encoder has {got}; this run needs {want} "
                         "(corpus frame_dim, train.h, train.d)")
    shape = (corpus.spec.num_classes, config.d)
    if head is not None and (head.W.shape != shape or head.b.shape != shape[:1]):
        raise ValueError(f"init head has weights {head.W.shape} and bias {head.b.shape}; "
                         f"this run needs {shape} and {shape[:1]} (classes, train.d)")


@dataclass
class TrainState:
    """What one epoch hands the next.  ``stream``'s first K columns are the
    last K guidance rows fed.  No encoder or head is stored, so a copy of the
    state (a deep copy too) trains its own parameters, not the original's."""

    params: np.ndarray
    velocity: np.ndarray
    layout: ParamLayout
    stream: np.ndarray
    epoch: int = 0

    def models(self) -> tuple[StudentEncoder, ClassifierHead | None]:
        """The encoder and head (None: no head) as views of ``params``."""
        views = self.layout.views(self.params)
        head = None
        if "head.W" in views:
            head = ClassifierHead(views.pop("head.W"), views.pop("head.b"))
        return StudentEncoder(**views), head


def start_state(config: TrainConfig, corpus: Corpus, bank: TeacherBank,
                enc: StudentEncoder, head: ClassifierHead | None) -> TrainState:
    """The state before epoch 0: copies of the arrays of ``enc`` and ``head``
    (None: no head) in one new flat vector, and a zero velocity."""
    names, arrays = zip(*enc.parameters(), *(head.parameters() if head is not None else ()))
    params = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
    layout = ParamLayout(names, tuple(a.shape for a in arrays))
    stream = np.empty((len(bank), config.K + corpus.num_videos, config.d))
    return TrainState(params, np.zeros_like(params), layout, stream)


def _epoch_record(epoch: int, lr: float, ct_sum: float, ce_sum: float | None, count: int,
                  weights: list[np.ndarray]) -> EpochRecord:
    """An epoch's record from the loss sums of its ``count`` trained rows
    (``ce_sum`` None outside joint mode) and each step's teacher weights."""
    if count == 0:  # every batch this epoch was a cold skip
        return EpochRecord(epoch, lr, None, None, (), ())
    w = np.concatenate(weights)
    std = w.std(axis=0)
    std[(w == w[0]).all(axis=0)] = 0.0  # constant schemes log exactly zero
    ce_loss = None if ce_sum is None else ce_sum / count
    return EpochRecord(epoch, lr, ct_sum / count, ce_loss, tuple(w.mean(axis=0).tolist()),
                       tuple(std.tolist()))


def _pair_draws(config: TrainConfig, num_frames: int, ids: np.ndarray
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each epoch's (anchor, guidance) views of the videos ``ids``, epoch by
    epoch; row v of epoch e is drawn from ``substreams(config.seed, "pair",
    ids[v], e)`` alone.  One ``draw_pairs`` call serves as many whole epochs
    as fit in ``_PAIR_ROWS`` rows, and at least one, so the draws held at a
    time do not grow with the number of epochs."""
    per_chunk = max(1, _PAIR_ROWS // len(ids))
    for first in range(0, config.epochs, per_chunk):
        epochs = np.arange(first, min(first + per_chunk, config.epochs))
        streams = substreams(config.seed, "pair", np.tile(ids, epochs.size),
                             np.repeat(epochs, len(ids)))
        anchor, guidance = draw_pairs(num_frames, config.pair_mode, config.segments, streams)
        for e in range(epochs.size):
            rows = slice(e * len(ids), (e + 1) * len(ids))
            yield anchor[rows], guidance[rows]


def run_epoch(config: TrainConfig, corpus: Corpus, bank: TeacherBank, state: TrainState,
              views: tuple[np.ndarray, np.ndarray]) -> EpochRecord:
    """Runs epoch ``state.epoch`` on its (anchor, guidance) ``views``, in
    place on ``state``, which then holds the next epoch; returns its record.
    The head trains too when the state holds one (joint mode)."""
    K, V, epoch = config.K, corpus.num_videos, state.epoch
    anchor_view, guide_view = views
    enc, head = state.models()
    grads = np.zeros_like(state.params)  # each step overwrites it whole
    grad_views = state.layout.views(grads)
    stream = state.stream
    frames_all = corpus.frames()
    lr = lr_at(config, epoch)
    order = substream(config.seed, "epoch-order", epoch).permutation(V)
    guidance = teacher_features(bank, pooled_view(frames_all, guide_view))
    # rows taken by index, not recomputed in visiting order: a BLAS edge
    # tile may round a permuted row differently
    np.take(guidance, order, axis=1, out=stream[:, K:])
    visited_anchors = np.take(pooled_view(frames_all, anchor_view), order, axis=0)
    ct_sum, count, weights = 0.0, 0, []
    ce_sum = 0.0 if head is not None else None
    # every step's logits go into the first rows of one workspace; a step
    # reads only the fresh fields of its outcome, not shifted_exp
    work = np.empty(logits_shape(min(config.batch_size, V), len(stream), K,
                                 config.fusion_level))
    for b0 in range(0, V, config.batch_size):
        if epoch == 0 and b0 < K:
            continue  # cold start: until K rows have been fed there is no loss and no update
        batch_anchors = visited_anchors[b0:b0 + config.batch_size]
        n = len(batch_anchors)
        feats, cache = forward_batch(enc, batch_anchors)
        out = contrastive_batch(feats, stream[:, K + b0:K + b0 + n], stream[:, b0:b0 + K],
                                config.tau, config.weight_scheme, config.fusion_level,
                                accuracies=config.offline_accuracies, work=work[:n])
        # the sum and the division np.mean would compute
        loss_sum = float(np.add.reduce(out.loss))
        ct_loss = loss_sum / n
        d_feats = out.grad_anchor / n

        if head is not None:
            logits = head.logits(feats)
            ce_loss, d_logits = cross_entropy_batch(logits, corpus.labels()[order[b0:b0 + n]])
            d_feats = config.alpha * d_feats + config.beta * (d_logits @ head.W)
            g_w = np.matmul(d_logits.T, feats, out=grad_views["head.W"])
            np.multiply(config.beta, g_w, out=g_w)
            g_b = np.add.reduce(d_logits, axis=0, out=grad_views["head.b"])
            np.multiply(config.beta, g_b, out=g_b)
            step_loss = config.alpha * ct_loss + config.beta * ce_loss
            ce_sum += ce_loss * n
        else:
            step_loss = ct_loss
        if not math.isfinite(step_loss):
            raise NumericAbortError(f"non-finite loss at epoch {epoch}, "
                                    f"batch {b0 // config.batch_size}")

        backward_batch(enc, cache, d_feats, grad_views)
        sgd_step(state.params, grads, state.velocity, lr, config.momentum,
                 config.weight_decay, state.layout)
        ct_sum += loss_sum
        count += n
        weights.append(out.weights)

    stream[:, :K] = stream[:, V:]
    state.epoch += 1
    return _epoch_record(epoch, lr, ct_sum, ce_sum, count, weights)


def _train(config: TrainConfig, corpus: Corpus, bank: TeacherBank, state: TrainState
           ) -> RunReport:
    """Runs every epoch of ``config`` on ``state`` and reports them."""
    start = time.perf_counter()
    draws = _pair_draws(config, corpus.spec.frames_per_video, corpus.ids())
    records = tuple(run_epoch(config, corpus, bank, state, views) for views in draws)
    return RunReport(config.seed, records, wall_time_s=time.perf_counter() - start)


def pretrain(config: TrainConfig, corpus: Corpus, bank: TeacherBank
             ) -> tuple[StudentEncoder, RunReport]:
    """Self-supervised training of the student against frozen teachers."""
    _validate_run(config, corpus, bank)
    enc = build_student(corpus.spec.frame_dim, config.h, config.d, config.seed)
    state = start_state(config, corpus, bank, enc, head=None)
    report = _train(config, corpus, bank, state)
    return state.models()[0], report


def train_joint(config: TrainConfig, corpus: Corpus, bank: TeacherBank,
                init: tuple[StudentEncoder, ClassifierHead | None] | None = None
                ) -> tuple[tuple[StudentEncoder, ClassifierHead], RunReport]:
    """Supervised training of alpha * contrastive + beta * cross-entropy.

    The contrastive branch sees the raw pair; the classifier head sees the
    anchor feature.  Teachers stay frozen and the negatives are drawn as in
    pretraining.  An ``init`` (encoder, head) pair must fit the run:
    the corpus frame dimension, ``config.h`` and ``config.d``, and the
    corpus class count; otherwise ValueError before any training.  A model
    the init leaves out (all of it, or only the head) is built fresh from
    ``config.seed``.
    """
    _validate_run(config, corpus, bank)
    if init is None:
        enc, head = build_student(corpus.spec.frame_dim, config.h, config.d, config.seed), None
    else:
        _validate_init(config, corpus, *init)
        enc, head = init  # the run trains copies; the caller's arrays stay as they are
    if head is None:
        head = build_head(config.d, corpus.spec.num_classes, config.seed)
    state = start_state(config, corpus, bank, enc, head)
    report = _train(config, corpus, bank, state)
    return state.models(), report


def report_to_dict(report: RunReport, resolved_config: dict | None = None) -> dict:
    """JSON-ready view of a run.  Wall time is deliberately left out so the
    serialized report is byte-identical across repeated seeded runs."""
    return {
        "seed": report.seed,
        "checkpoint": report.checkpoint_path,
        "config": resolved_config or {},
        "epochs": [asdict(r) for r in report.records],
    }


def write_report(report: RunReport, out_dir, resolved_config: dict | None = None) -> None:
    """Emit report.json plus a per-epoch epochs.csv under ``out_dir``."""
    out = Path(out_dir)
    write_json(out / "report.json", report_to_dict(report, resolved_config))
    n_teachers = max((len(r.mean_weights) for r in report.records), default=0)
    header = ["epoch", "lr", "contrastive_loss", "ce_loss"]
    header += [f"w{t}_mean" for t in range(n_teachers)]
    header += [f"w{t}_std" for t in range(n_teachers)]
    rows = [header]
    for r in report.records:
        pad = [None] * (n_teachers - len(r.mean_weights))
        rows.append([r.epoch, r.lr, r.contrastive_loss, r.ce_loss,
                     *r.mean_weights, *pad, *r.std_weights, *pad])
    write_csv(out / "epochs.csv", rows,
              comment=f"seed={report.seed}; full run configuration in report.json")
