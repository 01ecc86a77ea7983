"""Representation quality metrics for frozen features.

linear_probe trains only an affine classifier on top of fixed features and
reports held-out top-1; knn_top1 is a leave-one-out cosine vote;
class_overlap compresses "how tangled are the classes" into one scalar
(mean intra-class pairwise distance over mean inter-class pairwise
distance, smaller = cleaner); project_2d gives a deterministic top-2 PCA
view for plotting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, stratified_split
from .losses import cross_entropy_batch
from .model import (
    StudentEncoder,
    TeacherBank,
    forward_batch,
    pool_frames,
    teacher_features,
)
from .numerics import DegenerateInputError, as_matrix
from .sampling import PairMode, sample_pairs
from .seeding import substreams

_OVERLAP_ROWS = 64  # distance-matrix rows per block in class_overlap
_KNN_ROWS = 256  # similarity-matrix rows per block in knn_top1


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 100
    lr: float = 0.01
    seed: int = 0


@dataclass(frozen=True)
class ProbeResult:
    top1: float
    per_class: tuple[float, ...]  # held-out accuracy per class id
    split_seed: int


def video_features(enc: StudentEncoder, corpus: Corpus) -> np.ndarray:
    """One unit-norm feature per video, from its full frame stack (no sampling)."""
    out, _ = forward_batch(enc, pool_frames(corpus.frames()))
    return out


def teacher_view_accuracies(corpus: Corpus, bank: TeacherBank, seed: int = 0,
                            mode: PairMode = PairMode.SEQ_SEQ_OVERLAP,
                            segments: int = 4, k: int = 5) -> tuple[float, ...]:
    """Per-teacher kNN top-1 on guidance features of one sampled view per
    video.  Views are drawn with the trainer's sampler rather than pooling
    whole videos: full-video pooling averages the frame noise away and makes
    noisy teachers look as good as clean ones.  These scores are the natural
    source for offline fusion weights."""
    y = corpus.labels()
    streams = substreams(seed, "teacher-acc", corpus.ids())
    _, guidance = sample_pairs(corpus.frames(), mode, segments, streams)
    pooled = pool_frames(guidance)
    return tuple(
        knn_top1(teacher_features(t, pooled), y, k) for t in bank.teachers
    )


def linear_probe(features: np.ndarray, labels: np.ndarray, split_frac: float = 0.8,
                 config: ProbeConfig = ProbeConfig()) -> ProbeResult:
    """Affine classifier on frozen features: full-batch gradient descent from
    zero init, CE loss, held-out top-1 on the stratified test split."""
    x = as_matrix(features, "features")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise ValueError("need one label per feature row")
    classes = np.unique(y)
    if x.shape[0] < classes.size:
        raise ValueError("fewer examples than classes")
    tr, te = stratified_split(y, split_frac, config.seed)
    if set(np.unique(y[tr])) != set(classes):
        raise ValueError("a class is absent from the train split")
    n_cls = int(classes.max()) + 1
    w = np.zeros((n_cls, x.shape[1]))
    b = np.zeros(n_cls)
    xt, yt = x[tr], y[tr]
    for _ in range(config.epochs):
        _, d_logits = cross_entropy_batch(xt @ w.T + b, yt)
        w -= config.lr * (d_logits.T @ xt)
        b -= config.lr * d_logits.sum(axis=0)
    pred = np.argmax(x[te] @ w.T + b, axis=1)
    correct = pred == y[te]
    per_class = tuple(float(correct[y[te] == c].mean()) for c in classes)
    return ProbeResult(top1=float(correct.mean()), per_class=per_class,
                       split_seed=config.seed)


def knn_top1(features: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Leave-one-out k-nearest-neighbor accuracy under cosine similarity.
    Vote ties resolve to the smallest class id.  Ties at the k-th neighbour
    are broken on the similarities as BLAS rounds them in each row block, so
    another block layout may pick another tied neighbour; same-seed reruns
    stay byte-identical."""
    x = as_matrix(features, "features")
    y = np.asarray(labels)
    m = x.shape[0]
    if y.shape != (m,):
        raise ValueError("need one label per feature row")
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < {m}, got {k}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise DegenerateInputError("zero-norm feature row")
    u = x / norms
    n_cls = int(y.max()) + 1
    correct = 0
    # every step below is row-wise, so the similarity matrix is taken
    # _KNN_ROWS rows at a time and no (m, m) array is held
    for r0 in range(0, m, _KNN_ROWS):
        sims = u[r0:r0 + _KNN_ROWS] @ u.T
        rb = sims.shape[0]
        sims[np.arange(rb), np.arange(r0, r0 + rb)] = -np.inf
        # the k neighbours are the first k of a stable descending sort: every
        # similarity above the row's k-th largest, then the lowest-index ties
        kth = np.partition(sims, m - k, axis=1)[:, [m - k]]  # a copy: frees the partition
        above = sims > kth
        ties = sims == kth
        neighbors = above | (ties & (np.cumsum(ties, axis=1, dtype=np.int32)
                                     <= k - above.sum(axis=1, keepdims=True)))
        rows, cols = np.nonzero(neighbors)
        votes = np.bincount(rows * n_cls + y[cols],
                            minlength=rb * n_cls).reshape(rb, n_cls)
        # argmax breaks vote ties low
        correct += int(np.count_nonzero(votes.argmax(axis=1) == y[r0:r0 + rb]))
    return correct / m


def class_overlap(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean intra-class pairwise distance over mean inter-class pairwise
    distance.  Invariant to rotating or uniformly scaling the features."""
    x = as_matrix(features, "features")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise ValueError("need one label per feature row")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 points")
    # the upper triangle of the distance matrix, _OVERLAP_ROWS rows at a time
    # through one reused difference buffer: each distance is computed as the
    # full (N, N, D) tensor would compute it, and intra/inter receive the
    # entries of dist[same & upper] and dist[~same & upper] in the same
    # row-major order, so both means are exactly the full formula's
    n, d = x.shape
    n_intra = int((counts * (counts - 1) // 2).sum())
    intra = np.empty(n_intra)
    inter = np.empty(n * (n - 1) // 2 - n_intra)
    buf = np.empty(min(_OVERLAP_ROWS, n) * n * d)
    i_at = e_at = 0
    for r0 in range(0, n, _OVERLAP_ROWS):
        r1 = min(r0 + _OVERLAP_ROWS, n)
        diff = buf[:(r1 - r0) * (n - r0 - 1) * d].reshape(r1 - r0, n - r0 - 1, d)
        np.subtract(x[r0:r1, None, :], x[None, r0 + 1:, :], out=diff)
        np.square(diff, out=diff)
        dist = np.sqrt(diff.sum(axis=-1))
        # block column c is matrix column r0 + 1 + c, above the diagonal for
        # block row a when c >= a
        upper = np.arange(n - r0 - 1)[None, :] >= np.arange(r1 - r0)[:, None]
        same = y[r0:r1, None] == y[None, r0 + 1:]
        block = dist[same & upper]
        intra[i_at:i_at + block.size] = block
        i_at += block.size
        block = dist[~same & upper]
        inter[e_at:e_at + block.size] = block
        e_at += block.size
    denom = inter.mean()
    if denom == 0:
        raise DegenerateInputError("all points identical; overlap undefined")
    return float(intra.mean() / denom)


def project_2d(features: np.ndarray) -> np.ndarray:
    """Top-2 PCA coordinates.  Component signs are fixed by requiring the
    largest-magnitude loading of each component to be positive, so repeated
    runs agree exactly."""
    x = as_matrix(features, "features")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 points")
    centered = x - x.mean(axis=0)
    if not np.any(centered):
        raise DegenerateInputError("rank-0 data; no principal directions")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[: min(2, vt.shape[0])]
    if comps.shape[0] < 2:
        comps = np.vstack([comps, np.zeros_like(comps[0])])
    for row in comps:
        j = np.argmax(np.abs(row))
        if row[j] < 0:
            row *= -1
    return centered @ comps.T


def write_probe_json(result: ProbeResult, path, resolved_config: dict | None = None,
                     seed: int | None = None, extras: dict | None = None) -> None:
    payload = {
        "top1": result.top1,
        "per_class": list(result.per_class),
        "split_seed": result.split_seed,
        "seed": result.split_seed if seed is None else seed,
        "config": resolved_config or {},
    }
    if extras:
        payload.update(extras)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_overlap_json(overlap: float, path, resolved_config: dict | None = None,
                       seed: int = 0) -> None:
    payload = {"class_overlap": overlap, "seed": seed, "config": resolved_config or {}}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_projection_csv(path, video_ids, labels, coords, seed: int = 0) -> None:
    pts = np.asarray(coords)
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed}; full run configuration in config.json\n")
        writer = csv.writer(fh)
        writer.writerow(["video_id", "label", "x", "y"])
        for vid, lab, (px, py) in zip(video_ids, labels, pts):
            writer.writerow([int(vid), int(lab), repr(float(px)), repr(float(py))])
