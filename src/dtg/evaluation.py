"""Representation quality metrics for frozen features.

linear_probe trains only an affine classifier on top of fixed features and
reports held-out top-1; knn_top1 is a leave-one-out cosine vote;
class_overlap compresses "how tangled are the classes" into one scalar
(mean intra-class pairwise distance over mean inter-class pairwise
distance, smaller = cleaner); project_2d gives a deterministic top-2 PCA
view for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import write_csv
from .corpus import Corpus, stratified_split
from .losses import cross_entropy_grad
from .model import StudentEncoder, TeacherBank, forward_batch, teacher_features
from .numerics import (DegenerateInputError, as_matrix, check_fields, class_ids, declared,
                       one_hot, unit_rows)
from .sampling import PairMode, draw_pairs, pooled_view
from .seeding import substreams

# distance-matrix rows per block in class_overlap: one BLAS product into the
# first of two (rows, N) float64 buffers, the second holding |a|² + |b|² for
# the cancellation guard.  Each block adds one sum to each running mean's
# numerator, so another value may change the last bits (within the 1e-13
# relative that class_overlap promises against coordinate-order distances)
_OVERLAP_ROWS = 64
_KNN_ROWS = 256  # similarity-matrix rows per block in knn_top1
_KNN_STRIPS = 8  # column strips in knn_top1, whose elementwise maxima bound each row's k-th
# rows per full-row selection in knn_top1, so that its temporaries, a few
# (rows, N) arrays, stay small.  Freed together at 256 rows, they let the
# allocator hand the heap back to the system, and each block faulted it in
# again: 14K minor faults per call against 262 (N = 2,000, k = 60, +-1 rows)
_KNN_SELECT_ROWS = 64


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = declared(int, 100, ge=0)
    lr: float = declared(float, 0.01, gt=0)
    seed: int = declared(int, 0, ge=0, lt=2 ** 64)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ProbeResult:
    top1: float
    per_class: tuple[float, ...]  # held-out accuracy per class id
    split_seed: int


def video_features(enc: StudentEncoder, corpus: Corpus) -> np.ndarray:
    """One unit-norm feature per video, from all its frames pooled in order
    (a ``pooled_view`` of frames 0..L-1 in every row, no sampling)."""
    frames = corpus.frames()
    num_videos, length, _ = frames.shape
    whole = np.broadcast_to(np.arange(length), (num_videos, length))
    out, _ = forward_batch(enc, pooled_view(frames, whole))
    return out


# the sampled view and the kNN vote that teacher_view_accuracies scores by
_VIEW_MODE = PairMode.SEQ_SEQ_OVERLAP
_VIEW_SEGMENTS = 4
_VIEW_K = 5


def teacher_view_accuracies(corpus: Corpus, bank: TeacherBank,
                            seed: int = 0) -> tuple[float, ...]:
    """Per-teacher kNN top-1 on guidance features of one sampled view per
    video.  Views are drawn with the trainer's sampler rather than pooling
    whole videos: full-video pooling averages the frame noise away and makes
    noisy teachers look as good as clean ones.  These scores are the natural
    source for offline fusion weights."""
    y, frames = corpus.labels(), corpus.frames()
    streams = substreams(seed, "teacher-acc", corpus.ids())
    _, guide_view = draw_pairs(frames.shape[1], _VIEW_MODE, _VIEW_SEGMENTS, streams)
    guidance = teacher_features(bank, pooled_view(frames, guide_view))
    return tuple(knn_top1(feats, y, _VIEW_K) for feats in guidance)


def linear_probe(features: np.ndarray, labels: np.ndarray, split_frac: float = 0.8,
                 config: ProbeConfig = ProbeConfig()) -> ProbeResult:
    """Affine classifier on frozen features: full-batch gradient descent from
    zero init, CE loss, held-out top-1 on the stratified test split.

    The classifier has a row for every id up to the largest label, and an
    id absent from the labels stays a softmax class; so every id must lie
    below the number of feature rows, or ValueError before anything is
    allocated.  The features, the labels and the split are checked once,
    before training (``config`` checks itself when it is made); each epoch's
    gradient is then ``cross_entropy_batch``'s bit for bit."""
    x = as_matrix(features, "features")
    y = class_ids(labels, x.shape[0])
    top = int(y.max())
    if top >= x.shape[0]:
        raise ValueError(f"label id {top} is not below the number of feature rows "
                         f"({x.shape[0]}); relabel the classes 0, 1, 2, ...")
    classes = np.unique(y)
    tr, te = stratified_split(y, split_frac, config.seed)
    w, b = _fit_probe(x[tr], y[tr], int(classes.max()) + 1, config.epochs, config.lr)
    pred = np.argmax(x[te] @ w.T + b, axis=1)
    correct = pred == y[te]
    per_class = tuple(float(correct[y[te] == c].mean()) for c in classes)
    return ProbeResult(top1=float(correct.mean()), per_class=per_class,
                       split_seed=config.seed)


def _fit_probe(xt: np.ndarray, yt: np.ndarray, n_cls: int, epochs: int,
               lr: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights (n_cls, D) and bias (n_cls,) of ``epochs`` full-batch gradient
    steps from zero on the finite features ``xt`` (n, D) and their labels
    ``yt``, integers in [0, n_cls).  The logits and the gradient live in two
    buffers made once.  An overflow, or non-finite logits, raise
    ``DegenerateInputError`` naming the features' largest magnitude, at the
    epoch that makes them: the fixed step is not scale invariant, so
    features far from unit scale can diverge."""
    w = np.zeros((n_cls, xt.shape[1]))
    b = np.zeros(n_cls)
    z = np.empty((xt.shape[0], n_cls))
    g = np.empty_like(z)
    onehot = one_hot(yt, n_cls)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(epochs):
                np.matmul(xt, w.T, out=z)
                z += b
                if not np.isfinite(z).all():
                    raise FloatingPointError
                cross_entropy_grad(z, onehot, g)
                w -= lr * (g.T @ xt)
                b -= lr * g.sum(axis=0)
    except FloatingPointError:
        raise DegenerateInputError(
            "logits contains a non-finite entry (features of largest magnitude "
            f"{np.abs(xt).max():.3g})") from None
    return w, b


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """A C-ordered copy of the finite matrix ``x`` times the power of two that
    puts its largest magnitude in [0.5, 1), so that no square, norm or inner
    product of its rows can overflow.  The product is exact for every entry
    it keeps out of the subnormal range, so a metric that uniform scaling
    leaves unchanged gives the same bits on it as on any ``x`` whose own
    arithmetic neither overflows nor underflows."""
    return np.ldexp(x, -np.frexp(max(x.max(), -x.min()))[1], order="C")


def knn_top1(features: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Leave-one-out k-nearest-neighbor accuracy under cosine similarity.
    Labels are ``numerics.class_ids``; vote ties resolve to the smallest.
    Rows go through ``_pow2_scaled``, then ``numerics.unit_rows``, which
    rejects a row of norm <= ``EPS_NORM`` there, as training does.  Ties at
    the k-th neighbour are broken on the similarities as BLAS rounds them in
    each row block, so another block layout may pick another tied
    neighbour; same-seed reruns stay byte-identical.

    The similarities come ``_KNN_ROWS`` rows at a time, one BLAS product per
    block into a buffer made once.  Each row's neighbours are the first k of
    a stable descending sort of its row: every entry above its k-th largest,
    then the lowest-index ties (``_first_k``).  While k is small against N
    they are picked from a table of a few entries per row, not from the
    whole row (``_strip_neighbours``):

    - *bound*: the columns are cut into ``_KNN_STRIPS`` strips; column j of
      every strip makes group j.  The k-th largest group maximum is at most
      the row's k-th largest similarity, since k distinct entries reach it;
    - *table*: the groups whose maximum reaches the bound (k of them, more
      on ties), strip by strip, then the ragged last columns that no strip
      covers: every neighbour is there, in column order;
    - *votes*: counted with ``np.bincount`` over the k columns per row
      (``_votes``).

    A block falls back to its full rows, ``_KNN_SELECT_ROWS`` at a time, when
    the table would be wider than a strip: k above about N / 64, or heavy
    ties (collapsed features, where every similarity ties, are the worst
    case).  The same rule then picks the neighbours as a mask on the rows,
    and ``_mask_votes`` counts them class by class, without listing their
    columns: the votes are exact integer counts on either path.  Nothing but
    the block products rounds, so the neighbours, ties included, and the
    value keep their bits for a given ``_KNN_ROWS``.  Labels are compacted to
    the present classes first, so sparse ids cost nothing."""
    x = as_matrix(features, "features")
    m = x.shape[0]
    # compact ids: votes land only on present classes, in the same order
    classes, y = np.unique(class_ids(labels, m), return_inverse=True)
    n_cls = classes.size
    # the columns class by class, and where each class begins among them
    by_class = np.argsort(y, kind="stable")
    starts = np.searchsorted(y[by_class], np.arange(n_cls))
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < {m}, got {k}")
    u = unit_rows(_pow2_scaled(x), "feature row")[0]
    buf = np.empty((min(_KNN_ROWS, m), m))
    correct = 0
    for r0 in range(0, m, _KNN_ROWS):
        rb = min(_KNN_ROWS, m - r0)
        sims = buf[:rb]
        np.matmul(u[r0:r0 + rb], u.T, out=sims)
        sims[np.arange(rb), np.arange(r0, r0 + rb)] = -np.inf
        cols = _strip_neighbours(sims, k)
        if cols is not None:
            votes = _votes(cols, y, k, n_cls)
        else:  # large k or heavy ties: the full rows, a few at a time
            votes = np.concatenate([
                _mask_votes(_first_k(sims[i:i + _KNN_SELECT_ROWS], k), by_class, starts)
                for i in range(0, rb, _KNN_SELECT_ROWS)])
        # argmax breaks vote ties low
        correct += int(np.count_nonzero(votes.argmax(axis=1) == y[r0:r0 + rb]))
    return correct / m


def _votes(cols: np.ndarray, y: np.ndarray, k: int, n_cls: int) -> np.ndarray:
    """(rows, n_cls) counts of the classes ``y`` of ``cols``, the k
    neighbour columns of each row in row order."""
    rows = len(cols) // k
    return np.bincount(np.repeat(np.arange(rows) * n_cls, k) + y[cols],
                       minlength=rows * n_cls).reshape(rows, n_cls)


def _mask_votes(keep: np.ndarray, by_class: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(rows, n_cls) counts of the True columns of each row of the mask
    ``keep`` per class: its columns taken class by class (``by_class``),
    one (rows,) byte row per column, and each class's run added up from its
    start (``starts``, strictly increasing: every class is present)."""
    per_column = np.take(keep.T, by_class, axis=0).view(np.uint8)
    return np.add.reduceat(per_column, starts, axis=0, dtype=np.intp).T


def _strip_neighbours(sims: np.ndarray, k: int) -> np.ndarray | None:
    """The columns of the first k entries of each row of ``sims`` in a stable
    descending sort, k per row in row order, picked from the candidate table
    that ``knn_top1`` describes; None when that table would be wider than a
    strip."""
    rows, m = sims.shape
    width = m // _KNN_STRIPS
    tail = m - _KNN_STRIPS * width
    if _KNN_STRIPS * k + tail > width:
        return None
    peaks = sims[:, :_KNN_STRIPS * width].reshape(rows, _KNN_STRIPS, width).max(axis=1)
    strong = peaks >= np.partition(peaks, width - k, axis=1)[:, [width - k]]
    counts = np.count_nonzero(strong, axis=1)
    g = counts.max()
    if _KNN_STRIPS * g + tail > width:
        return None
    # each row's strong groups packed to the left, padded with -m: a pad's
    # columns are negative, valid indices that the table sets to -inf
    r, j = np.divmod(np.flatnonzero(strong), width)
    groups = np.full((rows, g), -m)
    groups[r, np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts)] = j
    cols = np.concatenate([
        (groups[:, None, :] + width * np.arange(_KNN_STRIPS)[:, None]).reshape(rows, -1),
        np.broadcast_to(np.arange(m - tail, m), (rows, tail))], axis=1)
    table = np.take_along_axis(sims, cols, axis=1)
    table[cols < 0] = -np.inf
    return cols.reshape(-1)[np.flatnonzero(_first_k(table, k))]


def _first_k(table: np.ndarray, k: int) -> np.ndarray:
    """The mask of the first k entries of each row of ``table`` in a stable
    descending sort: every entry above the row's k-th largest, then the
    lowest-index entries equal to it.  Only a row with more than k entries
    at or above its k-th has ties to drop."""
    c = table.shape[1]
    kth = np.partition(table, c - k, axis=1)[:, [c - k]]
    keep = table >= kth
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if tied.size:
        t, v = table[tied], kth[tied]
        above = t > v
        ties = t == v
        room = k - np.count_nonzero(above, axis=1)[:, None]
        keep[tied] = above | (ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= room))
    return keep


def class_overlap(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean intra-class pairwise distance over mean inter-class pairwise
    distance.  Invariant to rotating or uniformly scaling the features: they
    are first scaled by a power of two (``_pow2_scaled``), so no finite input
    overflows.

    Squared distances take the Gram form ``|a|² + |b|² − 2·a·b``, one BLAS
    product per block of ``_OVERLAP_ROWS`` rows.  A pair whose Gram value is
    at most ``2**-10 · (|a|² + |b|²)`` has lost about 10 bits or more to
    cancellation, so it is recomputed from the coordinates, its squared
    differences added in coordinate order: identical rows are exactly 0
    apart.  The intra and inter sums grow block by block, each block adding
    numpy's ``.sum()`` of the square roots of its masked upper-triangle
    entries in row-major order; the value is ``(intra / n_intra) / (inter /
    n_inter)``.  It is within 1e-13 relative of the same sums over distances
    taken wholly in coordinate order.  The same inputs in the same order give
    the same bits in any memory layout and on every rerun; another
    ``_OVERLAP_ROWS`` may change the last bits."""
    x = _pow2_scaled(as_matrix(features, "features"))
    y = class_ids(labels, x.shape[0])
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 points")
    n = x.shape[0]
    n_intra = int((counts * (counts - 1) // 2).sum())
    sq = np.square(x).sum(axis=1)
    xt = np.ascontiguousarray(x.T)
    # block column c is matrix column r0 + 1 + c, upper for row a if c >= a,
    # so only a block's first r1 - r0 columns hold lower entries
    lead = ~np.tri(_OVERLAP_ROWS, dtype=bool, k=-1)
    # rows r0:r1 against columns r0 + 1:, in C-ordered views of two buffers
    # made once: fresh blocks fault pages in anew
    bufs = np.empty((2, min(_OVERLAP_ROWS, n) * (n - 1)))
    intra = inter = 0.0
    for r0 in range(0, n - 1, _OVERLAP_ROWS):  # the last row has no upper entries
        r1 = min(r0 + _OVERLAP_ROWS, n)
        cols = n - r0 - 1
        dist, bound = bufs[:, :(r1 - r0) * cols].reshape(2, r1 - r0, cols)
        np.matmul(-2.0 * x[r0:r1], x[r0 + 1:].T, out=dist)  # the -2 is exact
        np.add(sq[r0:r1, None], sq[None, r0 + 1:], out=bound)
        dist += bound
        bound *= 2.0 ** -10  # the cancellation guard's threshold
        # the near pairs include each row's own (lower) entry, so that after
        # their recomputation no entry is negative
        pairs = np.flatnonzero(dist <= bound)
        a, c = np.divmod(pairs, cols)
        dist.reshape(-1)[pairs] = np.square(xt[:, r0 + a] - xt[:, r0 + 1 + c]).sum(axis=0)
        np.sqrt(dist, out=dist)
        upper = lead[:r1 - r0, :cols]
        same = y[r0:r1, None] == y[None, r0 + 1:]
        other = ~same
        same[:, :upper.shape[1]] &= upper
        other[:, :upper.shape[1]] &= upper
        intra += dist[same].sum()
        inter += dist[other].sum()
    if inter == 0:
        raise DegenerateInputError("all points identical; overlap undefined")
    return float((intra / n_intra) / (inter / (n * (n - 1) // 2 - n_intra)))


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


def write_projection_csv(path, video_ids, labels, coords, seed: int = 0) -> None:
    """The 2-d projection as CSV rows ``video_id,label,x,y`` (``binio.write_csv``)."""
    ids = np.asarray(video_ids, dtype=np.uint64).tolist()  # an int64 cast wraps ids >= 2**63
    labs = np.asarray(labels).astype(np.int64).tolist()
    pts = np.asarray(coords, dtype=np.float64).tolist()
    write_csv(path, [("video_id", "label", "x", "y"),
                     *([vid, lab, *pt] for vid, lab, pt in zip(ids, labs, pts))],
              comment=f"seed={seed}; full run configuration in config.json")
