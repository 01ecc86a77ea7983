"""Contrastive and supervised losses.

The contrastive objective scores each anchor of a batch against a positive
guidance feature and K queued negatives with a temperature-scaled softmax
and penalizes the negative log-probability of the positive.  Its gradient
with respect to the anchor splits into an attraction term on the positive
(coefficient p0 - 1 < 0) and repulsion terms on every negative
(coefficients p_i > 0).

With several teachers, per-teacher objectives are combined under a weight
scheme.  Two of the schemes (``online1``, ``online2``) depend on the anchor
itself; ``online1`` is differentiable in the anchor, so its fused gradient
carries an extra softmax term, while ``online2`` uses ranks and is
piecewise constant.

``contrastive_batch`` writes one (B, M, 1 + Q) array of logits, one row
per anchor and scored positive, into the caller's workspace ``work``.  The
anchors are scaled by 1/tau once, so one stacked product writes all N
queues' logits, already divided by the temperature, straight into its queue
columns.  With m the row max, the array is then turned into exp(logits - m)
in place and ``total`` is its row sum; the loss is m + log(total) -
logits[..., 0], and 1/total goes into the gradient's per-row coefficients,
whose queue terms are one stacked product too.  The probabilities are never
formed.  The same inputs in the same order give the same bits in any memory
layout.

The outcome's ``shifted_exp`` is ``work`` itself, and the next call that
takes the same workspace overwrites it; ``loss``, ``grad_anchor``,
``weights``, ``pos_sims``, ``teacher_losses`` and ``total`` are always new
arrays.  Under loss fusion the negatives are read where they lie, not
copied, when each teacher's (K, d) block is C-ordered float64, as a window
on a FIFO queue of rows is; any other layout is copied first.  Either way
the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import as_matrix, as_vector, class_ids, one_hot, softmax, unit_rows


class WeightScheme(Enum):
    UNIFORM = "uniform"
    OFFLINE = "offline"    # fixed weights from supplied teacher accuracies
    ONLINE1 = "online1"    # softmax over per-teacher positive similarities
    ONLINE2 = "online2"    # rank of the positive among that teacher's negatives


class FusionLevel(Enum):
    LOSS = "loss"          # weighted sum of per-teacher losses
    FEATURE = "feature"    # single loss against the weighted, renormalized positive


def teacher_weights(scheme: WeightScheme, num_teachers: int, *,
                    accuracies=None, pos_sims=None, neg_sims=None) -> np.ndarray:
    """Nonnegative per-teacher weights summing to one along the last axis.

    uniform   1/N each.
    offline   supplied accuracies, renormalized.
    online1   softmax (unit temperature) over the anchor's similarity to each
              teacher's positive.
    online2   positive ranked against that teacher's negatives, ties favoring
              the positive; rank r maps to score K + 2 - r.

    ``pos_sims`` is (..., N) and ``neg_sims`` (..., N, K) for any leading batch
    shape; the online schemes return weights of ``pos_sims``' shape, the fixed
    schemes one (N,) vector.
    """
    if num_teachers < 1:
        raise ValueError("need at least one teacher")
    n = num_teachers
    if scheme is WeightScheme.UNIFORM:
        return np.full(n, 1.0 / n)
    if scheme is WeightScheme.OFFLINE:
        if accuracies is None:
            raise ValueError("offline weighting needs per-teacher accuracies")
        acc = as_vector(np.asarray(accuracies, dtype=np.float64), "accuracies")
        if acc.shape[0] != n:
            raise ValueError(f"expected {n} accuracies, got {acc.shape[0]}")
        if np.any(acc < 0):
            raise ValueError("accuracies must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowed sum is rejected below
            total = acc.sum()
        if not 0 < total < np.inf:
            raise ValueError(f"accuracies must sum to a finite number > 0, got {total}")
        return acc / total
    if pos_sims is None:
        raise ValueError(f"{scheme.value} weighting needs positive similarities")
    s = np.asarray(pos_sims, dtype=np.float64)
    if s.ndim == 0 or s.shape[-1] != n:
        raise ValueError(f"expected {n} positive similarities, got shape {s.shape}")
    if scheme is WeightScheme.ONLINE1:
        return softmax(s)
    # online2
    if neg_sims is None:
        raise ValueError("online2 weighting needs negative similarities")
    ns = np.asarray(neg_sims, dtype=np.float64)
    if ns.shape[:-1] != s.shape or ns.shape[-1] == 0:
        raise ValueError(f"expected neg_sims of shape {s.shape} + (K,), got {ns.shape}")
    if not (np.isfinite(s).all() and np.isfinite(ns).all()):
        raise ValueError("similarities contain a non-finite entry")
    # rank 1 + (negatives beating the positive, counted in the smallest
    # unsigned type that holds K) scores K + 2 - rank, in [1, K + 1]
    k = ns.shape[-1]
    beaten = np.add.reduce((ns > s[..., None]).view(np.uint8), -1, np.min_scalar_type(k))
    scores = np.subtract(k + 1, beaten, dtype=np.float64)
    return scores / scores.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class ContrastiveOutcome:
    """Result of ``contrastive_batch``; row b of every field belongs to anchor b.
    Each scored positive's softmax over (it, its queue) is
    ``shifted_exp / total``."""

    loss: np.ndarray                      # (B,)
    grad_anchor: np.ndarray               # (B, d)
    weights: np.ndarray                   # (B, N), each row sums to one
    pos_sims: np.ndarray                  # (B, N), anchor . positive per teacher
    teacher_losses: np.ndarray | None     # (B, N) per-teacher losses; None for feature fusion
    shifted_exp: np.ndarray               # exp(logits - m) per scored positive, column 0
                                          # the positive, then its queue:
                                          # (B, N, 1 + K) loss fusion,
                                          # (B, 1, 1 + N*K) feature fusion;
                                          # the caller's ``work``
    total: np.ndarray                     # the row sums of shifted_exp, last axis kept


def contrastive_batch(anchors: np.ndarray, positives: np.ndarray, negatives: np.ndarray,
                      tau: float, scheme: WeightScheme,
                      fusion: FusionLevel = FusionLevel.LOSS,
                      accuracies=None, *, work: np.ndarray) -> ContrastiveOutcome:
    """Multi-teacher contrastive loss of every anchor in a batch and the exact
    gradient of each anchor's loss with respect to that anchor.

    ``anchors`` is (B, d); ``positives`` is (N, B, d), one guidance feature per
    teacher and anchor, teacher-major like the queue; ``negatives`` is
    (N, K, d), one queue snapshot per teacher shared by the batch.  Every
    output is batch-major.  Loss fusion takes the weighted sum of per-teacher
    losses.  Feature fusion renormalizes the weighted positive and scores it
    against all N*K negatives pooled.

    For ``online1`` the weights are a softmax in the anchor, so the gradient
    includes the corresponding chain term; the other schemes contribute none
    (constants, or piecewise constant ranks).  ``online2``'s ranks compare
    kernel-rounded logits: column 0 comes from an einsum and the queue
    columns from BLAS, so a queue row equal to the positive need not tie
    with it, and may outrank it by a last bit.

    The same inputs in the same order give the same bits in any memory
    layout.  Reordering the negatives may change the last bit of the loss.

    ``work`` is the workspace for the (B, M, 1 + Q) logits (M, Q = N, K
    under loss fusion; 1, N*K under feature fusion; ``logits_shape``): a
    C-ordered, writeable float64 array of exactly that shape that overlaps
    no input.  The logits are written there, and the outcome's
    ``shifted_exp`` is ``work`` itself, valid until the next call that
    writes it; the other fields are new arrays.  A ``work`` of another
    shape, dtype or order raises ValueError before anything is written.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {tau}")
    inv_tau = 1.0 / float(tau)
    if inv_tau == np.inf:
        raise ValueError(f"temperature must have a finite reciprocal, got {tau}")
    loss_fusion = fusion is FusionLevel.LOSS
    # C-ordered operands: the einsums and matmuls round by their strides.
    # The negatives' matmuls take one teacher's (K, d) block at a time, so
    # under loss fusion C-ordered blocks are enough
    a = np.ascontiguousarray(anchors, dtype=np.float64)
    pos = np.ascontiguousarray(positives, dtype=np.float64)
    neg = negatives
    if not (loss_fusion and _c_ordered_blocks(neg)):
        neg = np.ascontiguousarray(neg, dtype=np.float64)
    if neg.ndim != 3:
        raise ValueError(f"negatives must be (N, K, d), got shape {neg.shape}")
    n_teachers, k, dim = neg.shape
    if a.ndim != 2 or a.shape[1] != dim or pos.shape != (n_teachers, len(a), dim):
        raise ValueError("positives, negatives and anchors disagree on shape")
    b = len(a)
    shape = logits_shape(b, n_teachers, k, fusion)
    if (not isinstance(work, np.ndarray) or work.shape != shape or work.dtype != np.float64
            or not (work.flags.c_contiguous and work.flags.writeable)):
        raise ValueError(f"work must be a writeable C-ordered float64 array of shape {shape}, "
                         f"got {_describe(work)}")
    logits = work

    # Score each anchor against M positives, each with its own queue of Q
    # rows, and mix the M losses: the N teachers (Q = K) under loss fusion,
    # one fused positive against the pooled queues (Q = N*K) under feature
    # fusion.  Column 0 of each logit row is the scored positive; one stacked
    # product writes each teacher's similarities, scaled through the anchors,
    # straight into their columns, by the BLAS call its queue alone would take.
    queue = neg if loss_fusion else neg.reshape(1, -1, dim)   # (M, Q, d)
    a_tau = a * inv_tau
    neg_logits = logits[..., 1:].reshape(b, n_teachers, k)   # a view in both layouts
    np.matmul(a_tau, neg.transpose(0, 2, 1), out=neg_logits.transpose(1, 0, 2))
    pos_sims = np.einsum("nbd,bd->bn", pos, a)
    # online1 weighs the unscaled similarities; online2 ranks the scaled
    # logits, each positive against its own queue's columns
    online2 = scheme is WeightScheme.ONLINE2
    pos_logits = np.einsum("nbd,bd->bn", pos, a_tau) if loss_fusion or online2 else None
    weights = teacher_weights(scheme, n_teachers, accuracies=accuracies,
                              pos_sims=pos_logits if online2 else pos_sims, neg_sims=neg_logits)
    if weights.ndim == 1:   # a fixed scheme's one (N,) vector; the online ones are (B, N)
        weights = np.broadcast_to(weights, (b, n_teachers))
    if loss_fusion:
        scored, mix = pos, weights
        logits[..., 0] = pos_logits
    else:
        g_fused, ny = unit_rows(np.einsum("bn,nbd->bd", weights, pos), "weighted positive")
        scored, mix = g_fused[None], np.ones((b, 1))
        logits[:, 0, 0] = (g_fused * a_tau).sum(axis=1)

    # the max shift keeps every exp in range; column 0 is kept for the
    # loss before the exp overwrites it
    l0 = logits[..., 0].copy()
    m = logits.max(axis=-1, keepdims=True)
    shifted_exp = np.exp(np.subtract(logits, m, out=logits), out=logits)
    total = shifted_exp.sum(axis=-1, keepdims=True)
    losses = (m + np.log(total))[..., 0] - l0
    loss = (mix * losses).sum(axis=1)
    p0 = shifted_exp[..., 0] / total[..., 0]
    mix_tau = mix * inv_tau
    grad = np.einsum("bm,mbd->bd", mix_tau * (p0 - 1.0), scored)
    # the queue terms: one stacked product and multiply, then added one at a
    # time in scored order, which fixes how the sum rounds
    terms = np.matmul(shifted_exp[..., 1:].transpose(1, 0, 2), queue)
    terms *= (mix_tau / total[..., 0]).T[..., None]
    for term in terms:
        grad += term
    if scheme is WeightScheme.ONLINE1:
        # d w_i / da = w_i (pos_i - sum_m w_m pos_m); contracting with
        # c_i = dL/dw_i gives sum_i w_i (c_i - sum_m w_m c_m) pos_i
        if loss_fusion:
            c = losses
        else:
            d_gf = (p0 - 1.0) * a_tau                                                # dL/d g_fused
            v = (d_gf - (d_gf * g_fused).sum(axis=1, keepdims=True) * g_fused) / ny  # dL/dy
            c = np.einsum("nbd,bd->bn", pos, v)
        c = c - (weights * c).sum(axis=1, keepdims=True)
        grad = grad + np.einsum("bn,nbd->bd", weights * c, pos)
    teacher_losses = losses if loss_fusion else None
    return ContrastiveOutcome(loss, grad, weights, pos_sims, teacher_losses, shifted_exp, total)


def logits_shape(b: int, n_teachers: int, k: int, fusion: FusionLevel) -> tuple[int, int, int]:
    """The (B, M, 1 + Q) shape of ``contrastive_batch``'s logits for B
    anchors, N teachers and K negatives per teacher: M, Q = N, K under loss
    fusion and 1, N*K under feature fusion."""
    if fusion is FusionLevel.LOSS:
        return b, n_teachers, 1 + k
    return b, 1, 1 + n_teachers * k


def _c_ordered_blocks(x) -> bool:
    """Whether ``x`` is an (N, K, d) float64 array whose (K, d) blocks are
    each C-ordered, whatever the stride between blocks."""
    return (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 3
            and x.flags.aligned and x.strides[1:] == (x.shape[2] * x.itemsize, x.itemsize))


def _describe(x) -> str:
    """What a rejected workspace is, for its error message."""
    if not isinstance(x, np.ndarray):
        return type(x).__name__
    order = "C-ordered" if x.flags.c_contiguous else "not C-ordered"
    writeable = "" if x.flags.writeable else "read-only "
    return f"a {writeable}{order} {x.dtype} array of shape {x.shape}"


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and the gradient of that mean; the
    labels are ``numerics.class_ids``, each below the number of classes.
    The (n, C) logits, one-hot and gradient go to ``cross_entropy_grad``
    as their class-major (C, n) transposes, views on which numpy still adds
    each row's classes in the order of a row sum."""
    z = as_matrix(logits, "logits")
    y = class_ids(labels, z.shape[0])
    if np.any(y >= z.shape[1]):
        raise ValueError(f"label {y.max()} out of range for {z.shape[1]} classes")
    grad = np.empty_like(z)  # z's memory layout, which orders the row sums
    lse = cross_entropy_grad(z.T, one_hot(y, z.shape[1]).T, grad.T)
    loss = float((lse - z[np.arange(z.shape[0]), y]).mean())
    return loss, grad


def cross_entropy_grad(z: np.ndarray, onehot: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The one softmax cross-entropy kernel, class axis first: writes the
    gradient of the mean loss over the n columns of the logits ``z`` (C, n),
    ``softmax(z) - onehot`` over n with the softmax taken down each column,
    into ``out`` and returns the (n,) log-sum-exp of each column.

    ``onehot`` is the (C, n) transpose of ``numerics.one_hot`` of the
    labels.  Nothing is checked: the caller vouches for a finite ``z``, a
    valid ``onehot`` and an ``out`` of ``z``'s shape that is not ``z``.
    Every reduction runs over axis 0, so the order of each column's sum is
    numpy's for the layout the caller gives: a C-ordered (C, n) array adds
    the classes row by row, along the long axis, and the transpose of a
    C-ordered (n, C) array adds them as that array's row sum would.
    Subtracting the one-hot adds 0.0 to every unlabelled entry, which
    leaves it unchanged, so the result is bit for bit ``exp(z - lse)`` with
    1.0 taken off at each label, then divided by n."""
    # the max shift keeps every exp in range.  A max is exact in any order
    # and layout (only a zero's sign may differ, which exp(z - m) and
    # m + log(sum), a sum >= 1, both drop)
    m = z.max(axis=0)
    np.exp(np.subtract(z, m, out=out), out=out)
    lse = m + np.log(out.sum(axis=0))
    np.exp(np.subtract(z, lse, out=out), out=out)
    out -= onehot
    out /= z.shape[1]
    return lse
