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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import as_matrix, as_vector, softmax, unit_rows


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
    ranks = 1 + (ns > s[..., None]).sum(axis=-1)     # 1 = beat every negative
    scores = (ns.shape[-1] + 2 - ranks).astype(np.float64)   # in [1, K + 1]
    return scores / scores.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class ContrastiveOutcome:
    """Result of ``contrastive_batch``; row b of every field belongs to anchor b."""

    loss: np.ndarray                      # (B,)
    grad_anchor: np.ndarray               # (B, d)
    weights: np.ndarray                   # (B, N), each row sums to one
    pos_sims: np.ndarray                  # (B, N), anchor . positive per teacher
    teacher_losses: np.ndarray | None     # (B, N) per-teacher losses; None for feature fusion
    probs: np.ndarray                     # per scored positive, softmax over (it, its queue):
                                          # (B, N, 1 + K) loss fusion,
                                          # (B, 1, 1 + N*K) feature fusion


def contrastive_batch(anchors: np.ndarray, positives: np.ndarray, negatives: np.ndarray,
                      tau: float, scheme: WeightScheme,
                      fusion: FusionLevel = FusionLevel.LOSS,
                      accuracies=None) -> ContrastiveOutcome:
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
    (constants, or piecewise constant ranks).
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    a = np.asarray(anchors, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    neg = np.asarray(negatives, dtype=np.float64)
    if neg.ndim != 3:
        raise ValueError(f"negatives must be (N, K, d), got shape {neg.shape}")
    n_teachers, k, dim = neg.shape
    if a.ndim != 2 or a.shape[1] != dim or pos.shape != (n_teachers, len(a), dim):
        raise ValueError("positives, negatives and anchors disagree on shape")
    # The einsums round according to the positives' strides; one fixed
    # C-ordered layout (the trainer's, so no copy there) makes every output
    # depend on the values alone.
    pos = np.ascontiguousarray(pos)
    b = len(a)

    pos_sims = np.einsum("nbd,bd->bn", pos, a)
    neg_sims = (a @ neg.reshape(-1, dim).T).reshape(b, n_teachers, k)
    weights = np.broadcast_to(
        teacher_weights(scheme, n_teachers, accuracies=accuracies,
                        pos_sims=pos_sims, neg_sims=neg_sims), (b, n_teachers))

    # Score each anchor against M positives, each with its own queue, and mix
    # the M losses: the N teachers under loss fusion, one fused positive
    # against the pooled queues under feature fusion.
    if fusion is FusionLevel.LOSS:
        scored, queue, mix = pos, neg, weights
        scored_sims, queue_sims = pos_sims, neg_sims
    else:
        g_fused, ny = unit_rows(np.einsum("bn,nbd->bd", weights, pos), "weighted positive")
        scored, queue, mix = g_fused[None], neg.reshape(1, -1, dim), np.ones((b, 1))
        scored_sims, queue_sims = (g_fused * a).sum(axis=1)[:, None], neg_sims.reshape(b, 1, -1)

    logits = np.concatenate((scored_sims[..., None], queue_sims), axis=-1) / tau
    m = logits.max(axis=-1, keepdims=True)
    # sorted reduction: the loss is bit-identical under any negative ordering
    lse = m + np.log(np.sort(np.exp(logits - m), axis=-1).sum(axis=-1, keepdims=True))
    probs = np.exp(logits - lse)
    losses = lse[..., 0] - logits[..., 0]
    loss = (mix * losses).sum(axis=1)
    coef = mix[..., None] * probs / tau
    grad = (np.einsum("bm,mbd->bd", coef[..., 0] - mix / tau, scored)
            + coef[..., 1:].reshape(b, -1) @ queue.reshape(-1, dim))
    if scheme is WeightScheme.ONLINE1:
        # d w_i / da = w_i (pos_i - sum_m w_m pos_m); contracting with
        # c_i = dL/dw_i gives sum_i w_i (c_i - sum_m w_m c_m) pos_i
        if fusion is FusionLevel.LOSS:
            c = losses
        else:
            d_gf = (probs[:, 0, :1] - 1.0) * a / tau                          # dL/d g_fused
            v = (d_gf - (d_gf * g_fused).sum(axis=1, keepdims=True) * g_fused) / ny  # dL/dy
            c = np.einsum("nbd,bd->bn", pos, v)
        c = c - (weights * c).sum(axis=1, keepdims=True)
        grad = grad + np.einsum("bn,nbd->bd", weights * c, pos)
    teacher_losses = losses if fusion is FusionLevel.LOSS else None
    return ContrastiveOutcome(loss, grad, weights, pos_sims, teacher_losses, probs)


def joint_loss(contrastive: float, ce: float, alpha: float, beta: float) -> float:
    """alpha-weighted contrastive plus beta-weighted cross-entropy."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    return alpha * contrastive + beta * ce


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and the gradient of that mean."""
    z = as_matrix(logits, "logits")
    y = np.asarray(labels)
    if y.shape != (z.shape[0],):
        raise ValueError("labels must be one integer per row of logits")
    if np.any((y < 0) | (y >= z.shape[1])):
        raise ValueError("label out of range")
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    loss = float((lse[:, 0] - z[rows, y]).mean())
    grad = np.exp(z - lse)
    grad[rows, y] -= 1.0
    return loss, grad / z.shape[0]
