import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg import numerics
from dtg.losses import (ContrastiveOutcome, FusionLevel, WeightScheme,
                        contrastive_batch, cross_entropy_batch, teacher_weights)
from dtg.numerics import finite_diff_check

from conftest import platform_note, unit_rows

# scalar oracles, high-precision evaluation of the closed forms
LOSS_TAU1 = 0.3132616875182228          # ln(1 + e^-1)
LOSS_TAU007 = 1.3637236044903298e-05    # s+=0.9, negs {0.1, -0.2, 0.0}, tau=0.07
CE_LOGITS20 = 0.12692801104297250       # ln(1 + e^-2)
ONLINE1_08_02 = (0.6456563062257955, 0.3543436937742045)
OFFLINE_RENORM = (0.06653406196406565, 2.9791371028686113e-06,
                  0.5064533074876639, 0.4270096514111676)


UNIFORM = WeightScheme.UNIFORM


def _instance(rng, d, k):
    """One anchor (1, d), its one teacher's positive (1, 1, d) and that
    teacher's queue (1, K, d)."""
    a = unit_rows(rng, 1, d)
    pos = unit_rows(rng, 1, d)[None]
    negs = unit_rows(rng, k, d)[None]
    return a, pos, negs


def _batch_instance(rng, b, n, k, d):
    """(B, d) anchors, (N, B, d) positives and (N, K, d) queues."""
    return (unit_rows(rng, b, d), unit_rows(rng, n * b, d).reshape(n, b, d),
            unit_rows(rng, n * k, d).reshape(n, k, d))


def test_info_nce_uniform_logits_is_log_k_plus_1():
    d = 4
    v = np.ones((1, d)) / np.sqrt(d)
    negs = np.tile(v, (1, 3, 1))
    r = contrastive_batch(v, v[None], negs, 0.5, UNIFORM)
    assert abs(r.loss[0] - math.log(4)) < 1e-12


def test_info_nce_scalar_oracle_tau1():
    # engineered similarities: a.pos = 1, a.neg = 0
    a = np.array([[1.0, 0.0]])
    pos = np.array([[[1.0, 0.0]]])
    negs = np.array([[[0.0, 1.0]]])
    r = contrastive_batch(a, pos, negs, 1.0, UNIFORM)
    assert abs(r.loss[0] - LOSS_TAU1) < 1e-9


def test_info_nce_scalar_oracle_tau007():
    # 3-d construction hitting the exact similarity triple
    a = np.array([[1.0, 0.0, 0.0]])
    pos = np.array([[[0.9, math.sqrt(1 - 0.81), 0.0]]])
    negs = np.array([[
        [0.1, 0.0, math.sqrt(1 - 0.01)],
        [-0.2, 0.0, math.sqrt(1 - 0.04)],
        [0.0, 0.0, 1.0],
    ]])
    r = contrastive_batch(a, pos, negs, 0.07, UNIFORM)
    assert abs(r.loss[0] - LOSS_TAU007) < 1e-9


def test_info_nce_rejects_bad_tau():
    a, pos, negs = _instance(np.random.default_rng(0), 4, 2)
    with pytest.raises(ValueError):
        contrastive_batch(a, pos, negs, 0.0, UNIFORM)
    with pytest.raises(ValueError):
        contrastive_batch(a, pos, negs, -1.0, UNIFORM)
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            contrastive_batch(a, pos, negs, tau, UNIFORM)
    # positive and finite, but subnormal: 1/tau overflows
    with pytest.raises(ValueError, match="temperature must have a finite reciprocal"):
        contrastive_batch(a, pos, negs, 1e-310, UNIFORM)


def _assert_close_to_rounding(out, base, what):
    assert np.allclose(out.loss, base.loss, rtol=1e-12, atol=0), what
    assert np.allclose(out.grad_anchor, base.grad_anchor, rtol=1e-12, atol=0), what


def test_info_nce_shuffled_negatives_agree_to_rounding():
    # the same inputs give the same bits; a reordered queue only rounds differently
    rng = np.random.default_rng(1)
    a, pos, negs = _instance(rng, 6, 8)
    base = contrastive_batch(a, pos, negs, 0.07, UNIFORM)
    again = contrastive_batch(a, pos, negs, 0.07, UNIFORM)
    for name, value in vars(base).items():
        assert np.array_equal(value, getattr(again, name)), name
    for _ in range(20):
        perm = rng.permutation(8)
        _assert_close_to_rounding(contrastive_batch(a, pos, negs[:, perm], 0.07, UNIFORM),
                                  base, perm)
    # the batched loss under every scheme and fusion level, each teacher's
    # queue shuffled independently
    anchors, positives, queues = _batch_instance(rng, 5, 3, 8, 6)
    for scheme in WeightScheme:
        for fusion in FusionLevel:
            def batch_outcome(q):
                return contrastive_batch(anchors, positives, q, 0.07, scheme, fusion,
                                         accuracies=(0.5, 0.3, 0.2))
            base = batch_outcome(queues)
            for _ in range(20):
                shuffled = np.stack([q[rng.permutation(8)] for q in queues])
                _assert_close_to_rounding(batch_outcome(shuffled), base, (scheme, fusion))


def test_info_nce_monotone_in_positive_similarity():
    negs = np.array([[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    prev = np.inf
    for s in np.linspace(-0.9, 0.9, 19):
        a = np.array([[1.0, 0.0, 0.0]])
        pos = np.array([[[s, math.sqrt(1 - s * s), 0.0]]])
        loss = contrastive_batch(a, pos, negs, 0.1, UNIFORM).loss[0]
        assert loss < prev
        prev = loss


def test_info_nce_gradient_finite_diff():
    rng = np.random.default_rng(2)
    for d, k in ((4, 1), (8, 8), (32, 64)):
        a, pos, negs = _instance(rng, d, k)
        r = contrastive_batch(a, pos, negs, 0.07, UNIFORM)
        rep = finite_diff_check(
            lambda p: contrastive_batch(p["a"], pos, negs, 0.07, UNIFORM).loss[0],
            {"a": a}, {"a": r.grad_anchor})
        assert rep.max_rel_error < 1e-5


def test_two_force_decomposition():
    rng = np.random.default_rng(3)
    a, pos, negs = _instance(rng, 5, 4)
    r = contrastive_batch(a, pos, negs, 0.2, UNIFORM)
    # -grad = ((1 - p0) pos - sum p_i n_i) / tau: attraction to the positive,
    # repulsion from every negative
    probs = r.probs[0, 0]
    assert probs[0] < 1.0
    assert (probs[1:] > 0.0).all()
    recon = ((probs[0] - 1.0) * pos[0, 0] + probs[1:] @ negs[0]) / 0.2
    assert np.allclose(recon, r.grad_anchor[0], atol=1e-12)


def test_one_gradient_step_decreases_loss():
    rng = np.random.default_rng(4)
    a, pos, negs = _instance(rng, 8, 16)
    r = contrastive_batch(a, pos, negs, 0.07, UNIFORM)
    stepped = a - 1e-4 * r.grad_anchor
    assert contrastive_batch(stepped, pos, negs, 0.07, UNIFORM).loss[0] < r.loss[0]


# --- weighting schemes ---

def test_uniform_weights():
    w = teacher_weights(WeightScheme.UNIFORM, 4)
    assert np.allclose(w, 0.25)


def test_single_teacher_every_scheme():
    assert teacher_weights(WeightScheme.UNIFORM, 1) == pytest.approx([1.0])
    assert teacher_weights(WeightScheme.OFFLINE, 1, accuracies=[0.3]) == pytest.approx([1.0])
    assert teacher_weights(WeightScheme.ONLINE1, 1, pos_sims=[0.5]) == pytest.approx([1.0])
    w = teacher_weights(WeightScheme.ONLINE2, 1, pos_sims=[0.5],
                        neg_sims=[[0.1, 0.9]])
    assert w == pytest.approx([1.0])


def test_offline_renormalizes_reference_vector():
    w = teacher_weights(WeightScheme.OFFLINE, 4,
                        accuracies=(0.067, 3.0e-6, 0.51, 0.43))
    assert np.allclose(w, OFFLINE_RENORM, atol=1e-15)
    assert abs(w.sum() - 1.0) < 1e-12


def test_offline_rejects_bad_accuracies():
    with pytest.raises(ValueError):
        teacher_weights(WeightScheme.OFFLINE, 2, accuracies=(0.0, 0.0))
    with pytest.raises(ValueError):
        teacher_weights(WeightScheme.OFFLINE, 2, accuracies=(-0.1, 0.5))
    with pytest.raises(ValueError):
        teacher_weights(WeightScheme.OFFLINE, 2)
    # each accuracy is finite, but their sum overflows: rejected without a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="must sum to a finite number > 0, got inf"):
            teacher_weights(WeightScheme.OFFLINE, 2, accuracies=(1e308, 1e308))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_online1_softmax_oracle():
    w = teacher_weights(WeightScheme.ONLINE1, 2, pos_sims=(0.8, 0.2))
    assert np.allclose(w, ONLINE1_08_02, atol=1e-15)


def test_online2_rank_oracle():
    # K=4; teacher 0 beats all negatives (rank 1 -> score 5), teacher 1 loses
    # to two (rank 3 -> score 3)
    w = teacher_weights(WeightScheme.ONLINE2, 2, pos_sims=(0.9, 0.4),
                        neg_sims=[[0.1, 0.2, 0.3, 0.0], [0.5, 0.6, 0.1, 0.0]])
    assert np.allclose(w, (0.625, 0.375), atol=1e-15)


def test_online2_ties_favor_positive():
    w = teacher_weights(WeightScheme.ONLINE2, 2, pos_sims=(0.5, 0.5),
                        neg_sims=[[0.5, 0.5], [0.1, 0.1]])
    # equal similarities do not outrank the positive: both teachers rank 1
    assert np.allclose(w, (0.5, 0.5))


@pytest.mark.parametrize("k", [1, 2, 255, 256, 257, 2 ** 16, 2 ** 16 + 1])
def test_online2_counts_every_negative_at_each_count_width(k):
    # teacher 0 loses to all K negatives (score 1), teacher 1 to none
    # (score K + 1), teacher 2 to all but one (score 2): counts of K and
    # K - 1 at the edges of the 8-, 16- and 32-bit counters
    neg = np.zeros((3, k))
    neg[2, 0] = -1.0
    w = teacher_weights(WeightScheme.ONLINE2, 3, pos_sims=(-0.5, 0.5, -0.5), neg_sims=neg)
    scores = np.array([1.0, k + 1.0, 2.0])
    assert np.array_equal(w, scores / scores.sum())


def test_empty_teacher_list_rejected():
    with pytest.raises(ValueError):
        teacher_weights(WeightScheme.UNIFORM, 0)


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(0, 2 ** 32),
       st.sampled_from(list(WeightScheme)))
def test_weights_simplex_property(n, seed, scheme):
    rng = np.random.default_rng(seed)
    w = teacher_weights(scheme, n,
                        accuracies=rng.uniform(0.01, 1.0, n),
                        pos_sims=rng.uniform(-1, 1, n),
                        neg_sims=rng.uniform(-1, 1, (n, 5)))
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-12


# --- fused contrastive ---

def _fused_instance(rng, n, k, d):
    """One anchor (1, d), N teachers' positives (N, 1, d) and queues (N, K, d)."""
    a = unit_rows(rng, 1, d)
    pos = unit_rows(rng, n, d)[:, None]
    negs = np.stack([unit_rows(rng, k, d) for _ in range(n)])
    return a, pos, negs


def test_fused_single_teacher_matches_info_nce():
    rng = np.random.default_rng(5)
    a, pos, negs = _fused_instance(rng, 1, 6, 5)
    single = contrastive_batch(a, pos, negs, 0.07, UNIFORM)
    for fusion in FusionLevel:
        out = contrastive_batch(a, pos, negs, 0.07, UNIFORM, fusion)
        assert abs(out.loss[0] - single.loss[0]) < 1e-12
        assert np.allclose(out.grad_anchor, single.grad_anchor, atol=1e-12)


def test_fused_identical_teachers_collapse_to_single():
    rng = np.random.default_rng(6)
    a, pos, negs = _fused_instance(rng, 1, 6, 5)
    pos2 = np.concatenate([pos, pos])
    negs2 = np.concatenate([negs, negs])
    single = contrastive_batch(a, pos, negs, 0.07, UNIFORM).loss[0]
    out = contrastive_batch(a, pos2, negs2, 0.07, UNIFORM, FusionLevel.LOSS)
    assert abs(out.loss[0] - single) < 1e-12


def test_fused_offline_is_weighted_sum():
    rng = np.random.default_rng(7)
    a, pos, negs = _fused_instance(rng, 2, 4, 6)
    l0 = contrastive_batch(a, pos[:1], negs[:1], 0.1, UNIFORM).loss[0]
    l1 = contrastive_batch(a, pos[1:], negs[1:], 0.1, UNIFORM).loss[0]
    out = contrastive_batch(a, pos, negs, 0.1, WeightScheme.OFFLINE,
                            FusionLevel.LOSS, accuracies=(0.7, 0.3))
    assert abs(out.loss[0] - (0.7 * l0 + 0.3 * l1)) < 1e-12
    assert np.allclose(out.weights[0], (0.7, 0.3))
    assert np.allclose(out.teacher_losses[0], (l0, l1))


def test_fused_outcome_reports_pos_sims():
    rng = np.random.default_rng(8)
    a, pos, negs = _fused_instance(rng, 3, 4, 6)
    out = contrastive_batch(a, pos, negs, 0.1, UNIFORM)
    assert np.allclose(out.pos_sims[0], pos[:, 0] @ a[0], atol=1e-15)
    assert abs(out.weights.sum() - 1.0) < 1e-12


def test_fused_feature_level_uses_pooled_negatives():
    rng = np.random.default_rng(9)
    a, pos, negs = _fused_instance(rng, 2, 4, 6)
    out = contrastive_batch(a, pos, negs, 0.1, UNIFORM, FusionLevel.FEATURE)
    fused_pos = 0.5 * pos[0] + 0.5 * pos[1]
    fused_pos /= np.linalg.norm(fused_pos)
    expect = contrastive_batch(a, fused_pos[None], negs.reshape(1, 8, 6), 0.1, UNIFORM)
    assert abs(out.loss[0] - expect.loss[0]) < 1e-12
    assert out.teacher_losses is None


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_fused_gradient_finite_diff(scheme, fusion):
    rng = np.random.default_rng(10)
    a, pos, negs = _fused_instance(rng, 3, 5, 6)
    acc = (0.5, 0.3, 0.2)

    def loss_of(p):
        return contrastive_batch(p["a"], pos, negs, 0.07, scheme, fusion,
                                 accuracies=acc).loss[0]

    out = contrastive_batch(a, pos, negs, 0.07, scheme, fusion, accuracies=acc)
    rep = finite_diff_check(loss_of, {"a": a}, {"a": out.grad_anchor})
    assert rep.max_rel_error < 1e-5, f"{scheme} {fusion}: {rep.max_rel_error}"


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_rows_match_single_anchor(scheme, fusion):
    anchors, positives, negs = _batch_instance(np.random.default_rng(14), 7, 3, 5, 6)
    acc = (0.5, 0.3, 0.2)
    out = contrastive_batch(anchors, positives, negs, 0.07, scheme, fusion, accuracies=acc)
    assert out.loss.shape == (7,) and out.grad_anchor.shape == (7, 6)
    for i in range(7):
        one = contrastive_batch(anchors[i:i + 1], positives[:, i:i + 1], negs, 0.07,
                                scheme, fusion, accuracies=acc)
        assert abs(out.loss[i] - one.loss[0]) < 1e-12
        assert np.allclose(out.grad_anchor[i], one.grad_anchor[0], rtol=0, atol=1e-12)
        assert np.allclose(out.weights[i], one.weights[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_outputs_ignore_the_positives_memory_layout(scheme, fusion):
    # the trainer's shape: B = 64, N = 4, K = 256, d = 16
    rng = np.random.default_rng(16)
    acc = (0.4, 0.3, 0.2, 0.1)
    for _ in range(4):
        anchors, positives, negs = _batch_instance(rng, 64, 4, 256, 16)
        layouts = (positives,                       # C-ordered (N, B, d)
                   np.ascontiguousarray(positives.transpose(1, 0, 2)).transpose(1, 0, 2),
                   np.asfortranarray(positives))    # the middle one is a batch-major view
        outs = [contrastive_batch(anchors, p, negs, 0.07, scheme, fusion, accuracies=acc)
                for p in layouts]
        # the trainer's: both are windows on one (N, K + B, d) stream
        stream = np.concatenate((negs, positives), axis=1)
        outs.append(contrastive_batch(anchors, stream[:, 256:], stream[:, :256], 0.07,
                                      scheme, fusion, accuracies=acc))
        for other in outs[1:]:
            for name, value in vars(outs[0]).items():
                assert np.array_equal(value, getattr(other, name)), name   # None == None


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_outputs_ignore_every_inputs_memory_layout(scheme, fusion):
    # the trainer's shape, with positives and negatives as windows on one
    # stream and strided anchors; each input in turn is replaced by a
    # contiguous and by a Fortran-ordered copy of the same values.  Each
    # call runs with and without the trainer's workspace, at a full batch
    # (all of it) and a partial one (its first rows)
    rng = np.random.default_rng(18)
    b, n, k, d = 64, 4, 256, 16
    acc = (0.4, 0.3, 0.2, 0.1)
    stream = unit_rows(rng, n * (k + 2 * b), d).reshape(n, k + 2 * b, d)
    spaced = unit_rows(rng, 2 * b, d)
    m, q = (n, k) if fusion is FusionLevel.LOSS else (1, n * k)
    work = np.full((b, m, 1 + q), np.nan)
    for offset, rows in [(0, b), (b // 2, b), (b, b), (b // 2, b // 2 + 1)]:
        views = (spaced[:2 * rows:2], stream[:, k + offset:k + offset + rows],
                 stream[:, offset:offset + k])
        base = contrastive_batch(*views, 0.07, scheme, fusion, accuracies=acc)
        base.probs  # cached, so vars(base) holds it too
        for i in range(3):
            for layout in (np.ascontiguousarray, np.asfortranarray):
                args = list(views)
                args[i] = layout(args[i])
                for kw in ({}, {"work": work[:rows]}):
                    out = contrastive_batch(*args, 0.07, scheme, fusion, accuracies=acc, **kw)
                    if kw:
                        assert out.shifted_exp is kw["work"]
                    for name, value in vars(base).items():
                        assert np.array_equal(value, getattr(out, name)), (offset, rows, i,
                                                                            layout, kw, name)


@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_rejects_a_workspace_of_another_shape_dtype_or_order(fusion):
    # each bad workspace raises before the loss writes anything into it
    rng = np.random.default_rng(19)
    b, n, k, d = 5, 3, 7, 4
    inputs = _batch_instance(rng, b, n, k, d)
    m, q = (n, k) if fusion is FusionLevel.LOSS else (1, n * k)
    shape = (b, m, 1 + q)
    read_only = np.full(shape, 7.0)
    read_only.setflags(write=False)
    bad = {
        "more rows": np.full((b + 1, m, 1 + q), 7.0),
        "fewer rows": np.full((b - 1, m, 1 + q), 7.0),
        "fewer columns": np.full((b, m, q), 7.0),
        "other fusion": np.full((b, n, 1 + k) if m == 1 else (b, 1, 1 + n * k), 7.0),
        "flat": np.full(b * m * (1 + q), 7.0),
        "float32": np.full(shape, 7.0, dtype=np.float32),
        "Fortran order": np.asfortranarray(np.full(shape, 7.0)),
        "strided": np.full((b, m, 2 * (1 + q)), 7.0)[..., ::2],
        "read-only": read_only,
        "list": np.full(shape, 7.0).tolist(),
    }
    for name, work in bad.items():
        before = np.array(work)
        with pytest.raises(ValueError, match=rf"^work must be .* of shape \({b}, {m}, {1 + q}\)"):
            contrastive_batch(*inputs, 0.07, UNIFORM, fusion, work=work)
        assert np.array_equal(np.array(work), before), name


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_outcome_shares_no_memory_with_its_inputs(scheme, fusion):
    # the trainer passes windows on a buffer it overwrites every epoch, so no
    # field may be a view of them; N = 1 makes both windows C-contiguous
    rng = np.random.default_rng(17)
    k, b, d = 5, 4, 6
    for n in (1, 3):
        stream = unit_rows(rng, n * (k + 2 * b), d).reshape(n, k + 2 * b, d)
        positives, negs = stream[:, k + b:], stream[:, b:b + k]
        out = contrastive_batch(unit_rows(rng, b, d), positives, negs, 0.07, scheme, fusion,
                                accuracies=tuple(rng.uniform(0.1, 1.0, n)))
        for name, value in vars(out).items():
            for given in (positives, negs):
                assert value is None or not np.shares_memory(value, given), name


def _trainer_windows(rng, b=64, n=4, k=256, d=16):
    """The trainer's shape and layout: (B, d) anchors, and positives and
    negatives as windows on one (N, K + B, d) stream."""
    stream = unit_rows(rng, n * (k + b), d).reshape(n, k + b, d)
    return unit_rows(rng, b, d), stream[:, k:], stream[:, :k]


def _two_exp_reference(anchors, positives, negatives, tau, scheme, fusion, accuracies):
    """The loss arithmetic before the logits were written in place, kept
    verbatim: the logits concatenated from one similarity matmul, the
    probabilities as a second exp(logits - lse), and the gradient through a
    (B, M, 1 + Q) coefficient array."""
    a, pos, neg = (np.ascontiguousarray(v, dtype=np.float64)
                   for v in (anchors, positives, negatives))
    n_teachers, k, dim = neg.shape
    b = len(a)

    pos_sims = np.einsum("nbd,bd->bn", pos, a)
    neg_sims = (a @ neg.reshape(-1, dim).T).reshape(b, n_teachers, k)
    weights = np.broadcast_to(
        teacher_weights(scheme, n_teachers, accuracies=accuracies,
                        pos_sims=pos_sims, neg_sims=neg_sims), (b, n_teachers))

    if fusion is FusionLevel.LOSS:
        scored, queue, mix = pos, neg, weights
        scored_sims, queue_sims = pos_sims, neg_sims
    else:
        g_fused, ny = numerics.unit_rows(np.einsum("bn,nbd->bd", weights, pos),
                                         "weighted positive")
        scored, queue, mix = g_fused[None], neg.reshape(1, -1, dim), np.ones((b, 1))
        scored_sims, queue_sims = (g_fused * a).sum(axis=1)[:, None], neg_sims.reshape(b, 1, -1)

    logits = np.concatenate((scored_sims[..., None], queue_sims), axis=-1) / tau
    m = logits.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    probs = np.exp(logits - lse)
    losses = lse[..., 0] - logits[..., 0]
    loss = (mix * losses).sum(axis=1)
    coef = mix[..., None] * probs / tau
    grad = (np.einsum("bm,mbd->bd", coef[..., 0] - mix / tau, scored)
            + coef[..., 1:].reshape(b, -1) @ queue.reshape(-1, dim))
    if scheme is WeightScheme.ONLINE1:
        if fusion is FusionLevel.LOSS:
            c = losses
        else:
            d_gf = (probs[:, 0, :1] - 1.0) * a / tau
            v = (d_gf - (d_gf * g_fused).sum(axis=1, keepdims=True) * g_fused) / ny
            c = np.einsum("nbd,bd->bn", pos, v)
        c = c - (weights * c).sum(axis=1, keepdims=True)
        grad = grad + np.einsum("bn,nbd->bd", weights * c, pos)
    teacher_losses = losses if fusion is FusionLevel.LOSS else None
    return ContrastiveOutcome(loss, grad, weights, pos_sims, teacher_losses,
                              probs, np.ones(probs.shape[:-1] + (1,)))


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_matches_the_two_exp_reference(scheme, fusion):
    # probs = exp(logits - m) / total rounds apart from exp(logits - lse),
    # and the gradient's products are grouped differently; every other
    # field is the same arithmetic
    rng = np.random.default_rng(19)
    acc = (0.4, 0.3, 0.2, 0.1)
    for _ in range(3):
        args = _trainer_windows(rng)
        out = contrastive_batch(*args, 0.07, scheme, fusion, accuracies=acc)
        ref = _two_exp_reference(*args, 0.07, scheme, fusion, acc)
        for name in ("loss", "weights", "pos_sims", "teacher_losses"):
            value, expected = getattr(out, name), getattr(ref, name)
            if expected is None:
                assert value is None, name
            else:
                assert value.shape == expected.shape, name
                assert np.allclose(value, expected, rtol=1e-14, atol=0), name
        assert out.probs.shape == ref.probs.shape
        assert np.allclose(out.probs, ref.probs, rtol=1e-13, atol=0)
        assert np.all(np.abs(out.probs.sum(axis=-1) - 1.0) <= 1e-14)
        scale = np.abs(ref.grad_anchor).max(axis=1, keepdims=True)
        assert np.all(np.abs(out.grad_anchor - ref.grad_anchor) <= 1e-13 * scale)


def _outcome_digest(out: ContrastiveOutcome) -> str:
    """sha256 over every field of ``out`` and its probabilities: each one's
    name, shape and little-endian float64 bytes, in field order."""
    h = hashlib.sha256()
    for name, value in (*vars(out).items(), ("probs", out.probs)):
        if value is None:
            h.update(f"{name} None\n".encode())
        else:
            h.update(f"{name} {value.shape}\n".encode())
            h.update(np.ascontiguousarray(value, "<f8").tobytes())
    return h.hexdigest()


# sha256 of contrastive_batch's outcome on the trainer's windows (K = 256,
# d = 16, tau 0.07) for every scheme and fusion level, with 1 and 4 teachers
# and a batch of 7 and of 64.  A regrouped product or sum changes them.
RECORDED_OUTCOMES = {
    "uniform-loss-n1-b7":
        "a652aed24745d876e515a6e992b77dd6c492d9e09c84fd9f021e83e1f45cf2a2",
    "uniform-loss-n1-b64":
        "e1e177e50962b85cb9572420877896d23bb8092931263f75a307d6ce8e1875ee",
    "uniform-loss-n4-b7":
        "b5b72107b1ae9bacdfcbaecdfadea348770fd792b983e2856115b04e972c1d38",
    "uniform-loss-n4-b64":
        "ef404e24f10858222f06cd799ff82b3072dcf7cc7b601dfcf8cd4ca94fb1efdc",
    "uniform-feature-n1-b7":
        "1ce466c005c5599312c7ac42bf2c93090a53f821fee4e1a84be880312e60dde6",
    "uniform-feature-n1-b64":
        "ba9ddb19a0640af6710018f99d9d24c2a43da53c8ca27dc5925563fb0aa85886",
    "uniform-feature-n4-b7":
        "d35da4815108a514f2fdd985b200d25eafa9d5da02bdbe979328e03a1804f409",
    "uniform-feature-n4-b64":
        "d64669a3f71a36b4971a06d775684fbd710b6df9b660f28232f733002eb6d01b",
    "offline-loss-n1-b7":
        "a652aed24745d876e515a6e992b77dd6c492d9e09c84fd9f021e83e1f45cf2a2",
    "offline-loss-n1-b64":
        "e1e177e50962b85cb9572420877896d23bb8092931263f75a307d6ce8e1875ee",
    "offline-loss-n4-b7":
        "b16e48e5b58514cab42b0b22fc6ffe0dfa9be1c02cc4c7a2b2974c7a2262b5e4",
    "offline-loss-n4-b64":
        "07775683bafd205beeab9db742aea68f862def21f5d9a94407d6ac7e479e7505",
    "offline-feature-n1-b7":
        "1ce466c005c5599312c7ac42bf2c93090a53f821fee4e1a84be880312e60dde6",
    "offline-feature-n1-b64":
        "ba9ddb19a0640af6710018f99d9d24c2a43da53c8ca27dc5925563fb0aa85886",
    "offline-feature-n4-b7":
        "81445d142828203a2ad9544585dbfaaf8ddc5a2e2ba16a1e6bc4df484fac7e37",
    "offline-feature-n4-b64":
        "46bb2abdef1711cf2acbca168e820d077de6386d90e98742623a63851284db33",
    "online1-loss-n1-b7":
        "a652aed24745d876e515a6e992b77dd6c492d9e09c84fd9f021e83e1f45cf2a2",
    "online1-loss-n1-b64":
        "e1e177e50962b85cb9572420877896d23bb8092931263f75a307d6ce8e1875ee",
    "online1-loss-n4-b7":
        "e30f821a9951fe8e010099fd25837f76bf8df4163ffb98ffe1f1797c4ad249d9",
    "online1-loss-n4-b64":
        "04bccb305dca9b20378f6f9f5ade6b0d2e20a6afa12d18e0760ae06f5c6936e8",
    "online1-feature-n1-b7":
        "1ce466c005c5599312c7ac42bf2c93090a53f821fee4e1a84be880312e60dde6",
    "online1-feature-n1-b64":
        "ba9ddb19a0640af6710018f99d9d24c2a43da53c8ca27dc5925563fb0aa85886",
    "online1-feature-n4-b7":
        "5b34ff0297c2153fab75ab41b92f0f58fa89b6a6009b4cb8730463f0802c8233",
    "online1-feature-n4-b64":
        "2708a7dccfa91b74bb742552562decdc0772c56f0a2e6810c866f9faf3858331",
    "online2-loss-n1-b7":
        "a652aed24745d876e515a6e992b77dd6c492d9e09c84fd9f021e83e1f45cf2a2",
    "online2-loss-n1-b64":
        "e1e177e50962b85cb9572420877896d23bb8092931263f75a307d6ce8e1875ee",
    "online2-loss-n4-b7":
        "0d27a54838bcad695657ba4c45aa185255a83728ce688478286a74aaee3a9498",
    "online2-loss-n4-b64":
        "4f0d8ba322b6bfead438265864992a182b0ce455572c55c78f4f7e9eadf78eaf",
    "online2-feature-n1-b7":
        "1ce466c005c5599312c7ac42bf2c93090a53f821fee4e1a84be880312e60dde6",
    "online2-feature-n1-b64":
        "ba9ddb19a0640af6710018f99d9d24c2a43da53c8ca27dc5925563fb0aa85886",
    "online2-feature-n4-b7":
        "6d83b01636a2c3b7a6f534d73bc0c97fe5d89999b6100173ba425634a09a318e",
    "online2-feature-n4-b64":
        "735657dfab304b8ccf6cde055c1a44f995c91a886beed3972057e0170b0f939c",
}


@pytest.mark.parametrize("case", list(RECORDED_OUTCOMES))
def test_batch_outcomes_are_the_recorded_bits(case):
    scheme, fusion, n, b = case.split("-")
    n, b = int(n[1:]), int(b[1:])
    args = _trainer_windows(np.random.default_rng([n, b]), b=b, n=n)
    acc = (0.4, 0.3, 0.2, 0.1)[:n]
    out = contrastive_batch(*args, 0.07, WeightScheme(scheme), FusionLevel(fusion),
                            accuracies=acc)
    assert _outcome_digest(out) == RECORDED_OUTCOMES[case], platform_note()


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_peak_memory_is_at_most_two_logit_arrays(scheme, fusion):
    # the logits, turned into exp(logits - m) in place and returned, are the
    # only (B, M, 1 + Q) array; a second such temporary would already reach
    # the bound
    args = _trainer_windows(np.random.default_rng(20))
    b, (n, k, _) = len(args[0]), args[2].shape
    logit_bytes = 8 * b * (n * (1 + k) if fusion is FusionLevel.LOSS else 1 + n * k)

    def call():
        return contrastive_batch(*args, 0.07, scheme, fusion, accuracies=(0.4, 0.3, 0.2, 0.1))

    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * logit_bytes, peak / logit_bytes


@pytest.mark.parametrize("scheme", list(WeightScheme))
@pytest.mark.parametrize("fusion", list(FusionLevel))
def test_batch_gradient_finite_diff(scheme, fusion):
    # each row's loss depends on its own anchor only, so the gradient of the
    # summed loss with respect to the (B, d) anchors is grad_anchor itself
    anchors, positives, negs = _batch_instance(np.random.default_rng(15), 4, 3, 5, 6)
    acc = (0.5, 0.3, 0.2)

    def loss_of(p):
        return contrastive_batch(p["a"], positives, negs, 0.07, scheme, fusion,
                                 accuracies=acc).loss.sum()

    out = contrastive_batch(anchors, positives, negs, 0.07, scheme, fusion, accuracies=acc)
    rep = finite_diff_check(loss_of, {"a": anchors}, {"a": out.grad_anchor})
    assert rep.max_rel_error < 1e-5, f"{scheme} {fusion}: {rep.max_rel_error}"


def test_fused_shape_validation():
    rng = np.random.default_rng(11)
    a, pos, negs = _fused_instance(rng, 2, 4, 6)
    with pytest.raises(ValueError):
        contrastive_batch(a, pos[:1], negs, 0.1, UNIFORM)
    with pytest.raises(ValueError):
        contrastive_batch(a, pos, negs[:, :, :5], 0.1, UNIFORM)


# --- cross-entropy and the joint objective ---

def test_cross_entropy_uniform_logits():
    loss, grad = cross_entropy_batch(np.zeros((1, 10)), np.array([3]))
    assert abs(loss - math.log(10)) < 1e-12
    assert abs(grad.sum()) < 1e-15


def test_cross_entropy_scalar_oracle():
    loss, grad = cross_entropy_batch(np.array([[2.0, 0.0]]), np.array([0]))
    assert abs(loss - CE_LOGITS20) < 1e-9
    assert abs(grad.sum()) < 1e-15


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy_batch(np.zeros((1, 3)), np.array([3]))
    with pytest.raises(ValueError):
        cross_entropy_batch(np.zeros((1, 3)), np.array([-1]))


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([False, True]),
                                    np.array([[0], [1]]), np.array([0])],
                         ids=["float", "bool", "column", "short"])
def test_cross_entropy_rejects_labels_that_are_not_one_integer_per_row(labels):
    with pytest.raises(ValueError, match="labels must be one integer per row of logits"):
        cross_entropy_batch(np.zeros((2, 3)), labels)


def test_cross_entropy_gradient_finite_diff():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((1, 7))
    label = np.array([2])
    _, grad = cross_entropy_batch(z, label)
    rep = finite_diff_check(lambda p: cross_entropy_batch(p["z"], label)[0], {"z": z},
                            {"z": grad})
    assert rep.max_rel_error < 1e-6


def test_cross_entropy_batch_is_mean_of_rows():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((4, 5))
    y = np.array([0, 2, 4, 1])
    loss, grad = cross_entropy_batch(z, y)
    per = [cross_entropy_batch(z[i:i + 1], y[i:i + 1]) for i in range(4)]
    assert abs(loss - np.mean([p[0] for p in per])) < 1e-12
    assert np.allclose(grad, np.concatenate([p[1] for p in per]) / 4, atol=1e-15)
