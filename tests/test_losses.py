import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg.losses import (ContrastiveOutcome, FusionLevel, WeightScheme,
                        contrastive_batch, cross_entropy_batch, joint_loss,
                        teacher_weights)
from dtg.numerics import finite_diff_check

from conftest import unit_rows

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


def test_info_nce_permutation_of_negatives_exact():
    rng = np.random.default_rng(1)
    a, pos, negs = _instance(rng, 6, 8)
    base = contrastive_batch(a, pos, negs, 0.07, UNIFORM).loss
    for _ in range(20):
        perm = rng.permutation(8)
        assert np.array_equal(contrastive_batch(a, pos, negs[:, perm], 0.07, UNIFORM).loss, base)
    # the batched loss under every scheme and fusion level, each teacher's
    # queue shuffled independently
    anchors, positives, queues = _batch_instance(rng, 5, 3, 8, 6)
    for scheme in WeightScheme:
        for fusion in FusionLevel:
            def batch_loss(q):
                return contrastive_batch(anchors, positives, q, 0.07, scheme, fusion,
                                         accuracies=(0.5, 0.3, 0.2)).loss
            base = batch_loss(queues)
            for _ in range(20):
                shuffled = np.stack([q[rng.permutation(8)] for q in queues])
                assert np.array_equal(batch_loss(shuffled), base), (scheme, fusion)


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
    # each accuracy is finite, but their sum overflows
    with pytest.raises(ValueError, match="must sum to a finite number > 0, got inf"):
        teacher_weights(WeightScheme.OFFLINE, 2, accuracies=(1e308, 1e308))


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
        layouts = (positives,                       # C-ordered (N, B, d), the trainer's
                   np.ascontiguousarray(positives.transpose(1, 0, 2)).transpose(1, 0, 2),
                   np.asfortranarray(positives))    # the middle one is a batch-major view
        outs = [contrastive_batch(anchors, p, negs, 0.07, scheme, fusion, accuracies=acc)
                for p in layouts]
        for other in outs[1:]:
            for name, value in vars(outs[0]).items():
                assert np.array_equal(value, getattr(other, name)), name   # None == None


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


def test_joint_loss_arithmetic():
    assert joint_loss(0.5, 1.0, alpha=0.1, beta=1.0) == pytest.approx(1.05, abs=1e-15)
    assert joint_loss(0.5, 1.0, alpha=0.0, beta=1.0) == 1.0
    assert joint_loss(0.5, 1.0, alpha=0.1, beta=0.0) == pytest.approx(0.05, abs=1e-15)


def test_joint_loss_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        joint_loss(1.0, 1.0, alpha=-0.1, beta=1.0)
    with pytest.raises(ValueError):
        joint_loss(1.0, 1.0, alpha=0.1, beta=-1.0)
