import copy
import csv
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from dtg import trainer
from dtg.corpus import CorpusSpec, generate_corpus, split_videos
from dtg.evaluation import video_features
from dtg.losses import FusionLevel, WeightScheme, contrastive_batch, cross_entropy_batch
from dtg.model import (StudentEncoder, build_bank, build_head, build_student,
                       forward_batch, load_student, save_student)
from dtg.numerics import FieldError, finite_diff_check
from dtg.presets import reference_bank, reference_corpus, reference_train_config
from dtg.sampling import PairMode, draw_pairs
from dtg.seeding import substreams
from dtg.trainer import (NumericAbortError, ParamLayout, TrainConfig, lr_at, pretrain,
                         report_to_dict, sgd_step, train_joint, write_report)

from conftest import platform_note, script


def _corpus(seed=21, videos_per_class=5):
    spec = CorpusSpec(num_classes=2, videos_per_class=videos_per_class,
                      frames_per_video=8, frame_dim=8, signal_dim=4,
                      video_spread=1.0, frame_noise=0.3, seed=seed)
    return generate_corpus(spec)


def _bank(corpus, rhos=(0.9,), seed=3, embed_dim=6):
    return build_bank(corpus, rhos, embed_dim, seeds=(seed,) * len(rhos))


def _config(**kw):
    base = dict(epochs=2, batch_size=4, K=4, d=6, h=8, milestones=(), seed=0)
    base.update(kw)
    return TrainConfig(**base)


# --- schedule and optimizer ---

def test_lr_schedule_paper_milestones():
    cfg = TrainConfig(epochs=600, milestones=(300, 500))
    assert lr_at(cfg, 0) == pytest.approx(0.1)
    assert lr_at(cfg, 350) == pytest.approx(0.01)
    assert lr_at(cfg, 550) == pytest.approx(0.001)
    assert lr_at(cfg, 299) == pytest.approx(0.1)
    assert lr_at(cfg, 300) == pytest.approx(0.01)


def test_lr_rejects_out_of_range_epoch():
    cfg = TrainConfig(epochs=10, milestones=())
    with pytest.raises(ValueError):
        lr_at(cfg, 10)


X = ParamLayout(("x",), ((2,),))
X1 = ParamLayout(("x",), ((1,),))


def test_sgd_plain_gradient_descent():
    p = np.array([1.0, 2.0])
    g = np.array([0.5, -0.5])
    v = np.zeros(2)
    sgd_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0, layout=X)
    assert np.allclose(p, [0.95, 2.05])


def test_sgd_pure_momentum_coasting():
    p = np.array([1.0])
    g = np.array([0.0])
    v = np.array([2.0])
    sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0, layout=X1)
    assert np.allclose(v, [1.8])
    assert np.allclose(p, [1.0 - 0.18])


def test_sgd_hand_worked_value():
    p = np.array([1.0])
    g = np.array([1.0])
    v = np.array([0.0])
    sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0005, layout=X1)
    assert v[0] == pytest.approx(1.0005, abs=1e-15)
    assert p[0] == pytest.approx(0.89995, abs=1e-15)


def test_sgd_rejects_nan_gradient_and_bad_shapes():
    p = np.zeros(2)
    v = np.zeros(2)
    with pytest.raises(NumericAbortError, match="parameter x$"):
        sgd_step(p, np.array([np.nan, 0.0]), v, 0.1, 0.9, 0.0, X)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(3), v, 0.1, 0.9, 0.0, X)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(2), np.zeros(3), 0.1, 0.9, 0.0, X)
    with pytest.raises(ValueError):
        sgd_step(p.reshape(1, 2), np.zeros((1, 2)), v.reshape(1, 2), 0.1, 0.9, 0.0, X)
    with pytest.raises(ValueError):  # a layout that does not cover the vectors
        sgd_step(p, np.zeros(2), v, 0.1, 0.9, 0.0, ParamLayout(("x", "y"), ((2,), (1,))))


def _model_state():
    corpus = _corpus()
    state = trainer.start_state(_config(), corpus, _bank(corpus), build_student(8, 8, 6, seed=1),
                                build_head(6, 2, seed=2))
    state.velocity[:] = 0.5
    enc, head = state.models()
    return enc, head, state.params, state.velocity, np.ones_like(state.params), state.layout


def test_sgd_updates_the_models_own_arrays():
    enc, head, params, velocity, grads, layout = _model_state()
    w1, v_w1, before = enc.W1, layout.views(velocity)["W1"], enc.W1.copy()
    sgd_step(params, grads, velocity, 0.1, 0.9, 0.0005, layout)
    assert enc.W1 is w1 and w1.base is params
    assert np.array_equal(v_w1, 0.9 * 0.5 + 1.0 + 0.0005 * before)
    assert np.array_equal(w1, before - 0.1 * v_w1)
    assert not np.array_equal(head.b, build_head(6, 2, seed=2).b)


def test_sgd_rejected_step_leaves_state_unchanged():
    # the bad entry opens the last parameter: no part of the update may run first
    _, _, params, velocity, grads, layout = _model_state()
    last = layout.names[-1]
    grads[layout.ends[-2]] = np.inf  # the first entry of the last parameter
    state = params.copy(), velocity.copy()
    with pytest.raises(NumericAbortError, match=last):
        sgd_step(params, grads, velocity, 0.1, 0.9, 0.0005, layout)
    assert np.array_equal(params, state[0])
    assert np.array_equal(velocity, state[1])


def test_sgd_names_the_parameter_at_each_edge():
    _, _, params, velocity, _, layout = _model_state()
    starts = (0, *layout.ends[:-1])
    for name, start, end in zip(layout.names, starts, layout.ends):
        for i in (start, end - 1):
            grads = np.ones_like(params)
            grads[i] = np.nan
            with pytest.raises(NumericAbortError, match=f"parameter {re.escape(name)}$"):
                sgd_step(params, grads, velocity, 0.1, 0.9, 0.0005, layout)


# --- config validation ---

def test_config_rejects_bad_milestones():
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, milestones=(5, 5))
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, milestones=(12,))


def test_config_requires_accuracies_for_offline():
    with pytest.raises(ValueError):
        TrainConfig(weight_scheme=WeightScheme.OFFLINE, milestones=())


@pytest.mark.parametrize("bad", [-1.0, float("nan"), True, "0.5"],
                         ids=["negative", "nan", "bool", "string"])
def test_config_checks_each_offline_accuracy(bad):
    # the sum of (-1.0, 2.0, 0.5, 0.5) is positive, so only a check of each
    # entry stops it before the first warm step
    for acc in ((bad, 2.0, 0.5, 0.5), (0.5, bad)):
        with pytest.raises(FieldError, match=r"^offline_accuracies must be a finite "
                                             r"number >= 0, got "):
            TrainConfig(weight_scheme=WeightScheme.OFFLINE, milestones=(),
                        offline_accuracies=acc)


def test_k_must_be_below_video_count():
    corpus = _corpus()
    cfg = _config(K=corpus.num_videos)
    with pytest.raises(ValueError, match="smaller"):
        pretrain(cfg, corpus, _bank(corpus))


def test_disjoint_pairs_need_segments_within_half_a_video():
    corpus = _corpus()  # 8 frames: each view draws from a 4-frame half
    cfg = _config(pair_mode=PairMode.SEQ_SEQ_DISJOINT, segments=5)
    with pytest.raises(ValueError, match=r"seq-seq-disjoint draws from frames \[0, 4\) of "
                                         r"frames_per_video = 8: need 1 <= segments <= "
                                         r"frames, got 5 of 4"):
        pretrain(cfg, corpus, _bank(corpus))
    with pytest.raises(ValueError, match="seq-seq-disjoint"):
        train_joint(cfg, corpus, _bank(corpus))
    pretrain(dataclasses.replace(cfg, segments=4), corpus, _bank(corpus))


@pytest.mark.parametrize("mode", list(PairMode))
def test_run_check_rejects_exactly_the_geometries_the_sampler_rejects(mode):
    # no training: the config check against draw_pairs on the same videos
    seen = set()
    for frames in range(1, 13):
        spec = CorpusSpec(num_classes=2, videos_per_class=3, frames_per_video=frames,
                          frame_dim=4, signal_dim=2)
        corpus = generate_corpus(spec)
        bank = _bank(corpus)
        for segments in range(1, 9):
            try:
                draw_pairs(frames, mode, segments, substreams(0, "geometry", np.arange(2)))
                drawn = True
            except ValueError:
                drawn = False
            try:
                trainer._validate_run(_config(pair_mode=mode, segments=segments), corpus, bank)
                accepted = True
            except FieldError as err:
                assert mode.value in str(err) and str(err).startswith(
                    ("train.segments / corpus.frames_per_video ",
                     "train.pair_mode / corpus.frames_per_video "))
                accepted = False
            assert accepted == drawn, (frames, segments)
            seen.add(drawn)
    assert seen == {True, False}


def test_img_img_is_not_held_to_segments():
    # img-img draws one frame per view and never reads segments: a 3-frame
    # corpus trains under the default 4 segments, the bits of segments 1
    corpus = reference_corpus(0, frames_per_video=3)
    bank = reference_bank(corpus)
    cfg = reference_train_config(0, epochs=2, milestones=(), pair_mode=PairMode.IMG_IMG)
    assert cfg.segments == TrainConfig().segments > corpus.spec.frames_per_video
    enc, report = pretrain(cfg, corpus, bank)
    one_enc, one_report = pretrain(dataclasses.replace(cfg, segments=1), corpus, bank)
    assert _flat(enc, None) == _flat(one_enc, None)
    assert report_to_dict(report) == report_to_dict(one_report)


def test_teacher_dimension_must_match_student():
    corpus = _corpus()
    with pytest.raises(ValueError, match="teacher dimension 8"):
        pretrain(_config(d=6), corpus, _bank(corpus, embed_dim=8))


# --- pretraining ---

def test_epochs_zero_returns_initial_encoder():
    corpus = _corpus()
    cfg = _config(epochs=0)
    enc, report = pretrain(cfg, corpus, _bank(corpus))
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    for k, v in enc.parameters():
        assert np.array_equal(v, dict(fresh.parameters())[k])
    assert report.records == ()
    # the random-init arm of presets' ssl-vs-random study rests on this
    assert np.array_equal(video_features(enc, corpus), video_features(fresh, corpus))


def test_pretrain_deterministic():
    corpus = _corpus()
    cfg = _config(epochs=3)
    bank = _bank(corpus)
    enc1, rep1 = pretrain(cfg, corpus, bank)
    enc2, rep2 = pretrain(cfg, corpus, bank)
    for (k, v1), (_, v2) in zip(enc1.parameters(), enc2.parameters()):
        assert np.array_equal(v1, v2), k
    assert report_to_dict(rep1) == report_to_dict(rep2)


def test_pretrain_changes_parameters_and_logs_epochs():
    corpus = _corpus()
    cfg = _config(epochs=2)
    enc, report = pretrain(cfg, corpus, _bank(corpus))
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    assert not np.array_equal(enc.W1, fresh.W1)
    assert len(report.records) == 2
    assert report.records[1].contrastive_loss is not None
    assert report.records[1].ce_loss is None


def test_teachers_untouched_by_training():
    corpus = _corpus()
    bank = _bank(corpus, rhos=(0.9, 0.3))
    weight, bias = bank.weight.copy(), bank.bias.copy()
    pretrain(_config(epochs=2), corpus, bank)
    assert np.array_equal(bank.weight, weight) and np.array_equal(bank.bias, bias)


def test_cold_start_skips_first_epoch_when_k_needs_it():
    # 10 videos, batch 2, K=9: a step is warm once 9 rows precede it, so every
    # epoch-0 batch is skipped and epoch 1 trains on K negatives.
    corpus = _corpus()
    cfg = _config(epochs=2, batch_size=2, K=9)
    enc, report = pretrain(cfg, corpus, _bank(corpus))
    assert report.records[0].contrastive_loss is None
    assert report.records[0].mean_weights == ()
    assert report.records[1].contrastive_loss is not None
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    assert not np.array_equal(enc.W1, fresh.W1)  # epoch 1 did update


def test_online1_weights_vary_within_epoch_offline_constant():
    corpus = _corpus()
    bank = _bank(corpus, rhos=(0.9, 0.3))
    on = _config(epochs=2, weight_scheme=WeightScheme.ONLINE1)
    _, rep_on = pretrain(on, corpus, bank)
    assert max(rep_on.records[-1].std_weights) > 0.0

    off = _config(epochs=2, weight_scheme=WeightScheme.OFFLINE,
                  offline_accuracies=(0.6, 0.4))
    _, rep_off = pretrain(off, corpus, bank)
    assert rep_off.records[-1].std_weights == (0.0, 0.0)
    assert rep_off.records[-1].mean_weights == pytest.approx((0.6, 0.4))


def test_uniform_weights_logged_as_equal():
    corpus = _corpus()
    bank = _bank(corpus, rhos=(0.9, 0.3))
    _, report = pretrain(_config(epochs=1), corpus, bank)
    assert report.records[0].mean_weights == pytest.approx((0.5, 0.5))


# --- joint training ---

def test_alpha_zero_reduces_to_plain_ce():
    corpus = _corpus()
    cfg = _config(epochs=2, alpha=0.0)
    (enc_a, head_a), _ = train_joint(cfg, corpus, _bank(corpus, rhos=(0.9,)))
    (enc_b, head_b), _ = train_joint(cfg, corpus, _bank(corpus, rhos=(0.1,), seed=99))
    # the contrastive branch differs wildly between banks; with alpha=0 it
    # must not leave a trace in the trajectory
    for (k, va), (_, vb) in zip(enc_a.parameters(), enc_b.parameters()):
        assert np.array_equal(va, vb), k
    assert np.array_equal(head_a.W, head_b.W)


def test_beta_zero_head_stays_at_init():
    corpus = _corpus()
    cfg = _config(epochs=2, beta=0.0, weight_decay=0.0)
    (enc, head), report = train_joint(cfg, corpus, _bank(corpus))
    init_head = build_head(cfg.d, corpus.spec.num_classes, cfg.seed)
    assert np.array_equal(head.W, init_head.W)
    assert np.array_equal(head.b, init_head.b)
    # the student still trains through the contrastive branch
    fresh = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, cfg.seed)
    assert not np.array_equal(enc.W1, fresh.W1)
    assert report.records[-1].ce_loss is not None


def test_joint_resumes_from_init_checkpoint():
    corpus = _corpus()
    cfg = _config(epochs=1)
    enc0 = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, seed=123)
    head0 = build_head(cfg.d, corpus.spec.num_classes, seed=124)
    init = enc0.parameters() + head0.parameters()
    before = [p.copy() for _, p in init]
    (enc, head), _ = train_joint(cfg, corpus, _bank(corpus), init=(enc0, head0))
    for (name, p), then in zip(init, before):  # caller's arrays untouched
        assert np.array_equal(p, then), name
    for (name, p), (_, trained) in zip(init, enc.parameters() + head.parameters()):
        assert not np.shares_memory(p, trained), name
    assert not np.array_equal(enc.W1, before[0])


def test_joint_init_without_a_head_trains_the_run_seeds_head():
    corpus = _corpus()
    cfg = _config(epochs=1)
    enc0 = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, seed=123)
    head0 = build_head(cfg.d, corpus.spec.num_classes, cfg.seed)
    (enc_a, head_a), report_a = train_joint(cfg, corpus, _bank(corpus), init=(enc0, None))
    (enc_b, head_b), report_b = train_joint(cfg, corpus, _bank(corpus), init=(enc0, head0))
    for (name, a), (_, b) in zip(enc_a.parameters() + head_a.parameters(),
                                 enc_b.parameters() + head_b.parameters()):
        assert np.array_equal(a, b), name
    assert report_a.records == report_b.records


@pytest.mark.parametrize("joint", [False, True], ids=["pretrain", "train_joint"])
def test_trained_model_round_trips_through_checkpoint(tmp_path, joint):
    # the trained arrays are views of one flat vector; the checkpoint holds
    # each as its own array and reads back bit for bit
    corpus = _corpus()
    cfg = _config(epochs=2)
    if joint:
        (enc, head), _ = train_joint(cfg, corpus, _bank(corpus))
    else:
        (enc, _), head = pretrain(cfg, corpus, _bank(corpus)), None
    arrays = enc.parameters() + (head.parameters() if joint else [])
    assert len({id(p.base) for _, p in arrays}) == 1 and arrays[0][1].base is not None
    save_student(tmp_path / "a.dtgm", enc, head)
    enc2, head2 = load_student(tmp_path / "a.dtgm")
    assert (head2 is None) == (not joint)
    loaded = enc2.parameters() + (head2.parameters() if joint else [])
    for (name, p), (name2, q) in zip(arrays, loaded, strict=True):
        assert name == name2 and q.dtype == p.dtype and q.shape == p.shape
        assert np.array_equal(p.view(np.uint64), q.view(np.uint64)), name
    save_student(tmp_path / "b.dtgm", enc2, head2)
    assert (tmp_path / "a.dtgm").read_bytes() == (tmp_path / "b.dtgm").read_bytes()


@pytest.mark.parametrize("frame_dim,h,d,classes,head_d", [
    (8, 8, 6, 3, 6),   # a head for three classes on a 2-class corpus
    (8, 8, 3, 2, 3),   # a d = 3 checkpoint in a d = 6 run
    (8, 5, 6, 2, 6),   # hidden width differs from train.h
    (7, 8, 6, 2, 6),   # frame dimension differs from the corpus
    (8, 8, 6, 2, 4),   # head width differs from the encoder's d
])
def test_joint_init_must_fit_the_run(frame_dim, h, d, classes, head_d):
    corpus = _corpus()
    cfg = _config(epochs=1)
    init = (build_student(frame_dim, h, d, seed=1), build_head(head_d, classes, seed=2))
    with pytest.raises(ValueError, match="init (encoder|head) has"):
        train_joint(cfg, corpus, _bank(corpus), init=init)


def test_joint_deterministic():
    corpus = _corpus()
    cfg = _config(epochs=2)
    bank = _bank(corpus)
    (e1, h1), r1 = train_joint(cfg, corpus, bank)
    (e2, h2), r2 = train_joint(cfg, corpus, bank)
    assert np.array_equal(e1.W3, e2.W3)
    assert np.array_equal(h1.W, h2.W)
    assert report_to_dict(r1) == report_to_dict(r2)


# --- the gradient the loop applies ---

@pytest.mark.parametrize("joint", [False, True], ids=["pretrain", "train_joint"])
def test_applied_gradient_matches_finite_differences(monkeypatch, joint):
    # Record the inputs of the first warm step as the loop makes them, then
    # check the gradient it hands to sgd_step against central differences of
    # mean(contrastive) (pretrain) or alpha * mean(contrastive) + beta * CE
    # (joint), rebuilt from the public functions.
    first = {}
    for name in ("forward_batch", "contrastive_batch", "cross_entropy_batch", "sgd_step"):
        def spy(*args, _name=name, _real=getattr(trainer, name), **kwargs):
            first.setdefault(_name, copy.deepcopy((args, kwargs)))
            return _real(*args, **kwargs)
        monkeypatch.setattr(trainer, name, spy)
    corpus = _corpus()
    cfg = _config(epochs=1, alpha=0.3, beta=2.5, weight_scheme=WeightScheme.ONLINE1,
                  fusion_level=FusionLevel.FEATURE)
    bank = _bank(corpus, rhos=(0.9, 0.3))
    if joint:
        train_joint(cfg, corpus, bank)
    else:
        pretrain(cfg, corpus, bank)

    (_, pooled), _ = first["forward_batch"]
    (_, guidance, negs, *loss_args), loss_kwargs = first["contrastive_batch"]
    # split the flat vectors the step received by the encoder's and head's shapes
    named = build_student(corpus.spec.frame_dim, cfg.h, cfg.d, seed=0).parameters()
    if joint:
        named += build_head(cfg.d, corpus.spec.num_classes, seed=0).parameters()
    flat_params, flat_grads = first["sgd_step"][0][:2]
    assert flat_params.shape == flat_grads.shape == (sum(p.size for _, p in named),)
    cuts = np.cumsum([p.size for _, p in named])[:-1]
    params, grads = ({name: part.reshape(p.shape)
                      for (name, p), part in zip(named, np.split(flat, cuts))}
                     for flat in (flat_params, flat_grads))

    def objective(p):
        enc = StudentEncoder(*(p[k] for k in ("W1", "b1", "W2", "b2", "W3", "b3")))
        feats, _ = forward_batch(enc, pooled)
        ct = contrastive_batch(feats, guidance, negs, *loss_args, **loss_kwargs).loss.mean()
        if not joint:
            return ct
        (_, labels), _ = first["cross_entropy_batch"]
        ce, _ = cross_entropy_batch(feats @ p["head.W"].T + p["head.b"], labels)
        return cfg.alpha * ct + cfg.beta * ce

    rep = finite_diff_check(objective, params, grads)
    assert rep.max_rel_error < 1e-6, rep.per_param_errors


# --- recorded runs ---

# sha256 of short runs on 20 videos, taken as scripts/artifact_digests.py
# takes its lines: every pair mode with 1 teacher, 4 teachers under online1
# with batch 7 (batches straddle the window of K = 8 negatives), joint
# training, and a 5-epoch run whose pairs are drawn in chunks of 2, 2 and 1
# epochs.  A changed pair, step or loss changes them.
RECORDED_DIGESTS = {
    "1t-img-img":
        "ec7aef9dbb0cfc4721ab67434812d7ec6ca9be71716a82b8cd72d54e417c6f97",
    "1t-img-seq":
        "eebd2803eff0da23406362649d9d2aef5bdb6503e31bb686b815ac3d46d38946",
    "1t-seq-seq-overlap":
        "193f19e8c3f7f8ded0126a0a702a3e5c12c0dac52e893bc07139facb2fb160ee",
    "1t-seq-seq-disjoint":
        "2c88ea7b8718626cd66924d097b0a970f02f07522c6d3a7329d23b9741fd9d12",
    "4t-online1-b7":
        "38e71d6b7a4516cfe7a4782c9648bf8cd3f0c82339c61f0b5dfaae99895c1750",
    "joint":
        "6b36c0610f532a9bda7b6b5b537baafdbd089d3edd47c5a7717387b071923e81",
    "chunked-5-epochs":
        "19dc4e07480857b692df9ce749ab9c6819b9efb611b603145d7324439c2ffa57",
}


# the run digest of scripts/artifact_digests.py, so both record runs one way
_run_digest = script("artifact_digests").digest


def _recorded_case(case: str) -> str:
    corpus = _corpus(videos_per_class=10)
    kw = dict(epochs=3, K=8, milestones=(2,))
    bank = _bank(corpus)
    if case == "joint":
        (enc, head), report = train_joint(_config(**kw), corpus, bank)
        return _run_digest(enc, head, report)
    if case == "4t-online1-b7":
        bank = _bank(corpus, rhos=(0.9, 0.7, 0.5, 0.3))
        kw.update(weight_scheme=WeightScheme.ONLINE1, batch_size=7)
    elif case == "chunked-5-epochs":
        kw.update(epochs=5, milestones=(3,))
    else:
        kw.update(pair_mode=PairMode(case[len("1t-"):]))
    enc, report = pretrain(_config(**kw), corpus, bank)
    return _run_digest(enc, None, report)


@pytest.mark.parametrize("case", list(RECORDED_DIGESTS))
def test_short_runs_train_the_recorded_bits(monkeypatch, case):
    if case == "chunked-5-epochs":
        monkeypatch.setattr(trainer, "_PAIR_ROWS", 45)  # 2 epochs of 20 videos
    assert _recorded_case(case) == RECORDED_DIGESTS[case], platform_note()


# --- the training state ---

def _flat(enc, head) -> bytes:
    params = enc.parameters() + (head.parameters() if head is not None else [])
    return np.concatenate([p.ravel() for _, p in params]).tobytes()


@pytest.mark.parametrize("joint, split, deep", [
    (False, 1, False), (False, 3, False), (True, 2, False), (True, 2, True),
], ids=["4t-online1-after-cold-epoch", "4t-online1-after-milestone", "joint", "joint-deepcopy"])
def test_train_state_is_all_that_carries_between_epochs(joint, split, deep):
    # a run split after epoch ``split`` and continued from a fresh state that
    # holds copies of the state's arrays (the stream past its first K columns
    # NaN), or from a deep copy, trains the bits of the unbroken run; the
    # first state is poisoned, so the rest cannot read it
    corpus = _corpus(videos_per_class=10)
    kw = dict(epochs=4, K=8, milestones=(2,))
    if joint:
        bank, head = _bank(corpus), build_head(6, corpus.spec.num_classes, 0)
        cfg = _config(**kw)
        (enc, want_head), report = train_joint(cfg, corpus, bank)
    else:
        bank, head = _bank(corpus, rhos=(0.9, 0.7, 0.5, 0.3)), None
        cfg = _config(**kw, weight_scheme=WeightScheme.ONLINE1, batch_size=7)
        enc, report = pretrain(cfg, corpus, bank)
        want_head = None
    state = trainer.start_state(cfg, corpus, bank, build_student(8, 8, 6, 0), head)
    draws = list(trainer._pair_draws(cfg, corpus.spec.frames_per_video, corpus.ids()))
    records = [trainer.run_epoch(cfg, corpus, bank, state, d) for d in draws[:split]]
    if deep:
        rest = copy.deepcopy(state)
    else:
        stream = np.full_like(state.stream, np.nan)
        stream[:, :cfg.K] = state.stream[:, :cfg.K]
        rest = trainer.TrainState(state.params.copy(), state.velocity.copy(), state.layout,
                                  stream, state.epoch)
    for array in (state.params, state.velocity, state.stream):
        array[...] = np.nan
    assert rest.epoch == split
    records += [trainer.run_epoch(cfg, corpus, bank, rest, d) for d in draws[split:]]
    assert tuple(records) == report.records
    assert _flat(*rest.models()) == _flat(enc, want_head)


# --- report serialization ---

def test_write_report_artifacts(tmp_path):
    corpus = _corpus()
    cfg = _config(epochs=2)
    _, report = pretrain(cfg, corpus, _bank(corpus))
    write_report(report, tmp_path, {"train": {"epochs": 2}})

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["seed"] == cfg.seed
    assert doc["config"] == {"train": {"epochs": 2}}
    assert len(doc["epochs"]) == 2
    assert "wall_time" not in json.dumps(doc)  # kept out for byte-stable reruns

    lines = (tmp_path / "epochs.csv").read_text().splitlines()
    assert lines[0].startswith(f"# seed={cfg.seed}")
    assert lines[1].split(",")[:4] == ["epoch", "lr", "contrastive_loss", "ce_loss"]
    assert len(lines) == 2 + 2
    for cell in (c for row in csv.reader(lines[2:]) for c in row if c):
        float(cell)  # raises on a numpy repr such as "np.float64(1.0)"


def test_write_report_csv_bytes(tmp_path):
    # a "\n" comment line, then rows ending in "\r\n"; floats by repr, and a
    # cold epoch's missing losses and weights as empty cells
    records = (trainer.EpochRecord(0, 0.1, None, None, (), ()),
               trainer.EpochRecord(1, 0.1 * 0.1, 1 / 3, 0.75, (0.25, 0.75), (0.0, 1e-20)))
    write_report(trainer.RunReport(seed=3, records=records), tmp_path)
    assert (tmp_path / "epochs.csv").read_bytes() == (
        b"# seed=3; full run configuration in report.json\n"
        b"epoch,lr,contrastive_loss,ce_loss,w0_mean,w1_mean,w0_std,w1_std\r\n"
        b"0,0.1,,,,,,\r\n"
        b"1,0.010000000000000002,0.3333333333333333,0.75,0.25,0.75,0.0,1e-20\r\n"
    )


def test_write_report_blank_cells_for_cold_epoch(tmp_path):
    corpus = _corpus()
    cfg = _config(epochs=2, batch_size=2, K=9)
    _, report = pretrain(cfg, corpus, _bank(corpus))
    write_report(report, tmp_path)
    rows = (tmp_path / "epochs.csv").read_text().splitlines()
    cold = rows[2].split(",")
    assert cold[2] == ""  # no contrastive loss recorded
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["epochs"][0]["contrastive_loss"] is None


# --- the pair plan: a run's draws, a chunk of epochs at a time ---

WIDE_IDS = np.array([3, 2 ** 32, 8, 2 ** 40 + 5, 2 ** 32 - 1, 14, 2 ** 62])


def _split_half_ids():
    half, _ = split_videos(_corpus(videos_per_class=8), 0.5, seed=4)
    return half.ids()


def _count_substreams(monkeypatch):
    calls = []
    real = trainer.substreams

    def spy(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(trainer, "substreams", spy)
    return calls


@pytest.mark.parametrize("ids", ["wide", "split-half"])
@pytest.mark.parametrize("epochs_per_chunk,budget", [
    (1, lambda v: 1), (1, lambda v: v), (2, lambda v: 2 * v + 1), (5, lambda v: 5 * v),
], ids=["under-one-epoch", "one-epoch", "mid-run-split", "one-chunk"])
def test_chunked_draws_equal_per_epoch_draw_pairs(monkeypatch, ids, epochs_per_chunk,
                                                  budget):
    """Epoch e's draws are draw_pairs' with the epoch's own substreams,
    index for index, however the run is chunked; ids of two 32-bit words and
    gaps between ids change nothing."""
    ids = WIDE_IDS if ids == "wide" else _split_half_ids()
    V, L, epochs = len(ids), 8, 5
    monkeypatch.setattr(trainer, "_PAIR_ROWS", budget(V))
    calls = _count_substreams(monkeypatch)
    chunks = range(0, epochs, epochs_per_chunk)
    for mode in PairMode:
        cfg = _config(epochs=epochs, pair_mode=mode, segments=3, seed=2 ** 40 + 9)
        calls.clear()
        draws = list(trainer._pair_draws(cfg, L, ids))
        assert calls == [V * min(epochs_per_chunk, epochs - e) for e in chunks]
        assert len(draws) == epochs
        for epoch, views in enumerate(draws):
            want = draw_pairs(L, mode, 3, substreams(cfg.seed, "pair", ids, epoch))
            for got, exp in zip(views, want):
                assert np.array_equal(got, exp), (mode, epoch)


def test_no_epochs_draw_no_pairs(monkeypatch):
    calls = _count_substreams(monkeypatch)
    assert list(trainer._pair_draws(_config(epochs=0), 8, np.arange(10))) == []
    assert calls == []


def test_a_chunk_of_draws_stays_within_a_few_mb():
    # 60 epochs of 2,000 videos would be 120,000 rows; a chunk holds 8 epochs
    # of them, and its transient memory does not grow with the epoch count
    def peak(epochs):
        cfg = TrainConfig(epochs=epochs, milestones=())
        draws = trainer._pair_draws(cfg, 16, np.arange(2000))
        tracemalloc.start()
        try:
            next(draws)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    at_60 = peak(60)
    assert at_60 < 6 * 2 ** 20
    assert abs(peak(600) - at_60) < 2 ** 16
