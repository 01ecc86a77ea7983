import re

import numpy as np
import pytest

from dtg.binio import VersionMismatchError
from dtg.corpus import CorpusSpec, generate_corpus
from dtg.model import (CHECKPOINT_HEADER, Activations, StudentEncoder, TeacherBank,
                       backward_batch, build_head, build_student, build_teacher,
                       forward_batch, load_student, pool_frames, save_student,
                       teacher_features)
from dtg.numerics import DegenerateInputError, finite_diff_check
from dtg.evaluation import knn_top1


def _params(enc: StudentEncoder) -> int:
    return sum(getattr(enc, f).size for f in ("W1", "b1", "W2", "b2", "W3", "b3"))


def test_build_student_deterministic():
    a = build_student(8, 16, 4, seed=0)
    b = build_student(8, 16, 4, seed=0)
    for f in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(a, f), getattr(b, f))
    c = build_student(8, 16, 4, seed=1)
    assert not np.array_equal(a.W1, c.W1)


def test_parameter_count():
    enc = build_student(8, 16, 4, seed=0)
    assert _params(enc) == (8 * 16 + 16) + (16 * 16 + 16) + (16 * 4 + 4) == 484


def _embed(enc: StudentEncoder, seqs) -> np.ndarray:
    out, _ = forward_batch(enc, pool_frames(seqs))
    return out


def test_embed_student_unit_norm():
    enc = build_student(6, 8, 5, seed=2)
    seqs = np.random.default_rng(0).standard_normal((20, 4, 6))
    assert np.allclose(np.linalg.norm(_embed(enc, seqs), axis=1), 1.0, rtol=0, atol=1e-10)


def test_embed_student_reversed_frames_agree_to_rounding():
    enc = build_student(6, 8, 5, seed=2)
    rng = np.random.default_rng(1)
    seq = rng.standard_normal((1, 5, 6))
    out = _embed(enc, seq)
    assert np.array_equal(out, _embed(enc, seq.copy()))
    assert np.allclose(out, _embed(enc, seq[:, ::-1]), rtol=0, atol=1e-14)


def test_embed_student_duplicated_frame_equals_single():
    enc = build_student(6, 8, 5, seed=2)
    frame = np.random.default_rng(2).standard_normal((1, 1, 6))
    rep = np.repeat(frame, 7, axis=1)
    assert np.allclose(_embed(enc, rep), _embed(enc, frame), atol=1e-12)


def test_embed_student_degenerate_zero_input():
    enc = build_student(4, 4, 3, seed=0)
    enc = StudentEncoder(W1=enc.W1, b1=np.zeros_like(enc.b1), W2=enc.W2,
                         b2=np.zeros_like(enc.b2), W3=enc.W3,
                         b3=np.zeros_like(enc.b3))
    with pytest.raises(DegenerateInputError):
        _embed(enc, np.zeros((1, 3, 4)))


def test_forward_backward_matches_finite_differences():
    enc = build_student(5, 7, 4, seed=3)
    rng = np.random.default_rng(4)
    pooled = rng.standard_normal((3, 5))
    target = rng.standard_normal((3, 4))

    def loss_of(params):
        e = StudentEncoder(**params)
        out, _ = forward_batch(e, pooled)
        return float(((out - target) ** 2).sum())

    params = {f: getattr(enc, f) for f in ("W1", "b1", "W2", "b2", "W3", "b3")}
    out, cache = forward_batch(enc, pooled)
    grads = backward_batch(enc, cache, 2.0 * (out - target))
    report = finite_diff_check(loss_of, params, grads)
    assert report.max_rel_error < 1e-5


@pytest.mark.parametrize("n", [64, 52])  # a full batch, and the reference run's last
def test_run_buffers_match_the_allocating_path(n):
    # the trainer's shape: B 64, D 16, h 32, d 16; two steps through one set
    # of buffers, each against fresh arrays, bit for bit
    enc = build_student(16, 32, 16, seed=5)
    rng = np.random.default_rng(6)
    act = Activations.empty(enc, 64)
    for a in vars(act).values():
        a.fill(np.nan)
    flat = np.empty(sum(p.size for _, p in enc.parameters()))
    cuts = np.cumsum([p.size for _, p in enc.parameters()])[:-1]
    grads = {name: part.reshape(p.shape)
             for (name, p), part in zip(enc.parameters(), np.split(flat, cuts))}
    kept = []
    for _ in range(2):
        pooled, d_out = rng.standard_normal((n, 16)), rng.standard_normal((n, 16))
        want, cache = forward_batch(enc, pooled)
        want_grads = backward_batch(enc, cache, d_out)
        flat.fill(np.nan)  # every view must be overwritten whole
        out, cache = forward_batch(enc, pooled, act)
        got = backward_batch(enc, cache, d_out, grads)
        assert got is grads and not np.isnan(flat).any()
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        for name, g in want_grads.items():
            assert np.array_equal(grads[name].view(np.uint64), g.view(np.uint64)), name
        kept.append((out, out.copy()))
    for out, then in kept:  # a later call leaves earlier features alone
        assert np.array_equal(out, then)
    assert not np.shares_memory(kept[0][0], kept[1][0])


@pytest.mark.parametrize("shape, message", [
    ((2, 3, 4), "forward_batch takes pooled (B, D) input, got shape (2, 3, 4)"),
    ((2, 3), "encoder has frame_dim 4; its input has D = 3"),
])
def test_forward_batch_rejects_unpooled_or_misfit_input(shape, message):
    enc = build_student(4, 8, 3, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        forward_batch(enc, np.ones(shape))


def test_pool_frames_is_mean():
    seq = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert np.array_equal(pool_frames(seq), seq.mean(axis=0))


@pytest.mark.parametrize("t", [1, 7, 8, 9, 32, 129])
@pytest.mark.parametrize("dim", [1, 4, 17])
def test_pool_frames_batch_matches_rows(t, dim):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 2, t, dim))
    videos = rng.standard_normal((6, t + 3, dim))
    picks = np.sort(rng.integers(t + 3, size=(6, t)), axis=1)
    same_values = (x,                                                  # C order
                   np.ascontiguousarray(x[..., ::-1, :])[..., ::-1, :],  # reversed-frame view
                   np.asfortranarray(x))
    gathered = videos[np.arange(6)[:, None], picks]                   # as sample_pairs takes
    for frames in (*same_values, gathered):
        pooled = pool_frames(frames)
        assert pooled.shape == frames.shape[:-2] + (dim,)
        rows = [pool_frames(frames[i]) for i in np.ndindex(frames.shape[:-2])]
        assert np.array_equal(pooled.reshape(-1, dim), np.stack(rows))
    for frames in same_values[1:]:
        assert np.array_equal(pool_frames(frames), pool_frames(x))
    with pytest.raises(ValueError):
        pool_frames(np.zeros(4))


def test_teacher_deterministic_and_frozen_shape(tiny_corpus):
    t1 = build_teacher(tiny_corpus, 0.5, embed_dim=6, seed=9)
    t2 = build_teacher(tiny_corpus, 0.5, embed_dim=6, seed=9)
    assert np.array_equal(t1.weight, t2.weight)
    assert np.array_equal(t1.bias, t2.bias)
    assert t1.weight.shape == (6, tiny_corpus.spec.frame_dim)


def test_teacher_output_unit_norm(tiny_corpus, tiny_bank):
    rng = np.random.default_rng(0)
    pooled = pool_frames(rng.standard_normal((1, 4, tiny_corpus.spec.frame_dim)))
    for teacher in tiny_bank.teachers:
        g = teacher_features(teacher, pooled)
        assert abs(np.linalg.norm(g[0]) - 1.0) < 1e-10
        assert np.array_equal(g, teacher_features(teacher, pooled))


def test_rho_one_zero_noise_collapses_classes():
    spec = CorpusSpec(2, 4, 6, 10, 4, video_spread=0.0, frame_noise=0.0, seed=11)
    corpus = generate_corpus(spec)
    teacher = build_teacher(corpus, 1.0, embed_dim=5, seed=1)
    feats = teacher_features(teacher, pool_frames(corpus.frames()))
    labels = corpus.labels()
    for c in (0, 1):
        block = feats[labels == c]
        assert np.allclose(block, block[0], atol=1e-10)


def test_rho_zero_teacher_is_label_blind():
    spec = CorpusSpec(4, 12, 6, 16, 8, video_spread=1.0, frame_noise=0.0, seed=13)
    corpus = generate_corpus(spec)
    teacher = build_teacher(corpus, 0.0, embed_dim=8, seed=2)
    feats = teacher_features(teacher, pool_frames(corpus.frames()))
    labels = corpus.labels()
    acc = knn_top1(feats, labels, k=5)
    assert acc < 0.5  # chance is 0.25; far from the aligned teacher's 1.0


def test_rho_separates_aligned_from_unaligned():
    spec = CorpusSpec(4, 12, 6, 16, 8, video_spread=1.0, frame_noise=0.0, seed=13)
    corpus = generate_corpus(spec)
    labels = corpus.labels()
    accs = []
    for rho in (1.0, 0.0):
        t = build_teacher(corpus, rho, embed_dim=8, seed=2)
        accs.append(knn_top1(teacher_features(t, pool_frames(corpus.frames())), labels, k=5))
    assert accs[0] > accs[1] + 0.3


def test_teacher_features_rejects_degenerate_rows(tiny_corpus):
    teacher = build_teacher(tiny_corpus, 1.0, embed_dim=5, seed=1)
    # a row in the nuisance-only complement maps to bias only; zero frames
    # after zero bias cannot normalize
    t = type(teacher)(name=teacher.name, rho=teacher.rho, weight=teacher.weight,
                      bias=np.zeros_like(teacher.bias))
    with pytest.raises(DegenerateInputError):
        teacher_features(t, np.zeros((1, tiny_corpus.spec.frame_dim)))


def test_bank_requires_consistent_dims(tiny_corpus):
    t1 = build_teacher(tiny_corpus, 0.5, embed_dim=6, seed=0)
    t2 = build_teacher(tiny_corpus, 0.5, embed_dim=7, seed=0)
    with pytest.raises(ValueError):
        TeacherBank(teachers=(t1, t2))
    with pytest.raises(ValueError):
        TeacherBank(teachers=())


def test_head_logits_shape_and_determinism():
    h1 = build_head(6, 4, seed=5)
    h2 = build_head(6, 4, seed=5)
    assert np.array_equal(h1.W, h2.W) and np.array_equal(h1.b, h2.b)
    x = np.random.default_rng(0).standard_normal((3, 6))
    assert (x @ h1.W.T + h1.b).shape == (3, 4)


def test_checkpoint_round_trip(tmp_path):
    enc = build_student(6, 8, 5, seed=7)
    head = build_head(5, 3, seed=8)
    path = tmp_path / "m.dtgm"
    save_student(path, enc, head)
    enc2, head2 = load_student(path)
    for f in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(enc, f), getattr(enc2, f))
    assert np.array_equal(head.W, head2.W) and np.array_equal(head.b, head2.b)


def test_checkpoint_without_head(tmp_path):
    enc = build_student(6, 8, 5, seed=7)
    path = tmp_path / "m.dtgm"
    save_student(path, enc)
    enc2, head2 = load_student(path)
    assert head2 is None
    assert np.array_equal(enc.W3, enc2.W3)


def _saved_with_version(path, version):
    save_student(path, build_student(4, 4, 3, seed=0))
    family = CHECKPOINT_HEADER.split()[0]
    path.write_bytes(path.read_bytes().replace(CHECKPOINT_HEADER.encode(),
                                               f"{family} {version}".encode(), 1))


def test_checkpoint_version_error(tmp_path):
    path = tmp_path / "m.dtgm"
    _saved_with_version(path, "v9")
    with pytest.raises(VersionMismatchError):
        load_student(path)


def test_v2_checkpoint_is_an_unsupported_version(tmp_path):
    path = tmp_path / "m.dtgm"
    _saved_with_version(path, "v2")
    with pytest.raises(VersionMismatchError, match="unsupported version 'DTGM v2'"):
        load_student(path)
