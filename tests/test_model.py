import re

import numpy as np
import pytest

from dtg.binio import FormatError, VersionMismatchError
from dtg.corpus import CorpusSpec, generate_corpus
from dtg.model import (CHECKPOINT_HEADER, ClassifierHead, StudentEncoder, TeacherBank,
                       backward_batch, build_bank, build_head, build_student,
                       forward_batch, load_student, save_student,
                       teacher_features)
from dtg.numerics import DegenerateInputError, finite_diff_check, unit_rows
from dtg.evaluation import knn_top1

from conftest import backward, checkpoint_record, whole_videos


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
    out, _ = forward_batch(enc, whole_videos(seqs))
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
    grads = backward(enc, cache, 2.0 * (out - target))
    report = finite_diff_check(loss_of, params, grads)
    assert report.max_rel_error < 1e-5


@pytest.mark.parametrize("n", [64, 52])  # a full batch, and the reference run's last
def test_run_buffers_match_separate_gradient_arrays(n):
    # the trainer's shape: B 64, D 16, h 32, d 16; two steps whose gradients
    # go into views of one flat vector made once, each against new separate
    # arrays, bit for bit
    enc = build_student(16, 32, 16, seed=5)
    rng = np.random.default_rng(6)
    flat = np.empty(sum(p.size for _, p in enc.parameters()))
    cuts = np.cumsum([p.size for _, p in enc.parameters()])[:-1]
    grads = {name: part.reshape(p.shape)
             for (name, p), part in zip(enc.parameters(), np.split(flat, cuts))}
    kept = []
    for _ in range(2):
        pooled, d_out = rng.standard_normal((n, 16)), rng.standard_normal((n, 16))
        out, cache = forward_batch(enc, pooled)
        want_grads = backward(enc, cache, d_out)
        flat.fill(np.nan)  # every view must be overwritten whole
        got = backward_batch(enc, cache, d_out, grads)
        assert got is grads and not np.isnan(flat).any()
        for name, g in want_grads.items():
            assert np.array_equal(grads[name].view(np.uint64), g.view(np.uint64)), name
        kept.append((out, out.copy()))
    for out, then in kept:  # a later call leaves earlier features alone
        assert np.array_equal(out, then)
    assert not np.shares_memory(kept[0][0], kept[1][0])


def test_backward_takes_its_gradient_arrays_from_the_caller():
    # one path, the trainer's: no call allocates the gradients
    enc = build_student(6, 4, 3, seed=0)
    _, cache = forward_batch(enc, np.eye(1, 6))
    with pytest.raises(TypeError, match="grads"):
        backward_batch(enc, cache, np.ones((1, 3)))


@pytest.mark.parametrize("shape, message", [
    ((2, 3, 4), "forward_batch takes pooled (B, D) input, got shape (2, 3, 4)"),
    ((2, 3), "encoder has frame_dim 4; its input has D = 3"),
])
def test_forward_batch_rejects_unpooled_or_misfit_input(shape, message):
    enc = build_student(4, 8, 3, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        forward_batch(enc, np.ones(shape))


def test_teacher_deterministic_and_frozen_shape(tiny_corpus):
    b1 = build_bank(tiny_corpus, (0.5,), embed_dim=6, seeds=(9,))
    b2 = build_bank(tiny_corpus, (0.5,), embed_dim=6, seeds=(9,))
    assert np.array_equal(b1.weight, b2.weight)
    assert np.array_equal(b1.bias, b2.bias)
    assert b1.weight.shape == (1, 6, tiny_corpus.spec.frame_dim)
    assert b1.bias.shape == (1, 1, 6)


def test_teacher_output_unit_norm(tiny_corpus, tiny_bank):
    rng = np.random.default_rng(0)
    pooled = whole_videos(rng.standard_normal((1, 4, tiny_corpus.spec.frame_dim)))
    g = teacher_features(tiny_bank, pooled)
    assert g.shape == (len(tiny_bank), 1, tiny_bank.embed_dim)
    assert np.all(np.abs(np.linalg.norm(g, axis=-1) - 1.0) < 1e-10)
    assert np.array_equal(g, teacher_features(tiny_bank, pooled))


def test_rho_one_zero_noise_collapses_classes():
    spec = CorpusSpec(2, 4, 6, 10, 4, video_spread=0.0, frame_noise=0.0, seed=11)
    corpus = generate_corpus(spec)
    bank = build_bank(corpus, (1.0,), embed_dim=5, seeds=(1,))
    feats = teacher_features(bank, whole_videos(corpus.frames()))[0]
    labels = corpus.labels()
    for c in (0, 1):
        block = feats[labels == c]
        assert np.allclose(block, block[0], atol=1e-10)


def test_rho_zero_teacher_is_label_blind():
    spec = CorpusSpec(4, 12, 6, 16, 8, video_spread=1.0, frame_noise=0.0, seed=13)
    corpus = generate_corpus(spec)
    bank = build_bank(corpus, (0.0,), embed_dim=8, seeds=(2,))
    feats = teacher_features(bank, whole_videos(corpus.frames()))[0]
    labels = corpus.labels()
    acc = knn_top1(feats, labels, k=5)
    assert acc < 0.5  # chance is 0.25; far from the aligned teacher's 1.0


def test_rho_separates_aligned_from_unaligned():
    spec = CorpusSpec(4, 12, 6, 16, 8, video_spread=1.0, frame_noise=0.0, seed=13)
    corpus = generate_corpus(spec)
    labels = corpus.labels()
    bank = build_bank(corpus, (1.0, 0.0), embed_dim=8, seeds=(2, 2))
    accs = [knn_top1(feats, labels, k=5)
            for feats in teacher_features(bank, whole_videos(corpus.frames()))]
    assert accs[0] > accs[1] + 0.3


def test_teacher_features_rejects_degenerate_rows(tiny_corpus):
    teacher = build_bank(tiny_corpus, (1.0,), embed_dim=5, seeds=(1,))
    # a row in the nuisance-only complement maps to bias only; zero frames
    # after zero bias cannot normalize
    zero_bias = np.zeros_like(teacher.bias)
    for bank in (TeacherBank(teacher.weight, zero_bias),
                 TeacherBank(np.concatenate([teacher.weight] * 2),
                             np.concatenate([teacher.bias, zero_bias]))):
        with pytest.raises(DegenerateInputError):
            teacher_features(bank, np.zeros((1, tiny_corpus.spec.frame_dim)))


def _readout_reference(weights, biases, pooled):
    """Each teacher read out on its own, as one affine map and a row
    normalization, stacked teacher-major."""
    return np.stack([unit_rows(pooled @ w.T + b, "guidance feature")[0]
                     for w, b in zip(weights, biases)])


@pytest.mark.parametrize("dim", [3, 16])
@pytest.mark.parametrize("embed", [1, 2, 16])
@pytest.mark.parametrize("rows", [1, 7, 500])
def test_bank_readout_is_each_teachers_own_readout(rows, embed, dim):
    for n in range(1, 6):
        rng = np.random.default_rng([rows, embed, dim, n])
        weights, biases = zip(*[(rng.standard_normal((embed, dim)), rng.standard_normal(embed))
                                for _ in range(n)])
        pooled = rng.standard_normal((rows, dim))
        got = teacher_features(TeacherBank(np.stack(weights), np.stack(biases)[:, None]), pooled)
        assert got.shape == (n, rows, embed)
        assert np.array_equal(got, _readout_reference(weights, biases, pooled)), n


@pytest.mark.parametrize("weight,bias", [
    ((0, 6, 8), (0, 1, 6)),   # no teacher
    ((6, 8), (1, 6)),         # one teacher's (d, D), not a bank
    ((2, 6, 8), (2, 6)),      # biases without their unit axis
    ((2, 6, 8), (1, 1, 6)),   # one bias for two teachers
    ((2, 6, 8), (2, 1, 7)),   # biases of another dimension
], ids=["empty", "unstacked", "flat-bias", "bias-count", "bias-dim"])
def test_bank_rejects_an_empty_or_misshaped_bank(weight, bias):
    with pytest.raises(ValueError):
        TeacherBank(np.zeros(weight), np.zeros(bias))


@pytest.mark.parametrize("rhos,embed_dim,seeds", [
    ((0.9, 0.3), 6, (1,)),
    ((0.9,), 6, (1, 2)),
    ((), 6, ()),
    ((0.9, -0.1), 6, (1, 2)),
    ((1.1,), 6, (1,)),
    ((float("nan"),), 6, (1,)),
    ((0.9,), 0, (1,)),
], ids=["fewer-seeds", "more-seeds", "empty", "rho-below-0", "rho-above-1", "rho-nan",
        "embed-0"])
def test_build_bank_rejects_bad_arguments(tiny_corpus, rhos, embed_dim, seeds):
    with pytest.raises(ValueError):
        build_bank(tiny_corpus, rhos, embed_dim, seeds)


@pytest.mark.parametrize("embed_dim", [6, 12])  # below and above the frame dim 8
def test_bank_rows_are_one_teacher_banks(tiny_corpus, embed_dim):
    rhos, seeds = (0.9, 0.3, 0.9, 0.0, 1.0), (3, 3, 5, 2 ** 64 - 1, 0)
    bank = build_bank(tiny_corpus, rhos, embed_dim, seeds)
    assert len(bank) == 5 and bank.embed_dim == embed_dim
    for i, (rho, seed) in enumerate(zip(rhos, seeds)):
        one = build_bank(tiny_corpus, (rho,), embed_dim, (seed,))
        assert np.array_equal(bank.weight[i], one.weight[0])
        assert np.array_equal(bank.bias[i], one.bias[0])


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


@pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2", "W3", "b3", "head.W", "head.b"])
def test_checkpoint_with_a_non_finite_value_is_a_format_error(tmp_path, name):
    enc, head = build_student(6, 8, 5, seed=7), build_head(5, 3, seed=8)
    dict(enc.parameters() + head.parameters())[name].flat[-1] = np.nan
    save_student(tmp_path / "m.dtgm", enc, head)
    with pytest.raises(FormatError, match="non-finite"):
        load_student(tmp_path / "m.dtgm")


ZERO_DIMENSIONS = [((0, 8, 5), None), ((6, 0, 5), None), ((6, 8, 0), None), ((6, 8, 5), 0)]


@pytest.mark.parametrize("dims, classes", ZERO_DIMENSIONS)
def test_checkpoint_with_a_zero_dimension_is_a_format_error(tmp_path, dims, classes):
    path = tmp_path / "m.dtgm"
    path.write_bytes(checkpoint_record((6, 8, 5), 3))
    enc, head = load_student(path)  # the record is well formed at nonzero dims
    assert (enc.frame_dim, enc.hidden_dim, enc.embed_dim, head.num_classes) == (6, 8, 5, 3)
    path.write_bytes(checkpoint_record(dims, classes))
    with pytest.raises(FormatError, match="zero dimension"):
        load_student(path)


@pytest.mark.parametrize("dims, classes", ZERO_DIMENSIONS)
def test_saving_a_zero_dimension_raises_before_writing(tmp_path, dims, classes):
    dim, hidden, embed = dims
    enc = StudentEncoder(np.zeros((hidden, dim)), np.zeros(hidden), np.zeros((hidden, hidden)),
                         np.zeros(hidden), np.zeros((embed, hidden)), np.zeros(embed))
    head = None if classes is None else ClassifierHead(np.zeros((classes, embed)),
                                                       np.zeros(classes))
    with pytest.raises(ValueError, match="zero dimension"):
        save_student(tmp_path / "m.dtgm", enc, head)
    assert not (tmp_path / "m.dtgm").exists()


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
