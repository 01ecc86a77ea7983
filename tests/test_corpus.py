import dataclasses

import numpy as np
import pytest

from dtg.binio import ChecksumMismatchError, FormatError, VersionMismatchError
from dtg.corpus import (CORPUS_HEADER, Corpus, CorpusSpec, generate_corpus, load_corpus,
                        save_corpus, split_videos)

from conftest import crafted


def test_shapes_counts_and_labels():
    spec = CorpusSpec(num_classes=2, videos_per_class=3, frames_per_video=4,
                      frame_dim=8, signal_dim=4, seed=7)
    corpus = generate_corpus(spec)
    assert len(corpus.videos) == 6
    assert all(v.frames.shape == (4, 8) for v in corpus.videos)
    assert sorted(v.label for v in corpus.videos) == [0, 0, 0, 1, 1, 1]
    assert len({v.video_id for v in corpus.videos}) == 6


def test_frames_stack_videos_in_order():
    corpus = generate_corpus(CorpusSpec(2, 3, 4, 8, 4, seed=7))
    for part in (corpus, split_videos(corpus, 0.5, seed=1)[1]):
        frames = part.frames()
        assert frames.shape == (part.num_videos, 4, 8)
        for row, video in zip(frames, part.videos):
            assert np.array_equal(row, video.frames)


def test_same_seed_bit_identical():
    spec = CorpusSpec(2, 3, 4, 8, 4, seed=7)
    a, b = generate_corpus(spec), generate_corpus(spec)
    for va, vb in zip(a.videos, b.videos):
        assert np.array_equal(va.frames, vb.frames)
    assert np.array_equal(a.signal_basis, b.signal_basis)


def test_zero_noise_collapses_to_class_prototype():
    spec = CorpusSpec(2, 3, 4, 8, 4, video_spread=0.0, frame_noise=0.0,
                      drift=0.0, seed=3)
    corpus = generate_corpus(spec)
    for c in (0, 1):
        vids = [v for v in corpus.videos if v.label == c]
        proto = vids[0].frames[0]
        for v in vids:
            assert np.allclose(v.frames, proto, atol=1e-12)


def test_bases_orthonormal_and_mutually_orthogonal():
    corpus = generate_corpus(CorpusSpec(3, 2, 4, 10, 4, seed=1))
    s, n = corpus.signal_basis, corpus.nuisance_basis
    assert s.shape == (4, 10) and n.shape == (6, 10)
    assert np.abs(s @ s.T - np.eye(4)).max() < 1e-10
    assert np.abs(n @ n.T - np.eye(6)).max() < 1e-10
    assert np.abs(s @ n.T).max() < 1e-10


def test_nearest_prototype_is_perfect_when_frames_are_clean():
    # small spread, no frame noise: class structure dominates
    spec = CorpusSpec(4, 5, 6, 12, 6, video_spread=0.05, frame_noise=0.0, seed=5)
    corpus = generate_corpus(spec)
    pooled = np.stack([v.frames.mean(axis=0) for v in corpus.videos])
    labels = np.array([v.label for v in corpus.videos])
    protos = np.stack([pooled[labels == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((pooled[:, None, :] - protos[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == labels).all()


def test_drift_moves_frames_along_one_direction():
    base = CorpusSpec(1, 1, 8, 6, 3, video_spread=0.0, frame_noise=0.0, seed=2)
    still = generate_corpus(base).videos[0].frames
    drifted = generate_corpus(dataclasses.replace(base, drift=0.5)).videos[0].frames
    assert np.allclose(still, np.broadcast_to(still[0], still.shape))
    steps = np.diff(drifted, axis=0)
    assert np.linalg.norm(steps[0]) > 0
    # constant step direction and magnitude: frame t sits at z + 0.5 t u
    assert np.allclose(steps, np.broadcast_to(steps[0], steps.shape), atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(0, 3, 4, 8, 4))
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(2, 3, 4, 8, 9))  # signal_dim > frame_dim
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(2, 3, 4, 8, 4, video_spread=-1.0))


def test_save_load_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    back = load_corpus(path)
    assert back.spec == tiny_corpus.spec
    assert np.array_equal(back.signal_basis, tiny_corpus.signal_basis)
    assert np.array_equal(back.nuisance_basis, tiny_corpus.nuisance_basis)
    for va, vb in zip(tiny_corpus.videos, back.videos):
        assert va.label == vb.label and va.video_id == vb.video_id
        assert np.array_equal(va.frames, vb.frames)


def test_save_is_byte_deterministic(tmp_path, tiny_corpus):
    p1, p2 = tmp_path / "a.dtgc", tmp_path / "b.dtgc"
    save_corpus(tiny_corpus, p1)
    save_corpus(tiny_corpus, p2)
    assert p1.read_bytes() == p2.read_bytes()


def assert_same_corpus(a, b):
    assert a.spec == b.spec and a.num_videos == b.num_videos
    assert np.array_equal(a.signal_basis, b.signal_basis)
    assert np.array_equal(a.nuisance_basis, b.nuisance_basis)
    assert np.array_equal(a.frames(), b.frames())
    assert np.array_equal(a.labels(), b.labels()) and np.array_equal(a.ids(), b.ids())
    assert [type(v.label) for v in b.videos] == [int] * b.num_videos
    assert [type(v.video_id) for v in b.videos] == [int] * b.num_videos


def test_split_halves_round_trip(tmp_path, tiny_corpus):
    # the file stores the actual video count, not the spec's
    for i, half in enumerate(split_videos(tiny_corpus, 0.5, 0)):
        assert half.num_videos < tiny_corpus.num_videos
        path = tmp_path / f"half{i}.dtgc"
        save_corpus(half, path)
        assert_same_corpus(load_corpus(path), half)


def test_truncated_file_raises_format_error(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError):
        load_corpus(path)


def test_corrupted_byte_raises_checksum_error(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatchError):
        load_corpus(path)


def _with_version(path, version):
    family = CORPUS_HEADER.split()[0]
    path.write_bytes(path.read_bytes().replace(CORPUS_HEADER.encode(),
                                               f"{family} {version}".encode(), 1))


def test_version_mismatch_raises_version_error(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    _with_version(path, "v9")
    with pytest.raises(VersionMismatchError):
        load_corpus(path)


def test_v1_file_is_an_unsupported_version(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    _with_version(path, "v1")
    with pytest.raises(VersionMismatchError, match="unsupported version 'DTGC v1'"):
        load_corpus(path)


@pytest.mark.parametrize("values, message", [
    ({"signal_dim": 9}, "signal_dim must not exceed frame_dim"),
    ({"num_classes": 0}, "num_classes must be >= 1"),
    ({"num_videos": 2 ** 64 - 1}, "record truncated"),
    ({"num_videos": 5}, "unexpected trailing bytes"),
])
def test_checksum_valid_bad_header_raises_format_error(tmp_path, tiny_corpus, values, message):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    path.write_bytes(crafted(path.read_bytes(), **values))
    with pytest.raises(FormatError, match=message):
        load_corpus(path)


def test_label_outside_the_spec_raises_format_error(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    first = dataclasses.replace(tiny_corpus.videos[0], label=tiny_corpus.spec.num_classes)
    save_corpus(dataclasses.replace(tiny_corpus, videos=(first, *tiny_corpus.videos[1:])), path)
    with pytest.raises(FormatError, match="out of range"):
        load_corpus(path)


def test_split_videos_partitions_each_class(tiny_corpus):
    train, held = split_videos(tiny_corpus, 0.5, seed=0)
    got = sorted(v.video_id for v in train.videos) + sorted(v.video_id for v in held.videos)
    assert sorted(got) == sorted(v.video_id for v in tiny_corpus.videos)
    for c in range(tiny_corpus.spec.num_classes):
        n_train = sum(v.label == c for v in train.videos)
        n_held = sum(v.label == c for v in held.videos)
        assert n_train >= 1 and n_held >= 1
        assert n_train + n_held == tiny_corpus.spec.videos_per_class


def test_split_videos_deterministic_and_seed_sensitive(tiny_corpus):
    a1, _ = split_videos(tiny_corpus, 0.5, seed=4)
    a2, _ = split_videos(tiny_corpus, 0.5, seed=4)
    assert [v.video_id for v in a1.videos] == [v.video_id for v in a2.videos]
    ids = {tuple(sorted(v.video_id for v in split_videos(tiny_corpus, 0.5, seed=s)[0].videos))
           for s in range(20)}
    assert len(ids) > 1


def test_split_videos_validates_fraction(tiny_corpus):
    with pytest.raises(ValueError):
        split_videos(tiny_corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_videos(tiny_corpus, 1.0, seed=0)
