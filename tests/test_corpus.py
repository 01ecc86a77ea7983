import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from dtg.binio import ChecksumMismatchError, FormatError, VersionMismatchError
from dtg.corpus import (CORPUS_HEADER, Corpus, CorpusSpec, generate_corpus, load_corpus,
                        save_corpus, split_videos)
from dtg.numerics import DegenerateInputError
from dtg.seeding import substream

from conftest import crafted, platform_note


def test_shapes_counts_and_labels():
    spec = CorpusSpec(num_classes=2, videos_per_class=3, frames_per_video=4,
                      frame_dim=8, signal_dim=4, seed=7)
    corpus = generate_corpus(spec)
    assert corpus.num_videos == 6
    assert corpus.frames().shape == (6, 4, 8)
    assert sorted(corpus.labels().tolist()) == [0, 0, 0, 1, 1, 1]
    assert len(set(corpus.ids().tolist())) == 6


def test_frames_stack_videos_in_order():
    corpus = generate_corpus(CorpusSpec(2, 3, 4, 8, 4, seed=7))
    for part in (corpus, split_videos(corpus, 0.5, seed=1)[1]):
        frames = part.frames()
        assert frames.shape == (part.num_videos, 4, 8)
        # row v is the video whose id is ids()[v], in the corpus and in a split half
        assert np.array_equal(frames, corpus.frames()[part.ids().astype(np.intp)])
        assert np.array_equal(part.labels(), corpus.labels()[part.ids().astype(np.intp)])


def test_accessors_return_the_stored_read_only_arrays(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path / "c.dtgc")
    for part in (tiny_corpus, split_videos(tiny_corpus, 0.5, seed=1)[0],
                 load_corpus(tmp_path / "c.dtgc")):
        for get, dtype in ((part.frames, np.float64), (part.labels, np.int64),
                           (part.ids, np.uint64)):
            assert get() is get() and get().dtype == dtype
            assert not get().flags.writeable


# sha256 of save_corpus(generate_corpus(spec)), recorded from a per-video loop
# over substream(seed, "corpus-video", v): a change to any drawn value, its
# rounding or the file layout fails
RECORDED_CORPUS_SHA256 = [
    (CorpusSpec(3, 4, 5, 8, 3, video_spread=0.7, frame_noise=0.2, drift=0.1, seed=2 ** 40 + 7),
     "fd3ac877951d9fe41c323c2300d0bb8f0241848a81d6cea6431d32c45d305923"),
    (CorpusSpec(2, 3, 4, 6, 6, video_spread=1.0, frame_noise=0.3, drift=0.4, seed=5),
     "0e84f6489496efbd41c08053b79866674b649b67725686abc89191d9b4078db1"),
    (CorpusSpec(4, 2, 1, 5, 2, video_spread=0.5, frame_noise=0.1, drift=0.2, seed=11),
     "573b0c933aa87a4b8e66fc49e3d000209f90e475e7be844d70616978204a26a9"),
]


@pytest.mark.parametrize("spec, digest", RECORDED_CORPUS_SHA256,
                         ids=["seed-above-2^32", "signal-dim-equals-frame-dim", "one-frame"])
def test_saved_corpus_matches_recorded_bytes(tmp_path, spec, digest):
    save_corpus(generate_corpus(spec), tmp_path / "c.dtgc")
    got = hashlib.sha256((tmp_path / "c.dtgc").read_bytes()).hexdigest()
    assert got == digest, platform_note()


def test_save_corpus_does_not_copy_the_frames(tmp_path):
    # 1,024 videos of 8 frames of 128 float64 values: 8 MiB of frames
    corpus = generate_corpus(CorpusSpec(4, 256, 8, 128, 8, seed=3))
    frame_bytes = corpus.frames().nbytes
    assert frame_bytes >= 8 * 2 ** 20
    tracemalloc.start()
    try:
        save_corpus(corpus, tmp_path / "c.dtgc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frame_bytes / 4, (peak, frame_bytes)
    assert np.array_equal(load_corpus(tmp_path / "c.dtgc").frames(), corpus.frames())


def test_videos_match_the_per_video_formula():
    # the module docstring's formula, one video at a time from its own stream
    spec = CorpusSpec(3, 5, 6, 9, 4, video_spread=0.8, frame_noise=0.4, drift=0.3,
                      seed=2 ** 33 + 1)
    corpus = generate_corpus(spec)
    prototypes = (substream(spec.seed, "corpus-prototypes").standard_normal((3, 4))
                  @ corpus.signal_basis)
    ts = np.arange(spec.frames_per_video, dtype=np.float64)[:, None]
    for vid in (0, 4, 5, 11, 14):
        rng = substream(spec.seed, "corpus-video", vid)
        label = vid // spec.videos_per_class
        z = prototypes[label] + spec.video_spread * (rng.standard_normal(4) @ corpus.signal_basis)
        u = rng.standard_normal(9)
        u /= np.linalg.norm(u)
        frames = z + spec.drift * ts * u + spec.frame_noise * rng.standard_normal((6, 9))
        assert np.array_equal(corpus.frames()[vid], frames)
        assert corpus.labels()[vid] == label and corpus.ids()[vid] == vid


def test_overflowing_scale_names_the_first_video_without_a_warning():
    # videos 0 and 1 stay finite at this scale; video 2 is the first to overflow
    spec = CorpusSpec(2, 3, 8, 8, 4, video_spread=1e308, frame_noise=0.3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="overflow at video 2: lower corpus"):
            generate_corpus(spec)


def test_same_seed_bit_identical():
    spec = CorpusSpec(2, 3, 4, 8, 4, seed=7)
    a, b = generate_corpus(spec), generate_corpus(spec)
    assert np.array_equal(a.frames(), b.frames())
    assert np.array_equal(a.signal_basis, b.signal_basis)


def test_zero_noise_collapses_to_class_prototype():
    spec = CorpusSpec(2, 3, 4, 8, 4, video_spread=0.0, frame_noise=0.0,
                      drift=0.0, seed=3)
    corpus = generate_corpus(spec)
    for c in (0, 1):
        frames = corpus.frames()[corpus.labels() == c]
        assert np.allclose(frames, frames[0, 0], atol=1e-12)


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
    pooled = corpus.frames().mean(axis=1)
    labels = corpus.labels()
    protos = np.stack([pooled[labels == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((pooled[:, None, :] - protos[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == labels).all()


def test_drift_moves_frames_along_one_direction():
    base = CorpusSpec(1, 1, 8, 6, 3, video_spread=0.0, frame_noise=0.0, seed=2)
    still = generate_corpus(base).frames()[0]
    drifted = generate_corpus(dataclasses.replace(base, drift=0.5)).frames()[0]
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
    assert np.array_equal(back.labels(), tiny_corpus.labels())
    assert np.array_equal(back.ids(), tiny_corpus.ids())
    assert np.array_equal(back.frames(), tiny_corpus.frames())


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
    assert (b.frames().dtype, b.labels().dtype, b.ids().dtype) == (np.float64, np.int64,
                                                                   np.uint64)


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


def test_v2_file_is_an_unsupported_version(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    _with_version(path, "v2")
    with pytest.raises(VersionMismatchError, match="unsupported version 'DTGC v2'"):
        load_corpus(path)


@pytest.mark.parametrize("values, message", [
    ({"signal_dim": 9}, "signal_dim must not exceed frame_dim"),
    ({"num_classes": 0}, "num_classes must be an integer >= 1"),
    ({"num_videos": 2 ** 64 - 1}, "record truncated"),
    ({"num_videos": 5}, "unexpected trailing bytes"),
    ({"num_classes": 7}, "6 videos are fewer than the 7 classes"),
    ({"num_classes": 2 ** 32 - 1}, "6 videos are fewer than the 4294967295 classes"),
])
def test_checksum_valid_bad_header_raises_format_error(tmp_path, tiny_corpus, values, message):
    path = tmp_path / "c.dtgc"
    save_corpus(tiny_corpus, path)
    path.write_bytes(crafted(path.read_bytes(), **values))
    with pytest.raises(FormatError, match=message):
        load_corpus(path)


def test_label_outside_the_spec_raises_format_error(tmp_path, tiny_corpus):
    path = tmp_path / "c.dtgc"
    labels = tiny_corpus.labels().copy()
    labels[0] = tiny_corpus.spec.num_classes
    save_corpus(dataclasses.replace(tiny_corpus, _labels=labels), path)
    with pytest.raises(FormatError, match="out of range"):
        load_corpus(path)


@pytest.mark.parametrize("field, index, value", [
    ("_frames", (-1, -1, -1), np.nan),
    ("_frames", (2, 0, 3), -np.inf),
    ("signal_basis", (0, 0), np.inf),
    ("nuisance_basis", (1, 2), np.nan),
])
def test_non_finite_bases_or_frames_raise_format_error(tmp_path, tiny_corpus, field, index,
                                                       value):
    array = getattr(tiny_corpus, field).copy()
    array[index] = value
    path = tmp_path / "c.dtgc"
    save_corpus(dataclasses.replace(tiny_corpus, **{field: array}), path)  # a valid checksum
    with pytest.raises(FormatError, match="non-finite"):
        load_corpus(path)


def test_split_videos_partitions_each_class(tiny_corpus):
    train, held = split_videos(tiny_corpus, 0.5, seed=0)
    got = np.concatenate([train.ids(), held.ids()])
    assert sorted(got.tolist()) == sorted(tiny_corpus.ids().tolist())
    for c in range(tiny_corpus.spec.num_classes):
        n_train = np.count_nonzero(train.labels() == c)
        n_held = np.count_nonzero(held.labels() == c)
        assert n_train >= 1 and n_held >= 1
        assert n_train + n_held == tiny_corpus.spec.videos_per_class


def test_split_videos_deterministic_and_seed_sensitive(tiny_corpus):
    a1, _ = split_videos(tiny_corpus, 0.5, seed=4)
    a2, _ = split_videos(tiny_corpus, 0.5, seed=4)
    assert np.array_equal(a1.ids(), a2.ids())
    ids = {tuple(sorted(split_videos(tiny_corpus, 0.5, seed=s)[0].ids().tolist()))
           for s in range(20)}
    assert len(ids) > 1


def test_split_videos_validates_fraction(tiny_corpus):
    with pytest.raises(ValueError):
        split_videos(tiny_corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_videos(tiny_corpus, 1.0, seed=0)
