"""Synthetic labeled video corpora.

A "video" here is a length-L sequence of D-dimensional frame feature vectors.
Class identity and per-video identity live in a Ds-dimensional signal
subspace; the orthogonal complement carries only nuisance variation (drift
and frame noise), which no downstream task depends on.  Each video draws a
latent around its class prototype inside the signal subspace, then frames
add a slow linear drift along a random direction plus per-frame noise:

    z       = mu_c + video_spread * (eps @ signal_basis)   (eps ~ N(0, I_Ds))
    frame_t = z + drift * t * u + frame_noise * eps_t      (u a random unit vector)

The signal/nuisance bases are exposed so frozen teachers with a controllable
task alignment can be built on the same corpus.

A corpus holds its videos as three read-only arrays, row v one video:
frames (V, L, D) float64, labels (V,) int64 and ids (V,) uint64, with
video v of class v // videos_per_class.  ``generate_corpus`` builds them in
one batched pass.  Video v still draws from ``substream(seed,
"corpus-video", v)``, in the order latent (Ds), direction (D), frame noise
(L, D): one ``substreams`` call gives every video's PCG64 state, and one
reused numpy ``Generator`` draws each video's normals straight into its
rows.  The arithmetic then runs stacked over videos, in forms that round as
the per-video formula does, so every value matches a per-video loop bit
for bit.

File format (``save_corpus``/``load_corpus``, conventions in ``binio``):
header line ``DTGC v3``, then one little-endian record ``<5I3dQQ`` holding
the spec (u32 C, videos per class, L, D, Ds; f64 spread, noise, drift; u64
seed) and the actual video count V, which differs from C * videos-per-class
for a ``split_videos`` half.  Then whole row-major arrays, each zero-padded
to a multiple of its item size: the two bases (Ds, D) and (D - Ds, D) f8,
labels (V,) u4, ids (V,) u8 and frames (V, L, D) f8; last, the 4-byte
little-endian CRC-32 of all preceding bytes.  It catches accidental damage
(every burst of up to 32 bits, random damage but for a 2^-32 chance); like
any unkeyed trailer it does not authenticate the file.  v3 differs from v2
only in the header and the trailer (v2 ended in an 8-byte BLAKE2b digest).
There is no v2 or v1 reader: such a file is rejected as an unsupported
version, and ``dtg gen-data`` regenerates it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, RecordReader, RecordWriter, write_file
from .numerics import (DegenerateInputError, FieldError, all_finite, check_fields, declared,
                       haar_orthogonal)
from .seeding import substream, substreams

CORPUS_HEADER = "DTGC v3"
_SPEC_RECORD = "<5I3dQQ"  # CorpusSpec fields in declaration order, then V


@dataclass(frozen=True)
class CorpusSpec:
    num_classes: int = declared(int, ge=1)
    videos_per_class: int = declared(int, ge=1)
    frames_per_video: int = declared(int, ge=1)
    frame_dim: int = declared(int, ge=1)
    signal_dim: int = declared(int, ge=1)
    video_spread: float = declared(float, 0.5, ge=0)
    frame_noise: float = declared(float, 0.1, ge=0)
    drift: float = declared(float, 0.0, ge=0)
    seed: int = declared(int, 0, ge=0, lt=2 ** 64)

    def __post_init__(self):
        check_fields(self)
        if self.signal_dim > self.frame_dim:
            raise FieldError("signal_dim", "must not exceed frame_dim")


@dataclass(frozen=True)
class Video:
    frames: np.ndarray  # (L, D) float64
    label: int
    video_id: int


@dataclass(frozen=True)
class Corpus:
    """Videos as arrays; row v of ``frames()``, ``labels()`` and ``ids()``
    is one video.  The three arrays are made read-only on construction, and
    the accessors return them without a copy."""

    spec: CorpusSpec
    signal_basis: np.ndarray    # (Ds, D), orthonormal rows
    nuisance_basis: np.ndarray  # (D - Ds, D), orthonormal rows
    _frames: np.ndarray         # (V, L, D) float64
    _labels: np.ndarray         # (V,) int64
    _ids: np.ndarray            # (V,) uint64

    def __post_init__(self):
        for a in (self._frames, self._labels, self._ids):
            a.flags.writeable = False

    @property
    def num_videos(self) -> int:
        return len(self._labels)

    def labels(self) -> np.ndarray:
        return self._labels

    def ids(self) -> np.ndarray:
        return self._ids

    def frames(self) -> np.ndarray:
        return self._frames

    @property
    def videos(self) -> tuple[Video, ...]:
        """Per-video records built from the arrays, for perfbench's
        ``workloads._same_corpus`` alone.  Delete this and ``Video`` once
        that check compares ``frames()``, ``labels()`` and ``ids()``."""
        return tuple(map(Video, self._frames, self._labels.tolist(), self._ids.tolist()))


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically generate a corpus from its spec, in one batched pass
    over the per-video streams (see the module docstring)."""
    d, ds = spec.frame_dim, spec.signal_dim
    rows = haar_orthogonal(substream(spec.seed, "corpus-bases"), d).T
    signal_basis, nuisance_basis = rows[:ds].copy(), rows[ds:].copy()
    proto_coeffs = substream(spec.seed, "corpus-prototypes").standard_normal(
        (spec.num_classes, ds)
    )
    prototypes = proto_coeffs @ signal_basis

    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.videos_per_class)
    ids = np.arange(labels.size, dtype=np.uint64)
    latent = np.empty((labels.size, ds))
    direction = np.empty((labels.size, d))
    frames = np.empty((labels.size, spec.frames_per_video, d))
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for vid, state in enumerate(substreams(spec.seed, "corpus-video", ids).numpy_states()):
        bits.state = state
        rng.standard_normal(out=latent[vid])
        rng.standard_normal(out=direction[vid])
        rng.standard_normal(out=frames[vid])
    # frame_t = z + drift * t * u + frame_noise * eps_t, stacked over videos.
    # The products and norms are stacked (1, n) @ (n, m) ones, which round as
    # one video's do; a (V, Ds) @ (Ds, D) product or an axis norm would not.
    # The noise term is scaled in place and the rest added to it per t, so no
    # second (V, L, D) array exists; addition commutes, so the bits are kept.
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        z = prototypes[labels] + spec.video_spread * (latent[:, None] @ signal_basis)[:, 0]
        direction /= np.sqrt(direction[:, None] @ direction[:, :, None])[:, 0]
        frames *= spec.frame_noise
        for t in range(spec.frames_per_video):
            frames[:, t] += z + spec.drift * t * direction
    if not all_finite(frames):
        vid = np.flatnonzero(~np.isfinite(frames).all(axis=(1, 2)))[0]
        raise DegenerateInputError(f"corpus frames overflow at video {vid}: lower "
                                   "corpus.video_spread, frame_noise or drift")
    return Corpus(spec, signal_basis, nuisance_basis, frames, labels, ids)


def stratified_split(labels: np.ndarray, frac: float, seed: int, tag: str = "probe-split"
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of example indices into sorted (train, held_out).

    Per class, the permutation of ``substream(seed, tag, class)`` sends
    round(frac * n) examples to the train side, clamped so both sides keep
    at least one.  ``tag`` keeps the linear probe's split ("probe-split")
    and ``split_videos`` ("video-split") on separate streams.
    """
    if not 0 < frac < 1:
        raise ValueError("split fraction must lie strictly between 0 and 1")
    y = np.asarray(labels)
    train, held = [], []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        if idx.size < 2:
            raise ValueError(f"class {c} has fewer than 2 examples; cannot split")
        perm = substream(seed, tag, int(c)).permutation(idx.size)
        n_train = min(max(int(round(frac * idx.size)), 1), idx.size - 1)
        train.append(idx[perm[:n_train]])
        held.append(idx[perm[n_train:]])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(held))


def split_videos(corpus: Corpus, train_frac: float, seed: int) -> tuple[Corpus, Corpus]:
    """Stratified video-level split into (train, held_out) corpora: the
    ``stratified_split`` of the labels on the "video-split" stream.

    The halves share the parent's spec and bases and hold the picked rows of
    its arrays, in index order; save_corpus/load_corpus round-trip them (the
    file stores the actual video count).
    """
    train, held = stratified_split(corpus.labels(), train_frac, seed, "video-split")
    pick = lambda idx: Corpus(corpus.spec, corpus.signal_basis, corpus.nuisance_basis,
                              corpus.frames()[idx], corpus.labels()[idx], corpus.ids()[idx])
    return pick(train), pick(held)


def save_corpus(corpus: Corpus, path) -> None:
    w = RecordWriter(CORPUS_HEADER)
    w.pack(_SPEC_RECORD, *dataclasses.astuple(corpus.spec), corpus.num_videos)
    w.array(corpus.signal_basis)
    w.array(corpus.nuisance_basis)
    w.array(corpus.labels(), "<u4")
    w.array(corpus.ids(), "<u8")
    w.array(corpus.frames())
    write_file(path, w.finish())


def load_corpus(path) -> Corpus:
    """Read a ``DTGC v3`` file; any malformed content, a label outside the
    spec, fewer videos than classes or a non-finite basis or frame value
    included, raises ``FormatError``.  The arrays are read-only views of the
    file's bytes, except the labels, which are widened to int64."""
    r = RecordReader(Path(path).read_bytes(), CORPUS_HEADER)
    *fields, count = r.unpack(_SPEC_RECORD)
    try:
        spec = CorpusSpec(*fields)
    except ValueError as exc:
        raise FormatError(f"invalid corpus spec: {exc}") from exc
    d, ds = spec.frame_dim, spec.signal_dim
    signal_basis = r.array((ds, d))
    nuisance_basis = r.array((d - ds, d))
    labels = r.array((count,), "<u4")
    ids = r.array((count,), "<u8")
    frames = r.array((count, spec.frames_per_video, d))
    r.expect_end()
    # every file save_corpus writes, a split half included, holds every class
    if count < spec.num_classes:
        raise FormatError(f"{count} videos are fewer than the {spec.num_classes} classes")
    if labels.max() >= spec.num_classes:
        raise FormatError(f"label {labels.max()} out of range for {spec.num_classes} classes")
    if not all(map(all_finite, (signal_basis, nuisance_basis, frames))):
        raise FormatError("corpus bases or frames hold non-finite values")
    return Corpus(spec, signal_basis, nuisance_basis, frames, labels.astype(np.int64), ids)
