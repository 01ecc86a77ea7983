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

File format (``save_corpus``/``load_corpus``, conventions in ``binio``):
header line ``DTGC v2``, then one little-endian record ``<5I3dQQ`` holding
the spec (u32 C, videos per class, L, D, Ds; f64 spread, noise, drift; u64
seed) and the actual video count V, which differs from C * videos-per-class
for a ``split_videos`` half.  Then whole row-major arrays, each zero-padded
to a multiple of its item size: the two bases (Ds, D) and (D - Ds, D) f8,
labels (V,) u4, ids (V,) u8 and frames (V, L, D) f8; last, the 8-byte
BLAKE2b digest of all preceding bytes.  There is no v1 reader: a ``DTGC v1``
file is rejected as an unsupported version.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, RecordReader, RecordWriter
from .numerics import DegenerateInputError, FieldError, check_fields, declared, haar_orthogonal
from .seeding import substream

CORPUS_HEADER = "DTGC v2"
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
    spec: CorpusSpec
    videos: tuple[Video, ...]
    signal_basis: np.ndarray    # (Ds, D), orthonormal rows
    nuisance_basis: np.ndarray  # (D - Ds, D), orthonormal rows

    @property
    def num_videos(self) -> int:
        return len(self.videos)

    def labels(self) -> np.ndarray:
        return np.array([v.label for v in self.videos], dtype=np.int64)

    def ids(self) -> np.ndarray:
        return np.array([v.video_id for v in self.videos], dtype=np.uint64)

    def frames(self) -> np.ndarray:
        """Every video's frames stacked into one (V, L, D) array."""
        return np.stack([v.frames for v in self.videos])


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically generate a corpus from its spec."""
    d, ds = spec.frame_dim, spec.signal_dim
    rows = haar_orthogonal(substream(spec.seed, "corpus-bases"), d).T
    signal_basis, nuisance_basis = rows[:ds].copy(), rows[ds:].copy()
    proto_coeffs = substream(spec.seed, "corpus-prototypes").standard_normal(
        (spec.num_classes, ds)
    )
    prototypes = proto_coeffs @ signal_basis

    videos = []
    # one reused mask: a fresh mask per video, freed between the frames that
    # stay, fragments the heap (about 8 MB more peak RSS at 2,000 videos)
    finite = np.empty((spec.frames_per_video, d), dtype=bool)
    ts = np.arange(spec.frames_per_video, dtype=np.float64)[:, None]
    for label in range(spec.num_classes):
        for _ in range(spec.videos_per_class):
            vid = len(videos)
            rng = substream(spec.seed, "corpus-video", vid)
            z = prototypes[label] + spec.video_spread * (rng.standard_normal(ds) @ signal_basis)
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            frames = (
                z
                + spec.drift * ts * direction
                + spec.frame_noise * rng.standard_normal((spec.frames_per_video, d))
            )
            if not np.isfinite(frames, out=finite).all():
                raise DegenerateInputError(f"corpus frames overflow at video {vid}: lower "
                                           "corpus.video_spread, frame_noise or drift")
            videos.append(Video(frames=frames, label=label, video_id=vid))
    return Corpus(
        spec=spec,
        videos=tuple(videos),
        signal_basis=signal_basis,
        nuisance_basis=nuisance_basis,
    )


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

    The halves share the parent's spec and bases; they are in-memory views
    for held-out evaluation, and save_corpus/load_corpus round-trip them (the
    file stores the actual video count).
    """
    train, held = stratified_split(corpus.labels(), train_frac, seed, "video-split")
    pick = lambda idx: dataclasses.replace(corpus, videos=tuple(corpus.videos[i] for i in idx))
    return pick(train), pick(held)


def save_corpus(corpus: Corpus, path) -> None:
    w = RecordWriter(CORPUS_HEADER)
    w.pack(_SPEC_RECORD, *dataclasses.astuple(corpus.spec), corpus.num_videos)
    w.array(corpus.signal_basis)
    w.array(corpus.nuisance_basis)
    w.array(corpus.labels(), "<u4")
    w.array(corpus.ids(), "<u8")
    w.array(corpus.frames())
    Path(path).write_bytes(w.finish())


def load_corpus(path) -> Corpus:
    """Read a ``DTGC v2`` file; any malformed content raises ``FormatError``."""
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
    if count and labels.max() >= spec.num_classes:
        raise FormatError(f"label {labels.max()} out of range for {spec.num_classes} classes")
    return Corpus(
        spec=spec,
        videos=tuple(map(Video, frames, labels.tolist(), ids.tolist())),
        signal_basis=signal_basis,
        nuisance_basis=nuisance_basis,
    )
