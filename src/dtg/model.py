"""Trainable student encoder and frozen teacher bank.

The student mean-pools a frame sequence, passes it through two hidden
affine+ReLU layers and a final affine to the embedding dimension, then
L2-normalizes.  Teachers are frozen: they mean-pool, blend the signal and
nuisance projections of the input by an alignment knob rho, apply a fixed
random affine readout to the shared embedding dimension, and normalize.
rho=1 reads only the class-signal subspace, rho=0 only nuisance.  Both
work on (B, D) pooled batches; one sequence is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import RecordReader, RecordWriter, write_file
from .numerics import haar_orthogonal, unit_rows
from .seeding import substream

CHECKPOINT_HEADER = "DTGM v2"


@dataclass
class StudentEncoder:
    W1: np.ndarray  # (h, D)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (h, h)
    b2: np.ndarray  # (h,)
    W3: np.ndarray  # (d, h)
    b3: np.ndarray  # (d,)

    @property
    def frame_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.W3.shape[0]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return [(n, getattr(self, n)) for n in ("W1", "b1", "W2", "b2", "W3", "b3")]


def build_student(frame_dim: int, hidden_dim: int, embed_dim: int, seed: int) -> StudentEncoder:
    """Fresh student with weights and biases ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    if min(frame_dim, hidden_dim, embed_dim) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = substream(seed, "student-init")
    return StudentEncoder(*_affine(rng, hidden_dim, frame_dim),
                          *_affine(rng, hidden_dim, hidden_dim),
                          *_affine(rng, embed_dim, hidden_dim))


def _affine(rng: np.random.Generator, fan_out: int, fan_in: int):
    """One layer's weights (fan_out, fan_in), then its biases, drawn in that
    order from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, (fan_out, fan_in)), rng.uniform(-bound, bound, fan_out)


@dataclass
class Activations:
    """Where one forward and backward pass of at most ``rows`` samples puts
    its activations and backward scratch.  A training run makes one set
    sized for its batch and passes it to every ``forward_batch``; a call on
    n < rows samples uses the first n rows of each.  A field left None (all
    of them by default) makes that array fresh on every call."""

    z1: np.ndarray | None = None     # (rows, h) first affine
    a1: np.ndarray | None = None     # (rows, h) its ReLU
    z2: np.ndarray | None = None     # (rows, h)
    a2: np.ndarray | None = None     # (rows, h)
    z3: np.ndarray | None = None     # (rows, d) pre-normalization feature
    dz3: np.ndarray | None = None    # (rows, d) backward scratch
    dz2: np.ndarray | None = None    # (rows, h)
    dz1: np.ndarray | None = None    # (rows, h)

    @classmethod
    def empty(cls, enc: StudentEncoder, rows: int) -> "Activations":
        h, d = enc.hidden_dim, enc.embed_dim
        hidden = lambda: np.empty((rows, h))
        return cls(z1=hidden(), a1=hidden(), z2=hidden(), a2=hidden(), z3=np.empty((rows, d)),
                   dz3=np.empty((rows, d)), dz2=hidden(), dz1=hidden())

    def first(self, n: int) -> "Activations":
        """The first n rows of every array, as views (self if n is all of them)."""
        if n == len(self.z1):
            return self
        return Activations(*(a[:n] for a in vars(self).values()))


def forward_batch(enc: StudentEncoder, pooled: np.ndarray, act: Activations | None = None):
    """Forward pass on mean-pooled inputs (B, D) -> unit-norm features (B, d)
    plus the activation cache consumed by ``backward_batch``.

    With ``act`` the activations are written into it, so the cache is valid
    until the next call with the same ``act``; without, they are fresh
    arrays.  The returned features are a new array on every call."""
    x = np.asarray(pooled, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"forward_batch takes pooled (B, D) input, got shape {x.shape}")
    if x.shape[1] != enc.frame_dim:
        raise ValueError(f"encoder has frame_dim {enc.frame_dim}; its input has "
                         f"D = {x.shape[1]}")
    act = Activations() if act is None else act.first(len(x))
    z1 = np.matmul(x, enc.W1.T, out=act.z1)
    z1 += enc.b1
    a1 = np.maximum(z1, 0.0, out=act.a1)
    z2 = np.matmul(a1, enc.W2.T, out=act.z2)
    z2 += enc.b2
    a2 = np.maximum(z2, 0.0, out=act.a2)
    z3 = np.matmul(a2, enc.W3.T, out=act.z3)
    z3 += enc.b3
    out, norms = unit_rows(z3, "pre-normalization feature")
    return out, (x, z1, a1, z2, a2, out, norms, act)


def backward_batch(enc: StudentEncoder, cache, d_out: np.ndarray,
                   grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Hand-derived reverse pass; returns gradients summed over the batch.

    They are written into ``grads`` (one array per name of
    ``enc.parameters()``, each overwritten whole), or into fresh arrays if it
    is None."""
    if grads is None:
        grads = {name: np.empty_like(p) for name, p in enc.parameters()}
    x, z1, a1, z2, a2, out, norms, act = cache
    # through y = z / |z|:  dz = (dy - (dy . y) y) / |z|
    dz3 = np.multiply(d_out, out, out=act.dz3)
    inner = np.sum(dz3, axis=1, keepdims=True)
    np.multiply(inner, out, out=dz3)
    np.subtract(d_out, dz3, out=dz3)
    dz3 /= norms
    np.matmul(dz3.T, a2, out=grads["W3"])
    np.add.reduce(dz3, axis=0, out=grads["b3"])
    dz2 = np.matmul(dz3, enc.W3, out=act.dz2)
    dz2 *= z2 > 0
    np.matmul(dz2.T, a1, out=grads["W2"])
    np.add.reduce(dz2, axis=0, out=grads["b2"])
    dz1 = np.matmul(dz2, enc.W2, out=act.dz1)
    dz1 *= z1 > 0
    np.matmul(dz1.T, x, out=grads["W1"])
    np.add.reduce(dz1, axis=0, out=grads["b1"])
    return grads


def pool_frames(frames) -> np.ndarray:
    """Mean over the frame axis of a (..., T, D) array -> (..., D).

    The same frames in the same order give the same bits in any memory
    layout (the mean runs in C order), so a batch pools exactly as its rows
    pool one at a time.  Reordering the frames may change the last bit."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError(f"expected a (..., T, D) frame array, got shape {x.shape}")
    return np.ascontiguousarray(x).mean(axis=-2)


@dataclass(frozen=True)
class Teacher:
    """Frozen encoder: frame mean -> alignment blend -> fixed affine -> unit norm."""

    name: str
    rho: float
    weight: np.ndarray  # (d, D), already includes the blend
    bias: np.ndarray    # (d,)

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]


def build_teacher(corpus, rho: float, embed_dim: int, seed: int, name: str = "teacher") -> Teacher:
    """Teacher reading rho * signal projection + (1 - rho) * nuisance projection
    of the corpus feature space, through a fixed random isometry."""
    if not 0 <= rho <= 1:
        raise ValueError("rho must lie in [0, 1]")
    if embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    bs, bn = corpus.signal_basis, corpus.nuisance_basis
    dim = bs.shape[1]
    blend = rho * (bs.T @ bs) + (1.0 - rho) * (bn.T @ bn)
    rng = substream(seed, "teacher-init")
    # Haar-distributed rather than plain Gaussian: an isometric readout keeps
    # every teacher's noise amplification identical, so differences between
    # teachers come only from their alignment rho.
    q = haar_orthogonal(rng, max(embed_dim, dim))
    w = q[:embed_dim, :] if embed_dim <= dim else q[:, :dim]
    b = 0.1 * rng.standard_normal(embed_dim)
    return Teacher(name=name, rho=float(rho), weight=w @ blend, bias=b)


def teacher_features(teacher: Teacher, pooled: np.ndarray) -> np.ndarray:
    """Guidance features for mean-pooled inputs (B, D) -> unit rows (B, d)."""
    z = np.asarray(pooled, dtype=np.float64) @ teacher.weight.T + teacher.bias
    return unit_rows(z, "guidance feature")[0]


@dataclass(frozen=True)
class TeacherBank:
    teachers: tuple[Teacher, ...]

    def __post_init__(self):
        if not self.teachers:
            raise ValueError("bank needs at least one teacher")
        dims = {t.embed_dim for t in self.teachers}
        if len(dims) != 1:
            raise ValueError(f"teachers disagree on embed dim: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.teachers)

    @property
    def embed_dim(self) -> int:
        return self.teachers[0].embed_dim


@dataclass
class ClassifierHead:
    """Single affine layer on the anchor feature, used in joint training."""

    W: np.ndarray  # (C, d)
    b: np.ndarray  # (C,)

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return [("head.W", self.W), ("head.b", self.b)]

    def logits(self, feats: np.ndarray) -> np.ndarray:
        return feats @ self.W.T + self.b


def build_head(embed_dim: int, num_classes: int, seed: int) -> ClassifierHead:
    return ClassifierHead(*_affine(substream(seed, "head-init"), num_classes, embed_dim))


def save_student(path, enc: StudentEncoder, head: ClassifierHead | None = None) -> None:
    """Checkpoint: ``DTGM v2`` header, u32 layer dims (D, h, d), row-major
    float64 weights, a u8 head flag and, with a head, u32 class count and its
    weights, then the 8-byte BLAKE2b digest of all preceding bytes."""
    w = RecordWriter(CHECKPOINT_HEADER)
    w.pack("<3I", enc.frame_dim, enc.hidden_dim, enc.embed_dim)
    for _, p in enc.parameters():
        w.array(p)
    w.pack("<B", head is not None)
    if head is not None:
        w.pack("<I", head.num_classes)
        w.array(head.W)
        w.array(head.b)
    write_file(path, w.finish())


def load_student(path) -> tuple[StudentEncoder, ClassifierHead | None]:
    r = RecordReader(Path(path).read_bytes(), CHECKPOINT_HEADER)
    dim, hidden, embed = r.unpack("<3I")
    enc = StudentEncoder(
        W1=r.array((hidden, dim)),
        b1=r.array((hidden,)),
        W2=r.array((hidden, hidden)),
        b2=r.array((hidden,)),
        W3=r.array((embed, hidden)),
        b3=r.array((embed,)),
    )
    head = None
    if r.unpack("<B")[0]:
        (classes,) = r.unpack("<I")
        head = ClassifierHead(W=r.array((classes, embed)), b=r.array((classes,)))
    r.expect_end()
    return enc, head
