"""Trainable student encoder and frozen teacher bank.

Both read mean-pooled views, (B, D) batches that ``sampling.pooled_view``
pools from the frames; one view is a batch of one.  The student passes a
pooled view through two hidden affine+ReLU layers and a final affine to
the embedding dimension, then L2-normalizes.  Teachers are frozen: they
blend the signal and nuisance projections of the input by an alignment
knob rho, apply a fixed random affine readout to the shared embedding
dimension, and normalize.  rho=1 reads only the class-signal subspace,
rho=0 only nuisance.  A bank of N teachers is nothing but their stacked
readouts, (N, d, D) weights and (N, 1, d) biases, read in one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, RecordReader, RecordWriter, write_file
from .numerics import all_finite, haar_orthogonal, unit_rows
from .seeding import substream

CHECKPOINT_HEADER = "DTGM v3"


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
    return StudentEncoder(*(p for layer in _layers(frame_dim, hidden_dim, embed_dim)
                            for p in _affine(rng, *layer)))


def _layers(frame_dim: int, hidden_dim: int, embed_dim: int) -> list[tuple[int, int]]:
    """(fan_out, fan_in) of the student's layers i = 1, 2, 3: Wi, then bi (fan_out,)."""
    return [(hidden_dim, frame_dim), (hidden_dim, hidden_dim), (embed_dim, hidden_dim)]


def _affine(rng: np.random.Generator, fan_out: int, fan_in: int):
    """One layer's weights (fan_out, fan_in), then its biases, drawn in that
    order from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, (fan_out, fan_in)), rng.uniform(-bound, bound, fan_out)


def forward_batch(enc: StudentEncoder, pooled: np.ndarray):
    """Forward pass on mean-pooled inputs (B, D) -> unit-norm features (B, d)
    plus the activation cache consumed by ``backward_batch``.  Every call
    makes its activations and features afresh."""
    x = np.asarray(pooled, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"forward_batch takes pooled (B, D) input, got shape {x.shape}")
    if x.shape[1] != enc.frame_dim:
        raise ValueError(f"encoder has frame_dim {enc.frame_dim}; its input has "
                         f"D = {x.shape[1]}")
    z1 = x @ enc.W1.T
    z1 += enc.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ enc.W2.T
    z2 += enc.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ enc.W3.T
    z3 += enc.b3
    out, norms = unit_rows(z3, "pre-normalization feature")
    return out, (x, z1, a1, z2, a2, out, norms)


def backward_batch(enc: StudentEncoder, cache, d_out: np.ndarray,
                   grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Hand-derived reverse pass: writes the gradients summed over the batch
    into ``grads``, one array per name of ``enc.parameters()``, each
    overwritten whole, and returns ``grads``."""
    x, z1, a1, z2, a2, out, norms = cache
    # through y = z / |z|:  dz = (dy - (dy . y) y) / |z|
    dz3 = d_out * out
    inner = np.add.reduce(dz3, axis=1, keepdims=True)
    np.multiply(inner, out, out=dz3)
    np.subtract(d_out, dz3, out=dz3)
    dz3 /= norms
    np.matmul(dz3.T, a2, out=grads["W3"])
    np.add.reduce(dz3, axis=0, out=grads["b3"])
    dz2 = dz3 @ enc.W3
    dz2 *= z2 > 0
    np.matmul(dz2.T, a1, out=grads["W2"])
    np.add.reduce(dz2, axis=0, out=grads["b2"])
    dz1 = dz2 @ enc.W2
    dz1 *= z1 > 0
    np.matmul(dz1.T, x, out=grads["W1"])
    np.add.reduce(dz1, axis=0, out=grads["b1"])
    return grads


@dataclass(frozen=True)
class TeacherBank:
    """N frozen teachers as one stacked readout: teacher i maps a pooled
    input x (D,) to ``weight[i] @ x + bias[i, 0]``, normalized."""

    weight: np.ndarray  # (N, d, D), each row already includes its blend
    bias: np.ndarray    # (N, 1, d)

    def __post_init__(self):
        if self.weight.ndim != 3 or len(self.weight) < 1:
            raise ValueError(f"bank weight must be (N, d, D) with N >= 1, "
                             f"got shape {self.weight.shape}")
        want = (len(self.weight), 1, self.weight.shape[1])
        if self.bias.shape != want:
            raise ValueError(f"bank bias must be {want}, got shape {self.bias.shape}")

    def __len__(self) -> int:
        return len(self.weight)

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[1]


def build_bank(corpus, rhos, embed_dim: int, seeds) -> TeacherBank:
    """One teacher per (rho, seed) pair, in order.  Teacher i reads
    rhos[i] * signal projection + (1 - rhos[i]) * nuisance projection of the
    corpus feature space, through a fixed random isometry and bias drawn
    from seeds[i]."""
    rhos, seeds = tuple(rhos), tuple(seeds)
    if len(rhos) != len(seeds):
        raise ValueError(f"need one seed per rho, got {len(seeds)} for {len(rhos)}")
    if not rhos:
        raise ValueError("bank needs at least one teacher")
    if not all(0 <= rho <= 1 for rho in rhos):
        raise ValueError("rho must lie in [0, 1]")
    if embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    bs, bn = corpus.signal_basis, corpus.nuisance_basis
    dim = bs.shape[1]
    signal, nuisance = bs.T @ bs, bn.T @ bn
    weights, biases = [], []
    for rho, seed in zip(rhos, seeds):
        blend = rho * signal + (1.0 - rho) * nuisance
        rng = substream(seed, "teacher-init")
        # Haar-distributed rather than plain Gaussian: an isometric readout keeps
        # every teacher's noise amplification identical, so differences between
        # teachers come only from their alignment rho.
        q = haar_orthogonal(rng, max(embed_dim, dim))
        w = q[:embed_dim, :] if embed_dim <= dim else q[:, :dim]
        weights.append(w @ blend)
        biases.append(0.1 * rng.standard_normal((1, embed_dim)))
    return TeacherBank(np.stack(weights), np.stack(biases))


def teacher_features(bank: TeacherBank, pooled: np.ndarray) -> np.ndarray:
    """Every teacher's guidance for mean-pooled inputs (R, D) -> unit rows
    (N, R, d), teacher-major, by one stacked product: each teacher's rows
    are the bits of its own ``pooled @ weight.T + bias``, normalized."""
    z = np.matmul(np.asarray(pooled, dtype=np.float64), bank.weight.transpose(0, 2, 1))
    z += bank.bias
    return unit_rows(z.reshape(-1, bank.embed_dim), "guidance feature")[0].reshape(z.shape)


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
    """Checkpoint: ``DTGM v3`` header, u32 layer dims (D, h, d), row-major
    float64 weights, a u8 head flag and, with a head, u32 class count and its
    weights, then the 4-byte little-endian CRC-32 of all preceding bytes
    (conventions and guarantees in ``binio``).  A ``DTGM v2`` checkpoint,
    whose trailer was an 8-byte BLAKE2b digest, is rejected as an
    unsupported version: retrain it.  A zero dimension, which
    ``load_student`` refuses, raises ValueError before anything is written."""
    dims = (enc.frame_dim, enc.hidden_dim, enc.embed_dim)
    if 0 in dims or (head is not None and head.num_classes == 0):
        raise ValueError(f"cannot save a checkpoint with a zero dimension: (D, h, d) = {dims}"
                         + ("" if head is None else f", {head.num_classes} classes"))
    w = RecordWriter(CHECKPOINT_HEADER)
    w.pack("<3I", *dims)
    for _, p in enc.parameters():
        w.array(p)
    w.pack("<B", head is not None)
    if head is not None:
        w.pack("<I", head.num_classes)
        w.array(head.W)
        w.array(head.b)
    write_file(path, w.finish())


def load_student(path) -> tuple[StudentEncoder, ClassifierHead | None]:
    """Read a ``DTGM v3`` file; any malformed content, a zero dimension or a
    non-finite weight or bias included, raises ``FormatError``.  The arrays
    are read-only views of the file's bytes."""
    r = RecordReader(Path(path).read_bytes(), CHECKPOINT_HEADER)
    dim, hidden, embed = r.unpack("<3I")
    if 0 in (dim, hidden, embed):
        raise FormatError(f"checkpoint has a zero dimension: (D, h, d) = {(dim, hidden, embed)}")
    enc = StudentEncoder(*(r.array(shape) for fan_out, fan_in in _layers(dim, hidden, embed)
                           for shape in ((fan_out, fan_in), (fan_out,))))
    head = None
    if r.unpack("<B")[0]:
        (classes,) = r.unpack("<I")
        if classes == 0:
            raise FormatError("checkpoint head has a zero dimension: 0 classes")
        head = ClassifierHead(W=r.array((classes, embed)), b=r.array((classes,)))
    r.expect_end()
    arrays = enc.parameters() + (head.parameters() if head is not None else [])
    if not all(all_finite(a) for _, a in arrays):
        raise FormatError("checkpoint weights or biases hold non-finite values")
    return enc, head
