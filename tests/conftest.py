import ctypes
import dataclasses
import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

from dtg import trainer
from dtg.binio import CHECKSUM_SIZE, RecordWriter, checksum
from dtg.corpus import CORPUS_HEADER, CorpusSpec, generate_corpus
from dtg.losses import ContrastiveOutcome, FusionLevel, contrastive_batch, logits_shape
from dtg.model import (CHECKPOINT_HEADER, StudentEncoder, backward_batch, build_bank,
                       teacher_features)
from dtg.sampling import pooled_view
from dtg.seeding import substream


ROOT = Path(__file__).resolve().parents[1]


def script(name: str):
    """``scripts/<name>.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def contrastive(anchors, positives, negatives, tau, scheme, fusion=FusionLevel.LOSS,
                accuracies=None) -> ContrastiveOutcome:
    """``contrastive_batch`` into a new NaN-filled workspace of its logits'
    shape, so an entry the loss leaves unwritten shows."""
    work = np.full(logits_shape(len(anchors), *np.shape(negatives)[:2], fusion), np.nan)
    return contrastive_batch(anchors, positives, negatives, tau, scheme, fusion, accuracies,
                             work=work)


def backward(enc: StudentEncoder, cache, d_out: np.ndarray) -> dict[str, np.ndarray]:
    """``backward_batch`` into new NaN-filled gradient arrays, so an entry
    the pass leaves unwritten shows."""
    grads = {name: np.full_like(p, np.nan) for name, p in enc.parameters()}
    return backward_batch(enc, cache, d_out, grads)


@pytest.fixture(scope="session")
def tiny_spec():
    return CorpusSpec(num_classes=2, videos_per_class=3, frames_per_video=8,
                      frame_dim=8, signal_dim=4, video_spread=1.0,
                      frame_noise=0.3, seed=7)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_spec):
    return generate_corpus(tiny_spec)


@pytest.fixture(scope="session")
def tiny_bank(tiny_corpus):
    return build_bank(tiny_corpus, (0.9, 0.3), embed_dim=6, seeds=(11, 11))


# where the sha256s of the recorded-bits tests were taken: float64 bytes
# depend on how the BLAS core and numpy's SIMD kernels order their sums
RECORDED_PLATFORM = "numpy 2.4.6 / SkylakeX / X86_V4"


def platform() -> str:
    """This process's numpy version, OpenBLAS core (from the library bundled
    in ``numpy.libs``; "unknown" without one) and highest enabled x86
    feature level, in ``RECORDED_PLATFORM``'s form."""
    core = "unknown"
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        break
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    levels = [int(k[len("X86_V"):]) for k, on in features.items() if on and k.startswith("X86_V")]
    level = f"X86_V{max(levels)}" if levels else "no X86_V level"
    return f"numpy {np.__version__} / {core} / {level}"


def platform_note() -> str:
    """The tail of a recorded-bits failure: a mismatch on another platform
    may be a different summation order, not a wrong result."""
    return f"recorded on {RECORDED_PLATFORM}, running on {platform()}"


def whole_videos(frames: np.ndarray) -> np.ndarray:
    """Each video of the (V, L, D) ``frames`` pooled whole: the
    ``pooled_view`` of frames 0..L-1 in every row, as ``video_features`` pools."""
    num_videos, length, _ = frames.shape
    return pooled_view(frames, np.broadcast_to(np.arange(length), (num_videos, length)))


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def record_windows(monkeypatch) -> dict[str, list]:
    """Patch ``dtg.trainer`` so each later run logs its epoch orders
    ("orders"), every teacher's guidance per epoch, teacher-minor
    ("guidance"), a copy of each loss call's (positives, negatives)
    ("calls"), and each loss call's epoch with the ``work`` it was handed,
    not a copy ("works").  Clear the lists between runs."""
    log = {"orders": [], "guidance": [], "calls": [], "works": []}

    class _Recorded:
        def __init__(self, gen):
            self.gen = gen

        def permutation(self, n):
            log["orders"].append(self.gen.permutation(n))
            return log["orders"][-1]

    def features(bank, pooled):
        guidance = teacher_features(bank, pooled)
        log["guidance"].extend(guidance)  # one (V, d) entry per teacher, in bank order
        return guidance

    def batch(anchors, positives, negatives, *args, **kw):
        # copies: the trainer's views are overwritten by later epochs
        log["calls"].append((np.array(positives), np.array(negatives)))
        log["works"].append((len(log["orders"]) - 1, kw.get("work")))
        return contrastive_batch(anchors, positives, negatives, *args, **kw)

    monkeypatch.setattr(trainer, "substream", lambda *key: _Recorded(substream(*key)))
    monkeypatch.setattr(trainer, "teacher_features", features)
    monkeypatch.setattr(trainer, "contrastive_batch", batch)
    return log


def list_model(log: dict[str, list], batch_size: int, k: int) -> list:
    """The reference FIFO over a logged run: one (rows, window) per step.
    ``rows`` is the step's (N, B, d) guidance in visiting order; ``window``
    is the last ``k`` rows fed before it, oldest first, as (N, k, d), or None
    while fewer than ``k`` rows have been fed."""
    teachers = len(log["guidance"]) // len(log["orders"])
    assert len(log["guidance"]) == teachers * len(log["orders"])
    fed, steps = [], []  # fed: (N, d) guidance columns, oldest first
    for e, order in enumerate(log["orders"]):
        guidance = np.stack(log["guidance"][e * teachers:(e + 1) * teachers])
        for b0 in range(0, len(order), batch_size):
            rows = guidance[:, order[b0:b0 + batch_size]]
            steps.append((rows, np.stack(fed[-k:], axis=1) if len(fed) >= k else None))
            fed.extend(rows.transpose(1, 0, 2))
    return steps


def check_against_list_model(log: dict[str, list], batch_size: int, k: int) -> int:
    """Assert that the logged loss calls are the list model's warm steps, in
    order, with its rows as positives and its windows as negatives; a step
    trains exactly when ``k`` rows precede it.  Returns the warm step count."""
    calls = iter(log["calls"])
    warm = 0
    for step, (rows, window) in enumerate(list_model(log, batch_size, k)):
        if window is None:
            continue
        call = next(calls, None)
        assert call is not None, f"warm step {step} skipped"
        assert np.array_equal(call[0], rows), f"step {step}: positives"
        assert np.array_equal(call[1], window), f"step {step}: negatives"
        warm += 1
    assert next(calls, None) is None, "a step trained before k rows were fed"
    return warm


# (config section, integer field, value that is not an integer); JSON
# true/false must not pass as 1/0
NON_INTEGER_FIELDS = [
    ("train", "K", 2.5),
    ("train", "segments", 2.5),
    ("train", "batch_size", 2.5),
    ("train", "d", 2.5),
    ("train", "epochs", True),
    ("eval", "knn_k", 2.5),
    ("eval", "knn_k", True),
    ("eval", "probe_epochs", 1.5),
    ("corpus", "num_classes", 2.5),
    ("corpus", "frames_per_video", 8.0),
    ("corpus", "videos_per_class", True),
]


# (config section, float field, value that is not a number); JSON true/false
# must not pass as 1.0/0.0
NON_NUMBER_FIELDS = [
    ("train", "tau", True),
    ("train", "lr0", True),
    ("train", "lr0", "0.1"),
    ("train", "momentum", False),
    ("eval", "probe_lr", True),
    ("eval", "split_frac", "0.5"),
    ("corpus", "drift", True),
    ("corpus", "frame_noise", "0.3"),
]


# (config section, float field, number that is not finite); Python's json
# reads the tokens NaN, Infinity and -Infinity.  An integer beyond the float
# range takes the same check: test_config's weight-huge-int case.
NON_FINITE_FIELDS = [
    ("train", "tau", float("nan")),
    ("train", "lr0", float("inf")),
    ("train", "momentum", float("nan")),
    ("train", "alpha", float("inf")),
    ("train", "weight_decay", float("-inf")),
    ("eval", "probe_lr", float("inf")),
    ("corpus", "drift", float("nan")),
]


# (train field, value of the right type that breaks training): a decay
# outside (0, 1], a momentum outside [0, 1), a negative weight decay or
# milestone
BAD_SCHEDULE_FIELDS = [
    ("decay", -1.0),
    ("decay", 0.0),
    ("decay", 1.5),
    ("momentum", 1.5),
    ("momentum", 1.0),
    ("momentum", -0.1),
    ("weight_decay", -0.1),
    ("milestones", [-1]),
]


SPEC_RECORD = "<5I3dQQ"  # the documented DTGC spec record
SPEC_FIELDS = [f.name for f in dataclasses.fields(CorpusSpec)] + ["num_videos"]


def crafted(blob: bytes, **values) -> bytes:
    """A copy of the ``.dtgc`` ``blob`` with fields of its spec record
    (``SPEC_FIELDS``) replaced, under a recomputed, valid checksum."""
    start = len(CORPUS_HEADER) + 1
    end = start + struct.calcsize(SPEC_RECORD)
    fields = dict(zip(SPEC_FIELDS, struct.unpack(SPEC_RECORD, blob[start:end])))
    fields.update(values)
    body = blob[:start] + struct.pack(SPEC_RECORD, *fields.values()) + blob[end:-CHECKSUM_SIZE]
    return body + checksum(body)


def checkpoint_record(dims, classes=None) -> bytes:
    """A ``DTGM v3`` record under a valid checksum: layer dims ``dims``
    (D, h, d), zero weights and, unless ``classes`` is None, a head of
    ``classes`` classes, laid out as ``save_student`` lays it out whatever
    the dims."""
    dim, hidden, embed = dims
    w = RecordWriter(CHECKPOINT_HEADER)
    w.pack("<3I", *dims)
    for shape in ((hidden, dim), (hidden,), (hidden, hidden), (hidden,), (embed, hidden), (embed,)):
        w.array(np.zeros(shape))
    w.pack("<B", classes is not None)
    if classes is not None:
        w.pack("<I", classes)
        w.array(np.zeros((classes, embed)))
        w.array(np.zeros(classes))
    return b"".join(w.finish())
