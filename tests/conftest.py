import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from dtg.corpus import CORPUS_HEADER, CorpusSpec, generate_corpus
from dtg.model import TeacherBank, build_teacher


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
    teachers = [build_teacher(tiny_corpus, rho, embed_dim=6, seed=11, name=f"t{i}")
                for i, rho in enumerate((0.9, 0.3))]
    return TeacherBank(teachers=tuple(teachers))


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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
    ("train", "mask_frac", "0.25"),
    ("eval", "probe_lr", True),
    ("eval", "split_frac", "0.5"),
    ("corpus", "drift", True),
    ("corpus", "frame_noise", "0.3"),
]


SPEC_RECORD = "<5I3dQQ"  # the documented DTGC v2 spec record
SPEC_FIELDS = [f.name for f in dataclasses.fields(CorpusSpec)] + ["num_videos"]


def crafted(blob: bytes, **values) -> bytes:
    """A copy of the ``.dtgc`` ``blob`` with fields of its spec record
    (``SPEC_FIELDS``) replaced, under a recomputed, valid checksum."""
    start = len(CORPUS_HEADER) + 1
    end = start + struct.calcsize(SPEC_RECORD)
    fields = dict(zip(SPEC_FIELDS, struct.unpack(SPEC_RECORD, blob[start:end])))
    fields.update(values)
    body = blob[:start] + struct.pack(SPEC_RECORD, *fields.values()) + blob[end:-8]
    return body + hashlib.blake2b(body, digest_size=8).digest()
