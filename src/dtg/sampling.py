"""Segment-based sparse frame sampling of contrastive pairs, a batch at a time.

Both views of a pair come from the same video; they differ by which frames
were sampled and by a per-view contiguous coordinate mask (the feature-space
analog of a random crop).  Each view draws one uniformly random frame per
temporal segment of its window (TSN sampling).  Four input modes are
supported:

  img-img           two distinct single frames
  img-seq           a T-segment anchor sequence plus a single guidance frame
  seq-seq-overlap   two independent T-segment sequences over the full video
  seq-seq-disjoint  anchor from the first half, guidance from the second

``sample_pairs`` works on a (B, L, D) stack of videos with one random stream
per video, held as a ``seeding.Substreams``.  Every draw is one array
operation over all rows, and row b draws only from its own stream, so a
row's pair does not depend on the rest of the batch: the trainer samples a
whole epoch in one call and slices batches out of it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .seeding import Substreams


class PairMode(Enum):
    IMG_IMG = "img-img"
    IMG_SEQ = "img-seq"
    SEQ_SEQ_OVERLAP = "seq-seq-overlap"
    SEQ_SEQ_DISJOINT = "seq-seq-disjoint"


def segment_bounds(num_frames: int, segments: int) -> list[tuple[int, int]]:
    """Partition [0, num_frames) into ``segments`` contiguous half-open ranges
    [floor(i*L/T), floor((i+1)*L/T))."""
    if segments < 1 or segments > num_frames:
        raise ValueError(f"need 1 <= segments <= frames, got {segments} of {num_frames}")
    return [
        (i * num_frames // segments, (i + 1) * num_frames // segments)
        for i in range(segments)
    ]


def _window(lo: int, hi: int, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and width of each segment of the frame window [lo, hi)."""
    bounds = np.array(segment_bounds(hi - lo, segments))
    return lo + bounds[:, 0], bounds[:, 1] - bounds[:, 0]


def augment(views: np.ndarray, streams: Substreams, mask_frac: float = 0.0) -> np.ndarray:
    """Zero, in place, a random contiguous block of floor(mask_frac * D)
    coordinates across all frames of each row of the (B, T, D) ``views``, row
    b's block start drawn from row b of ``streams``; returns ``views``."""
    dim = views.shape[-1]
    width = int(mask_frac * dim)
    if width > 0:
        offset = np.arange(dim) - streams.integers(dim - width + 1)[:, None]
        np.copyto(views, 0.0, where=((offset >= 0) & (offset < width))[:, None, :])
    return views


def sample_pairs(frames: np.ndarray, mode: PairMode, segments: int, streams: Substreams,
                 mask_frac: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(anchor (B, T, D), guidance (B, T', D)) views of the videos ``frames``
    (B, L, D), row b drawn from row b of ``streams`` alone.

    The anchor is the student-side input.  Per row, the anchor's frames are
    drawn and masked first, then the guidance's; img-img draws both frames
    before masking either.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a (B, L, D) frame stack, got shape {x.shape}")
    if len(streams) != x.shape[0]:
        raise ValueError(f"need one stream per video, got {len(streams)} for {x.shape[0]}")
    length = x.shape[1]
    if mode is PairMode.IMG_IMG:
        if length < 2:
            raise ValueError("img-img needs at least 2 frames")
        # the guidance frame is drawn below, distinct from the anchor's
        anchor_win = guide_win = _window(0, length, 1)
    elif mode is PairMode.IMG_SEQ:
        anchor_win, guide_win = _window(0, length, segments), _window(0, length, 1)
    elif mode is PairMode.SEQ_SEQ_OVERLAP:
        anchor_win = guide_win = _window(0, length, segments)
    elif mode is PairMode.SEQ_SEQ_DISJOINT:
        half = length // 2
        anchor_win, guide_win = _window(0, half, segments), _window(half, length, segments)
    else:
        raise ValueError(f"unknown pair mode {mode!r}")

    (a_lo, a_width), (g_lo, g_width) = anchor_win, guide_win
    # frame f of video b is row b * L + f of the (B * L, D) view
    flat = x.reshape(x.shape[0] * length, x.shape[2])
    row_starts = np.arange(0, x.shape[0] * length, length)[:, None]
    ia = a_lo + streams.integers(a_width)
    if mode is PairMode.IMG_IMG:
        j = streams.integers(length - 1)[:, None]
        ig = j + (j >= ia)
        anchor = augment(flat.take(row_starts + ia, axis=0), streams, mask_frac)
    else:
        anchor = augment(flat.take(row_starts + ia, axis=0), streams, mask_frac)
        ig = g_lo + streams.integers(g_width)
    return anchor, augment(flat.take(row_starts + ig, axis=0), streams, mask_frac)
