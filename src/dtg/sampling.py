"""Segment-based sparse frame sampling of contrastive pairs, a batch at a time.

Both views of a pair come from the same video and differ by which frames
were sampled: each view draws one uniformly random frame per temporal
segment of its window (TSN sampling).  Four input modes are supported:

  img-img           two distinct single frames
  img-seq           a T-segment anchor sequence plus a single guidance frame
  seq-seq-overlap   two independent T-segment sequences over the full video
  seq-seq-disjoint  anchor from the first half, guidance from the second

A pair is made in two steps, with one random stream per row, held as a
``seeding.Substreams``: ``draw_pairs`` draws each row's frame indices, and
``pooled_view`` pools one view's frames from a (V, L, D) stack of videos as
it takes them.  A view is its (R, T) int64 array of frame indices.  Every
draw is one array operation over all rows, and row r draws only from its
own stream, so a row's pair does not depend on the rows drawn with it: the
trainer draws a chunk of whole epochs in one call, and a caller that needs
only one view pools only that one.  ``pooled_view`` is the one pooling
kernel: evaluation pools whole videos through it too.
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


def draw_pairs(num_frames: int, mode: PairMode, segments: int, streams: Substreams
               ) -> tuple[np.ndarray, np.ndarray]:
    """The (anchor, guidance) views of one pair per row of ``streams``, for
    videos of ``num_frames`` frames: each an (R, T) int64 array of frame
    indices.  Row r takes, from its own stream and in this order: the
    anchor's frames, then the guidance's frames (img-img's one guidance frame
    distinct from the anchor's)."""
    if mode is PairMode.IMG_IMG:
        if num_frames < 2:
            raise ValueError("img-img needs at least 2 frames")
        anchor_win = guide_win = _window(0, num_frames, 1)
    elif mode is PairMode.IMG_SEQ:
        anchor_win, guide_win = _window(0, num_frames, segments), _window(0, num_frames, 1)
    elif mode is PairMode.SEQ_SEQ_OVERLAP:
        anchor_win = guide_win = _window(0, num_frames, segments)
    elif mode is PairMode.SEQ_SEQ_DISJOINT:
        half = num_frames // 2
        anchor_win, guide_win = _window(0, half, segments), _window(half, num_frames, segments)
    else:
        raise ValueError(f"unknown pair mode {mode!r}")

    (a_lo, a_width), (g_lo, g_width) = anchor_win, guide_win
    anchor = a_lo + streams.integers(a_width)
    if mode is PairMode.IMG_IMG:
        j = streams.integers(num_frames - 1)[:, None]
        return anchor, j + (j >= anchor)
    return anchor, g_lo + streams.integers(g_width)


def pooled_view(frames: np.ndarray, view: np.ndarray) -> np.ndarray:
    """The (V, D) mean-pooled views of the (V, L, D) float64 ``frames`` at
    the (V, T) frame indices ``view``: row r pools frames ``view[r]`` of
    video r, added in order as they are taken, then divided by T.  Every row
    pools alone, so a batch pools as its rows would one at a time; a view of
    frames 0..L-1 in every row pools whole videos.  ``frames`` is not
    written.  ValueError unless ``view`` is 2-D with V rows and at least one
    column."""
    num_videos, length, dim = frames.shape
    if view.ndim != 2 or view.shape[0] != num_videos or view.shape[1] < 1:
        raise ValueError(f"a view of {num_videos} videos is a ({num_videos}, T) array of "
                         f"frame indices with T >= 1, got shape {view.shape}")
    flat = frames.reshape(num_videos * length, dim)   # frame f of video v is row v * L + f
    starts = np.arange(0, num_videos * length, length)
    segments = view.shape[1]
    # one (V,) index per segment, not a (V, T) index array: pooling whole
    # videos keeps no more than the output and one taken frame per video
    out = flat.take(starts + view[:, 0], axis=0)
    for t in range(1, segments):
        out += flat.take(starts + view[:, t], axis=0)
    out /= segments
    return out
