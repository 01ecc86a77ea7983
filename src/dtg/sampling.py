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

A pair is made in two steps, with one random stream per row, held as a
``seeding.Substreams``: ``draw_pairs`` makes each row's random choices
(frame indices and mask starts), and ``pooled_view`` pools one view's frames
from a (V, L, D) stack of videos as it takes them.  Every draw is one array
operation over all rows, and row r draws only from its own stream, so a
row's pair does not depend on the rows drawn with it: the trainer draws a
chunk of whole epochs in one call, and a caller that needs only one view
pools only that one.  ``pooled_view`` is the one pooling kernel: evaluation
pools whole videos through it too.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ViewDraw:
    """The random choices of one view of R pairs: the (R, T) frame index of
    each segment, and the first of the ``width`` coordinates each row masks,
    (R,), or None when ``width`` is 0."""

    frames: np.ndarray
    mask: np.ndarray | None
    width: int

    def rows(self, index) -> ViewDraw:
        """The draws of the rows ``index`` (a slice or an index array)."""
        return ViewDraw(self.frames[index], None if self.mask is None else self.mask[index],
                        self.width)


def draw_pairs(num_frames: int, dim: int, mode: PairMode, segments: int, streams: Substreams,
               mask_frac: float = 0.0) -> tuple[ViewDraw, ViewDraw]:
    """The (anchor, guidance) draws of one pair per row of ``streams``, for
    videos of ``num_frames`` frames of ``dim`` coordinates.  Row r takes, from
    its own stream and in this order: the anchor's frames, img-img's guidance
    frame (distinct from the anchor's), the anchor's mask start, the
    guidance's frames, the guidance's mask start.  A mask of
    floor(mask_frac * dim) = 0 coordinates draws nothing."""
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

    width = int(mask_frac * dim)

    def mask() -> np.ndarray | None:
        return streams.integers(dim - width + 1) if width > 0 else None

    (a_lo, a_width), (g_lo, g_width) = anchor_win, guide_win
    ia = a_lo + streams.integers(a_width)
    if mode is PairMode.IMG_IMG:
        j = streams.integers(num_frames - 1)[:, None]
        ig = j + (j >= ia)
        anchor = ViewDraw(ia, mask(), width)
    else:
        anchor = ViewDraw(ia, mask(), width)
        ig = g_lo + streams.integers(g_width)
    return anchor, ViewDraw(ig, mask(), width)


def pooled_view(frames: np.ndarray, view: ViewDraw) -> np.ndarray:
    """The (V, D) mean-pooled views drawn by ``view`` from the (V, L, D)
    float64 ``frames``: row r pools frames ``view.frames[r]`` of video r,
    added in order as they are taken, then divided by T, with its
    ``view.width`` coordinates from ``view.mask[r]`` on zeroed.  Every row
    pools alone, so a batch pools as its rows would one at a time; a view
    of frames 0..L-1 in every row pools whole videos."""
    num_videos, length, dim = frames.shape
    flat = frames.reshape(num_videos * length, dim)   # frame f of video v is row v * L + f
    starts = np.arange(0, num_videos * length, length)
    segments = view.frames.shape[1]
    # one (V,) index per segment, not a (V, T) index array: pooling whole
    # videos keeps no more than the output and one taken frame per video
    out = flat.take(starts + view.frames[:, 0], axis=0)
    for t in range(1, segments):
        out += flat.take(starts + view.frames[:, t], axis=0)
    out /= segments
    if view.mask is not None:
        offset = np.arange(dim) - view.mask[:, None]
        out[(offset >= 0) & (offset < view.width)] = 0.0
    return out
