import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg.sampling import PairMode, draw_pairs, gather_view, sample_pairs, segment_bounds
from dtg.seeding import substream, substreams


def _ramp(num_frames, dim=4, batch=1):
    """(batch, L, D) videos whose frame t is filled with the value t, so a
    view's frame indices can be read off its first column."""
    frames = np.arange(num_frames, dtype=np.float64)[None, :, None]
    return np.broadcast_to(frames, (batch, num_frames, dim))


def _indices(view):
    return view[..., 0].astype(np.int64)


# Pairs drawn from _ramp(10) with substream(7, "golden-pair") and 3 segments,
# recorded from the earlier one-video-at-a-time sampler.  Without masking the
# frame indices of (anchor, guidance):
RECORDED_INDICES = {
    PairMode.IMG_IMG: ([7], [5]),
    PairMode.IMG_SEQ: ([2, 4, 6], [1]),
    PairMode.SEQ_SEQ_OVERLAP: ([2, 4, 6], [0, 4, 9]),
    PairMode.SEQ_SEQ_DISJOINT: ([0, 2, 4], [5, 6, 8]),
}
# With mask_frac=0.4 on 8 coordinates (a block of 3), recorded from the
# per-video Generator sampler: (anchor indices, anchor block start, guidance
# indices, guidance block start).
RECORDED_MASKED = {
    PairMode.IMG_IMG: ([7], 1, [5], 1),
    PairMode.IMG_SEQ: ([2, 4, 6], 1, [5], 5),
    PairMode.SEQ_SEQ_OVERLAP: ([2, 4, 6], 1, [1, 5, 9], 5),
    PairMode.SEQ_SEQ_DISJOINT: ([0, 2, 4], 1, [5, 6, 9], 5),
}


def _masked(indices, start, width=3, dim=8):
    """Frames t + 1 of the given indices with coordinates [start, start + width) zeroed."""
    view = np.repeat(np.array(indices, dtype=np.float64)[:, None] + 1, dim, axis=1)
    view[:, start:start + width] = 0.0
    return view


def test_segment_bounds_even():
    assert segment_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_segment_bounds_remainder_goes_last():
    assert segment_bounds(7, 3) == [(0, 2), (2, 4), (4, 7)]


def test_segment_bounds_errors():
    with pytest.raises(ValueError):
        segment_bounds(3, 4)
    with pytest.raises(ValueError):
        segment_bounds(8, 0)


@given(st.integers(1, 40), st.integers(1, 40))
def test_segment_bounds_cover_range_without_overlap(num_frames, segments):
    if segments > num_frames:
        with pytest.raises(ValueError):
            segment_bounds(num_frames, segments)
        return
    bounds = segment_bounds(num_frames, segments)
    assert bounds[0][0] == 0 and bounds[-1][1] == num_frames
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        assert b == c and a < b
    assert bounds[-1][0] < bounds[-1][1]


@pytest.mark.parametrize("mode", list(PairMode))
def test_sample_pairs_matches_recorded_pairs(mode):
    anchor, guidance = sample_pairs(_ramp(10), mode, 3, substreams(7, "golden-pair"))
    assert _indices(anchor[0]).tolist() == RECORDED_INDICES[mode][0]
    assert _indices(guidance[0]).tolist() == RECORDED_INDICES[mode][1]
    assert np.array_equal(anchor, _ramp(10)[:, RECORDED_INDICES[mode][0]])
    assert np.array_equal(guidance, _ramp(10)[:, RECORDED_INDICES[mode][1]])

    anchor, guidance = sample_pairs(_ramp(10, dim=8) + 1, mode, 3, substreams(7, "golden-pair"),
                                    mask_frac=0.4)
    a_idx, a_start, g_idx, g_start = RECORDED_MASKED[mode]
    assert np.array_equal(anchor[0], _masked(a_idx, a_start))
    assert np.array_equal(guidance[0], _masked(g_idx, g_start))


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_independent_of_batch_composition(mode):
    frames = np.random.default_rng(5).standard_normal((6, 12, 5))
    anchor, guidance = sample_pairs(frames, mode, 3, substreams(3, "batch", np.arange(6)),
                                    mask_frac=0.4)
    for b in range(6):
        one_a, one_g = sample_pairs(frames[b:b + 1], mode, 3, substreams(3, "batch", b),
                                    mask_frac=0.4)
        assert np.array_equal(anchor[b], one_a[0])
        assert np.array_equal(guidance[b], one_g[0])
    order = [4, 1, 5, 0, 3, 2]
    perm_a, perm_g = sample_pairs(frames[order], mode, 3, substreams(3, "batch", order),
                                  mask_frac=0.4)
    assert np.array_equal(perm_a, anchor[order])
    assert np.array_equal(perm_g, guidance[order])


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_match_per_video_generators(mode):
    """Row b uses exactly the draws of substream(..., b)'s Generator: frame
    indices per segment (one integers call per view), the img-img offset and
    each mask start, in that order."""
    frames = _ramp(16, dim=8, batch=40) + 1
    anchor, guidance = sample_pairs(frames, mode, 4, substreams(9, "rows", np.arange(40)),
                                    mask_frac=0.3)
    a_win, g_win = {
        PairMode.IMG_IMG: ((0, 16, 1), (0, 16, 1)),
        PairMode.IMG_SEQ: ((0, 16, 4), (0, 16, 1)),
        PairMode.SEQ_SEQ_OVERLAP: ((0, 16, 4), (0, 16, 4)),
        PairMode.SEQ_SEQ_DISJOINT: ((0, 8, 4), (8, 16, 4)),
    }[mode]
    widths = lambda lo, hi, t: np.array([b - a for a, b in segment_bounds(hi - lo, t)])
    starts = lambda lo, hi, t: lo + np.array([a for a, _ in segment_bounds(hi - lo, t)])
    for b in range(40):
        rng = substream(9, "rows", b)
        ia = starts(*a_win) + rng.integers(widths(*a_win))
        if mode is PairMode.IMG_IMG:
            j = int(rng.integers(15))
            ig = [j + (j >= ia[0])]
        a_mask = int(rng.integers(8 - 2 + 1))
        if mode is not PairMode.IMG_IMG:
            ig = starts(*g_win) + rng.integers(widths(*g_win))
        g_mask = int(rng.integers(8 - 2 + 1))
        assert np.array_equal(anchor[b], _masked(ia, a_mask, width=2))
        assert np.array_equal(guidance[b], _masked(ig, g_mask, width=2))


def test_sampled_views_take_one_frame_per_segment():
    anchor, guidance = sample_pairs(_ramp(12), PairMode.SEQ_SEQ_OVERLAP, 4,
                                    substreams(0, "s"))
    bounds = segment_bounds(12, 4)
    for view in (anchor[0], guidance[0]):
        idx = _indices(view)
        assert len(idx) == 4
        for i, (lo, hi) in zip(idx, bounds):
            assert lo <= i < hi
        assert np.array_equal(view, _ramp(12)[0, idx])


def test_sampled_views_respect_their_windows():
    anchor, guidance = sample_pairs(_ramp(12, batch=50), PairMode.SEQ_SEQ_DISJOINT, 2,
                                    substreams(np.arange(50), "w"))
    a, g = _indices(anchor), _indices(guidance)
    assert ((0 <= a[:, 0]) & (a[:, 0] < 3) & (3 <= a[:, 1]) & (a[:, 1] < 6)).all()
    assert ((6 <= g[:, 0]) & (g[:, 0] < 9) & (9 <= g[:, 1]) & (g[:, 1] < 12)).all()


@pytest.mark.parametrize("mask_frac", [0.0, 0.12], ids=["zero", "under-one-coordinate"])
def test_an_empty_mask_draws_nothing_and_zeroes_nothing(mask_frac):
    frames = np.random.default_rng(0).standard_normal((3, 6, 8))
    streams = substreams(1, "b", np.arange(3))
    views = draw_pairs(6, 8, PairMode.SEQ_SEQ_OVERLAP, 2, streams, mask_frac)
    for view in views:
        assert view.mask is None and view.width == 0  # int(0.12 * 8) = 0
        assert np.array_equal(gather_view(frames, view),
                              frames[np.arange(3)[:, None], view.frames])
    # only the frame indices were drawn: the streams continue from there
    want = []
    for r in range(3):
        rng = substream(1, "b", r)
        rng.integers([3, 3]), rng.integers([3, 3])
        want.append(rng.integers(1000))
    assert np.array_equal(streams.integers(1000), want)


def test_gather_masks_a_contiguous_block_shared_across_frames():
    x = np.ones((5, 3, 8))
    anchor, guidance = draw_pairs(3, 8, PairMode.SEQ_SEQ_OVERLAP, 3,
                                  substreams(0, "m", np.arange(5)), mask_frac=0.5)
    for view in (anchor, guidance):
        out = gather_view(x, view)
        assert view.width == 4  # int(0.5 * 8) coordinates
        for row, start in zip(out, view.mask):
            zeros = np.flatnonzero(row[0] == 0.0)
            assert np.array_equal(zeros, np.arange(start, start + 4))
            assert np.array_equal(row, np.broadcast_to(row[0], row.shape))  # shared across frames
    assert np.array_equal(x, np.ones((5, 3, 8)))  # the frames are not written


@pytest.mark.parametrize("mode", list(PairMode))
def test_gather_of_picked_rows_equals_the_rows_of_the_gather(mode):
    frames = np.random.default_rng(2).standard_normal((6, 12, 5))
    views = draw_pairs(12, 5, mode, 3, substreams(4, "pick", np.arange(6)), mask_frac=0.4)
    order = np.array([4, 1, 5, 0, 3, 2])
    for view in views:
        assert np.array_equal(gather_view(frames, view.rows(order), order),
                              gather_view(frames, view)[order])
        assert np.array_equal(gather_view(frames, view.rows(slice(2, 5)), np.arange(2, 5)),
                              gather_view(frames, view)[2:5])


def test_pair_mode_config_names():
    assert PairMode.IMG_IMG.value == "img-img"
    assert PairMode.IMG_SEQ.value == "img-seq"
    assert PairMode.SEQ_SEQ_OVERLAP.value == "seq-seq-overlap"
    assert PairMode.SEQ_SEQ_DISJOINT.value == "seq-seq-disjoint"


def test_img_img_single_distinct_frames():
    anchor, guidance = sample_pairs(_ramp(8, batch=200), PairMode.IMG_IMG, 4,
                                    substreams(np.arange(200), "ii"))
    assert anchor.shape == guidance.shape == (200, 1, 4)
    assert (_indices(anchor) != _indices(guidance)).all()


def test_img_seq_shapes():
    anchor, guidance = sample_pairs(_ramp(8), PairMode.IMG_SEQ, 4, substreams(0, "is"))
    assert anchor.shape == (1, 4, 4)
    assert guidance.shape == (1, 1, 4)


def test_seq_seq_overlap_draws_from_full_window():
    anchor, guidance = sample_pairs(_ramp(8), PairMode.SEQ_SEQ_OVERLAP, 2,
                                    substreams(0, "so"))
    bounds = segment_bounds(8, 2)
    for view in (anchor[0], guidance[0]):
        for i, (lo, hi) in zip(_indices(view), bounds):
            assert lo <= i < hi


def test_seq_seq_disjoint_halves():
    anchor, guidance = sample_pairs(_ramp(8, batch=200), PairMode.SEQ_SEQ_DISJOINT, 2,
                                    substreams(np.arange(200), "sd"))
    assert (_indices(anchor) < 4).all()
    assert (_indices(guidance) >= 4).all()


def test_sample_pairs_deterministic_given_stream():
    frames = np.random.default_rng(1).standard_normal((1, 10, 6))
    a1, g1 = sample_pairs(frames, PairMode.SEQ_SEQ_OVERLAP, 3, substreams(5, "det"))
    a2, g2 = sample_pairs(frames, PairMode.SEQ_SEQ_OVERLAP, 3, substreams(5, "det"))
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)


def test_sample_pairs_rejects_bad_inputs():
    stream = substreams(0, "bad")
    with pytest.raises(ValueError):
        sample_pairs(_ramp(1), PairMode.IMG_IMG, 1, stream)
    for mode in (PairMode.IMG_SEQ, PairMode.SEQ_SEQ_OVERLAP):
        with pytest.raises(ValueError):
            sample_pairs(_ramp(3), mode, 4, stream)
    with pytest.raises(ValueError):
        sample_pairs(_ramp(7), PairMode.SEQ_SEQ_DISJOINT, 4, stream)
    with pytest.raises(ValueError):
        sample_pairs(_ramp(8, batch=2), PairMode.IMG_IMG, 1, stream)  # one stream, two videos
    with pytest.raises(ValueError, match="one stream per video"):
        sample_pairs(_ramp(8, batch=2), PairMode.SEQ_SEQ_OVERLAP, 2,
                     substreams(0, "bad", np.arange(3)))
    with pytest.raises(ValueError):
        sample_pairs(_ramp(8)[0], PairMode.IMG_IMG, 1, stream)  # (L, D), not (B, L, D)
