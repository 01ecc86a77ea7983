import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg.sampling import PairMode, draw_pairs, pooled_view, segment_bounds
from dtg.seeding import substream, substreams

from conftest import whole_videos


def _ramp(num_frames, dim=4, batch=1):
    """(batch, L, D) videos whose frame t is filled with the value t."""
    frames = np.arange(num_frames, dtype=np.float64)[None, :, None]
    return np.broadcast_to(frames, (batch, num_frames, dim))


def _pooled_pair(frames, mode, segments, streams, mask_frac=0.0):
    """The pooled (anchor, guidance) views of the videos ``frames`` (B, L, D),
    row b drawn from row b of ``streams``: ``draw_pairs``, then ``pooled_view``."""
    views = draw_pairs(*frames.shape[1:], mode, segments, streams, mask_frac)
    return tuple(pooled_view(frames, view) for view in views)


def _added_in_order(x: np.ndarray) -> np.ndarray:
    """Per (..., d) of (..., T, D) frames: frame 0 plus frame 1 plus ... in
    Python floats, over T."""
    out = np.empty(x.shape[:-2] + x.shape[-1:])
    for i in np.ndindex(out.shape):
        *lead, d = i
        total = float(x[(*lead, 0, d)])
        for t in range(1, x.shape[-2]):
            total += float(x[(*lead, t, d)])
        out[i] = total / x.shape[-2]
    return out


def _gather_then_pool(frames, view):
    """The reference view: each row's frames taken into an (R, T, D) copy,
    its mask zeroed in every frame, then added in order and divided by T."""
    taken = frames[np.arange(len(view.frames))[:, None], view.frames]
    if view.mask is not None:
        for r, start in enumerate(view.mask):
            taken[r, :, start:start + view.width] = 0.0
    return _added_in_order(taken)


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
    """Frames t + 1 of the given indices with coordinates [start, start + width)
    zeroed: the frames one row of a masked view of ``_ramp(L, dim) + 1`` pools."""
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
def test_draw_pairs_matches_recorded_pairs(mode):
    anchor, guidance = draw_pairs(10, 4, mode, 3, substreams(7, "golden-pair"))
    assert anchor.frames[0].tolist() == RECORDED_INDICES[mode][0]
    assert guidance.frames[0].tolist() == RECORDED_INDICES[mode][1]
    assert anchor.mask is None and guidance.mask is None
    for view, idx in zip((anchor, guidance), RECORDED_INDICES[mode]):
        assert np.array_equal(pooled_view(_ramp(10), view), _added_in_order(_ramp(10)[:, idx]))

    anchor, guidance = draw_pairs(10, 8, mode, 3, substreams(7, "golden-pair"), mask_frac=0.4)
    a_idx, a_start, g_idx, g_start = RECORDED_MASKED[mode]
    assert anchor.frames[0].tolist() == a_idx and anchor.mask.tolist() == [a_start]
    assert guidance.frames[0].tolist() == g_idx and guidance.mask.tolist() == [g_start]
    assert anchor.width == guidance.width == 3
    frames = _ramp(10, dim=8) + 1
    for view, (idx, start) in ((anchor, (a_idx, a_start)), (guidance, (g_idx, g_start))):
        assert np.array_equal(pooled_view(frames, view)[0], _added_in_order(_masked(idx, start)))


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_independent_of_batch_composition(mode):
    frames = np.random.default_rng(5).standard_normal((6, 12, 5))
    anchor, guidance = _pooled_pair(frames, mode, 3, substreams(3, "batch", np.arange(6)),
                                    mask_frac=0.4)
    for b in range(6):
        one_a, one_g = _pooled_pair(frames[b:b + 1], mode, 3, substreams(3, "batch", b),
                                    mask_frac=0.4)
        assert np.array_equal(anchor[b], one_a[0])
        assert np.array_equal(guidance[b], one_g[0])
    order = [4, 1, 5, 0, 3, 2]
    perm_a, perm_g = _pooled_pair(frames[order], mode, 3, substreams(3, "batch", order),
                                  mask_frac=0.4)
    assert np.array_equal(perm_a, anchor[order])
    assert np.array_equal(perm_g, guidance[order])


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_match_per_video_generators(mode):
    """Row b uses exactly the draws of substream(..., b)'s Generator: frame
    indices per segment (one integers call per view), the img-img offset and
    each mask start, in that order."""
    frames = _ramp(16, dim=8, batch=40) + 1
    anchor, guidance = draw_pairs(16, 8, mode, 4, substreams(9, "rows", np.arange(40)),
                                  mask_frac=0.3)
    assert anchor.width == guidance.width == 2
    pooled_a, pooled_g = pooled_view(frames, anchor), pooled_view(frames, guidance)
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
        assert np.array_equal(anchor.frames[b], ia) and anchor.mask[b] == a_mask
        assert np.array_equal(guidance.frames[b], ig) and guidance.mask[b] == g_mask
        assert np.array_equal(pooled_a[b], _added_in_order(_masked(ia, a_mask, width=2)))
        assert np.array_equal(pooled_g[b], _added_in_order(_masked(ig, g_mask, width=2)))


def test_sampled_views_take_one_frame_per_segment():
    views = draw_pairs(12, 4, PairMode.SEQ_SEQ_OVERLAP, 4, substreams(0, "s"))
    bounds = segment_bounds(12, 4)
    for view in views:
        got = pooled_view(_ramp(12), view)
        idx = view.frames[0]
        assert len(idx) == 4
        for i, (lo, hi) in zip(idx, bounds):
            assert lo <= i < hi
        assert np.array_equal(got[0], _added_in_order(_ramp(12)[0, idx]))


def test_sampled_views_respect_their_windows():
    anchor, guidance = draw_pairs(12, 4, PairMode.SEQ_SEQ_DISJOINT, 2,
                                  substreams(np.arange(50), "w"))
    a, g = anchor.frames, guidance.frames
    assert ((0 <= a[:, 0]) & (a[:, 0] < 3) & (3 <= a[:, 1]) & (a[:, 1] < 6)).all()
    assert ((6 <= g[:, 0]) & (g[:, 0] < 9) & (9 <= g[:, 1]) & (g[:, 1] < 12)).all()


@pytest.mark.parametrize("mask_frac", [0.0, 0.12], ids=["zero", "under-one-coordinate"])
def test_an_empty_mask_draws_nothing_and_zeroes_nothing(mask_frac):
    frames = np.random.default_rng(0).standard_normal((3, 6, 8))
    streams = substreams(1, "b", np.arange(3))
    views = draw_pairs(6, 8, PairMode.SEQ_SEQ_OVERLAP, 2, streams, mask_frac)
    for view in views:
        assert view.mask is None and view.width == 0  # int(0.12 * 8) = 0
        assert np.array_equal(pooled_view(frames, view),
                              _added_in_order(frames[np.arange(3)[:, None], view.frames]))
    # only the frame indices were drawn: the streams continue from there
    want = []
    for r in range(3):
        rng = substream(1, "b", r)
        rng.integers([3, 3]), rng.integers([3, 3])
        want.append(rng.integers(1000))
    assert np.array_equal(streams.integers(1000), want)


def test_pooled_view_masks_a_contiguous_block_shared_across_frames():
    # positive frames: a block coordinate left unmasked in any one frame
    # would pool above zero, and one masked outside the block would pool
    # below the unmasked view's value
    x = np.random.default_rng(8).uniform(1.0, 2.0, (5, 3, 8))
    original = x.copy()
    anchor, guidance = draw_pairs(3, 8, PairMode.SEQ_SEQ_OVERLAP, 3,
                                  substreams(0, "m", np.arange(5)), mask_frac=0.5)
    for view in (anchor, guidance):
        out = pooled_view(x, view)
        unmasked = _added_in_order(x[np.arange(5)[:, None], view.frames])
        assert view.width == 4  # int(0.5 * 8) coordinates
        for row, plain, start in zip(out, unmasked, view.mask):
            zeros = np.flatnonzero(row == 0.0)
            assert np.array_equal(zeros, np.arange(start, start + 4))
            kept = np.setdiff1d(np.arange(8), zeros)
            assert np.array_equal(row[kept], plain[kept])
    assert np.array_equal(x, original)  # the frames are not written


@pytest.mark.parametrize("mode", list(PairMode))
def test_pooled_view_of_reordered_videos_equals_the_reordered_pooled_view(mode):
    frames = np.random.default_rng(2).standard_normal((6, 12, 5))
    views = draw_pairs(12, 5, mode, 3, substreams(4, "pick", np.arange(6)), mask_frac=0.4)
    order = np.array([4, 1, 5, 0, 3, 2])
    for view in views:
        assert np.array_equal(pooled_view(frames[order], view.rows(order)),
                              pooled_view(frames, view)[order])
        assert np.array_equal(pooled_view(frames[2:5], view.rows(slice(2, 5))),
                              pooled_view(frames, view)[2:5])


@pytest.mark.parametrize("mask_frac", [0.0, 0.25])
@pytest.mark.parametrize("mode", list(PairMode))
def test_pooled_view_is_gather_then_pool(mode, mask_frac):
    # the trainer's shapes: 32 frames of 16 coordinates, 4 segments; each
    # row pools the bits of its gathered, masked frames
    frames = np.random.default_rng(12).standard_normal((40, 32, 16))
    views = draw_pairs(32, 16, mode, 4, substreams(6, "pool", np.arange(40)), mask_frac)
    for view in views:
        assert (view.mask is None) == (mask_frac == 0)
        assert np.array_equal(pooled_view(frames, view), _gather_then_pool(frames, view))


@pytest.mark.parametrize("shape", [(7, 33, 1), (3, 100, 1), (1, 200, 1), (4, 9, 2), (3, 5, 16),
                                   (6, 1, 4), (6, 1, 3)])
def test_whole_videos_add_the_frames_in_order_then_divide(shape):
    # at D = 1 numpy's mean(axis=-2) sums pairwise and may differ in the last bit
    x = np.random.default_rng(5).standard_normal(shape) * 10.0 ** np.arange(shape[-1])
    assert np.array_equal(whole_videos(x), _added_in_order(x))


@pytest.mark.parametrize("shape", [(500, 4, 16), (300, 32, 16), (10, 9, 16), (64, 1, 16),
                                   (1, 3, 4)])
def test_whole_videos_equal_numpy_mean_at_the_model_width(shape):
    x = np.random.default_rng(6).standard_normal(shape)
    assert np.array_equal(whole_videos(x), x.mean(axis=-2))


@pytest.mark.parametrize("t", [1, 7, 8, 9, 32, 129])
@pytest.mark.parametrize("dim", [1, 4, 17])
def test_whole_videos_pool_each_row_alone_in_any_layout(t, dim):
    x = np.random.default_rng(3).standard_normal((10, t, dim))
    pooled = whole_videos(x)
    assert pooled.shape == (10, dim)
    rows = [whole_videos(x[i:i + 1])[0] for i in range(10)]
    assert np.array_equal(pooled, np.stack(rows))
    for same_values in (np.ascontiguousarray(x[:, ::-1])[:, ::-1],  # reversed-frame view
                        np.asfortranarray(x)):
        assert np.array_equal(whole_videos(same_values), pooled)


def test_pair_mode_config_names():
    assert PairMode.IMG_IMG.value == "img-img"
    assert PairMode.IMG_SEQ.value == "img-seq"
    assert PairMode.SEQ_SEQ_OVERLAP.value == "seq-seq-overlap"
    assert PairMode.SEQ_SEQ_DISJOINT.value == "seq-seq-disjoint"


def test_img_img_single_distinct_frames():
    anchor, guidance = draw_pairs(8, 4, PairMode.IMG_IMG, 4, substreams(np.arange(200), "ii"))
    assert anchor.frames.shape == guidance.frames.shape == (200, 1)
    assert (anchor.frames != guidance.frames).all()
    for view in (anchor, guidance):
        assert pooled_view(_ramp(8, batch=200), view).shape == (200, 4)


def test_img_seq_shapes():
    anchor, guidance = draw_pairs(8, 4, PairMode.IMG_SEQ, 4, substreams(0, "is"))
    assert anchor.frames.shape == (1, 4)
    assert guidance.frames.shape == (1, 1)
    for view in (anchor, guidance):
        assert pooled_view(_ramp(8), view).shape == (1, 4)


def test_seq_seq_overlap_draws_from_full_window():
    anchor, guidance = draw_pairs(8, 4, PairMode.SEQ_SEQ_OVERLAP, 2, substreams(0, "so"))
    bounds = segment_bounds(8, 2)
    for view in (anchor, guidance):
        for i, (lo, hi) in zip(view.frames[0], bounds):
            assert lo <= i < hi


def test_seq_seq_disjoint_halves():
    anchor, guidance = draw_pairs(8, 4, PairMode.SEQ_SEQ_DISJOINT, 2,
                                  substreams(np.arange(200), "sd"))
    assert (anchor.frames < 4).all()
    assert (guidance.frames >= 4).all()


def test_pairs_deterministic_given_stream():
    frames = np.random.default_rng(1).standard_normal((1, 10, 6))
    a1, g1 = _pooled_pair(frames, PairMode.SEQ_SEQ_OVERLAP, 3, substreams(5, "det"))
    a2, g2 = _pooled_pair(frames, PairMode.SEQ_SEQ_OVERLAP, 3, substreams(5, "det"))
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)


def test_draw_pairs_rejects_bad_inputs():
    stream = substreams(0, "bad")
    with pytest.raises(ValueError):
        draw_pairs(1, 4, PairMode.IMG_IMG, 1, stream)
    for mode in (PairMode.IMG_SEQ, PairMode.SEQ_SEQ_OVERLAP):
        with pytest.raises(ValueError):
            draw_pairs(3, 4, mode, 4, stream)
    with pytest.raises(ValueError):
        draw_pairs(7, 4, PairMode.SEQ_SEQ_DISJOINT, 4, stream)
