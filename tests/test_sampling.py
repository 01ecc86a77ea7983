import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg.sampling import PairMode, draw_pairs, pair_windows, pooled_view, segment_bounds
from dtg.seeding import substream, substreams

from conftest import whole_videos


def _ramp(num_frames, dim=4, batch=1):
    """(batch, L, D) videos whose frame t is filled with the value t."""
    frames = np.arange(num_frames, dtype=np.float64)[None, :, None]
    return np.broadcast_to(frames, (batch, num_frames, dim))


def _pooled_pair(frames, mode, segments, streams):
    """The pooled (anchor, guidance) views of the videos ``frames`` (B, L, D),
    row b drawn from row b of ``streams``: ``draw_pairs``, then ``pooled_view``."""
    views = draw_pairs(frames.shape[1], mode, segments, streams)
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
    then added in order and divided by T."""
    return _added_in_order(frames[np.arange(len(view))[:, None], view])


# Pairs drawn from _ramp(10) with substream(7, "golden-pair") and 3 segments,
# recorded from the earlier one-video-at-a-time sampler: the frame indices of
# (anchor, guidance).
RECORDED_INDICES = {
    PairMode.IMG_IMG: ([7], [5]),
    PairMode.IMG_SEQ: ([2, 4, 6], [1]),
    PairMode.SEQ_SEQ_OVERLAP: ([2, 4, 6], [0, 4, 9]),
    PairMode.SEQ_SEQ_DISJOINT: ([0, 2, 4], [5, 6, 8]),
}

# (lo, hi, segments) of the anchor and the guidance window of a 16-frame
# video at 4 segments
WINDOWS_16_4 = {
    PairMode.IMG_IMG: ((0, 16, 1), (0, 16, 1)),
    PairMode.IMG_SEQ: ((0, 16, 4), (0, 16, 1)),
    PairMode.SEQ_SEQ_OVERLAP: ((0, 16, 4), (0, 16, 4)),
    PairMode.SEQ_SEQ_DISJOINT: ((0, 8, 4), (8, 16, 4)),
}


@pytest.mark.parametrize("mode", list(PairMode))
def test_pair_windows_are_the_recorded_windows(mode):
    assert pair_windows(16, mode, 4) == WINDOWS_16_4[mode]


def _widths(lo, hi, segments):
    return np.array([b - a for a, b in segment_bounds(hi - lo, segments)])


def _starts(lo, hi, segments):
    return lo + np.array([a for a, _ in segment_bounds(hi - lo, segments)])


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
    anchor, guidance = draw_pairs(10, mode, 3, substreams(7, "golden-pair"))
    assert anchor.dtype == guidance.dtype == np.int64
    assert anchor[0].tolist() == RECORDED_INDICES[mode][0]
    assert guidance[0].tolist() == RECORDED_INDICES[mode][1]
    for view, idx in zip((anchor, guidance), RECORDED_INDICES[mode]):
        assert np.array_equal(pooled_view(_ramp(10), view), _added_in_order(_ramp(10)[:, idx]))


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_independent_of_batch_composition(mode):
    frames = np.random.default_rng(5).standard_normal((6, 12, 5))
    anchor, guidance = _pooled_pair(frames, mode, 3, substreams(3, "batch", np.arange(6)))
    for b in range(6):
        one_a, one_g = _pooled_pair(frames[b:b + 1], mode, 3, substreams(3, "batch", b))
        assert np.array_equal(anchor[b], one_a[0])
        assert np.array_equal(guidance[b], one_g[0])
    order = [4, 1, 5, 0, 3, 2]
    perm_a, perm_g = _pooled_pair(frames[order], mode, 3, substreams(3, "batch", order))
    assert np.array_equal(perm_a, anchor[order])
    assert np.array_equal(perm_g, guidance[order])


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_match_per_video_generators(mode):
    """Row b uses exactly the draws of substream(..., b)'s Generator: frame
    indices per segment (one integers call per view, img-img's guidance an
    offset), in that order."""
    frames = np.random.default_rng(9).standard_normal((40, 16, 8))
    anchor, guidance = draw_pairs(16, mode, 4, substreams(9, "rows", np.arange(40)))
    pooled_a, pooled_g = pooled_view(frames, anchor), pooled_view(frames, guidance)
    a_win, g_win = WINDOWS_16_4[mode]
    for b in range(40):
        rng = substream(9, "rows", b)
        ia = _starts(*a_win) + rng.integers(_widths(*a_win))
        if mode is PairMode.IMG_IMG:
            j = int(rng.integers(15))
            ig = [j + (j >= ia[0])]
        else:
            ig = _starts(*g_win) + rng.integers(_widths(*g_win))
        assert np.array_equal(anchor[b], ia) and np.array_equal(guidance[b], ig)
        assert np.array_equal(pooled_a[b], _added_in_order(frames[b, ia]))
        assert np.array_equal(pooled_g[b], _added_in_order(frames[b, ig]))


@pytest.mark.parametrize("mode", list(PairMode))
def test_draw_pairs_draws_only_the_frame_indices(mode):
    # each row's stream continues from its last frame-index draw
    streams = substreams(1, "b", np.arange(3))
    draw_pairs(16, mode, 4, streams)
    a_win, g_win = WINDOWS_16_4[mode]
    want = []
    for r in range(3):
        rng = substream(1, "b", r)
        rng.integers(_widths(*a_win))
        rng.integers(15) if mode is PairMode.IMG_IMG else rng.integers(_widths(*g_win))
        want.append(rng.integers(1000))
    assert np.array_equal(streams.integers(1000), want)


def test_sampled_views_take_one_frame_per_segment():
    views = draw_pairs(12, PairMode.SEQ_SEQ_OVERLAP, 4, substreams(0, "s"))
    bounds = segment_bounds(12, 4)
    for view in views:
        got = pooled_view(_ramp(12), view)
        idx = view[0]
        assert len(idx) == 4
        for i, (lo, hi) in zip(idx, bounds):
            assert lo <= i < hi
        assert np.array_equal(got[0], _added_in_order(_ramp(12)[0, idx]))


def test_sampled_views_respect_their_windows():
    a, g = draw_pairs(12, PairMode.SEQ_SEQ_DISJOINT, 2, substreams(np.arange(50), "w"))
    assert ((0 <= a[:, 0]) & (a[:, 0] < 3) & (3 <= a[:, 1]) & (a[:, 1] < 6)).all()
    assert ((6 <= g[:, 0]) & (g[:, 0] < 9) & (9 <= g[:, 1]) & (g[:, 1] < 12)).all()


@pytest.mark.parametrize("mode", list(PairMode))
def test_pooled_view_of_reordered_videos_equals_the_reordered_pooled_view(mode):
    frames = np.random.default_rng(2).standard_normal((6, 12, 5))
    views = draw_pairs(12, mode, 3, substreams(4, "pick", np.arange(6)))
    order = np.array([4, 1, 5, 0, 3, 2])
    for view in views:
        assert np.array_equal(pooled_view(frames[order], view[order]),
                              pooled_view(frames, view)[order])
        assert np.array_equal(pooled_view(frames[2:5], view[2:5]),
                              pooled_view(frames, view)[2:5])


@pytest.mark.parametrize("mode", list(PairMode))
def test_pooled_view_is_gather_then_pool(mode):
    # the trainer's shapes: 32 frames of 16 coordinates, 4 segments; each
    # row pools the bits of its gathered frames
    frames = np.random.default_rng(12).standard_normal((40, 32, 16))
    views = draw_pairs(32, mode, 4, substreams(6, "pool", np.arange(40)))
    for view in views:
        assert np.array_equal(pooled_view(frames, view), _gather_then_pool(frames, view))


@pytest.mark.parametrize("mode", list(PairMode))
def test_pooled_view_does_not_write_its_frames(mode):
    # read-only frames, so a write would raise: both drawn views, and the
    # whole-video view that evaluation pools
    frames = np.random.default_rng(3).standard_normal((5, 12, 4))
    original = frames.copy()
    frames.setflags(write=False)
    views = (*draw_pairs(12, mode, 3, substreams(0, "w", np.arange(5))),
             np.broadcast_to(np.arange(12), (5, 12)))
    for view in views:
        assert np.array_equal(pooled_view(frames, view), _gather_then_pool(original, view))
    assert np.array_equal(frames, original)


@pytest.mark.parametrize("shape", [(1, 2), (7, 2), (6, 0)],
                         ids=["one-row", "extra-row", "no-column"])
def test_pooled_view_takes_one_row_of_frame_indices_per_video(shape):
    # a one-row view would otherwise broadcast over every video
    with pytest.raises(ValueError, match=rf"6 videos.*shape \({shape[0]}, {shape[1]}\)"):
        pooled_view(np.zeros((6, 4, 2)), np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("index", [4, -1], ids=["past-the-end", "negative"])
def test_pooled_view_rejects_a_frame_index_outside_the_video(index):
    # from the flat stack, index 4 in row 0 would be x[1, 0] and -1 would be x[5, 3]
    frames = np.arange(6 * 4 * 2, dtype=np.float64).reshape(6, 4, 2)
    view = np.zeros((6, 2), dtype=np.int64)
    view[0, 1] = index
    with pytest.raises(ValueError, match=rf"\[0, 4\), got \[{min(index, 0)}, {max(index, 0)}\]"):
        pooled_view(frames, view)


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
    anchor, guidance = draw_pairs(8, PairMode.IMG_IMG, 4, substreams(np.arange(200), "ii"))
    assert anchor.shape == guidance.shape == (200, 1)
    assert (anchor != guidance).all()
    for view in (anchor, guidance):
        assert pooled_view(_ramp(8, batch=200), view).shape == (200, 4)


def test_img_seq_shapes():
    anchor, guidance = draw_pairs(8, PairMode.IMG_SEQ, 4, substreams(0, "is"))
    assert anchor.shape == (1, 4)
    assert guidance.shape == (1, 1)
    for view in (anchor, guidance):
        assert pooled_view(_ramp(8), view).shape == (1, 4)


def test_seq_seq_overlap_draws_from_full_window():
    views = draw_pairs(8, PairMode.SEQ_SEQ_OVERLAP, 2, substreams(0, "so"))
    bounds = segment_bounds(8, 2)
    for view in views:
        for i, (lo, hi) in zip(view[0], bounds):
            assert lo <= i < hi


def test_seq_seq_disjoint_halves():
    anchor, guidance = draw_pairs(8, PairMode.SEQ_SEQ_DISJOINT, 2,
                                  substreams(np.arange(200), "sd"))
    assert (anchor < 4).all()
    assert (guidance >= 4).all()


def test_pairs_deterministic_given_stream():
    frames = np.random.default_rng(1).standard_normal((1, 10, 6))
    a1, g1 = _pooled_pair(frames, PairMode.SEQ_SEQ_OVERLAP, 3, substreams(5, "det"))
    a2, g2 = _pooled_pair(frames, PairMode.SEQ_SEQ_OVERLAP, 3, substreams(5, "det"))
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)


def test_draw_pairs_rejects_bad_inputs():
    stream = substreams(0, "bad")
    with pytest.raises(ValueError):
        draw_pairs(1, PairMode.IMG_IMG, 1, stream)
    for mode in (PairMode.IMG_SEQ, PairMode.SEQ_SEQ_OVERLAP):
        with pytest.raises(ValueError):
            draw_pairs(3, mode, 4, stream)
    with pytest.raises(ValueError):
        draw_pairs(7, PairMode.SEQ_SEQ_DISJOINT, 4, stream)
