import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg.sampling import PairMode, augment, sample_pairs, segment_bounds
from dtg.seeding import substream


def _ramp(num_frames, dim=4, batch=1):
    """(batch, L, D) videos whose frame t is filled with the value t, so a
    view's frame indices can be read off its first column."""
    frames = np.arange(num_frames, dtype=np.float64)[None, :, None]
    return np.broadcast_to(frames, (batch, num_frames, dim))


def _indices(view):
    return view[..., 0].astype(np.int64)


# Pairs drawn from _ramp(10) with substream(7, "golden-pair") and 3 segments,
# recorded from the earlier one-video-at-a-time sampler.  Without augmentation
# the frame indices of (anchor, guidance):
RECORDED_INDICES = {
    PairMode.IMG_IMG: ([7], [5]),
    PairMode.IMG_SEQ: ([2, 4, 6], [1]),
    PairMode.SEQ_SEQ_OVERLAP: ([2, 4, 6], [0, 4, 9]),
    PairMode.SEQ_SEQ_DISJOINT: ([0, 2, 4], [5, 6, 8]),
}
# With jitter=0.2 and mask_frac=0.25 the (anchor, guidance) frames:
RECORDED_AUGMENTED = {
    PairMode.IMG_IMG: (
        [[7.143415882225905, 6.814042276828202, 6.929022093887442, 0.0]],
        [[4.664863248637886, 5.07014654484612, 0.0, 5.179054103394781]],
    ),
    PairMode.IMG_SEQ: (
        [[0.0, 1.9290220938874416, 2.3390586685111243, 1.8341314503615964],
         [0.0, 4.07014654484612, 3.7122063024515044, 4.179054103394781],
         [0.0, 5.621859912237034, 6.354815885757574, 5.998779008500939]],
        [[0.0, 1.1054212470483866, 0.7687215671060382, 1.136231505223463]],
    ),
    PairMode.SEQ_SEQ_OVERLAP: (
        [[0.0, 1.9290220938874416, 2.3390586685111243, 1.8341314503615964],
         [0.0, 4.07014654484612, 3.7122063024515044, 4.179054103394781],
         [0.0, 5.621859912237034, 6.354815885757574, 5.998779008500939]],
        [[0.10542124704838658, 0.0, 0.1362315052234631, 0.2940548309796141],
         [2.9300181709080815, 0.0, 3.1057918973405827, 2.935934086399094],
         [8.663006580449519, 0.0, 8.97212044866964, 8.767800404404436]],
    ),
    PairMode.SEQ_SEQ_DISJOINT: (
        [[0.14341588222590504, -0.1859577231717986, -0.07097790611255844, 0.0],
         [1.8341314503615964, 1.6648632486378856, 2.070146544846119, 0.0],
         [4.179054103394781, 3.8619391691315292, 3.621859912237034, 0.0]],
        [[0.0, 5.105421247048387, 4.768721567106038, 5.1362315052234635],
         [0.0, 6.930018170908082, 6.930915333120918, 7.105791897340583],
         [0.0, 7.663006580449518, 8.171967834717556, 7.97212044866964]],
    ),
}


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
    anchor, guidance = sample_pairs(_ramp(10), mode, 3, [substream(7, "golden-pair")])
    assert _indices(anchor[0]).tolist() == RECORDED_INDICES[mode][0]
    assert _indices(guidance[0]).tolist() == RECORDED_INDICES[mode][1]
    assert np.array_equal(anchor, _ramp(10)[:, RECORDED_INDICES[mode][0]])
    assert np.array_equal(guidance, _ramp(10)[:, RECORDED_INDICES[mode][1]])

    anchor, guidance = sample_pairs(_ramp(10), mode, 3, [substream(7, "golden-pair")],
                                    jitter=0.2, mask_frac=0.25)
    assert np.array_equal(anchor[0], np.array(RECORDED_AUGMENTED[mode][0]))
    assert np.array_equal(guidance[0], np.array(RECORDED_AUGMENTED[mode][1]))


@pytest.mark.parametrize("mode", list(PairMode))
def test_rows_independent_of_batch_composition(mode):
    frames = np.random.default_rng(5).standard_normal((6, 12, 5))
    streams = lambda: [substream(3, "batch", b) for b in range(6)]
    anchor, guidance = sample_pairs(frames, mode, 3, streams(), jitter=0.2, mask_frac=0.4)
    for b, rng in enumerate(streams()):
        one_a, one_g = sample_pairs(frames[b:b + 1], mode, 3, [rng], jitter=0.2, mask_frac=0.4)
        assert np.array_equal(anchor[b], one_a[0])
        assert np.array_equal(guidance[b], one_g[0])
    order = [4, 1, 5, 0, 3, 2]
    perm_a, perm_g = sample_pairs(frames[order], mode, 3, [streams()[b] for b in order],
                                  jitter=0.2, mask_frac=0.4)
    assert np.array_equal(perm_a, anchor[order])
    assert np.array_equal(perm_g, guidance[order])


def test_sampled_views_take_one_frame_per_segment():
    anchor, guidance = sample_pairs(_ramp(12), PairMode.SEQ_SEQ_OVERLAP, 4,
                                    [substream(0, "s")])
    bounds = segment_bounds(12, 4)
    for view in (anchor[0], guidance[0]):
        idx = _indices(view)
        assert len(idx) == 4
        for i, (lo, hi) in zip(idx, bounds):
            assert lo <= i < hi
        assert np.array_equal(view, _ramp(12)[0, idx])


def test_sampled_views_respect_their_windows():
    anchor, guidance = sample_pairs(_ramp(12, batch=50), PairMode.SEQ_SEQ_DISJOINT, 2,
                                    [substream(trial, "w") for trial in range(50)])
    a, g = _indices(anchor), _indices(guidance)
    assert ((0 <= a[:, 0]) & (a[:, 0] < 3) & (3 <= a[:, 1]) & (a[:, 1] < 6)).all()
    assert ((6 <= g[:, 0]) & (g[:, 0] < 9) & (9 <= g[:, 1]) & (g[:, 1] < 12)).all()


def test_augment_jitter_zero_is_identity():
    x = np.random.default_rng(0).standard_normal((2, 8))
    out = augment(x, substream(1, "b"), jitter=0.0, mask_frac=0.0)
    assert np.array_equal(out, x) and out is not x


def test_augment_mask_zeroes_contiguous_block():
    x = np.ones((3, 8))
    out = augment(x, substream(0, "m"), jitter=0.0, mask_frac=0.5)
    assert np.array_equal(x, np.ones((3, 8)))  # the input is left alone
    for row in out:
        zeros = np.flatnonzero(row == 0.0)
        assert zeros.size == 4  # int(0.5 * 8) coordinates
        assert np.array_equal(zeros, np.arange(zeros[0], zeros[0] + 4))
    assert np.array_equal(out, np.broadcast_to(out[0], out.shape))  # shared across frames


def test_pair_mode_config_names():
    assert PairMode.IMG_IMG.value == "img-img"
    assert PairMode.IMG_SEQ.value == "img-seq"
    assert PairMode.SEQ_SEQ_OVERLAP.value == "seq-seq-overlap"
    assert PairMode.SEQ_SEQ_DISJOINT.value == "seq-seq-disjoint"


def test_img_img_single_distinct_frames():
    anchor, guidance = sample_pairs(_ramp(8, batch=200), PairMode.IMG_IMG, 4,
                                    [substream(trial, "ii") for trial in range(200)])
    assert anchor.shape == guidance.shape == (200, 1, 4)
    assert (_indices(anchor) != _indices(guidance)).all()


def test_img_seq_shapes():
    anchor, guidance = sample_pairs(_ramp(8), PairMode.IMG_SEQ, 4, [substream(0, "is")])
    assert anchor.shape == (1, 4, 4)
    assert guidance.shape == (1, 1, 4)


def test_seq_seq_overlap_draws_from_full_window():
    anchor, guidance = sample_pairs(_ramp(8), PairMode.SEQ_SEQ_OVERLAP, 2,
                                    [substream(0, "so")])
    bounds = segment_bounds(8, 2)
    for view in (anchor[0], guidance[0]):
        for i, (lo, hi) in zip(_indices(view), bounds):
            assert lo <= i < hi


def test_seq_seq_disjoint_halves():
    anchor, guidance = sample_pairs(_ramp(8, batch=200), PairMode.SEQ_SEQ_DISJOINT, 2,
                                    [substream(trial, "sd") for trial in range(200)])
    assert (_indices(anchor) < 4).all()
    assert (_indices(guidance) >= 4).all()


def test_sample_pairs_deterministic_given_stream():
    frames = np.random.default_rng(1).standard_normal((1, 10, 6))
    a1, g1 = sample_pairs(frames, PairMode.SEQ_SEQ_OVERLAP, 3, [substream(5, "det")])
    a2, g2 = sample_pairs(frames, PairMode.SEQ_SEQ_OVERLAP, 3, [substream(5, "det")])
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)


def test_sample_pairs_rejects_bad_inputs():
    rng = [substream(0, "bad")]
    with pytest.raises(ValueError):
        sample_pairs(_ramp(1), PairMode.IMG_IMG, 1, rng)
    for mode in (PairMode.IMG_SEQ, PairMode.SEQ_SEQ_OVERLAP):
        with pytest.raises(ValueError):
            sample_pairs(_ramp(3), mode, 4, rng)
    with pytest.raises(ValueError):
        sample_pairs(_ramp(7), PairMode.SEQ_SEQ_DISJOINT, 4, rng)
    with pytest.raises(ValueError):
        sample_pairs(_ramp(8, batch=2), PairMode.IMG_IMG, 1, rng)  # one stream, two videos
    with pytest.raises(ValueError):
        sample_pairs(_ramp(8)[0], PairMode.IMG_IMG, 1, rng)  # (L, D), not (B, L, D)
