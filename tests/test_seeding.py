import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtg.seeding import derive_seed, fnv1a64, substream, substreams

# keys of every SeedSequence word count: zero, one 32-bit word, two
KEYS = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1))
# widths that consume nothing (1), never reject (powers of two up to 2^32), and
# reject about half of all draws (just above 2^31)
WIDTHS = st.sampled_from([1, 2, 3, 7, 16, 2 ** 31 - 1, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32])


def test_substream_reproducible():
    a = substream(42, "sampling", 3).standard_normal(8)
    b = substream(42, "sampling", 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_distinct_tags_decorrelated():
    a = substream(42, "sampling").standard_normal(8)
    b = substream(42, "teacher-init").standard_normal(8)
    assert not np.array_equal(a, b)


def test_substream_distinct_indices():
    a = substream(0, "batch", 0, 1).standard_normal(4)
    b = substream(0, "batch", 1, 0).standard_normal(4)
    assert not np.array_equal(a, b)


def test_derive_seed_stable_64bit():
    s = derive_seed(7, "teacher-readout")
    assert s == derive_seed(7, "teacher-readout")
    assert 0 <= s < 2 ** 64


@given(st.integers(0, 2 ** 64 - 1), st.text(max_size=12))
def test_derive_seed_range(seed, tag):
    assert 0 <= derive_seed(seed, tag) < 2 ** 64


def test_fnv1a64_known_values():
    # reference values of the standard FNV-1a 64-bit parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=64))
def test_fnv1a64_in_range(data):
    assert 0 <= fnv1a64(data) < 2 ** 64


def test_streams_match_recorded_values():
    # recorded before fnv1a64 moved into this module; every run depends on them
    assert substream(0, "corpus-video", 3).integers(0, 2 ** 32, 4).tolist() == \
        [4063660090, 4068023979, 393361922, 3701302669]
    assert substream(2 ** 64 - 1, "sampling", 7, 11).integers(0, 2 ** 32, 4).tolist() == \
        [3894882425, 1525754080, 3201316740, 3166122021]
    assert substream(42, "").integers(0, 2 ** 32, 2).tolist() == [848924090, 3743357871]
    assert substream(1, "negative", -1).integers(0, 2 ** 32, 2).tolist() == \
        [1860932669, 812382479]
    assert substream(5, "video-split", 1).standard_normal(2).tolist() == \
        [0.022112093408292503, -0.7644192533572931]
    assert derive_seed(7, "teacher-readout") == 3995683152816202644
    assert derive_seed(0, "teacher", 3) == 2583076296466077120
    assert derive_seed(2 ** 64 - 1, "head-init", 1, 2) == 11350490784238239875
    assert derive_seed(-3, "neg", -1) == 14992813107374635009


@settings(max_examples=80, deadline=None)
@given(seed=KEYS, ids=st.lists(KEYS, min_size=1, max_size=8), epoch=KEYS,
       widths=st.lists(WIDTHS, min_size=1, max_size=5), scalars=st.lists(WIDTHS, max_size=3))
def test_substreams_rows_match_substream(seed, ids, epoch, widths, scalars):
    """Row r draws what substream(seed, tag, ids[r], epoch) draws: a vector of
    bounds, then scalar bounds, across buffer parities, rejection-heavy widths
    and rows of mixed key word counts in one batch."""
    streams = substreams(seed, "pair", np.array(ids, dtype=np.uint64), epoch)
    assert len(streams) == len(ids)
    vector = streams.integers(widths)
    singles = [streams.integers(w) for w in scalars]
    for r, vid in enumerate(ids):
        rng = substream(seed, "pair", vid, epoch)
        assert vector[r].tolist() == rng.integers(widths).tolist()
        assert [int(s[r]) for s in singles] == [int(rng.integers(w)) for w in scalars]


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3, 2 ** 64 - 1])
def test_numpy_states_match_substream(seed):
    """Each row's exported state is its Generator's, fresh and after one
    32-bit draw (numpy's buffered half), across key word layouts."""
    ids = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 9, 2 ** 64 - 1], dtype=np.uint64)
    streams = substreams(seed, "corpus-video", ids)
    fresh = streams.numpy_states()  # the states as of the call, taken after a draw
    streams.integers(5)  # one 32-bit draw: 2^32 % 5 = 1, a rejection is 1 in 2^32
    fresh, drawn = list(fresh), list(streams.numpy_states())
    for r, vid in enumerate(ids.tolist()):
        rng = substream(seed, "corpus-video", vid)
        assert fresh[r] == rng.bit_generator.state and fresh[r]["has_uint32"] == 0
        rng.integers(5)
        assert drawn[r] == rng.bit_generator.state and drawn[r]["has_uint32"] == 1


def test_substreams_fold_negative_and_array_keys():
    ids = np.array([-1, 0, 5, -(2 ** 40)])
    draws = substreams(-3, "neg", ids).integers([2 ** 31 + 1] * 6)
    for r, vid in enumerate(ids):
        assert draws[r].tolist() == substream(-3, "neg", int(vid)).integers([2 ** 31 + 1] * 6).tolist()
    seeds = substreams(np.arange(4), "per-seed").integers(10)
    assert seeds.tolist() == [int(substream(s, "per-seed").integers(10)) for s in range(4)]


def test_substreams_reject_bad_keys_and_bounds():
    streams = substreams(0, "x", np.arange(3))
    for bad in (0, 2 ** 32 + 1, [4, 0]):
        with pytest.raises(ValueError):
            streams.integers(bad)
    with pytest.raises(TypeError):
        substreams(0, "x", np.array([1.5]))
    with pytest.raises(ValueError):
        substreams(0, "x", np.zeros((2, 2), dtype=np.int64))
