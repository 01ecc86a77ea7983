import numpy as np
from hypothesis import given, strategies as st

from dtg.seeding import derive_seed, fnv1a64, substream


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
