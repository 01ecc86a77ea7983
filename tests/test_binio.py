import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg.binio import (ChecksumMismatchError, FormatError, RecordReader,
                       RecordWriter, VersionMismatchError)


def test_round_trip_scalars_and_array():
    w = RecordWriter("DTGX v1")
    w.pack("<BIQd", 3, 70000, 2 ** 40, -1.5)
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    w.array(arr)
    ids = np.array([0, 2 ** 63 + 5, 7], dtype=np.uint64)
    w.array(ids, "<u8")
    w.array(np.zeros((0, 3)))
    blob = w.finish()

    r = RecordReader(blob, "DTGX v1")
    assert r.unpack("<BIQd") == (3, 70000, 2 ** 40, -1.5)
    back = r.array((2, 3))
    assert back.dtype == np.float64 and np.array_equal(back, arr)
    assert np.array_equal(r.array((3,), "<u8"), ids)
    assert r.array((0, 3)).shape == (0, 3)
    r.expect_end()


def test_arrays_are_aligned_read_only_views_of_the_file():
    w = RecordWriter("DTGX v1")
    w.pack("<B", 1)
    w.array(np.arange(3), "<u4")
    w.array(np.ones((4, 4)))
    blob = w.finish()
    r = RecordReader(blob, "DTGX v1")
    r.unpack("<B")
    arrays = [r.array((3,), "<u4"), r.array((4, 4))]
    r.expect_end()
    for a in arrays:
        assert a.flags.aligned and not a.flags.writeable
        assert np.shares_memory(a, np.frombuffer(blob, dtype=np.uint8))


def test_checksum_detects_corruption():
    w = RecordWriter("DTGX v1")
    w.pack("<d", 1.0)
    blob = bytearray(w.finish())
    blob[len(b"DTGX v1\n") + 2] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        RecordReader(bytes(blob), "DTGX v1")


def test_version_mismatch_is_specific():
    blob = RecordWriter("DTGX v2").finish()
    with pytest.raises(VersionMismatchError):
        RecordReader(blob, "DTGX v1")


def test_wrong_family_is_generic_format_error():
    blob = RecordWriter("OTHER v1").finish()
    with pytest.raises(FormatError) as exc:
        RecordReader(blob, "DTGX v1")
    assert not isinstance(exc.value, VersionMismatchError)


def test_truncated_file_rejected():
    w = RecordWriter("DTGX v1")
    w.pack("<Q", 5)
    blob = w.finish()
    with pytest.raises(FormatError):
        RecordReader(blob[:-3], "DTGX v1")


def test_huge_array_shape_is_record_truncated():
    w = RecordWriter("DTGX v1")
    w.pack("<d", 1.0)
    r = RecordReader(w.finish(), "DTGX v1")
    with pytest.raises(FormatError, match="record truncated"):
        r.array((2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1))


def test_trailing_bytes_rejected():
    w = RecordWriter("DTGX v1")
    w.pack("<B", 1)
    r = RecordReader(w.finish(), "DTGX v1")
    with pytest.raises(FormatError):
        r.expect_end()  # the u8 was never consumed


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=0, max_size=10))
def test_f64_round_trip_exact(values):
    w = RecordWriter("DTGX v1")
    for v in values:
        w.pack("<d", v)
    r = RecordReader(w.finish(), "DTGX v1")
    for v in values:
        assert r.unpack("<d") == (v,)
    r.expect_end()
