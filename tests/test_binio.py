import builtins
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg import binio
from dtg.binio import (ChecksumMismatchError, FormatError, RecordReader,
                       RecordWriter, VersionMismatchError, checksum, write_file, write_json)


def record(w: RecordWriter) -> bytes:
    return b"".join(w.finish())


def test_round_trip_scalars_and_array():
    w = RecordWriter("DTGX v1")
    w.pack("<BIQd", 3, 70000, 2 ** 40, -1.5)
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    w.array(arr)
    ids = np.array([0, 2 ** 63 + 5, 7], dtype=np.uint64)
    w.array(ids, "<u8")
    w.array(np.zeros((0, 3)))
    blob = record(w)

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
    blob = record(w)
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
    blob = bytearray(record(w))
    blob[len(b"DTGX v1\n") + 2] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        RecordReader(bytes(blob), "DTGX v1")


def _small_record() -> bytes:
    w = RecordWriter("DTGX v1")
    w.pack("<BI", 7, 123456)
    w.array(np.array([1.0, -2.5]))
    return record(w)


def test_small_record_has_its_recorded_crc32_trailer():
    blob = _small_record()
    # recorded from a bitwise CRC-32 of the preceding bytes (zlib's: reflected
    # polynomial 0xEDB88320, initial and final xor 0xFFFFFFFF), little-endian
    assert blob[-4:].hex() == "318bdd16"
    assert checksum(blob[:-4]) == blob[-4:]


def test_every_single_bit_flip_is_rejected():
    blob = _small_record()
    header_end = blob.index(b"\n") + 1
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FormatError) as exc:
            RecordReader(bytes(flipped), "DTGX v1")
        in_header = bit // 8 < header_end
        assert isinstance(exc.value, ChecksumMismatchError) != in_header, bit


def test_version_mismatch_is_specific():
    blob = record(RecordWriter("DTGX v2"))
    with pytest.raises(VersionMismatchError):
        RecordReader(blob, "DTGX v1")


def test_wrong_family_is_generic_format_error():
    blob = record(RecordWriter("OTHER v1"))
    with pytest.raises(FormatError) as exc:
        RecordReader(blob, "DTGX v1")
    assert not isinstance(exc.value, VersionMismatchError)


def test_truncated_file_rejected():
    w = RecordWriter("DTGX v1")
    w.pack("<Q", 5)
    blob = record(w)
    with pytest.raises(FormatError):
        RecordReader(blob[:-3], "DTGX v1")


def test_huge_array_shape_is_record_truncated():
    w = RecordWriter("DTGX v1")
    w.pack("<d", 1.0)
    r = RecordReader(record(w), "DTGX v1")
    with pytest.raises(FormatError, match="record truncated"):
        r.array((2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1))


def test_trailing_bytes_rejected():
    w = RecordWriter("DTGX v1")
    w.pack("<B", 1)
    r = RecordReader(record(w), "DTGX v1")
    with pytest.raises(FormatError):
        r.expect_end()  # the u8 was never consumed


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=0, max_size=10))
def test_f64_round_trip_exact(values):
    w = RecordWriter("DTGX v1")
    for v in values:
        w.pack("<d", v)
    r = RecordReader(record(w), "DTGX v1")
    for v in values:
        assert r.unpack("<d") == (v,)
    r.expect_end()


# --- write_file ---

def test_write_file_failing_midway_keeps_old_bytes_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    write_file(path, b"old contents")

    class HalfWrite:
        """A file that stores the first half of what it is given, then fails."""
        def __init__(self, fh):
            self.fh = fh
        def __enter__(self):
            return self
        def __exit__(self, *exc):
            self.fh.close()
        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(binio, "open", lambda *a, **k: HalfWrite(builtins.open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_file(path, b"new contents, longer than the old")
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["f.bin"]


def test_write_file_failing_rename_keeps_old_bytes_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    write_file(path, b"old")

    def fail(src, dst):
        raise PermissionError("replace refused")
    monkeypatch.setattr(binio.os, "replace", fail)
    with pytest.raises(PermissionError):
        write_file(path, b"new")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["f.bin"]


def test_write_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_file(tmp_path / "f.bin", b"x")
    finally:
        os.umask(old)
    assert (tmp_path / "f.bin").stat().st_mode & 0o777 == 0o644


def test_write_file_creates_missing_parents(tmp_path):
    path = tmp_path / "a" / "b" / "f.bin"
    write_file(path, b"x")
    assert path.read_bytes() == b"x"


def test_write_file_encodes_str_as_utf8_without_newline_translation(tmp_path):
    write_file(tmp_path / "f.txt", "a\r\nb\n\u00e9")
    assert (tmp_path / "f.txt").read_bytes() == b"a\r\nb\n\xc3\xa9"


def test_write_file_replaces_a_symlink_instead_of_writing_through(tmp_path):
    target = tmp_path / "target"
    target.write_bytes(b"target")
    link = tmp_path / "link"
    link.symlink_to(target)
    write_file(link, b"new")
    assert not link.is_symlink() and link.read_bytes() == b"new"
    assert target.read_bytes() == b"target"


def test_write_file_writes_parts_in_order(tmp_path):
    parts = [b"head\n", np.arange(3, dtype="<u2").view(np.uint8), memoryview(b"tail")]
    write_file(tmp_path / "f.bin", parts)
    assert (tmp_path / "f.bin").read_bytes() == b"head\n\x00\x00\x01\x00\x02\x00tail"


def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    write_json(tmp_path / "d.json", {"b": [1], "a": None})
    assert (tmp_path / "d.json").read_text() == '{\n  "a": null,\n  "b": [\n    1\n  ]\n}\n'
