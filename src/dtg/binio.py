"""Little-endian binary records with a CRC-32 trailer, and the one writer
of every file.

The corpus and checkpoint file formats share these conventions: an ASCII
header line, ``struct``-packed little-endian fields, whole row-major arrays
of a stated little-endian dtype, and a trailing 4-byte little-endian
``zlib.crc32`` of every preceding byte (``checksum``).  Zero bytes pad each
array to an offset that is a multiple of its item size, so the reader's
views into the file buffer are aligned: numpy computes on unaligned arrays
through other loops, whose results can differ in the last bits.

The trailer guards against accidental damage only.  CRC-32 catches every
burst error of up to 32 bits, every single-bit flip among them, and lets
random damage through with probability 2^-32.  It is unkeyed, as the
BLAKE2b trailer of the v2 formats was: anyone who can change a file can
recompute its trailer, so no trailer of either kind ever authenticated a
file.  Files of the v2 formats are rejected as an unsupported version;
regenerate a corpus with ``dtg gen-data`` and retrain a checkpoint.

Every file the package writes, these records and its JSON and CSV files
alike, goes through ``write_file``: the bytes go to a temporary file beside
the target, which ``os.replace`` then moves onto it.  A file is therefore
either whole or untouched, even if the process stops mid-write.  Each file
is replaced on its own, so a command stopped between two files can leave
new files next to old ones.  Nothing is fsynced: a file is whole once the
process stops, but may not survive a power loss.  A symlink at the target
is replaced by the new file, not written through.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

CHECKSUM_SIZE = 4


class FormatError(ValueError):
    """File does not parse as the expected binary format."""


class VersionMismatchError(FormatError):
    """Recognized format family but unsupported version header."""


class ChecksumMismatchError(FormatError):
    """Stored checksum does not match the file contents."""


def checksum(*parts) -> bytes:
    """The record trailer: ``zlib.crc32`` of the concatenated bytes-like
    ``parts``, as ``CHECKSUM_SIZE`` little-endian bytes."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc.to_bytes(CHECKSUM_SIZE, "little")


def write_file(path, data) -> None:
    """Write ``data`` to ``path`` whole, or leave ``path`` as it was.

    ``data`` is bytes-like, a ``str`` (encoded as UTF-8 with no newline
    translation) or a list or tuple of bytes-like parts, written in order
    without joining them.  Parent directories are created as needed.  The
    file gets the mode ``open`` gives a new file, ``0o666`` less the umask.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    parts = data if isinstance(data, (list, tuple)) else (data,)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # opened outside the try: a name another writer holds is not ours to unlink
    fh = open(tmp, "xb")
    try:
        with fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


class RecordWriter:
    """Accumulates fields in order; ``finish`` appends the checksum.

    Arrays are referenced, not copied: ``finish`` returns the record as its
    parts, which ``write_file`` writes one after another.
    """

    def __init__(self, header: str):
        self._parts: list = []
        self._size = 0
        self._add(header.encode("ascii") + b"\n")

    def _add(self, data) -> None:
        self._parts.append(data)
        self._size += len(data)

    def pack(self, fmt: str, *values) -> None:
        self._add(struct.pack(fmt, *values))

    def array(self, a: np.ndarray, dtype: str = "<f8") -> None:
        data = np.ascontiguousarray(a, dtype=dtype)
        self._add(bytes(-self._size % data.itemsize))
        self._add(data.reshape(-1).view(np.uint8))

    def finish(self) -> list:
        """The record's parts in order, the checksum last; ``b"".join``
        makes its bytes."""
        return [*self._parts, checksum(*self._parts)]


class RecordReader:
    """Validates header and checksum up front, then reads fields in order.

    Arrays come back as read-only views into ``data``; nothing is copied.
    """

    def __init__(self, data: bytes, header: str):
        expected = header.encode("ascii")
        newline = data.find(b"\n")
        if newline < 0 or len(data) < newline + 1 + CHECKSUM_SIZE:
            raise FormatError("file truncated before record body")
        found = data[:newline]
        if found != expected:
            family = expected.split(b" ")[0]
            if found.startswith(family + b" "):
                raise VersionMismatchError(
                    f"unsupported version {found.decode('ascii', 'replace')!r}, "
                    f"expected {header!r}"
                )
            raise FormatError(f"unrecognized header {found[:32]!r}, expected {header!r}")
        view = memoryview(data)
        body, stored = view[:-CHECKSUM_SIZE], bytes(view[-CHECKSUM_SIZE:])
        computed = checksum(body)
        if stored != computed:
            raise ChecksumMismatchError(
                f"checksum mismatch: stored {stored.hex()}, computed {computed.hex()}"
            )
        self._buf = body
        self._pos = newline + 1

    def _take(self, n: int) -> memoryview:
        end = self._pos + n
        if end > len(self._buf):
            raise FormatError("record truncated")
        out = self._buf[self._pos:end]
        self._pos = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def array(self, shape: tuple[int, ...], dtype: str = "<f8") -> np.ndarray:
        dt = np.dtype(dtype)
        self._take(-self._pos % dt.itemsize)
        # Python ints: a huge count from a crafted header fails here, not in numpy
        raw = self._take(math.prod(int(n) for n in shape) * dt.itemsize)
        return np.frombuffer(raw, dtype=dt).reshape(shape)

    def expect_end(self) -> None:
        if self._pos != len(self._buf):
            raise FormatError(f"{len(self._buf) - self._pos} unexpected trailing bytes")
