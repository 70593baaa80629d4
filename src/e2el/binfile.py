"""The wire idiom of the binary index (E2EA), vector (E2EV) and checkpoint
(E2EL) files.

A file starts with its 4-byte magic; fixed-width fields are little-endian.
A string is a u16 byte length and that many UTF-8 bytes, so it holds at
most 65535 bytes. In every format a string is followed by one fixed-width
field; the pair is a record. A short read, invalid UTF-8, a count that
needs more bytes than the file has left, a trailing byte, or a string too
long to write raises ``ValueError("<path>: <what> at byte <offset>
reading|writing <field>")``.
"""

from __future__ import annotations

import mmap
import struct
from typing import Any, BinaryIO, Callable

U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
F64 = struct.Struct("<d")


def load_either(path: str, magic: bytes, binary: Callable[[str], Any],
                text: Callable[[str], Any]) -> Any:
    """`binary(path)` when the file starts with `magic`, else `text(path)`."""
    with open(path, "rb") as fh:
        is_binary = fh.read(len(magic)) == magic
    return binary(path) if is_binary else text(path)


def write_record(fh: BinaryIO, text: str, st: struct.Struct, value: Any, field: str) -> None:
    """Write `text` as a length-prefixed string, then `value` packed by `st`."""
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError(f"{fh.name}: string of {len(data)} bytes exceeds 65535 "
                         f"at byte {fh.tell()} writing {field}")
    fh.write(U16.pack(len(data)) + data + st.pack(value))


class Reader:
    """A file mapped read-only, and a read position past its magic."""

    def __init__(self, path: str, magic: bytes):
        with open(path, "rb") as fh:
            head = fh.read(len(magic))
            if head != magic:
                raise ValueError(f"{path}: bad magic {head!r}, expected {magic!r}")
            self.buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self.path, self.pos, self.size = path, len(magic), len(self.buf)

    def error(self, what: str, field: str, at: int | None = None) -> ValueError:
        """The error for `field`, at byte `at` or else at the read position."""
        return ValueError(f"{self.path}: {what} at byte {self.pos if at is None else at} "
                          f"reading {field}")

    def finish(self) -> None:
        """Reject trailing bytes, then unmap the file."""
        if self.pos != self.size:
            raise self.error(f"{self.size - self.pos} trailing byte(s)", "end of file")
        self.buf.close()

    def release(self) -> None:
        """Drop the pages already read from this process's resident set, so
        a large file is not held in memory next to what is built from it."""
        end = self.pos - self.pos % mmap.PAGESIZE
        if end and hasattr(mmap, "MADV_DONTNEED"):
            self.buf.madvise(mmap.MADV_DONTNEED, 0, end)

    def unpack(self, st: struct.Struct, field: str) -> tuple:
        try:
            values = st.unpack_from(self.buf, self.pos)
        except struct.error:
            raise self.error("file ends", field) from None
        self.pos += st.size
        return values

    def take(self, n: int, field: str) -> bytes:
        if n > self.size - self.pos:
            raise self.error(f"file ends before {n} bytes", field)
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def records(self, n: int, st: struct.Struct, field: str,
                make: Callable[[str, Any], Any] = lambda s, v: (s, v)) -> list:
        """`n` records, each passed to make(string, value).

        One loop over bound unpackers keeps the cost per record flat. A
        short string needs no check of its own: the field after it then
        starts past the end, and unpacking that fails.
        """
        buf, pos, size = self.buf, self.pos, st.size
        u16, unpack, out = U16.unpack_from, st.unpack_from, []
        try:
            for _ in range(n):
                (k,) = u16(buf, pos)
                end = pos + 2 + k
                (value,) = unpack(buf, end)
                out.append(make(buf[pos + 2:end].decode("utf-8"), value))
                pos = end + size
        except (struct.error, UnicodeDecodeError) as exc:
            self.pos = pos
            raise self.error("file ends" if isinstance(exc, struct.error) else "invalid UTF-8",
                             field) from None
        self.pos = pos
        return out
