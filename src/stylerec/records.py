"""The binary container behind S4CK checkpoints, S4RF feature maps and S4SE style caches.

A 4-byte magic and a little-endian uint32 version head each file; then
come the format's own fields (little-endian integers, UTF-8 strings,
float32 arrays), as in safetensors' header-then-typed-records layout.
``Reader`` bounds-checks every read, so a short read, bad magic, unknown
version or trailing data is a ``FormatError`` naming the byte offset.
There is no checksum: a flipped data byte is not detected.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Tuple

import numpy as np

from .errors import FormatError

VERSION = 1  # of every format


def pack(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def write(path, magic: bytes, chunks: Iterable[bytes]) -> None:
    """Write the header and ``chunks`` through one join: one copy of the payload."""
    with open(path, "wb") as fh:
        fh.write(b"".join([pack("4sI", magic, VERSION), *chunks]))


class Reader:
    """Bounds-checked reads over one file's bytes, from just after its header."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.name, self.off = magic.decode("ascii"), 0
        found, version = self.unpack("4sI", "header")
        if found != magic:
            raise FormatError(f"bad magic {found!r} at byte 0, expected {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported {self.name} version {version} at byte 4")

    def _take(self, count: int, what: str) -> int:
        start = self.off
        if count > len(self.buf) - start:
            raise FormatError(f"truncated {self.name} file: needed {count} bytes for {what} "
                              f"at byte {start}, have {len(self.buf) - start}")
        self.off = start + count
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.buf, self._take(struct.calcsize(fmt), what))

    def text(self, count: int, what: str) -> str:
        start = self._take(count, what)
        try:
            return self.buf[start:self.off].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} at byte {start} is not UTF-8: {e.reason}") from None

    def floats(self, shape: Tuple[int, ...], what: str) -> np.ndarray:
        count = math.prod(shape)
        start = self._take(4 * count, what)
        return np.frombuffer(self.buf, "<f4", count, start).reshape(shape).copy()

    def at_end(self) -> bool:
        return self.off == len(self.buf)

    def finish(self) -> None:
        if not self.at_end():
            raise FormatError(f"trailing data at byte {self.off}")
