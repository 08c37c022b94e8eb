"""The binary field encoding shared by sequence records and checkpoints, and
the atomic write every artifact file goes through.

Fields (integers little-endian, arrays little-endian float64 unless stated):

    string   u16 byte length, utf-8 bytes
    array    u8 rank, rank * u32 extents, payload
    payload  the array's elements in C order, written verbatim

A file starts with a caller-chosen magic. Payloads are raw bytes, so a
decode/encode round trip is byte-identical.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np


def atomic_write(path, data: bytes | str) -> None:
    """Write `data` beside `path`, then rename it into place."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


class Writer:
    """Builds one file image; `error` is the caller's exception class."""

    def __init__(self, magic: bytes, error: type[Exception]):
        self.buf = bytearray(magic)
        self.error = error

    def pack(self, fmt: str, *values) -> None:
        self.buf += struct.pack(fmt, *values)

    def str(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise self.error(f"name too long: {s!r}")
        self.pack("<H", len(raw))
        self.buf += raw

    def array(self, a) -> None:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim > 0xFF:
            raise self.error("rank too large")
        self.pack(f"<B{a.ndim}I", a.ndim, *a.shape)
        self.payload(a)

    def payload(self, a, dtype: str = "<f8") -> None:
        self.buf += np.ascontiguousarray(a, dtype=dtype).tobytes()

    def bytes(self) -> bytes:
        return bytes(self.buf)


class Reader:
    """Walks one file image written by `Writer`.

    `kind` names the file in error messages ("record", "checkpoint"); bad
    magic, truncation and trailing bytes raise the caller's `error` class.
    """

    def __init__(self, data: bytes, magic: bytes, kind: str, error: type[Exception]):
        self.data = data
        self.pos = 0
        self.kind = kind
        self.error = error
        if self.take(len(magic)) != magic:
            raise error(f"bad magic: not a {kind} file")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise self.error(f"truncated {self.kind} file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals[0] if len(vals) == 1 else vals

    def str(self) -> str:
        return self.take(self.unpack("<H")).decode("utf-8")

    def array(self) -> np.ndarray:
        rank = self.unpack("<B")
        shape = tuple(self.unpack("<I") for _ in range(rank))
        return self.payload(shape)

    def payload(self, shape: tuple[int, ...], dtype: str = "<f8") -> np.ndarray:
        """A writable native-order copy of the next `shape` elements."""
        dt = np.dtype(dtype)
        raw = self.take(dt.itemsize * math.prod(shape))
        return np.frombuffer(raw, dtype=dt).astype(dt.newbyteorder("=")).reshape(shape)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"trailing bytes after {self.kind} payload")
