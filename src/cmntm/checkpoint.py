"""Binary checkpoint container.

Layout (all integers little-endian):

    magic "CMNT"
    u32 version (currently 2)
    u32 entry count
    per entry: u32 name length, UTF-8 name, u32 dtype code, u32 ndim,
               u32 dims[ndim], raw little-endian payload (prod(dims) values)
    trailing u64: total byte length of everything before it

The dtype code indexes ``DTYPES``: float32, int64 or uint8. Version 1 had no
dtype code; every one of its entries is float32, and it still loads.

Both directions stream. A save writes each header and each array's buffer
straight into the file, counting bytes for the length field. A load reads
each payload once, from the file into the array it returns; every field is
checked against the file's size before it is read.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_open

MAGIC = b"CMNT"
VERSION = 2
DTYPES = (np.dtype("<f4"), np.dtype("<i8"), np.dtype("u1"))


def save_entries(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays, atomically; insertion order is preserved on disk."""
    with atomic_open(path, "wb") as fh:
        written = fh.write(MAGIC + struct.pack("<II", VERSION, len(entries)))
        for name, arr in entries.items():
            arr = np.asarray(arr)
            if arr.dtype not in DTYPES:
                raise CheckpointError(
                    f"entry {name!r} must be float32, int64 or uint8, got {arr.dtype}")
            name_bytes = name.encode("utf-8")
            written += fh.write(struct.pack("<I", len(name_bytes)) + name_bytes + struct.pack(
                f"<{2 + arr.ndim}I", DTYPES.index(arr.dtype), arr.ndim, *arr.shape))
            written += fh.write(np.ascontiguousarray(arr).reshape(-1))
        fh.write(struct.pack("<Q", written))


class _Reader:
    """Reads a checkpoint front to back, checking each field against the file size."""

    def __init__(self, path: str, fh, size: int):
        self.path = path
        self.fh = fh
        self.size = size
        self.pos = 0

    def _truncated(self, n: int, what: str) -> CheckpointError:
        return CheckpointError(f"{self.path}: truncated while reading {what} "
                               f"(need {n} bytes at offset {self.pos})")

    def take(self, n: int, what: str) -> bytes:
        out = self.fh.read(n) if self.pos + n <= self.size else b""
        if len(out) != n:
            raise self._truncated(n, what)
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def array(self, dims: tuple, dtype: np.dtype, what: str) -> np.ndarray:
        """The next ``prod(dims)`` values, read from the file straight into a new array."""
        count = math.prod(dims)  # a Python int: a product past int64 must not wrap
        n = count * dtype.itemsize
        out = np.empty(count, dtype=dtype) if self.pos + n <= self.size else None
        if out is None or self.fh.readinto(out) != n:
            raise self._truncated(n, what)
        self.pos += n
        return out.reshape(dims)


def load_entries(path: str) -> dict[str, np.ndarray]:
    """Read a version 1 or 2 checkpoint, verifying magic, version, dtypes, sizes and length."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + 4 + 4 + 8:
            raise CheckpointError(f"{path}: file too short to be a checkpoint")
        r = _Reader(path, fh, size)
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version = r.u32("version")
        if version not in (1, 2):
            raise CheckpointError(f"{path}: unsupported version {version}")
        count = r.u32("entry count")
        entries: dict[str, np.ndarray] = {}
        for i in range(count):
            name_len = r.u32(f"entry {i} name length")
            try:
                name = r.take(name_len, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry {i} name is not UTF-8") from None
            code = r.u32(f"entry {name!r} dtype code") if version == 2 else 0
            if code >= len(DTYPES):
                raise CheckpointError(f"{path}: entry {name!r} has unknown dtype code {code}")
            ndim = r.u32(f"entry {name!r} ndim")
            if ndim > 8:
                raise CheckpointError(f"{path}: entry {name!r} has implausible ndim {ndim}")
            dims = tuple(r.u32(f"entry {name!r} dim {d}") for d in range(ndim))
            payload = r.array(dims, DTYPES[code], f"entry {name!r} payload")
            if name in entries:
                raise CheckpointError(f"{path}: duplicate entry {name!r}")
            entries[name] = payload
        stated = struct.unpack("<Q", r.take(8, "length field"))[0]
    if stated != r.pos - 8:
        raise CheckpointError(f"{path}: length field says {stated} bytes, found {r.pos - 8}")
    if r.pos != size:
        raise CheckpointError(f"{path}: {size - r.pos} trailing bytes after length field")
    return entries
