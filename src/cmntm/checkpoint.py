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
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_open

MAGIC = b"CMNT"
VERSION = 2
DTYPES = (np.dtype("<f4"), np.dtype("<i8"), np.dtype("u1"))


def save_entries(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays, atomically; insertion order is preserved on disk."""
    chunks: list[bytes] = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(entries))]
    for name, arr in entries.items():
        arr = np.asarray(arr)
        if arr.dtype not in DTYPES:
            raise CheckpointError(
                f"entry {name!r} must be float32, int64 or uint8, got {arr.dtype}")
        code = DTYPES.index(arr.dtype)
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack(f"<{2 + arr.ndim}I", code, arr.ndim, *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype=DTYPES[code]).tobytes())
    body = b"".join(chunks)
    with atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<Q", len(body)))


class _Reader:
    def __init__(self, path: str, blob: bytes):
        self.path = path
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated while reading {what} "
                                  f"(need {n} bytes at offset {self.pos})")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_entries(path: str) -> dict[str, np.ndarray]:
    """Read a version 1 or 2 checkpoint, verifying magic, version, dtypes, sizes and length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 4 + 8:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    r = _Reader(path, blob)
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
        size = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        payload = r.take(size * DTYPES[code].itemsize, f"entry {name!r} payload")
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        entries[name] = np.frombuffer(payload, dtype=DTYPES[code]).reshape(dims).copy()
    stated = struct.unpack("<Q", r.take(8, "length field"))[0]
    if stated != r.pos - 8:
        raise CheckpointError(f"{path}: length field says {stated} bytes, found {r.pos - 8}")
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes after length field")
    return entries
