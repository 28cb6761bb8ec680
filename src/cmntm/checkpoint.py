"""Binary checkpoint container.

Layout (all integers little-endian):

    magic "CMNT"
    u32 version (currently 1)
    u32 entry count
    per entry: u32 name length, UTF-8 name, u32 ndim, u32 dims[ndim],
               raw little-endian float32 payload (prod(dims) values)
    trailing u64: total byte length of everything before it

Every entry payload is float32. Non-array state (the config snapshot, the
epoch counter) is carried by convention in ``meta.*`` entries: scalars as
one-element arrays, the config JSON as its UTF-8 bytes zero-padded to a
multiple of 4 and viewed as float32, with the true byte length alongside.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_open

MAGIC = b"CMNT"
VERSION = 1


def save_entries(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write named float32 arrays, atomically; insertion order is preserved on disk."""
    chunks: list[bytes] = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(entries))]
    for name, arr in entries.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise CheckpointError(f"entry {name!r} must be float32, got {arr.dtype}")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
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
    """Read a checkpoint, verifying magic, version, sizes, and the length field."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 4 + 8:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    r = _Reader(path, blob)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    count = r.u32("entry count")
    entries: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u32(f"entry {i} name length")
        try:
            name = r.take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry {i} name is not UTF-8") from None
        ndim = r.u32(f"entry {name!r} ndim")
        if ndim > 8:
            raise CheckpointError(f"{path}: entry {name!r} has implausible ndim {ndim}")
        dims = tuple(r.u32(f"entry {name!r} dim {d}") for d in range(ndim))
        size = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        payload = r.take(size * 4, f"entry {name!r} payload")
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        entries[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    stated = struct.unpack("<Q", r.take(8, "length field"))[0]
    if stated != r.pos - 8:
        raise CheckpointError(f"{path}: length field says {stated} bytes, found {r.pos - 8}")
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes after length field")
    return entries


def pack_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Encode text as (float32-viewed padded bytes, one-element length array)."""
    raw = text.encode("utf-8")
    padded = raw + b"\0" * (-len(raw) % 4)
    data = np.frombuffer(padded, dtype="<f4").copy() if padded else np.zeros(0, dtype="<f4")
    return data, np.asarray([float(len(raw))], dtype=np.float32)


def unpack_text(data: np.ndarray, length: np.ndarray) -> str:
    n = int(length.reshape(-1)[0])
    raw = np.ascontiguousarray(data, dtype="<f4").tobytes()[:n]
    return raw.decode("utf-8")
