"""Atomic file replacement for the files a run writes."""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", encoding: str | None = None):
    """Write to a temp file beside ``path``, then move it onto ``path``.

    Readers see the old file or the complete new one, never a partial write.
    If the body raises, the temp file is removed and ``path`` is left as it
    was. The temp file is created like ``open`` would create ``path``, so the
    result has the usual permissions.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
