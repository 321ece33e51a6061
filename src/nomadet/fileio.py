"""Atomic file writes and exact reads for the dataset and checkpoint formats."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import TruncatedFileError


@contextmanager
def atomic_write(path):
    """Binary handle on a temporary file beside ``path`` that replaces it when
    the block succeeds; if the block raises, ``path`` keeps its old contents."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_exact(fh, size: int, what: str) -> bytes:
    blob = fh.read(size)
    if len(blob) != size:
        raise TruncatedFileError(f"{fh.name} truncated while reading {what}")
    return blob
