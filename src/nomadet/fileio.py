"""Atomic file writes, and the binary frame of the dataset and checkpoint
formats: a 4-byte magic, a u16 little-endian version, then a body that its
format lays out and that ends exactly at the end of the file."""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from pathlib import Path

from .errors import BadMagicError, TruncatedFileError, VersionMismatchError


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


@contextmanager
def write_frame(path, magic: bytes, version: int):
    """``atomic_write`` handle on ``path`` after the magic and version."""
    with atomic_write(path) as fh:
        fh.write(magic + struct.pack("<H", version))
        yield fh


@contextmanager
def read_frame(path, magic: bytes, version: int, kind: str):
    """Handle on the body of the ``kind`` file ``path``; another magic or version
    raises, and so does a body that the block does not read to its end."""
    with open(path, "rb") as fh:
        found = read_exact(fh, len(magic), "magic")
        if found != magic:
            raise BadMagicError(f"not a {kind} file: magic {found!r}")
        (found,) = read_fields(fh, "<H", "version")
        if found != version:
            raise VersionMismatchError(
                f"{kind} version {found} unsupported (expected {version})")
        yield fh
        if fh.read(1):
            raise TruncatedFileError(f"{fh.name}: trailing bytes after the {kind} body")


def read_exact(fh, size: int, what: str) -> bytes:
    """The next ``size`` bytes of ``fh``; a request past the end of the file
    raises before reading, so a damaged length cannot exhaust memory."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    blob = fh.read(size) if size <= left else b""
    if len(blob) != size:
        raise TruncatedFileError(f"{fh.name} truncated while reading {what}")
    return blob


def read_fields(fh, fmt: str, what: str) -> tuple:
    """The next ``struct`` fields of ``fh`` in format ``fmt``."""
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what))
