"""Atomic replacement of a file, and exact reads, in ``fileio``."""

import pytest

from nomadet.errors import TruncatedFileError
from nomadet.fileio import atomic_write, read_exact


def test_successful_block_replaces_the_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    with atomic_write(path) as fh:
        fh.write(b"new contents")
    assert path.read_bytes() == b"new contents"
    assert list(tmp_path.iterdir()) == [path]


def test_successful_block_creates_a_missing_file(tmp_path):
    path = tmp_path / "f.bin"
    with atomic_write(path) as fh:
        fh.write(b"first")
    assert path.read_bytes() == b"first"
    assert list(tmp_path.iterdir()) == [path]


def test_raising_block_keeps_the_old_bytes_and_no_temporary(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old"
    assert not list(tmp_path.glob("*.tmp"))
    assert list(tmp_path.iterdir()) == [path]


def test_read_past_the_end_raises_before_reading(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    with open(path, "rb") as fh:
        fh.read(1)
        with pytest.raises(TruncatedFileError, match="huge"):
            read_exact(fh, 1 << 62, "huge")
        assert fh.tell() == 1
        assert read_exact(fh, 2, "rest") == b"bc"
