"""Atomic replacement of a file by ``fileio.atomic_write``."""

import pytest

from nomadet.fileio import atomic_write


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
