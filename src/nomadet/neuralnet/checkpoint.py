"""Model checkpoint file format.

Layout (all integers little-endian):
  magic "NMDL" | version u16 | config-JSON length u32 + bytes |
  tensor count u32 | per tensor: rank u8, dims u32*rank, float32 data
Tensors appear in the model's declaration order (weights and batch-norm
running statistics interleaved per layer).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from ..errors import BadMagicError, TruncatedFileError, VersionMismatchError
from ..fileio import atomic_write, read_exact
from .model import ArchConfig, ModulationNet

__all__ = ["save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"NMDL"
FORMAT_VERSION = 1


def save_model(model: ModulationNet, path) -> None:
    """Write the checkpoint; a failed save leaves any previous file intact."""
    config_blob = json.dumps(asdict(model.arch), sort_keys=True).encode("utf-8")
    tensors = [value for _, _, _, value in model.state_tensors()]
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(tensors)))
        for value in tensors:
            fh.write(struct.pack("<B", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def load_model(path) -> ModulationNet:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"not a model checkpoint: magic {magic!r}")
        (version,) = struct.unpack("<H", read_exact(fh, 2, "version"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"checkpoint version {version} unsupported (expected {FORMAT_VERSION})")
        (config_len,) = struct.unpack("<I", read_exact(fh, 4, "config length"))
        config = read_exact(fh, config_len, "config")
        try:
            arch = ArchConfig(**json.loads(config.decode("utf-8")))
        except (TypeError, ValueError) as exc:  # unreadable, or not an ArchConfig
            raise TruncatedFileError(f"{path}: bad checkpoint config: {exc}") from exc
        model = ModulationNet(arch, seed=0)
        (count,) = struct.unpack("<I", read_exact(fh, 4, "tensor count"))
        slots = list(model.state_tensors())
        if count != len(slots):
            raise TruncatedFileError(
                f"checkpoint holds {count} tensors, model expects {len(slots)}")
        for name, _, _, value in slots:
            (rank,) = struct.unpack("<B", read_exact(fh, 1, f"{name} rank"))
            dims = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, f"{name} dims"))
            if tuple(dims) != value.shape:
                raise TruncatedFileError(
                    f"tensor {name} has shape {dims}, expected {value.shape}")
            blob = read_exact(fh, 4 * int(np.prod(dims, dtype=np.int64)),
                               f"{name} data")
            data = np.frombuffer(blob, dtype="<f4").reshape(dims)
            value[...] = data.astype(value.dtype)
        if fh.read(1):
            raise TruncatedFileError("trailing bytes after final tensor")
    return model
