"""Model checkpoint file format.

A ``fileio`` frame (magic "NMDL") whose body is, little-endian:
  config-JSON length u32 + bytes | tensor count u32 |
  per tensor: rank u8, dims u32*rank, float32 data
Tensors appear in the model's declaration order (weights and batch-norm
running statistics interleaved per layer).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from ..errors import DataFormatError
from ..fileio import read_exact, read_fields, read_frame, write_frame
from .model import ArchConfig, ModulationNet

__all__ = ["save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"NMDL"
FORMAT_VERSION = 1


def save_model(model: ModulationNet, path) -> None:
    """Write the checkpoint; a failed save leaves any previous file intact."""
    config_blob = json.dumps(asdict(model.arch), sort_keys=True).encode("utf-8")
    tensors = [value for _, _, _, value in model.state_tensors()]
    with write_frame(path, MAGIC, FORMAT_VERSION) as fh:
        fh.write(struct.pack("<I", len(config_blob)) + config_blob)
        fh.write(struct.pack("<I", len(tensors)))
        for value in tensors:
            fh.write(struct.pack(f"<B{value.ndim}I", value.ndim, *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def load_model(path) -> ModulationNet:
    """The model a checkpoint holds; a foreign config or shape is a DataFormatError."""
    with read_frame(path, MAGIC, FORMAT_VERSION, "checkpoint") as fh:
        (config_len,) = read_fields(fh, "<I", "config length")
        config = read_exact(fh, config_len, "config")
        try:
            arch = ArchConfig(**json.loads(config.decode("utf-8")))
        except (TypeError, ValueError) as exc:  # unreadable, or not an ArchConfig
            raise DataFormatError(f"{path}: bad checkpoint config: {exc}") from exc
        model = ModulationNet(arch, seed=0)
        (count,) = read_fields(fh, "<I", "tensor count")
        slots = list(model.state_tensors())
        if count != len(slots):
            raise DataFormatError(
                f"{path}: checkpoint holds {count} tensors, model expects {len(slots)}")
        for name, _, _, value in slots:
            (rank,) = read_fields(fh, "<B", f"{name} rank")
            dims = read_fields(fh, f"<{rank}I", f"{name} dims")
            if dims != value.shape:
                raise DataFormatError(
                    f"{path}: tensor {name} has shape {dims}, expected {value.shape}")
            data = np.frombuffer(read_exact(fh, 4 * value.size, f"{name} data"), "<f4")
            value[...] = data.reshape(dims)
    return model
