"""Shared test helpers: gradient checking, signal fixtures, foreign checkpoints."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from nomadet.neuralnet import ArchConfig, checkpoint
from nomadet.sigsim import (ModScheme, NomaScenario, modulate, superpose,
                            apply_channel, resolve_allocation)


DEFAULT_ARCH = ArchConfig()
# minimal config used by gradient checks: one conv stage, one identity block, dense
TINY_ARCH = ArchConfig(input_size=12, base_kernel=3, base_channels=4, blocks=(4,),
                       dtype="float64")


def numeric_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar function wrt every entry."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn()
        x[idx] = orig - h
        fm = fn()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def flat_entry(flat, base, view):
    """The entry of ``flat`` that sits where ``view`` sits in ``base``, with
    ``view``'s shape and strides: ``flat`` shares ``base``'s layout, as Adam's
    moments share a model's flat ``grads``."""
    offset = (view.ctypes.data - base.ctypes.data) // base.itemsize
    return np.lib.stride_tricks.as_strided(flat[offset:], view.shape, view.strides,
                                           writeable=False)


def max_rel_error(analytic, numeric, floor=1e-6):
    """Worst relative disagreement with an absolute floor.

    The floor keeps structurally-zero gradients (for example conv biases that
    batch normalisation cancels exactly) from reporting spurious relative
    error built purely from finite-difference round-off.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def clean_noma_pair(scenario: NomaScenario, seed: int):
    """(noiseless frame, channel frame) for one scenario realisation."""
    rng = np.random.default_rng(seed)
    schemes = list(scenario.near_schemes) + [scenario.far_scheme]
    ratios = resolve_allocation(scenario)
    streams = []
    for scheme in schemes:
        bits = rng.integers(0, 2, size=scenario.symbols_per_frame * scheme.bits_per_symbol,
                            dtype=np.uint8)
        streams.append(modulate(bits, scheme))
    clean = superpose(streams, ratios)
    noisy = apply_channel(clean, scenario, rng=rng)
    return clean, noisy


@pytest.fixture(scope="session")
def table1_scenario():
    """Preprocessing reference setup: near QAM16, far pi/2-BPSK, 16 dB, delta 6."""
    return NomaScenario(near_schemes=(ModScheme.QAM16,),
                        far_scheme=ModScheme.PI_HALF_BPSK,
                        snr_db_near=16.0, delta_db=6.0, symbols_per_frame=2000)


def synthetic_diagram(label: int, rng: np.random.Generator, size: int = 100):
    """Visually distinct grid patterns, one family per class, with jitter."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    if label == 0:
        base = (np.sin(2 * np.pi * 3 * yy) > 0).astype(float)
    elif label == 1:
        base = (np.sin(2 * np.pi * 3 * xx) > 0).astype(float)
    elif label == 2:
        base = np.exp(-(((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / 0.02))
    else:
        base = sum(np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / 0.005))
                   for cx in (0.2, 0.8) for cy in (0.2, 0.8))
    shift = rng.integers(-3, 4, size=2)
    base = np.roll(base, shift, axis=(0, 1))
    noisy = base + 0.15 * rng.random((size, size))
    return np.clip(noisy / noisy.max(), 0.0, 1.0)


def synthetic_diagram_set(per_class: int, seed: int, size: int = 100):
    """(x, y) arrays of labelled synthetic diagrams, class-major order."""
    rng = np.random.default_rng(seed)
    grids, labels = [], []
    for label in range(4):
        for _ in range(per_class):
            grids.append(synthetic_diagram(label, rng, size))
            labels.append(label)
    x = np.stack(grids).astype(np.float32)[:, None, :, :]
    return x, np.array(labels, dtype=np.int64)


# an ArchConfig JSON with a key ArchConfig lacks, and ones ArchConfig rejects:
# a block as an old (kind, width) pair, a dtype, a stem width of 0 (with no
# blocks) and a kernel of 0
FOREIGN_ARCHS = [{**asdict(TINY_ARCH), "activation": "gelu"},
                 {**asdict(TINY_ARCH), "blocks": [["id", 99]]},
                 {**asdict(TINY_ARCH), "dtype": "float16"},
                 {**asdict(TINY_ARCH), "base_channels": 0, "blocks": []},
                 {**asdict(TINY_ARCH), "base_kernel": 0}]


def write_checkpoint_header(path, config: dict) -> None:
    """A checkpoint holding ``config`` and no tensors, as another program might write."""
    blob = json.dumps(config).encode("utf-8")
    path.write_bytes(checkpoint.MAGIC + struct.pack("<HI", checkpoint.FORMAT_VERSION, len(blob))
                     + blob + struct.pack("<I", 0))
