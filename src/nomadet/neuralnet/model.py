"""Residual network for density-diagram classification.

Stage 1 is a baseline convolution (BN + 2x2 max pool + ReLU), run as one
``Stem`` layer on the pooling phase planes of the conv output, stage 2 a
string of residual blocks (a block that keeps its input's width keeps its
shape, one that changes it halves the spatial extent with a strided 1x1
shortcut), stage 3 global average pooling into a dense layer with one logit
per modulation class. The stem pools before its ReLU, so the ReLU touches a
quarter of the elements; the order is exact, because ReLU is monotone: the
max of a window's ReLUs is the ReLU of its max, a window with a positive max
routes its gradient to the same first maximum either way, and any other
window passes no gradient.

Each stage is one list of (name, layer) pairs in forward order, and these
lists are the one statement of layer order: ``ModulationNet.layers`` for the
network, ``main`` and ``shortcut`` for each residual block. Forward is a fold
over the lists, backward a fold over them in reverse, and ``leaf_layers`` a
walk, which ``state_tensors`` (read by the checkpoint) extends to each
tensor's dotted path, such as ``block0.conv1.w``; the stem's tensors keep
the paths of its conv and batch norm, ``base_conv`` and ``base_bn``.

The layers are built in that order into one ``FlatState``, so the network's
trainable state is two flat buffers in its dtype. ``state`` holds every
parameter in forward order, then every batch-norm running statistic in
forward order; ``grads`` has the layout of its parameter part. Every
layer's ``params``, ``buffers`` and ``grads`` entries are views of them,
each with its standalone shape and memory layout, and every backward
writes its gradients into them in place. He initialisation is drawn
straight into the views. So a snapshot is one copy of ``state``, and the
optimiser walks ``grads`` and the parameter part as flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import checked_int
from .layers import (BatchNorm2D, Conv2D, Dense, FlatState, GlobalAvgPool, ReLU, Stem,
                     softmax)

__all__ = ["ArchConfig", "ResidualBlock", "ModulationNet", "NUM_CLASSES"]

NUM_CLASSES = 4  # one logit per far-user modulation class


@dataclass(frozen=True)
class ArchConfig:
    """Static description of the network.

    ``blocks`` holds each residual block's output width. As in He et al.'s
    ResNet (CVPR 2016), the block that widens is the block that downsamples:
    a block whose width differs from its input's has stride 2 and a 1x1
    shortcut, and a block that keeps its input's width is an identity block.
    ``blocks`` may be given as a list, as JSON reads it back.
    """

    input_size: int = 100
    base_kernel: int = 5
    base_channels: int = 16
    blocks: tuple = (32, 32, 64, 64, 128, 128)
    dtype: str = "float32"

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        for name in ("input_size", "base_kernel", "base_channels"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), 1))
        object.__setattr__(self, "blocks", tuple(checked_int("blocks", c, 1) for c in self.blocks))

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def _forward(layers, x: np.ndarray, training: bool) -> np.ndarray:
    for _, layer in layers:
        x = layer.forward(x, training)
    return x


def _backward(layers, grad: np.ndarray) -> np.ndarray:
    for _, layer in reversed(layers):
        grad = layer.backward(grad)
    return grad


class ResidualBlock:
    """ReLU(main(x) + shortcut(x)); main is conv3-BN-ReLU-conv3-BN.

    A block that keeps its width (``in_ch == out_ch``) keeps its shape and
    has an empty shortcut. A block that changes width strides the first conv
    by 2 and carries a 1x1 stride-2 conv (+BN) on the shortcut, halving H
    and W. Its layers declare their tensors in ``store``, or each owns its
    own when it is None. Forward adds the shortcut's result into the main
    path's, a new buffer that no caller holds, so the sum keeps the main
    path's channels-last layout even when an identity shortcut's is NCHW.
    """

    def __init__(self, in_ch: int, out_ch: int, rng, dtype, store: FlatState | None = None):
        identity = in_ch == out_ch
        self.main = [
            ("conv1", Conv2D(in_ch, out_ch, 3, 1 if identity else 2, rng=rng, dtype=dtype,
                             store=store)),
            ("bn1", BatchNorm2D(out_ch, dtype, store=store)),
            ("relu1", ReLU()),
            ("conv2", Conv2D(out_ch, out_ch, 3, rng=rng, dtype=dtype, store=store)),
            ("bn2", BatchNorm2D(out_ch, dtype, store=store)),
        ]
        self.shortcut = [] if identity else [
            ("sc_conv", Conv2D(in_ch, out_ch, 1, 2, rng=rng, dtype=dtype, store=store)),
            ("sc_bn", BatchNorm2D(out_ch, dtype, store=store)),
        ]
        self.relu_out = ReLU()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        main = _forward(self.main, x, training)
        main += _forward(self.shortcut, x, training)
        return self.relu_out.forward(main, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(grad_out)
        return _backward(self.main, g) + _backward(self.shortcut, g)


class ModulationNet:
    """The full classifier; its layers' tensors are views of ``state`` and ``grads``."""

    def __init__(self, arch: ArchConfig, seed: int):
        self.arch = arch
        rng = np.random.default_rng(seed)
        dtype = arch.np_dtype
        store = FlatState(dtype)
        self.stem = Stem(arch.base_channels, arch.base_kernel, rng=rng, dtype=dtype, store=store)
        self.base_conv = self.stem.conv
        widths = (arch.base_channels,) + arch.blocks
        self.blocks = [ResidualBlock(in_ch, ch, rng, dtype, store)
                       for in_ch, ch in zip(widths, arch.blocks)]
        self.layers = [
            ("stem", self.stem),
            *((f"block{i}", block) for i, block in enumerate(self.blocks)),
            ("gap", GlobalAvgPool()),
            ("dense", Dense(widths[-1], NUM_CLASSES, rng=rng, dtype=dtype, store=store)),
        ]
        self.state, self.grads = store.allocate()

    def leaf_layers(self):
        """(name, layer) of every layer instance, in forward order."""
        for name, layer in self.layers:
            if isinstance(layer, ResidualBlock):
                for sub, leaf in layer.main + layer.shortcut + [("relu_out", layer.relu_out)]:
                    yield f"{name}.{sub}", leaf
            else:
                yield name, layer

    def state_tensors(self):
        """All weights and batch-norm running statistics, in forward order,
        each with the layer that owns it: the stem's belong to its conv and
        batch norm, named ``base_conv`` and ``base_bn``."""
        for prefix, leaf in self.leaf_layers():
            owners = ([("base_conv", leaf.conv), ("base_bn", leaf.bn)] if leaf is self.stem
                      else [(prefix, leaf)])
            for name, owner in owners:
                for key, value in owner.state_tensors():
                    yield f"{name}.{key}", owner, key, value

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.arch.np_dtype)
        n = self.arch.input_size
        if x.ndim != 4 or x.shape[1:] != (1, n, n):
            raise ValueError(f"expected input of shape (B, 1, {n}, {n}), got {x.shape}")
        return _forward(self.layers, x, training)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Fill every layer's ``grads`` from the loss gradient wrt the logits.

        The input diagrams are data, not parameters, so the stem returns no
        input gradient, and nothing is returned.
        """
        _backward(self.layers, grad_logits)

    def predict(self, x: np.ndarray, batch_size: int = 8) -> np.ndarray:
        """Class distribution per input row (softmax over logits).

        The rows run through the network ``batch_size`` at a time, so memory
        does not grow with the number of rows: a block of 8 float32 rows at
        n = 100 peaks at about 4 MB. Larger blocks are no faster: the convs
        multiply a few samples at a time whatever the block.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        x = np.asarray(x)
        probs = np.empty((len(x), NUM_CLASSES), dtype=self.arch.np_dtype)
        for i in range(0, len(x), batch_size):
            probs[i:i + batch_size] = softmax(self.forward(x[i:i + batch_size], training=False))
        return probs

    def classify(self, x: np.ndarray, batch_size: int = 8) -> np.ndarray:
        return self.predict(x, batch_size).argmax(axis=1)
