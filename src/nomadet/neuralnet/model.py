"""Residual network for density-diagram classification.

Stage 1 is a baseline convolution (BN + ReLU + 2x2 max pool), stage 2 a
string of residual blocks (identity blocks keep shapes, conv blocks halve
the spatial extent with a strided 1x1 shortcut), stage 3 global average
pooling into a dense layer with one logit per modulation class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (BatchNorm2D, Conv2D, Dense, GlobalAvgPool, MaxPool2,
                     ReLU, softmax)

__all__ = ["ArchConfig", "ResidualBlock", "ModulationNet", "DEFAULT_ARCH", "TINY_ARCH"]

BLOCK_ID = "id"
BLOCK_CONV = "conv"


@dataclass(frozen=True)
class ArchConfig:
    """Static description of the network.

    ``blocks`` may be given as lists, as JSON reads them back.
    """

    input_size: int = 100
    base_kernel: int = 5
    base_channels: int = 16
    blocks: tuple = ((BLOCK_CONV, 32), (BLOCK_ID, 32), (BLOCK_CONV, 64),
                     (BLOCK_ID, 64), (BLOCK_CONV, 128), (BLOCK_ID, 128))
    num_classes: int = 4
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9
    dtype: str = "float32"

    def __post_init__(self):
        blocks = tuple((str(kind), int(ch)) for kind, ch in self.blocks)
        for kind, _ in blocks:
            if kind not in (BLOCK_ID, BLOCK_CONV):
                raise ValueError(f"unknown block kind {kind!r}")
        object.__setattr__(self, "blocks", blocks)
        in_ch = self.base_channels
        for kind, ch in blocks:
            if kind == BLOCK_ID and ch != in_ch:
                raise ValueError(
                    f"identity block requires matching channels, {in_ch} -> {ch}")
            in_ch = ch

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


DEFAULT_ARCH = ArchConfig()
# minimal config used by gradient checks: one conv stage, one ID block, dense
TINY_ARCH = ArchConfig(input_size=12, base_kernel=3, base_channels=4,
                       blocks=((BLOCK_ID, 4),), num_classes=4, dtype="float64")


class ResidualBlock:
    """ReLU(main(x) + shortcut(x)); main is conv3-BN-ReLU-conv3-BN.

    Identity blocks keep shape; conv blocks stride the first conv by 2 and
    carry a 1x1 stride-2 conv (+BN) on the shortcut, halving H and W.
    """

    def __init__(self, kind: str, in_ch: int, out_ch: int, rng, dtype,
                 bn_eps: float, bn_momentum: float):
        if kind not in (BLOCK_ID, BLOCK_CONV):
            raise ValueError(f"unknown block kind {kind!r}")
        if kind == BLOCK_ID and in_ch != out_ch:
            raise ValueError("identity block needs equal input/output channels")
        self.kind = kind
        stride = 2 if kind == BLOCK_CONV else 1
        self.conv1 = Conv2D(in_ch, out_ch, 3, stride=stride, padding="same",
                            rng=rng, dtype=dtype)
        self.bn1 = BatchNorm2D(out_ch, bn_eps, bn_momentum, dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_ch, out_ch, 3, stride=1, padding="same",
                            rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2D(out_ch, bn_eps, bn_momentum, dtype)
        if kind == BLOCK_CONV:
            self.sc_conv = Conv2D(in_ch, out_ch, 1, stride=2, padding="valid",
                                  rng=rng, dtype=dtype)
            self.sc_bn = BatchNorm2D(out_ch, bn_eps, bn_momentum, dtype)
        self.relu_out = ReLU()

    def sublayers(self):
        yield "conv1", self.conv1
        yield "bn1", self.bn1
        yield "conv2", self.conv2
        yield "bn2", self.bn2
        if self.kind == BLOCK_CONV:
            yield "sc_conv", self.sc_conv
            yield "sc_bn", self.sc_bn

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        main = self.conv1.forward(x, training)
        main = self.bn1.forward(main, training)
        main = self.relu1.forward(main, training)
        main = self.conv2.forward(main, training)
        main = self.bn2.forward(main, training)
        if self.kind == BLOCK_CONV:
            short = self.sc_bn.forward(self.sc_conv.forward(x, training), training)
        else:
            short = x
        if main.shape != short.shape:
            raise ValueError(
                f"residual shapes diverge: main {main.shape} vs shortcut {short.shape}")
        return self.relu_out.forward(main + short, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(grad_out)
        gmain = self.bn2.backward(g)
        gmain = self.conv2.backward(gmain)
        gmain = self.relu1.backward(gmain)
        gmain = self.bn1.backward(gmain)
        gmain = self.conv1.backward(gmain)
        if self.kind == BLOCK_CONV:
            gshort = self.sc_conv.backward(self.sc_bn.backward(g))
        else:
            gshort = g
        return gmain + gshort


class ModulationNet:
    """The full classifier; parameters live in the layer objects."""

    def __init__(self, arch: ArchConfig = DEFAULT_ARCH, seed: int = 0):
        self.arch = arch
        rng = np.random.default_rng(seed)
        dtype = arch.np_dtype
        self.base_conv = Conv2D(1, arch.base_channels, arch.base_kernel,
                                stride=1, padding="same", rng=rng, dtype=dtype)
        self.base_bn = BatchNorm2D(arch.base_channels, arch.bn_eps,
                                   arch.bn_momentum, dtype)
        self.base_relu = ReLU()
        self.pool = MaxPool2()
        self.blocks = []
        in_ch = arch.base_channels
        for kind, ch in arch.blocks:
            self.blocks.append(ResidualBlock(kind, in_ch, ch, rng, dtype,
                                             arch.bn_eps, arch.bn_momentum))
            in_ch = ch
        self.gap = GlobalAvgPool()
        self.dense = Dense(in_ch, arch.num_classes, rng=rng, dtype=dtype)

    def named_layers(self):
        yield "base_conv", self.base_conv
        yield "base_bn", self.base_bn
        for i, block in enumerate(self.blocks):
            for sub_name, layer in block.sublayers():
                yield f"block{i}.{sub_name}", layer
        yield "dense", self.dense

    def parameters(self):
        for prefix, layer in self.named_layers():
            for key, value in layer.params.items():
                yield f"{prefix}.{key}", layer, key, value

    def state_tensors(self):
        """All weights and batch-norm running statistics, declaration order."""
        for prefix, layer in self.named_layers():
            for key, value in layer.state_tensors():
                yield f"{prefix}.{key}", layer, key, value

    def num_parameters(self) -> int:
        return sum(v.size for _, _, _, v in self.parameters())

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.arch.np_dtype)
        n = self.arch.input_size
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2] != n or x.shape[3] != n:
            raise ValueError(
                f"expected input of shape (B, 1, {n}, {n}), got {x.shape}")
        out = self.base_conv.forward(x, training)
        out = self.base_bn.forward(out, training)
        out = self.base_relu.forward(out, training)
        out = self.pool.forward(out, training)
        for block in self.blocks:
            out = block.forward(out, training)
        out = self.gap.forward(out, training)
        return self.dense.forward(out, training)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Fill every layer's ``grads`` from the loss gradient wrt the logits.

        The input diagrams are data, not parameters, so the first conv skips
        its input gradient and nothing is returned.
        """
        g = self.dense.backward(grad_logits)
        g = self.gap.backward(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        g = self.pool.backward(g)
        g = self.base_relu.backward(g)
        g = self.base_bn.backward(g)
        self.base_conv.backward(g, input_grad=False)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Class distribution per input row (softmax over logits)."""
        x = np.asarray(x)
        probs = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start:start + batch_size], training=False)
            probs.append(softmax(logits))
        return np.concatenate(probs, axis=0)

    def classify(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        return self.predict(x, batch_size).argmax(axis=1)

    def snapshot(self) -> dict:
        return {name: value.copy() for name, _, _, value in self.state_tensors()}

    def restore(self, snap: dict) -> None:
        for name, _, _, value in self.state_tensors():
            value[...] = snap[name]
