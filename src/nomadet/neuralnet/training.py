"""Adam optimiser and the training loop.

Adam (Kingma & Ba, ICLR 2015) keeps its moments ``m`` and ``v`` as flat
arrays with the layout of the model's flat ``grads``, and updates them and
the parameter part of the model's ``state`` in one pass of in-place ufuncs
over ``_CHUNK_ELEMENTS`` values at a time, so the operands of each chunk
stay in cache. The pass does per element exactly the float operations, in
the same order, of the per-tensor expressions ``m = b1*m + (1-b1)*g``,
``v = b2*v + (1-b2)*g*g`` and ``value - lr*(m/bias1) / (sqrt(v/bias2) + eps)``,
so the weights are bit-identical to them. The training loop keeps one
best-state buffer and copies ``state`` into it when an epoch improves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, checked_int
from .layers import softmax_cross_entropy
from .model import NUM_CLASSES, ModulationNet

__all__ = ["Adam", "TrainConfig", "EpochStats", "train", "accuracy"]


# Adam's pass takes this many values of each flat array at a time: the
# chunks of parameters, gradients, both moments and two scratch rows fit in cache
_CHUNK_ELEMENTS = 1 << 16


class Adam:
    """Adam over the model's flat buffers; ``m``, ``v`` and ``t`` are its whole state."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: ModulationNet, lr: float = 1e-3):
        self.model = model
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros((2, model.grads.size), model.grads.dtype)
        self._scratch = np.empty((2, min(_CHUNK_ELEMENTS, model.grads.size)), model.grads.dtype)
        self._owners = [(name, layer) for name, layer, _, _ in model.parameters()]

    def step(self) -> None:
        for name, layer in self._owners:
            if not layer.has_grads:
                raise RuntimeError(f"no gradient for parameter {name}")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        grads = self.model.grads
        values = self.model.state[:grads.size]
        size = self._scratch.shape[1]
        for start in range(0, grads.size, size):
            c = slice(start, start + size)
            g, m, v, value = grads[c], self.m[c], self.v[c], values[c]
            a, b = self._scratch[0, :len(g)], self._scratch[1, :len(g)]
            np.multiply(m, b1, out=m)  # m = b1*m + (1-b1)*g
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            np.multiply(g, 1.0 - b2, out=a)  # v = b2*v + (1-b2)*g*g
            a *= g
            v *= b2
            v += a
            np.divide(m, bias1, out=a)  # value -= lr*(m/bias1) / (sqrt(v/bias2) + eps)
            a *= lr
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            value -= a


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        # batch normalisation needs two samples per batch
        for name, least in (("batch_size", 2), ("max_epochs", 1), ("patience", 0), ("seed", None)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def _one_hot(labels: np.ndarray, dtype) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a nonempty 1-D array")
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        raise ValueError(f"labels must lie in [0, {NUM_CLASSES})")
    out = np.zeros((labels.size, NUM_CLASSES), dtype=dtype)
    out[np.arange(labels.size), labels] = 1
    return out


def accuracy(model: ModulationNet, x: np.ndarray, y: np.ndarray) -> float:
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty split")
    pred = model.classify(x)
    return float(np.mean(pred == np.asarray(y)))


def train(model: ModulationNet, train_split, val_split, cfg: TrainConfig):
    """Minibatch Adam training with early stopping on validation accuracy.

    ``train_split``/``val_split`` are (inputs, labels) pairs with inputs of
    shape (N, 1, H, W). The minibatch partition is drawn once from the seed
    and reused every epoch, which keeps per-epoch losses comparable and the
    whole run bit-reproducible. A final minibatch of one sample joins the
    one before it, since batch normalisation needs two samples. The model
    is left holding the weights of the best validation epoch, the first of
    the highest accuracy, so training stops at one of accuracy 1.0, or
    ``patience`` epochs after the best; the per-epoch history is returned.
    """
    x_train, y_train = train_split
    x_val, y_val = val_split
    x_train = np.asarray(x_train, dtype=model.arch.np_dtype)
    x_val = np.asarray(x_val, dtype=model.arch.np_dtype)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("train and validation splits must be nonempty")
    targets = _one_hot(y_train, model.arch.np_dtype)

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(x_train.shape[0])
    batches = [order[i:i + cfg.batch_size]
               for i in range(0, order.size, cfg.batch_size)]
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2:] = [np.concatenate(batches[-2:])]

    optimiser = Adam(model, cfg.learning_rate)
    history: list[EpochStats] = []
    best_acc = -1.0
    best_epoch = -1
    best_state = np.empty_like(model.state)  # epoch 0 always improves on -1 and fills it

    for epoch in range(cfg.max_epochs):
        losses = []
        for batch in batches:
            logits = model.forward(x_train[batch], training=True)
            loss, grad = softmax_cross_entropy(logits, targets[batch])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            model.backward(grad)
            optimiser.step()
            losses.append(loss)
        val_acc = accuracy(model, x_val, y_val)
        history.append(EpochStats(epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            np.copyto(best_state, model.state)
        # no epoch beats one of accuracy 1.0; patience 0 stops where 1 does
        if best_acc == 1.0 or epoch - best_epoch >= max(cfg.patience, 1):
            break
    np.copyto(model.state, best_state)
    return history
