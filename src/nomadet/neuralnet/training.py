"""Adam optimiser and the training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError
from .layers import softmax_cross_entropy
from .model import ModulationNet

__all__ = ["Adam", "TrainConfig", "EpochStats", "train", "accuracy"]


class Adam:
    def __init__(self, model: ModulationNet, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(value)
                  for name, _, _, value in model.parameters()}
        self.v = {name: np.zeros_like(value)
                  for name, _, _, value in model.parameters()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, layer, key, value in self.model.parameters():
            grad = layer.grads.get(key)
            if grad is None:
                raise RuntimeError(f"no gradient for parameter {name}")
            m = self.m[name]
            v = self.v[name]
            m[...] = b1 * m + (1.0 - b1) * grad
            v[...] = b2 * v + (1.0 - b2) * grad * grad
            value[...] = value - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def _one_hot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a nonempty 1-D array")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.size, num_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1
    return out


def accuracy(model: ModulationNet, x: np.ndarray, y: np.ndarray) -> float:
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty split")
    pred = model.classify(x)
    return float(np.mean(pred == np.asarray(y)))


def train(model: ModulationNet, train_split, val_split,
          cfg: TrainConfig = TrainConfig()):
    """Minibatch Adam training with early stopping on validation accuracy.

    ``train_split``/``val_split`` are (inputs, labels) pairs with inputs of
    shape (N, 1, H, W). The minibatch partition is drawn once from the seed
    and reused every epoch, which keeps per-epoch losses comparable and the
    whole run bit-reproducible. A final minibatch of one sample joins the
    one before it, since batch normalisation needs two samples. The model
    is left holding the weights of the best validation epoch; the per-epoch
    history is returned.
    """
    x_train, y_train = train_split
    x_val, y_val = val_split
    x_train = np.asarray(x_train, dtype=model.arch.np_dtype)
    x_val = np.asarray(x_val, dtype=model.arch.np_dtype)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("train and validation splits must be nonempty")
    targets = _one_hot(y_train, model.arch.num_classes, model.arch.np_dtype)

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(x_train.shape[0])
    batches = [order[i:i + cfg.batch_size]
               for i in range(0, order.size, cfg.batch_size)]
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2:] = [np.concatenate(batches[-2:])]

    optimiser = Adam(model, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    history: list[EpochStats] = []
    best_acc = -1.0
    best_epoch = -1
    best_state = model.snapshot()

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
            best_acc = val_acc
            best_epoch = epoch
            best_state = model.snapshot()
        elif epoch - best_epoch >= cfg.patience:
            break
    model.restore(best_state)
    return history
