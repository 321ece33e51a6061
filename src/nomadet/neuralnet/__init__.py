"""From-scratch tensor layers, residual network, training loop, checkpoints."""

from .layers import (Conv2D, BatchNorm2D, ReLU, MaxPool2, Stem, GlobalAvgPool, Dense,
                     softmax, softmax_cross_entropy)
from .model import ArchConfig, ResidualBlock, ModulationNet
from .training import Adam, TrainConfig, EpochStats, train, accuracy
from .checkpoint import save_model, load_model
