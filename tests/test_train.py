"""Training loop behaviour and checkpoint round trips."""

import numpy as np
import pytest

from nomadet.errors import (BadMagicError, TruncatedFileError,
                            VersionMismatchError)
from nomadet.neuralnet import (ArchConfig, ModulationNet, TrainConfig,
                               accuracy, load_model, save_model, train)
from conftest import synthetic_diagram_set

SMALL_ARCH = ArchConfig(input_size=20, base_kernel=3, base_channels=4,
                        blocks=(("conv", 8), ("id", 8)), num_classes=4)


def small_data(seed=0, per_class=6):
    x, y = synthetic_diagram_set(per_class, seed, size=20)
    return x, y


class TestTrainLoop:
    def test_zero_learning_rate_flat_history(self):
        x, y = small_data()
        model = ModulationNet(SMALL_ARCH, seed=4)
        before = model.snapshot()
        cfg = TrainConfig(learning_rate=0.0, max_epochs=10, patience=3, seed=9)
        history = train(model, (x, y), (x[:8], y[:8]), cfg)
        losses = {h.train_loss for h in history}
        assert len(losses) == 1
        after = model.snapshot()
        for name in before:
            if "running" in name:
                continue
            np.testing.assert_array_equal(before[name], after[name])

    def test_same_seed_identical_history_and_weights(self):
        x, y = small_data()
        runs = []
        for _ in range(2):
            model = ModulationNet(SMALL_ARCH, seed=4)
            hist = train(model, (x, y), (x[:8], y[:8]),
                         TrainConfig(max_epochs=4, patience=4, seed=13))
            runs.append((hist, model.snapshot()))
        (hist_a, snap_a), (hist_b, snap_b) = runs
        assert [(h.epoch, h.train_loss, h.val_accuracy) for h in hist_a] == \
               [(h.epoch, h.train_loss, h.val_accuracy) for h in hist_b]
        for name in snap_a:
            np.testing.assert_array_equal(snap_a[name], snap_b[name])

    def test_loss_decreases_and_overfits_small_set(self):
        x, y = small_data(seed=3, per_class=4)
        model = ModulationNet(SMALL_ARCH, seed=6)
        cfg = TrainConfig(max_epochs=60, patience=60, seed=7)
        history = train(model, (x, y), (x, y), cfg)
        assert history[1].train_loss < history[0].train_loss
        assert accuracy(model, x, y) == 1.0

    def test_empty_split_rejected(self):
        x, y = small_data()
        model = ModulationNet(SMALL_ARCH, seed=4)
        with pytest.raises(ValueError):
            train(model, (x[:0], y[:0]), (x[:4], y[:4]), TrainConfig())

    def test_one_sample_tail_joins_the_last_minibatch(self):
        # 18 samples at batch 17 would leave a minibatch that batch
        # normalisation cannot train on
        x, y = small_data()
        model = ModulationNet(SMALL_ARCH, seed=4)
        history = train(model, (x[:18], y[:18]), (x[18:], y[18:]),
                        TrainConfig(batch_size=17, max_epochs=1, seed=2))
        assert len(history) == 1 and np.isfinite(history[0].train_loss)

    def test_best_validation_weights_returned(self):
        x, y = small_data(seed=5)
        model = ModulationNet(SMALL_ARCH, seed=8)
        cfg = TrainConfig(max_epochs=12, patience=12, seed=3)
        history = train(model, (x, y), (x[::3], y[::3]), cfg)
        best = max(h.val_accuracy for h in history)
        assert accuracy(model, x[::3], y[::3]) == pytest.approx(best, abs=1e-12)


class TestCheckpoint:
    def _trained_model(self):
        x, y = small_data(seed=1, per_class=3)
        model = ModulationNet(SMALL_ARCH, seed=2)
        train(model, (x, y), (x[:6], y[:6]),
              TrainConfig(max_epochs=2, patience=2, seed=1))
        return model, x

    def test_round_trip_preserves_everything(self, tmp_path):
        model, x = self._trained_model()
        path = tmp_path / "model.nmdl"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch == model.arch
        for (name, _, _, a), (_, _, _, b) in zip(model.state_tensors(),
                                                 loaded.state_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(model.classify(x), loaded.classify(x))

    def test_bad_magic_rejected(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.nmdl"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.nmdl"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.nmdl"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 37])
        with pytest.raises(TruncatedFileError):
            load_model(path)
