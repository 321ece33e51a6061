"""Training loop behaviour and checkpoint round trips."""

from dataclasses import replace

import numpy as np
import pytest

from nomadet.errors import (BadMagicError, DataFormatError, TruncatedFileError,
                            VersionMismatchError)
from nomadet.neuralnet import (Adam, ArchConfig, ModulationNet, TrainConfig,
                               accuracy, load_model, save_model, softmax_cross_entropy,
                               train, training)
from conftest import (DEFAULT_ARCH, FOREIGN_ARCHS, flat_entry, synthetic_diagram_set,
                      write_checkpoint_header)

SMALL_ARCH = ArchConfig(input_size=20, base_kernel=3, base_channels=4, blocks=(8, 8))


def small_data(seed=0, per_class=6):
    x, y = synthetic_diagram_set(per_class, seed, size=20)
    return x, y


class TestTrainLoop:
    def test_zero_learning_rate_flat_history(self, monkeypatch):
        # TrainConfig takes only a positive rate, so the optimiser is handed 0
        # directly: only its steps may move the weights
        monkeypatch.setattr(training, "Adam", lambda model, lr: Adam(model, 0.0))
        x, y = small_data()
        model = ModulationNet(SMALL_ARCH, seed=4)
        before = model.state.copy()
        cfg = TrainConfig(max_epochs=10, patience=3, seed=9)
        history = train(model, (x, y), (x[:8], y[:8]), cfg)
        losses = {h.train_loss for h in history}
        assert len(losses) == 1
        after = model.state.copy()
        # state holds the parameters first, then the running statistics,
        # which training moves whatever the rate
        params = model.grads.size
        assert after[:params].tobytes() == before[:params].tobytes()

    def test_same_seed_identical_history_and_weights(self):
        x, y = small_data()
        runs = []
        for _ in range(2):
            model = ModulationNet(SMALL_ARCH, seed=4)
            hist = train(model, (x, y), (x[:8], y[:8]),
                         TrainConfig(max_epochs=4, patience=4, seed=13))
            runs.append((hist, model.state.copy()))
        (hist_a, snap_a), (hist_b, snap_b) = runs
        assert [(h.epoch, h.train_loss, h.val_accuracy) for h in hist_a] == \
               [(h.epoch, h.train_loss, h.val_accuracy) for h in hist_b]
        assert snap_a.tobytes() == snap_b.tobytes()

    def test_loss_decreases_and_overfits_small_set(self):
        x, y = small_data(seed=3, per_class=4)
        model = ModulationNet(SMALL_ARCH, seed=6)
        cfg = TrainConfig(max_epochs=60, patience=60, seed=7)
        history = train(model, (x, y), (x, y), cfg)
        assert history[1].train_loss < history[0].train_loss
        assert accuracy(model, x, y) == 1.0

    def test_perfect_validation_stops_with_the_state_of_a_full_patience_run(self, monkeypatch):
        """An epoch replaces the best only with a higher validation accuracy,
        so none can replace one of 1.0: the run stops there, with the state
        of a run at patience = max_epochs, and a prefix of its history. That
        run is made by reading every validation accuracy just below its value,
        which keeps their order and never reaches 1.0."""
        x, y = small_data(seed=3, per_class=4)
        cfg = TrainConfig(max_epochs=40, patience=40, seed=7)  # 1.0 at epoch 30
        stopped = ModulationNet(SMALL_ARCH, seed=6)
        history = train(stopped, (x, y), (x, y), cfg)
        assert 1 < len(history) < cfg.max_epochs
        assert [h.val_accuracy == 1.0 for h in history] == [False] * (len(history) - 1) + [True]
        inner = training.accuracy
        monkeypatch.setattr(training, "accuracy", lambda *args: inner(*args) * (1 - 2 ** -20))
        full = ModulationNet(SMALL_ARCH, seed=6)
        full_history = train(full, (x, y), (x, y), cfg)
        assert len(full_history) == cfg.max_epochs
        assert [(h.epoch, h.train_loss) for h in history] == \
               [(h.epoch, h.train_loss) for h in full_history[:len(history)]]
        assert stopped.state.tobytes() == full.state.tobytes()

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


def per_tensor_adam(params, grads, m, v, t, lr):
    """One Adam update of each named tensor as its own expression: the
    reference the flat, chunked ``Adam.step`` must match byte for byte."""
    b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
    bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, value in params.items():
        g = grads[name]
        m[name][...] = b1 * m[name] + (1.0 - b1) * g
        v[name][...] = b2 * v[name] + (1.0 - b2) * g * g
        value[...] = value - lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience", "seed"])
    def test_integer_field_refuses_a_float_and_reads_a_numpy_integer(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 10.5"):
            TrainConfig(**{field: 10.5})
        value = getattr(TrainConfig(**{field: np.int64(10)}), field)
        assert value == 10 and type(value) is int  # JSON writes it


class TestAdam:
    # 100 values split block0.conv1.w (288) across chunks; the default chunk
    # holds all of SMALL_ARCH's parameters at once
    @pytest.mark.parametrize("chunk", [training._CHUNK_ELEMENTS, 100], ids=["default", "100"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_flat_chunked_step_matches_the_per_tensor_update(self, dtype, chunk, monkeypatch):
        monkeypatch.setattr(training, "_CHUNK_ELEMENTS", chunk)
        model = ModulationNet(replace(SMALL_ARCH, dtype=dtype), seed=3)
        optimiser = Adam(model, 1e-2)
        named = list(model.parameters())
        params = {name: value.copy() for name, _, _, value in named}
        m = {name: np.zeros_like(value) for name, value in params.items()}
        v = {name: np.zeros_like(value) for name, value in params.items()}
        x, y = small_data()
        targets = np.eye(4, dtype=model.arch.np_dtype)[y[:8]]
        for t in range(1, 4):
            logits = model.forward(x[:8], training=True)
            model.backward(softmax_cross_entropy(logits, targets)[1])
            grads = {name: layer.grads[key] for name, layer, key, _ in named}
            per_tensor_adam(params, grads, m, v, t, 1e-2)
            optimiser.step()
            for name, layer, key, value in named:
                assert value.tobytes() == params[name].tobytes(), (t, name)
                for flat, ref in ((optimiser.m, m), (optimiser.v, v)):
                    got = flat_entry(flat, model.grads, layer.grads[key])
                    assert got.tobytes() == ref[name].tobytes(), (t, name)
        assert optimiser.t == 3

    def test_step_before_any_backward_names_a_parameter(self):
        """Gradient storage exists from construction, but no step may read
        it before a backward has filled it."""
        model = ModulationNet(SMALL_ARCH, seed=0)
        optimiser = Adam(model)
        state = model.state.copy()
        with pytest.raises(RuntimeError, match="no gradient for parameter base_conv.w"):
            optimiser.step()
        assert optimiser.t == 0 and model.state.tobytes() == state.tobytes()


class TestCheckpoint:
    def test_tensor_names_and_order_pinned(self):
        # checkpoint slots follow this order, and load errors print these names
        expected = [
            "base_conv.w", "base_conv.b", "base_bn.gamma", "base_bn.beta",
            "base_bn.running_mean", "base_bn.running_var", "block0.conv1.w",
            "block0.conv1.b", "block0.bn1.gamma", "block0.bn1.beta",
            "block0.bn1.running_mean", "block0.bn1.running_var", "block0.conv2.w",
            "block0.conv2.b", "block0.bn2.gamma", "block0.bn2.beta",
            "block0.bn2.running_mean", "block0.bn2.running_var", "block0.sc_conv.w",
            "block0.sc_conv.b", "block0.sc_bn.gamma", "block0.sc_bn.beta",
            "block0.sc_bn.running_mean", "block0.sc_bn.running_var", "block1.conv1.w",
            "block1.conv1.b", "block1.bn1.gamma", "block1.bn1.beta",
            "block1.bn1.running_mean", "block1.bn1.running_var", "block1.conv2.w",
            "block1.conv2.b", "block1.bn2.gamma", "block1.bn2.beta",
            "block1.bn2.running_mean", "block1.bn2.running_var", "dense.w", "dense.b",
        ]
        assert len(expected) == 38
        assert [n for n, *_ in ModulationNet(SMALL_ARCH, seed=0).state_tensors()] == expected
        assert len(list(ModulationNet(DEFAULT_ARCH, seed=0).state_tensors())) == 98

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

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        model, x = self._trained_model()
        path = tmp_path / "model.nmdl"
        save_model(model, path)
        before = path.read_bytes()
        # the second tensor cannot be converted to float32, so the save
        # fails after the header and the first tensor are written
        tensors = list(model.state_tensors())[:1]
        tensors.append(("bad", None, None, np.array(["x"], dtype=object)))
        monkeypatch.setattr(model, "state_tensors", lambda: tensors)
        with pytest.raises(ValueError):
            save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.nmdl"]
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_model(path).classify(x), model.classify(x))

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

    @pytest.mark.parametrize("config", FOREIGN_ARCHS)
    def test_foreign_config_rejected(self, tmp_path, config):
        path = tmp_path / "model.nmdl"
        write_checkpoint_header(path, config)
        with pytest.raises(DataFormatError, match="model.nmdl") as caught:
            load_model(path)
        assert caught.type is DataFormatError

    def test_truncation_rejected(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.nmdl"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 37])
        with pytest.raises(TruncatedFileError):
            load_model(path)
