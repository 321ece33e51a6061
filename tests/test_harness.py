"""Sweep engine: one simulation per sample, reproducible journals, resume."""

from dataclasses import replace

import numpy as np
import pytest

from nomadet import datapipe, harness, wavelet
from nomadet.datapipe import generate_dataset
from nomadet.errors import DataFormatError
from nomadet.harness import ExperimentConfig, METHODS, emit_report, run_sweep
from nomadet.neuralnet import TrainConfig
from nomadet.sigsim import ModScheme, NomaScenario

SCENARIO = NomaScenario(near_schemes=(ModScheme.QPSK,), snr_db_near=10.0,
                        symbols_per_frame=256, samples_per_class=5, grid_size=16, seed=4)


def tiny_config(methods=METHODS, pooled=False):
    return ExperimentConfig(scenario=SCENARIO, snr_start=0.0, snr_stop=10.0, snr_step=10.0,
                            methods=methods, pooled_training=pooled,
                            train=TrainConfig(max_epochs=1, patience=1), seed=2)


def sweep(cfg, out_dir):
    """run_sweep plus the number of rows it computed rather than resumed."""
    computed = []
    table = run_sweep(cfg, out_dir, progress=computed.append)
    return table, len(computed)


def count_calls(monkeypatch, owner, name, calls=None):
    """Wraps ``owner.<name>`` to append its name to ``calls`` at every call."""
    calls = [] if calls is None else calls
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def count_frames(monkeypatch):
    """Wraps ``datapipe.generate_noma_frames`` to append the number of frames
    each call simulates, one generator per frame."""
    frames = []
    inner = datapipe.generate_noma_frames

    def counted(scenario, rngs):
        frames.append(len(rngs))
        return inner(scenario, rngs)
    monkeypatch.setattr(datapipe, "generate_noma_frames", counted)
    return frames


@pytest.mark.parametrize("pooled", [False, True], ids=["per_cell", "pooled"])
def test_each_sample_is_simulated_once(tmp_path, monkeypatch, pooled):
    frames = count_frames(monkeypatch)
    cfg = tiny_config(pooled=pooled)
    table = run_sweep(cfg, tmp_path)
    assert len(table.rows) == 2 * len(METHODS)
    assert sum(frames) == 2 * 4 * SCENARIO.samples_per_class


def test_cell_matches_generate_dataset():
    cell = harness._CellData(SCENARIO)
    den, frames = generate_dataset(SCENARIO, keep_frames=True)
    raw = generate_dataset(SCENARIO, denoise=False)
    for got, want in ((cell.denoised, den), (cell.raw, raw)):
        assert [(s.label, s.seed) for s in got] == [(s.label, s.seed) for s in want]
        for a, b in zip(got, want):
            assert a.diagram.grid.dtype == np.float32
            np.testing.assert_array_equal(a.diagram.grid, b.diagram.grid)
    for a, b in zip(cell.frames, frames):
        np.testing.assert_array_equal(a.samples, b.samples)


def test_same_seed_sweeps_write_identical_journals(tmp_path):
    cfg = tiny_config()
    run_sweep(cfg, tmp_path / "a")
    run_sweep(cfg, tmp_path / "b")
    journal = "results.jsonl"
    assert (tmp_path / "a" / journal).read_bytes() == (tmp_path / "b" / journal).read_bytes()


def test_resume_computes_nothing_and_report_is_stable(tmp_path):
    cfg = tiny_config()
    table, computed = sweep(cfg, tmp_path)
    assert computed == len(table.rows) == 2 * len(METHODS)
    paths = emit_report(table, tmp_path)
    before = {p: p.read_bytes() for p in [*paths, tmp_path / "results.jsonl"]}

    resumed, computed = sweep(cfg, tmp_path)
    assert computed == 0
    assert resumed.rows == table.rows
    emit_report(resumed, tmp_path)
    assert {p: p.read_bytes() for p in before} == before


def test_torn_final_line_loses_only_that_row(tmp_path):
    cfg = tiny_config(methods=(harness.METHOD_PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    whole = journal.read_bytes()
    journal.write_bytes(whole[:-40])

    table, computed = sweep(cfg, tmp_path)
    assert computed == 1
    assert len(table.rows) == 2
    assert journal.read_bytes() == whole


def test_damaged_journal_is_rejected(tmp_path):
    cfg = tiny_config(methods=(harness.METHOD_PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(lines[0] + b"{oops\n" + b"".join(lines[1:]))
    with pytest.raises(DataFormatError, match="damaged"):
        run_sweep(cfg, tmp_path)


def test_journal_of_another_config_is_kept(tmp_path):
    cfg = tiny_config(methods=(harness.METHOD_PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    whole = journal.read_bytes()
    with pytest.raises(DataFormatError, match="another sweep config"):
        run_sweep(replace(cfg, seed=3), tmp_path)
    assert journal.read_bytes() == whole


@pytest.mark.parametrize("section, name, value", [
    ("scenario", "seed", 999),
    ("train", "seed", 7),
    ("scenario", "snr_db_near", -3.0),
    ("scenario", "far_scheme", ModScheme.QAM64),
], ids=["scenario.seed", "train.seed", "scenario.snr_db_near", "scenario.far_scheme"])
def test_scenario_seed_does_not_split_the_digest(tmp_path, section, name, value):
    """Fields the sweep sets for itself, per cell or per model, stay out of
    the config digest."""
    cfg = tiny_config(methods=(harness.METHOD_PROJECTION,))
    sweep(cfg, tmp_path)
    changed = replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    _, computed = sweep(changed, tmp_path)
    assert computed == 0


def test_evaluate_counts_predictions_by_true_class():
    accuracy, confusion = harness.evaluate([0, 1, 1, 3], [0, 1, 2, 3])
    assert accuracy == 0.75
    assert confusion[2, 1] == 1
    assert np.trace(confusion) == 3


def test_journal_without_rows_is_replaced(tmp_path):
    (tmp_path / "results.jsonl").write_text('{"config_digest": "another"}\n')
    _, computed = sweep(tiny_config(methods=(harness.METHOD_PROJECTION,)), tmp_path)
    assert computed == 2


def test_pooled_resume_does_not_retrain(tmp_path, monkeypatch):
    cfg = tiny_config(methods=(harness.METHOD_RESNET,), pooled=True)
    sweep(cfg, tmp_path)
    calls = count_calls(monkeypatch, harness, "train")
    _, computed = sweep(cfg, tmp_path)
    assert computed == 0
    assert calls == []


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        tiny_config(methods=("nearest_neighbour",))


def test_cells_too_small_to_denoise_or_split_are_refused_at_the_bound():
    """A cell is denoised (frames of at least the wavelet filter length) and
    split (at least datapipe.MIN_SPLIT_SAMPLES samples over the classes)."""
    taps = len(wavelet.SYM8_DEC_LO)
    least = -(-datapipe.MIN_SPLIT_SAMPLES // len(datapipe.CLASS_ORDER))
    for field, value in (("symbols_per_frame", taps), ("samples_per_class", least)):
        ExperimentConfig(scenario=replace(SCENARIO, **{field: value}))
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(scenario=replace(SCENARIO, **{field: value - 1}))


@pytest.mark.parametrize("method, trained", [(harness.METHOD_RAW, 1),
                                             (harness.METHOD_PROJECTION, 0)])
def test_pooled_resume_trains_only_models_with_rows_left(tmp_path, monkeypatch,
                                                         method, trained):
    """A pooled model needs every SNR cell; the projection baseline needs only
    the cell of its own row."""
    cfg = tiny_config(pooled=True)
    table, _ = sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if f'"method": "{method}"' in line)
    journal.write_text("".join(lines[:dropped] + lines[dropped + 1:]))
    calls = count_calls(monkeypatch, harness, "train")
    frames = count_frames(monkeypatch)
    resumed, computed = sweep(cfg, tmp_path)
    assert computed == 1
    assert len(calls) == trained
    cells = len(cfg.snr_points) if trained else 1
    assert sum(frames) == cells * 4 * SCENARIO.samples_per_class
    assert len(resumed.rows) == len(table.rows)
    assert set(resumed.rows) == set(table.rows)


def test_per_cell_sweep_trains_each_model_before_its_row(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, harness, "train")
    count_calls(monkeypatch, harness, "evaluate", calls)
    run_sweep(tiny_config(), tmp_path)
    assert calls == ["train", "evaluate", "train", "evaluate", "evaluate"] * 2

