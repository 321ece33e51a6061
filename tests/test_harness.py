"""Sweep engine: one simulation per sample, reproducible journals, resume."""

import numpy as np
import pytest

from nomadet import datapipe, harness
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


def count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_sample_is_simulated_once(monkeypatch):
    calls = count_calls(monkeypatch, datapipe, "generate_noma_frame")
    cfg = tiny_config()
    table = run_sweep(cfg)
    assert len(table.rows) == 2 * len(METHODS)
    assert len(calls) == 2 * 4 * SCENARIO.samples_per_class


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
