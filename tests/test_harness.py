"""Sweep engine: one simulation per sample, reproducible journals, resume."""

import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nomadet import datapipe, harness, wavelet
from nomadet.datapipe import (CLASS_ORDER, LabeledSample, derive_seed, generate_dataset,
                              split_dataset)
from nomadet.density import DensityDiagram
from nomadet.errors import DataFormatError
from nomadet.harness import ExperimentConfig, METHODS, emit_report, run_sweep
from nomadet.neuralnet import TrainConfig
from nomadet.sigsim import ModScheme, NomaScenario, generate_noma_frame
from nomadet.wavelet import denoise_frame

RESNET, RAW, PROJECTION = METHODS
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
    cell = harness._CellData(SCENARIO, METHODS)
    den = generate_dataset(SCENARIO)
    raw = generate_dataset(SCENARIO, denoise=False)
    assert set(cell.samples) == {"raw", "denoised"} and set(cell.rows) == {"denoised"}
    for got, want in ((cell.samples["denoised"], den), (cell.samples["raw"], raw)):
        assert [(s.label, s.seed) for s in got] == [(s.label, s.seed) for s in want]
        assert cell.labels == [s.label for s in got]
        for a, b in zip(got, want):
            assert a.diagram.grid.dtype == np.float32
            np.testing.assert_array_equal(a.diagram.grid, b.diagram.grid)


def test_cell_keeps_copies_of_its_test_frames_only():
    """A row reader reads only the test split, so a cell keeps those frames'
    rows and noise scales alone, in test order, in arrays of their own: a
    row view would keep its whole chunk alive."""
    cell = harness._CellData(SCENARIO, METHODS)
    rows, scales = cell.rows["denoised"]
    assert rows.shape == (len(cell.split.test), SCENARIO.symbols_per_frame)
    assert scales.shape == (len(cell.split.test),)
    assert rows.base is None and scales.base is None
    for row, scale, i in zip(rows, scales.tolist(), cell.split.test):
        sample = cell.samples["denoised"][i]
        alone = denoise_frame(generate_noma_frame(
            replace(SCENARIO, far_scheme=CLASS_ORDER[sample.label]),
            rng=np.random.default_rng(sample.seed)))
        assert row.tobytes() == alone.samples.tobytes()
        assert scale == alone.noise_scale


def test_predictor_only_cell_peaks_within_a_few_chunks_of_what_it_holds():
    """A cell keeps its test split's frames alone, copied out of each chunk
    as the chunk is made, so it never holds every frame of its kind at once
    (400 frames of 2000 symbols: 12.2 MiB). What it allocates beyond what it
    keeps is one chunk's simulation and denoising, about 8 chunks' bytes."""
    scenario = replace(SCENARIO, symbols_per_frame=2000, samples_per_class=100)
    tracemalloc.start()
    try:
        cell = harness._CellData(scenario, (PROJECTION,))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cell.rows["denoised"][0]) == len(cell.split.test) == 80
    assert peak - held <= 12 * datapipe._CHUNK_BYTES


def test_predictor_only_cell_simulates_each_test_frame_once_and_no_other(monkeypatch):
    """Its frames are taken in chunks of the kept indices alone: here 3 a chunk."""
    monkeypatch.setattr(datapipe, "_CHUNK_BYTES", 3 * 16 * SCENARIO.symbols_per_frame)
    simulated = []
    inner = datapipe.generate_noma_frames

    def recorded(scenario, rngs):
        rows, scales = inner(scenario, rngs)
        simulated.extend(row.tobytes() for row in rows)
        return rows, scales
    monkeypatch.setattr(datapipe, "generate_noma_frames", recorded)
    scenario = replace(SCENARIO, samples_per_class=20)
    cell = harness._CellData(scenario, (PROJECTION,))
    wanted = []
    for i in cell.split.test:
        label = cell.labels[i]
        seed = derive_seed(scenario.seed, label, i - label * scenario.samples_per_class)
        frame = generate_noma_frame(replace(scenario, far_scheme=CLASS_ORDER[label]),
                                    rng=np.random.default_rng(seed))
        wanted.append(frame.samples.tobytes())
    assert len(cell.rows["denoised"][0]) == len(cell.split.test) == 16
    assert sorted(simulated) == sorted(wanted)


def diagram_parts(count, per_part=60, grid=12):
    """``count`` (samples, split) parts of random diagrams, as train_model takes them."""
    rng = np.random.default_rng(count)
    parts = []
    for p in range(count):
        samples = [LabeledSample(DensityDiagram(rng.random((grid, grid), dtype=np.float32)),
                                 i % len(CLASS_ORDER), i, 0.0) for i in range(per_part)]
        parts.append((samples, split_dataset(samples, seed=p)))
    return parts


def stub_train(monkeypatch):
    """Replaces ``harness.train`` with a stub that records its training and
    validation inputs and tracemalloc's (current, peak) when it is called."""
    seen = []

    def stub(model, train_xy, val_xy, cfg):
        seen.append((train_xy, val_xy, tracemalloc.get_traced_memory()))
        return []
    monkeypatch.setattr(harness, "train", stub)
    return seen


@pytest.mark.parametrize("count", [1, 3])
def test_train_model_inputs_are_each_parts_split_rows_in_order(monkeypatch, count):
    """The training and validation inputs are byte-identical to the
    reference below: stack every diagram of each part, slice out the
    split's rows and concatenate the slices."""
    parts = diagram_parts(count)
    seen = stub_train(monkeypatch)
    harness.train_model(parts, TrainConfig(), model_seed=0)
    [(train_xy, val_xy, _)] = seen
    for which, got in (("train", train_xy), ("validation", val_xy)):
        xs, ys = [], []
        for samples, split in parts:
            x, y = harness.diagram_matrix(samples)
            rows = np.array(getattr(split, which), dtype=np.int64)
            xs.append(x[rows])
            ys.append(y[rows])
        for a, b in zip(got, (np.concatenate(xs), np.concatenate(ys))):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [1, 3])
def test_train_model_copies_each_diagram_it_reads_once(monkeypatch, count):
    """Up to ``train()``, train_model allocates at most 1.5x the bytes of the
    matrices it trains and validates on: one copy of each diagram it reads,
    and no stack of every diagram with slices of it. The model is stubbed
    out, so the bound counts the diagrams alone."""
    parts = diagram_parts(count, per_part=200, grid=32)
    seen = stub_train(monkeypatch)
    monkeypatch.setattr(harness, "ModulationNet", lambda arch, seed: None)
    tracemalloc.start()
    try:
        harness.train_model(parts, TrainConfig(), model_seed=0)
    finally:
        tracemalloc.stop()
    [(train_xy, val_xy, (_, peak))] = seen
    assert peak <= 1.5 * (train_xy[0].nbytes + val_xy[0].nbytes)


def test_raw_only_sweep_never_denoises(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, datapipe, "denoise_frames")
    table = run_sweep(tiny_config(methods=(RAW,)), tmp_path)
    assert len(table.rows) == 2
    assert calls == []


@pytest.mark.parametrize("methods", [(RESNET,), (RESNET, RAW)])
def test_sweep_without_a_frame_predictor_keeps_no_frames(tmp_path, monkeypatch, methods):
    built = []
    inner = harness.scenario_samples

    def recorded(scenario, kinds, keep=()):
        built.append(inner(scenario, kinds, keep))
        return built[-1]
    monkeypatch.setattr(harness, "scenario_samples", recorded)
    run_sweep(tiny_config(methods=methods), tmp_path)
    assert len(built) == 2
    for samples, frames in built:
        assert set(samples) == {harness._METHODS[m].frames for m in methods}
        assert frames == {}


@pytest.mark.parametrize("alone", [PROJECTION, RESNET])
def test_method_rows_do_not_depend_on_the_other_methods(tmp_path, alone):
    """A cell that builds only what one method reads gives that method the
    rows of a cell built for every method (a CNN at the same method index)."""
    run_sweep(tiny_config(methods=(alone,)), tmp_path / "alone")
    run_sweep(tiny_config(), tmp_path / "all")

    def rows(name):
        lines = (tmp_path / name / "results.jsonl").read_bytes().splitlines()[1:]
        return [line for line in lines if f'"method": "{alone}"'.encode() in line]
    assert len(rows("alone")) == 2
    assert rows("alone") == rows("all")


def test_predictor_only_sweep_bins_no_diagram(tmp_path, monkeypatch):
    """A cell whose methods all predict frame by frame takes its labels, and
    so its split, from dataset order: it bins no diagram and scores the rows
    a cell built for every method scores."""
    run_sweep(tiny_config(), tmp_path / "all")
    calls = count_calls(monkeypatch, datapipe, "density_grids")
    run_sweep(tiny_config(methods=(PROJECTION,)), tmp_path / "alone")
    assert calls == []

    def rows(name):
        lines = (tmp_path / name / "results.jsonl").read_bytes().splitlines()[1:]
        return [line for line in lines if f'"method": "{PROJECTION}"'.encode() in line]
    assert len(rows("alone")) == 2
    assert rows("alone") == rows("all")


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
    cfg = tiny_config(methods=(PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    whole = journal.read_bytes()
    journal.write_bytes(whole[:-40])

    table, computed = sweep(cfg, tmp_path)
    assert computed == 1
    assert len(table.rows) == 2
    assert journal.read_bytes() == whole


def test_damaged_journal_is_rejected(tmp_path):
    cfg = tiny_config(methods=(PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(lines[0] + b"{oops\n" + b"".join(lines[1:]))
    with pytest.raises(DataFormatError, match="damaged"):
        run_sweep(cfg, tmp_path)


def _edit_accuracy(row):
    row["accuracy"] = (row["accuracy"] * row["n_test"] + 1) / row["n_test"]


def _edit_count(row):
    row["confusion"][0][0] += 1


@pytest.mark.parametrize("edit", [_edit_accuracy, _edit_count], ids=["accuracy", "count"])
def test_row_that_contradicts_itself_is_refused_by_line(tmp_path, edit):
    cfg = tiny_config(methods=(PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    row = json.loads(lines[2])
    edit(row)
    lines[2] = json.dumps(row, sort_keys=True) + "\n"
    journal.write_text("".join(lines))
    with pytest.raises(DataFormatError, match="damaged at line 3"):
        run_sweep(cfg, tmp_path)
    assert journal.read_text() == "".join(lines)


@pytest.mark.parametrize("change", [
    {"confusion": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"confusion": [[2, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"n_test": 5},
    {"n_test": 0, "confusion": [[0] * 4] * 4, "accuracy": 0.0},
    {"accuracy": 0.75 + 1e-16 * 8},
    {"accuracy": float("nan")},
], ids=["3x3", "negative", "n_test", "empty", "last_bit", "nan"])
def test_result_row_checks_its_own_numbers(change):
    good = {"snr_db": 0.0, "factor": "default", "method": PROJECTION, "accuracy": 0.75,
            "confusion": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]],
            "n_test": 4}
    assert harness.ResultRow.from_json(good).accuracy == 0.75
    with pytest.raises(ValueError):
        harness.ResultRow.from_json({**good, **change})


def test_journal_of_another_config_is_kept(tmp_path):
    cfg = tiny_config(methods=(PROJECTION,))
    sweep(cfg, tmp_path)
    journal, config = tmp_path / "results.jsonl", tmp_path / "sweep_config.json"
    whole, written = journal.read_bytes(), config.read_bytes()
    assert written == json.dumps(asdict(cfg), sort_keys=True, indent=2).encode()
    with pytest.raises(DataFormatError, match="another sweep config"):
        run_sweep(replace(cfg, seed=3), tmp_path)
    assert journal.read_bytes() == whole
    assert config.read_bytes() == written


@pytest.mark.parametrize("section, name, value", [
    ("scenario", "seed", 999),
    ("train", "seed", 7),
    ("scenario", "snr_db_near", -3.0),
    ("scenario", "far_scheme", ModScheme.QAM64),
], ids=["scenario.seed", "train.seed", "scenario.snr_db_near", "scenario.far_scheme"])
def test_scenario_seed_does_not_split_the_digest(tmp_path, section, name, value):
    """Fields the sweep sets for itself, per cell or per model, stay out of
    the config digest."""
    cfg = tiny_config(methods=(PROJECTION,))
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
    _, computed = sweep(tiny_config(methods=(PROJECTION,)), tmp_path)
    assert computed == 2


def test_pooled_resume_does_not_retrain(tmp_path, monkeypatch):
    cfg = tiny_config(methods=(RESNET,), pooled=True)
    sweep(cfg, tmp_path)
    calls = count_calls(monkeypatch, harness, "train")
    _, computed = sweep(cfg, tmp_path)
    assert computed == 0
    assert calls == []


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        tiny_config(methods=("nearest_neighbour",))


def fixed_scores(fits):
    """A method's fit that records how many cells each fit reads and scores
    every test frame QAM16."""
    def fit(parts, train_cfg, seed):
        fits.append(len(parts))
        return lambda cell, kind: np.tile([0.0, 0.0, 1.0, 0.0], (len(cell.split.test), 1))
    return fit


@pytest.mark.parametrize("pooled", [False, True], ids=["per_cell", "pooled"])
def test_a_method_added_to_the_table_leaves_the_paper_rows_alone(tmp_path, monkeypatch, pooled):
    """A method is one ``_METHODS`` entry, scored through the one path: a
    fixed-score dummy after the paper's methods fits on each group of cells,
    gets the rows its scores give, and leaves every paper row's bytes alone.
    ``METHODS`` and the default methods stay the paper's."""
    run_sweep(tiny_config(pooled=pooled), tmp_path / "paper")
    fits = []
    monkeypatch.setitem(harness._METHODS, "dummy", harness._Method("raw", fixed_scores(fits)))
    table = run_sweep(tiny_config(methods=(*METHODS, "dummy"), pooled=pooled), tmp_path / "all")
    assert METHODS == harness.METHODS == ("resnet_denoised", "resnet_raw", "projection_clustering")
    assert ExperimentConfig().methods == (RESNET,)
    with pytest.raises(ValueError, match="unknown method"):
        tiny_config(methods=(*METHODS, "nearest_neighbour"))
    assert fits == ([2] if pooled else [1, 1])
    dummy = [row for row in table.rows if row.method == "dummy"]
    assert [row.snr_db for row in dummy] == [0.0, 10.0]
    for row in dummy:  # every frame read as QAM16: one test frame per class
        assert row.confusion == ((0, 0, 1, 0),) * 4 and row.accuracy == 0.25

    def paper_rows(name):
        lines = (tmp_path / name / "results.jsonl").read_bytes().splitlines()[1:]
        return [line for line in lines if b'"method": "dummy"' not in line]
    assert len(paper_rows("paper")) == 2 * len(METHODS)
    assert paper_rows("all") == paper_rows("paper")


def test_scores_of_another_shape_are_refused(tmp_path, monkeypatch):
    """A scorer gives one score per class for each test frame, or the row is refused."""
    monkeypatch.setitem(harness._METHODS, "three", harness._Method(
        "raw", lambda parts, train_cfg, seed: lambda cell, kind: np.zeros((4, 3))))
    with pytest.raises(ValueError, match=r"three scored \(4, 3\), not \(4, 4\)"):
        run_sweep(tiny_config(methods=("three",)), tmp_path)


def test_repeated_journal_row_is_refused_by_line(tmp_path):
    """Two rows of one (factor, method, SNR), as a hand edit can leave them,
    are refused at the second, and the journal is kept."""
    cfg = tiny_config(methods=(PROJECTION,))
    sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    edited = journal.read_text() + journal.read_text().splitlines(keepends=True)[1]
    journal.write_text(edited)
    with pytest.raises(DataFormatError, match="damaged at line 4: a second row of default "
                                              f"{PROJECTION} 0 dB"):
        run_sweep(cfg, tmp_path)
    assert journal.read_text() == edited


def test_cells_too_small_to_split_are_refused_at_the_bound():
    """A cell is split: at least datapipe.MIN_SPLIT_SAMPLES samples over the classes."""
    least = -(-datapipe.MIN_SPLIT_SAMPLES // len(datapipe.CLASS_ORDER))
    ExperimentConfig(scenario=replace(SCENARIO, samples_per_class=least))
    with pytest.raises(ValueError, match="samples_per_class"):
        ExperimentConfig(scenario=replace(SCENARIO, samples_per_class=least - 1))


def test_frames_too_short_to_denoise_are_refused_with_the_denoisers_message():
    """The denoiser needs more than 2**level samples, not the filter's 16:
    its windows wrap around. A config is held to that only when one of its
    methods reads denoised frames."""
    least = 2 ** wavelet.WaveletSpec().level + 1
    with pytest.raises(ValueError) as denoiser:
        wavelet.denoise_frames(np.zeros((1, least - 1), complex), [0.0])
    for methods in ((RESNET,), (PROJECTION,), METHODS):
        ExperimentConfig(scenario=replace(SCENARIO, symbols_per_frame=least), methods=methods)
        with pytest.raises(ValueError) as refused:
            ExperimentConfig(scenario=replace(SCENARIO, symbols_per_frame=least - 1),
                             methods=methods)
        assert str(refused.value) == str(denoiser.value)
    ExperimentConfig(scenario=replace(SCENARIO, symbols_per_frame=least - 1), methods=(RAW,))


@pytest.mark.parametrize("methods, symbols", [((RESNET,), 8), ((RAW,), 4)])
def test_sweep_of_short_frames_runs(tmp_path, methods, symbols):
    cfg = replace(tiny_config(methods=methods),
                  scenario=replace(SCENARIO, symbols_per_frame=symbols))
    table = run_sweep(cfg, tmp_path)
    assert [row.n_test for row in table.rows] == [4, 4]


@pytest.mark.parametrize("method, trained", [(RAW, 1),
                                             (PROJECTION, 0)])
def test_pooled_resume_trains_only_models_with_rows_left(tmp_path, monkeypatch,
                                                         method, trained):
    """A pooled model needs every SNR cell; the projection baseline needs only
    the test split of its own row's cell."""
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
    n_test = json.loads(lines[dropped])["n_test"]
    assert sum(frames) == (len(cfg.snr_points) * 4 * SCENARIO.samples_per_class if trained
                           else n_test)
    assert len(resumed.rows) == len(table.rows)
    assert set(resumed.rows) == set(table.rows)


def test_per_cell_sweep_trains_each_model_before_its_row(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, harness, "train")
    count_calls(monkeypatch, harness, "evaluate", calls)
    run_sweep(tiny_config(), tmp_path)
    assert calls == ["train", "evaluate", "train", "evaluate", "evaluate"] * 2


def factor_config(name, values):
    return replace(tiny_config((PROJECTION,)), factor_name=name, factor_values=values)


@pytest.mark.parametrize("name, values", [
    ("near_scheme", ("qpsk", "QPSK")),
    ("near_scheme", (ModScheme.QPSK, "qpsk")),
    ("delta_db", (6, 6.0)),
    ("user_count", (3, 3.0)),
], ids=["two_spellings", "member_and_name", "int_and_float", "user_count_int_and_float"])
def test_factor_values_that_build_one_cell_are_refused(name, values):
    with pytest.raises(ValueError, match="factor_values repeat an entry"):
        factor_config(name, values)


# (the value a factor value means, one way to write it), for each factor
SPELLINGS = {
    "near_scheme": [(s, spelling) for s in ModScheme
                    for spelling in (s, s.value, s.value.upper(), s.name)]
    + [(ModScheme.QAM16, "16qam"), (ModScheme.QAM64, "64QAM"),
       (ModScheme.PI_HALF_BPSK, "bpsk"), (ModScheme.QAM16, "QAM-16")],
    "user_count": [(n, spelling) for n in (2, 3, 4)
                   for spelling in (n, float(n), str(n), str(float(n)))],
    "delta_db": [(3.0, 3), (3.0, 3.0), (3.0, "3"), (6.0, 6.0), (6.0, "6.0"), (9.5, 9.5),
                 (9.5, "9.5")],
    "alpha_fpc": [(1.0, 1), (1.0, 1.0), (1.0, "1"), (0.5, 0.5), (0.5, "0.5"), (0.25, 0.25)],
}
CELL_FIELDS = {
    "near_scheme": lambda s: {"near_schemes": (s,)},
    "user_count": lambda n: {"near_schemes": (ModScheme.QPSK,) * (n - 1)},
    "delta_db": lambda d: {"delta_db": d},
    "alpha_fpc": lambda a: {"alpha_fpc": a},
}


@pytest.mark.parametrize("name", SPELLINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_factor_cell_has_one_label_however_its_value_is_written(name, data):
    """A config built from Python values and the one read back from its
    sweep_config.json, as run_sweep writes it, give the same cells: the
    same labels and the same scenarios. Two values that mean one cell are
    refused, however they are written."""
    drawn = data.draw(st.lists(st.sampled_from(SPELLINGS[name]), min_size=1, max_size=4))
    meant = [m for m, _ in drawn]
    if len(set(meant)) < len(meant):
        with pytest.raises(ValueError, match="factor_values repeat an entry"):
            factor_config(name, [spelling for _, spelling in drawn])
        return
    cfg = factor_config(name, [spelling for _, spelling in drawn])
    back = ExperimentConfig(**json.loads(json.dumps(asdict(cfg), sort_keys=True, indent=2)))
    assert back.factor_cells() == cfg.factor_cells()
    assert cfg.factor_cells() == tuple(
        (m.value if name == "near_scheme" else str(spelling),
         replace(cfg.scenario, **CELL_FIELDS[name](m))) for m, spelling in drawn)


def test_user_count_is_a_whole_number_of_users():
    # int() once read 3.5 users as 3 and refused the string "3.0"
    with pytest.raises(ValueError, match="2 to 4 total users, got 3.5"):
        factor_config("user_count", (3.5,))
    [(label, cell)] = factor_config("user_count", ("3.0",)).factor_cells()
    assert label == "3.0" and cell.near_schemes == (ModScheme.QPSK,) * 2


def test_journal_row_of_a_label_the_config_does_not_make_is_refused(tmp_path):
    """Such a row, as code that labelled a near scheme ``ModScheme.QPSK``
    wrote, is refused and kept, not duplicated under the config's label."""
    cfg = factor_config("near_scheme", ("qpsk",))
    run_sweep(cfg, tmp_path)
    journal = tmp_path / "results.jsonl"
    edited = journal.read_text().replace('"factor": "qpsk"', '"factor": "ModScheme.QPSK"')
    journal.write_text(edited)
    with pytest.raises(DataFormatError, match="does not make.*ModScheme.QPSK"):
        run_sweep(cfg, tmp_path)
    assert journal.read_text() == edited


def test_experiment_seed_refuses_a_float_and_reads_a_numpy_integer():
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        replace(tiny_config(), seed=1.5)
    cfg = replace(tiny_config(), seed=np.int64(3))
    assert cfg.seed == cfg.scenario.seed == 3
    assert json.loads(json.dumps(asdict(cfg)))["seed"] == 3
