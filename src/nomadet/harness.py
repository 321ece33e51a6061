"""Experiment engine: SNR sweeps over scenario factors and method comparison.

One model is trained per (factor value, SNR) cell by default; a pooled mode
trains one model per factor value on all SNRs together. Results land in a
ResultTable and are emitted as a CSV of accuracy curves plus per-point
confusion matrices. Completed cells are flushed to ``results.jsonl`` as the
sweep runs, so an interrupted sweep resumes from where it stopped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baseline import projection_classify
from .datapipe import (derive_seed, frame_sample, scenario_frames,
                       scenario_to_dict, split_dataset, CLASS_ORDER)
from .errors import DataFormatError
from .neuralnet import ArchConfig, ModulationNet, TrainConfig, train
from .sigsim import ModScheme, NomaScenario, resolve_allocation
from .wavelet import denoise_frame
# not called here: kept as attributes so that tracing wrappers installed on this
# module (perfbench/spans.py) find every pipeline stage by the same name
from .density import density_diagram  # noqa: F401
from .sigsim import generate_noma_frame  # noqa: F401

__all__ = [
    "METHODS", "ExperimentConfig", "ResultRow", "ResultTable", "run_sweep",
    "read_journal", "evaluate", "emit_report", "diagram_matrix", "desk_preset",
    "full_preset",
]

METHOD_RESNET = "resnet_denoised"
METHOD_RAW = "resnet_raw"
METHOD_PROJECTION = "projection_clustering"
METHODS = (METHOD_RESNET, METHOD_RAW, METHOD_PROJECTION)

FACTOR_NONE = "none"
FACTORS = (FACTOR_NONE, "near_scheme", "user_count", "delta_db", "alpha_fpc")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: NomaScenario = field(default_factory=NomaScenario)
    snr_start: float = -10.0
    snr_stop: float = 20.0
    snr_step: float = 2.0
    factor_name: str = FACTOR_NONE
    factor_values: tuple = ()
    methods: tuple = (METHOD_RESNET,)
    pooled_training: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.snr_step <= 0:
            raise ValueError("snr_step must be > 0")
        if self.snr_start > self.snr_stop:
            raise ValueError("snr_start must not exceed snr_stop")
        if self.factor_name not in FACTORS:
            raise ValueError(f"factor must be one of {FACTORS}")
        if self.factor_name != FACTOR_NONE and not self.factor_values:
            raise ValueError("factor_values required when a factor axis is set")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; available: {METHODS}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "factor_values", tuple(self.factor_values))

    @property
    def snr_points(self) -> tuple:
        count = int(np.floor((self.snr_stop - self.snr_start) / self.snr_step + 1e-9)) + 1
        return tuple(round(self.snr_start + k * self.snr_step, 9) for k in range(count))

    def factor_cells(self) -> tuple:
        if self.factor_name == FACTOR_NONE:
            return (("default", self.scenario),)
        cells = []
        for value in self.factor_values:
            cells.append((str(value), _apply_factor(self.scenario, self.factor_name, value)))
        return tuple(cells)

    def digest_source(self) -> dict:
        return {
            "scenario": scenario_to_dict(self.scenario),
            "snr_start": self.snr_start, "snr_stop": self.snr_stop,
            "snr_step": self.snr_step, "factor_name": self.factor_name,
            "factor_values": [str(v) for v in self.factor_values],
            "methods": list(self.methods),
            "pooled_training": self.pooled_training,
            "train": self.train.__dict__ | {},
            "seed": self.seed,
        }


def _apply_factor(scenario: NomaScenario, name: str, value) -> NomaScenario:
    if name == "near_scheme":
        scheme = ModScheme.from_name(value) if isinstance(value, str) else value
        return replace(scenario, near_schemes=(scheme,))
    if name == "user_count":
        near = int(value) - 1
        if not 1 <= near <= 3:
            raise ValueError("user_count factor expects 2 to 4 total users")
        return replace(scenario, near_schemes=(ModScheme.QPSK,) * near)
    if name == "delta_db":
        return replace(scenario, delta_db=float(value))
    if name == "alpha_fpc":
        return replace(scenario, alpha_fpc=float(value))
    raise ValueError(f"unknown factor {name!r}")


@dataclass(frozen=True)
class ResultRow:
    snr_db: float
    factor: str
    method: str
    accuracy: float
    confusion: tuple           # 4x4 counts, true class by row
    n_test: int

    def to_json(self) -> dict:
        return {"snr_db": self.snr_db, "factor": self.factor, "method": self.method,
                "accuracy": self.accuracy,
                "confusion": [list(r) for r in self.confusion],
                "n_test": self.n_test}

    @classmethod
    def from_json(cls, d: dict) -> "ResultRow":
        return cls(snr_db=float(d["snr_db"]), factor=str(d["factor"]),
                   method=str(d["method"]), accuracy=float(d["accuracy"]),
                   confusion=tuple(tuple(int(c) for c in row) for row in d["confusion"]),
                   n_test=int(d["n_test"]))


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)


def diagram_matrix(samples) -> tuple[np.ndarray, np.ndarray]:
    """Stack sample diagrams into (N, 1, H, W) float32 plus the label vector."""
    if not samples:
        raise ValueError("no samples")
    grids = np.stack([s.diagram.grid for s in samples])
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return grids[:, None, :, :], labels


def evaluate(predictor, samples) -> tuple[float, np.ndarray]:
    """Accuracy and 4x4 confusion matrix of a predictor on labelled samples.

    ``predictor`` maps a list of samples to an integer label array.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("cannot evaluate on an empty sample set")
    pred = np.asarray(predictor(samples), dtype=np.int64)
    truth = np.array([s.label for s in samples], dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError(f"predictor returned {pred.shape}, expected {truth.shape}")
    k = len(CLASS_ORDER)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    accuracy = float(np.trace(confusion) / truth.size)
    return accuracy, confusion


def model_predictor(model: ModulationNet):
    def predict(samples):
        x, _ = diagram_matrix(samples)
        return model.classify(x)
    return predict


class _CellData:
    """Everything one (factor, SNR) cell needs, each frame simulated once.

    ``raw`` and ``denoised`` hold the cell's samples in dataset order, and
    ``frames[i]`` is the denoised frame behind ``denoised[i]``.
    """

    def __init__(self, scenario: NomaScenario):
        self.scenario = scenario
        self.raw: list = []
        self.denoised: list = []
        self.frames: list = []
        for label, seed, frame in scenario_frames(scenario):
            den = denoise_frame(frame)
            self.raw.append(frame_sample(scenario, label, seed, frame))
            self.denoised.append(frame_sample(scenario, label, seed, den))
            self.frames.append(den)
        self.split = split_dataset(self.denoised, seed=derive_seed(scenario.seed, 1))

    def samples(self, method: str) -> list:
        return self.raw if method == METHOD_RAW else self.denoised


def _train_model(cfg: ExperimentConfig, parts, model_seed: int,
                 train_seed: int) -> ModulationNet:
    """A fresh net trained on the train/validation indices of (samples, split) parts."""
    xs, ys, xv, yv = [], [], [], []
    for samples, split in parts:
        x, y = diagram_matrix(samples)
        tr = np.array(split.train, dtype=np.int64)
        va = np.array(split.validation, dtype=np.int64)
        xs.append(x[tr]); ys.append(y[tr])
        xv.append(x[va]); yv.append(y[va])
    model = ModulationNet(ArchConfig(input_size=cfg.scenario.grid_size), seed=model_seed)
    train(model, (np.concatenate(xs), np.concatenate(ys)),
          (np.concatenate(xv), np.concatenate(yv)), replace(cfg.train, seed=train_seed))
    return model


def _projection_predictor(cell: _CellData, indices):
    """Classifies the cell's frames at ``indices``: those of the evaluated samples."""
    scenario = cell.scenario
    alloc = resolve_allocation(scenario)

    def predict(samples):
        return [CLASS_ORDER.index(projection_classify(cell.frames[i], alloc,
                                                      scenario.near_schemes))
                for i in indices]
    return predict


def run_sweep(cfg: ExperimentConfig, out_dir=None, progress=None) -> ResultTable:
    """Full factor x SNR x method sweep.

    With ``out_dir`` each finished row is appended to results.jsonl; a rerun
    with the same config digest skips rows already on disk.
    """
    digest = json.dumps(cfg.digest_source(), sort_keys=True)
    table = ResultTable()
    journal = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        journal_path = out_dir / "results.jsonl"
        found, rows, kept = (read_journal(journal_path) if journal_path.exists()
                             else (None, [], 0))
        if found != digest:
            rows, kept = [], 0
        table.rows.extend(rows)
        journal = open(journal_path, "a", encoding="utf-8")
        journal.truncate(kept)
        if not kept:
            journal.write(json.dumps({"config_digest": digest}) + "\n")
            journal.flush()
    done = {(row.factor, row.method, row.snr_db) for row in table.rows}

    try:
        for fi, (factor_label, scen_factor) in enumerate(cfg.factor_cells()):
            pending = [si for si, snr in enumerate(cfg.snr_points)
                       if any((factor_label, m, snr) not in done for m in cfg.methods)]
            if not pending:
                continue
            if cfg.pooled_training:
                # a pooled model learns from every SNR of its factor value
                cells = [_build_cell(cfg, fi, si, scen_factor)
                         for si in range(len(cfg.snr_points))]
                models = _train_pooled(cfg, fi, cells)
            else:
                cells = (_build_cell(cfg, fi, si, scen_factor) for si in pending)
                models = None
            for cell in cells:
                snr = cell.scenario.snr_db_near
                for mi, method in enumerate(cfg.methods):
                    if (factor_label, method, snr) in done:
                        continue
                    row = _score_cell(cfg, factor_label, cell, method, mi, models)
                    table.rows.append(row)
                    done.add((factor_label, method, snr))
                    if journal is not None:
                        journal.write(json.dumps(row.to_json(), sort_keys=True) + "\n")
                        journal.flush()
                    if progress is not None:
                        progress(row)
    finally:
        if journal is not None:
            journal.close()
    return table


def _build_cell(cfg, factor_index, snr_index, scen_factor) -> _CellData:
    cell_seed = derive_seed(cfg.seed, factor_index, snr_index)
    return _CellData(replace(scen_factor, snr_db_near=cfg.snr_points[snr_index],
                             seed=cell_seed))


def _score_cell(cfg, factor_label, cell, method, method_index,
                pooled_models) -> ResultRow:
    test_samples = [cell.samples(method)[i] for i in cell.split.test]
    if method == METHOD_PROJECTION:
        predictor = _projection_predictor(cell, cell.split.test)
    elif pooled_models is not None:
        predictor = model_predictor(pooled_models[method])
    else:
        cell_seed = cell.scenario.seed
        model = _train_model(cfg, [(cell.samples(method), cell.split)],
                             model_seed=derive_seed(cell_seed, 1000 + method_index),
                             train_seed=derive_seed(cell_seed, 2000 + method_index))
        predictor = model_predictor(model)
    accuracy, confusion = evaluate(predictor, test_samples)
    return ResultRow(snr_db=cell.scenario.snr_db_near, factor=factor_label, method=method,
                     accuracy=accuracy,
                     confusion=tuple(tuple(int(c) for c in r) for r in confusion),
                     n_test=len(test_samples))


def _train_pooled(cfg, factor_index: int, cells) -> dict:
    models = {}
    for mi, method in enumerate(cfg.methods):
        if method == METHOD_PROJECTION:
            continue
        seed = derive_seed(cfg.seed, factor_index, 3000 + mi)
        models[method] = _train_model(cfg, [(c.samples(method), c.split) for c in cells],
                                      model_seed=seed, train_seed=derive_seed(seed, 1))
    return models


def read_journal(path):
    """Config digest, result rows and intact byte length of a results.jsonl journal.

    Rows are written and flushed one whole line at a time, so an interrupted
    sweep can tear only the final line: bytes after the last newline are
    dropped. Damage anywhere else raises DataFormatError.
    """
    blob = Path(path).read_bytes()
    kept = blob.rfind(b"\n") + 1
    lines = blob[:kept].decode("utf-8").splitlines()
    if not lines:
        return None, [], 0
    try:
        digest = json.loads(lines[0])["config_digest"]
        rows = [ResultRow.from_json(json.loads(line)) for line in lines[1:] if line.strip()]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path} is damaged: {exc}") from exc
    return digest, rows, kept


def emit_report(table: ResultTable, out_dir) -> list:
    """Write accuracy CSV + confusion matrices; stable order, byte-stable."""
    if not table.rows:
        raise ValueError("cannot emit a report for an empty result table")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = sorted(table.rows, key=lambda r: (r.factor, r.method, r.snr_db))

    csv_path = out_dir / "accuracy_vs_snr.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("snr_db,factor,method,accuracy\n")
        for row in rows:
            fh.write(f"{row.snr_db:g},{row.factor},{row.method},{row.accuracy:.6f}\n")

    conf_path = out_dir / "confusion_matrices.txt"
    class_names = ",".join(s.value for s in CLASS_ORDER)
    with open(conf_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rows: true class, columns: predicted ({class_names})\n")
        for row in rows:
            fh.write(f"factor={row.factor} method={row.method} "
                     f"snr_db={row.snr_db:g} accuracy={row.accuracy:.6f} "
                     f"n_test={row.n_test}\n")
            for line in row.confusion:
                fh.write(" ".join(f"{c:4d}" for c in line) + "\n")
            fh.write("\n")
    return [csv_path, conf_path]


def desk_preset(scenario: NomaScenario | None = None, seed: int = 0,
                methods: tuple = (METHOD_RESNET,)) -> ExperimentConfig:
    """Small sweep for desk runs: 50 samples/class, 6 SNR points."""
    scenario = scenario or NomaScenario(near_schemes=(ModScheme.QPSK,),
                                        delta_db=6.0, samples_per_class=50)
    scenario = replace(scenario, samples_per_class=min(scenario.samples_per_class, 50))
    return ExperimentConfig(scenario=scenario, snr_start=-10.0, snr_stop=20.0,
                            snr_step=6.0, methods=methods, seed=seed)


def full_preset(scenario: NomaScenario | None = None, seed: int = 0,
                methods: tuple = METHODS) -> ExperimentConfig:
    """The full evaluation grid: 250 samples/class, -10..20 dB step 2."""
    scenario = scenario or NomaScenario(near_schemes=(ModScheme.QPSK,),
                                        delta_db=6.0, samples_per_class=250)
    return ExperimentConfig(scenario=scenario, snr_start=-10.0, snr_stop=20.0,
                            snr_step=2.0, methods=methods, seed=seed)
