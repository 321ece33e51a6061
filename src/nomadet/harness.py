"""Experiment engine: SNR sweeps over scenario factors and method comparison.

Every CNN model trains on a group of cells: by default each (factor value,
SNR) cell is its own group; a pooled mode groups every SNR of a factor value.
A method's model trains at its first row left to score in the group, so a
resumed sweep trains only models that still have rows. Completed rows are
flushed to the ``results.jsonl`` journal in the sweep's output directory as
it runs, so an interrupted sweep resumes from where it stopped. Results land
in a ResultTable and are emitted as CSV accuracy curves plus confusion matrices.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .baseline import projection_classify
from .datapipe import (derive_seed, frame_samples, scenario_frames,
                       split_dataset, CLASS_ORDER, MIN_SPLIT_SAMPLES)
from .errors import DataFormatError
from .neuralnet import ArchConfig, ModulationNet, TrainConfig, train
from .sigsim import ModScheme, NomaScenario, resolve_allocation
from .wavelet import SYM8_DEC_LO, denoise_frames
# not called here: kept as attributes so that tracing wrappers installed on this
# module (perfbench/spans.py) find every pipeline stage by the same name
from .density import density_diagram  # noqa: F401
from .sigsim import generate_noma_frame  # noqa: F401
from .wavelet import denoise_frame  # noqa: F401

__all__ = [
    "METHODS", "ExperimentConfig", "ResultRow", "ResultTable", "run_sweep",
    "read_journal", "evaluate", "emit_report", "diagram_matrix", "train_model",
    "desk_preset", "full_preset",
]

METHOD_RESNET = "resnet_denoised"
METHOD_RAW = "resnet_raw"
METHOD_PROJECTION = "projection_clustering"
METHODS = (METHOD_RESNET, METHOD_RAW, METHOD_PROJECTION)

FACTOR_NONE = "none"
FACTORS = (FACTOR_NONE, "near_scheme", "user_count", "delta_db", "alpha_fpc")


@dataclass(frozen=True)
class ExperimentConfig:
    """One factor x SNR x method sweep.

    ``json.dumps(asdict(cfg), sort_keys=True)`` is both its JSON form and the
    journal's config digest; ``ExperimentConfig(**d)`` reads it back, taking
    ``scenario`` and ``train`` as dicts. Cells draw their seeds from ``seed``,
    so it replaces the scenario's seed; ``scenario.snr_db_near``,
    ``scenario.far_scheme`` and ``train.seed``, which the sweep sets per cell
    or model, are reset to their defaults. Construction also checks each
    factor cell's power allocation and channel, and that its frames can be
    denoised and its samples split. A model trains on one cell, with weights
    and batch order seeded by ``derive_seed(cell_seed, 1000 + mi)`` and
    ``2000 + mi`` for the method at index ``mi``, or with ``pooled_training``
    on every SNR cell of factor index ``fi``, seeded by
    ``s = derive_seed(seed, fi, 3000 + mi)`` and ``derive_seed(s, 1)``.
    """

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
        for name in ("snr_start", "snr_stop", "snr_step"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.snr_step <= 0:
            raise ValueError("snr_step must be > 0")
        if self.snr_start > self.snr_stop:
            raise ValueError("snr_start must not exceed snr_stop")
        if self.factor_name not in FACTORS:
            raise ValueError(f"factor must be one of {FACTORS}")
        if self.factor_name != FACTOR_NONE and not self.factor_values:
            raise ValueError("factor_values required when a factor axis is set")
        if self.factor_name == FACTOR_NONE and self.factor_values:
            raise ValueError("factor_values given without a factor axis")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; available: {METHODS}")
        for name, labels in (("methods", self.methods),
                             ("factor_values", [str(v) for v in self.factor_values])):
            if len(set(labels)) != len(labels):
                raise ValueError(f"{name} repeat an entry: {list(labels)}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "factor_values", tuple(self.factor_values))
        scenario = self.scenario
        if isinstance(scenario, dict):
            scenario = NomaScenario(**scenario)
        object.__setattr__(self, "scenario", replace(
            scenario, seed=self.seed, snr_db_near=NomaScenario.snr_db_near,
            far_scheme=NomaScenario.far_scheme))
        train = TrainConfig(**self.train) if isinstance(self.train, dict) else self.train
        object.__setattr__(self, "train", replace(train, seed=TrainConfig.seed))
        # every cell is denoised and split, and no factor changes these sizes
        if self.scenario.symbols_per_frame < len(SYM8_DEC_LO):
            raise ValueError(f"symbols_per_frame must be >= {len(SYM8_DEC_LO)}, the "
                             "wavelet filter length, to denoise a frame")
        if len(CLASS_ORDER) * self.scenario.samples_per_class < MIN_SPLIT_SAMPLES:
            raise ValueError(f"samples_per_class must give at least {MIN_SPLIT_SAMPLES} "
                             f"samples over {len(CLASS_ORDER)} classes to split a cell")
        for _, cell in self.factor_cells():
            resolve_allocation(cell)
            cell.channel_config()

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


def evaluate(predicted, labels) -> tuple[float, np.ndarray]:
    """Accuracy and 4x4 confusion matrix of predicted against true labels."""
    pred = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(labels, dtype=np.int64)
    if truth.size == 0:
        raise ValueError("cannot evaluate on an empty sample set")
    if pred.shape != truth.shape:
        raise ValueError(f"{pred.shape} predictions for {truth.shape} labels")
    k = len(CLASS_ORDER)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    accuracy = float(np.trace(confusion) / truth.size)
    return accuracy, confusion


class _CellData:
    """Everything one (factor, SNR) cell needs, each frame simulated once.

    ``raw`` and ``denoised`` hold the cell's samples in dataset order, and
    ``frames[i]`` is the denoised frame behind ``denoised[i]``. Each chunk of
    frames is denoised by one ``denoise_frames`` call and binned by
    ``frame_samples``, raw and denoised, as in ``generate_dataset``.
    """

    def __init__(self, scenario: NomaScenario):
        self.scenario = scenario
        self.raw: list = []
        self.denoised: list = []
        self.frames: list = []
        for label, seeds, received in scenario_frames(scenario):
            denoised = denoise_frames(received)
            self.raw += frame_samples(scenario, label, seeds, received)
            self.denoised += frame_samples(scenario, label, seeds, denoised)
            self.frames += denoised
        self.split = split_dataset(self.denoised, seed=derive_seed(scenario.seed, 1))

    def samples(self, method: str) -> list:
        return self.raw if method == METHOD_RAW else self.denoised


def train_model(parts, train_cfg: TrainConfig, model_seed: int):
    """A fresh net, sized to its diagrams, trained on the train/validation
    indices of (samples, split) parts, and its per-epoch history."""
    xs, ys, xv, yv = [], [], [], []
    for samples, split in parts:
        x, y = diagram_matrix(samples)
        tr = np.array(split.train, dtype=np.int64)
        va = np.array(split.validation, dtype=np.int64)
        xs.append(x[tr]); ys.append(y[tr])
        xv.append(x[va]); yv.append(y[va])
    model = ModulationNet(ArchConfig(input_size=xs[0].shape[-1]), seed=model_seed)
    history = train(model, (np.concatenate(xs), np.concatenate(ys)),
                    (np.concatenate(xv), np.concatenate(yv)), train_cfg)
    return model, history


def run_sweep(cfg: ExperimentConfig, out_dir, progress=None) -> ResultTable:
    """Full factor x SNR x method sweep, journaled to ``out_dir/results.jsonl``.

    Each finished row is appended to the journal and passed to ``progress``;
    a rerun with the same config digest skips rows already on disk; rows of
    another config raise DataFormatError and stay untouched.
    """
    digest = json.dumps(asdict(cfg), sort_keys=True)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / "results.jsonl"
    found, rows, kept = (read_journal(journal_path) if journal_path.exists()
                         else (None, [], 0))
    if found != digest:
        if rows:
            raise DataFormatError(f"{out_dir} holds rows of another sweep config")
        kept = 0
    table = ResultTable(rows)
    done = {(row.factor, row.method, row.snr_db) for row in table.rows}

    with open(journal_path, "a", encoding="utf-8") as journal:
        journal.truncate(kept)
        if not kept:
            journal.write(json.dumps({"config_digest": digest}) + "\n")
            journal.flush()
        for fi, (factor_label, scen_factor) in enumerate(cfg.factor_cells()):
            pending = [si for si, snr in enumerate(cfg.snr_points)
                       if any((factor_label, m, snr) not in done for m in cfg.methods)]
            # a pooled model trains on every SNR cell, so all are built only
            # when some CNN method of this factor value still has a row left
            pool = cfg.pooled_training and any(
                (factor_label, m, snr) not in done
                for m in cfg.methods if m != METHOD_PROJECTION for snr in cfg.snr_points)
            groups = [range(len(cfg.snr_points))] if pool else [[si] for si in pending]
            for group in groups:
                cells = [_CellData(replace(scen_factor, snr_db_near=cfg.snr_points[si],
                                           seed=derive_seed(cfg.seed, fi, si)))
                         for si in group]
                models = {}
                for cell in cells:
                    snr = cell.scenario.snr_db_near
                    for mi, method in enumerate(cfg.methods):
                        if (factor_label, method, snr) in done:
                            continue
                        if method != METHOD_PROJECTION and method not in models:
                            models[method] = _train_on_group(cfg, fi, mi, method, cells)
                        row = _score_cell(factor_label, cell, method, models.get(method))
                        table.rows.append(row)
                        done.add((factor_label, method, snr))
                        journal.write(json.dumps(asdict(row), sort_keys=True) + "\n")
                        journal.flush()
                        if progress is not None:
                            progress(row)
    return table


def _train_on_group(cfg, factor_index, method_index, method, cells) -> ModulationNet:
    """``method``'s model trained on a group of cells, seeded as ExperimentConfig says."""
    if cfg.pooled_training:
        model_seed = derive_seed(cfg.seed, factor_index, 3000 + method_index)
        train_seed = derive_seed(model_seed, 1)
    else:
        model_seed = derive_seed(cells[0].scenario.seed, 1000 + method_index)
        train_seed = derive_seed(cells[0].scenario.seed, 2000 + method_index)
    model, _ = train_model([(c.samples(method), c.split) for c in cells],
                           replace(cfg.train, seed=train_seed), model_seed)
    return model


def _score_cell(factor_label, cell, method, model) -> ResultRow:
    """The result row of ``method`` on the cell's test split; ``model`` is
    the trained net of a CNN method, None for the projection baseline."""
    scenario = cell.scenario
    test_samples = [cell.samples(method)[i] for i in cell.split.test]
    if model is None:
        predicted = [CLASS_ORDER.index(projection_classify(
                         cell.frames[i], near_schemes=scenario.near_schemes))
                     for i in cell.split.test]
    else:
        predicted = model.classify(diagram_matrix(test_samples)[0])
    accuracy, confusion = evaluate(predicted, [s.label for s in test_samples])
    return ResultRow(snr_db=scenario.snr_db_near, factor=factor_label, method=method,
                     accuracy=accuracy,
                     confusion=tuple(tuple(int(c) for c in r) for r in confusion),
                     n_test=len(test_samples))


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


def desk_preset() -> ExperimentConfig:
    """Small sweep for desk runs: 50 samples/class, 6 SNR points."""
    scenario = NomaScenario(samples_per_class=50)
    return ExperimentConfig(scenario=scenario, snr_start=-10.0, snr_stop=20.0,
                            snr_step=6.0)


def full_preset() -> ExperimentConfig:
    """The full evaluation grid: 250 samples/class, -10..20 dB step 2."""
    scenario = NomaScenario(samples_per_class=250)
    return ExperimentConfig(scenario=scenario, snr_start=-10.0, snr_stop=20.0,
                            snr_step=2.0, methods=METHODS)
