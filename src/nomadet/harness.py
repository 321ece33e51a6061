"""Experiment engine: SNR sweeps over scenario factors and method comparison.

``_METHODS`` is the one table of methods: which frames each reads, raw or
denoised, whether it trains a CNN on their diagrams or predicts each frame
alone, and, in its comment, which simulator truths it reads. Only
``_apply_factor`` reads a factor value: it labels a near scheme by its value
(``qpsk``), any other by ``str(value)``, so a cell has one label however its
config spelled it. A (factor, SNR) cell simulates each frame once and builds
only the samples its methods read, and the test split's frames its
predictors read, all that a cell of predictors simulates. A model's
training and validation diagrams are copied once, from their rows. Every
CNN model trains on a group of cells: by default each (factor value, SNR)
cell is its own group; a pooled mode groups every SNR of a factor value. A
method's model trains at its first row left to score in the group, so a
resumed sweep trains only models that still have rows. Completed rows are
flushed to the ``results.jsonl`` journal in the sweep's output directory as
it runs, so an interrupted sweep resumes from where it stopped. Results
land in a ResultTable, emitted as CSV accuracy curves and confusion matrices.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .baseline import projection_classify
from .datapipe import (derive_seed, scenario_samples, split_dataset, CLASS_ORDER,
                       MIN_SPLIT_SAMPLES)
from .errors import DataFormatError, checked_int
from .fileio import atomic_write
from .neuralnet import ArchConfig, ModulationNet, TrainConfig, train
from .sigsim import ModScheme, NomaScenario, resolve_allocation
from .wavelet import check_frame_length
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


class _Method(NamedTuple):
    frames: str                      # the datapipe kind it reads: "raw" or "denoised"
    predict: Callable | None = None  # (frame, scenario) -> far scheme; None trains a CNN


# The simulator truths each method reads: denoising reads each frame's true
# ``noise_scale``, so the readers of denoised frames read it too. The
# projection baseline also reads the scenario's ``near_schemes``. A predictor
# looks its function up on this module at call time, where tracers patch it.
_METHODS = {
    "resnet_denoised": _Method("denoised"),
    "resnet_raw": _Method("raw"),
    "projection_clustering": _Method("denoised", lambda frame, scenario: projection_classify(
        frame, near_schemes=scenario.near_schemes)),
}
METHODS = tuple(_METHODS)

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
    or model, are reset to their defaults. Construction checks each factor
    cell's power allocation, channel and size to split, and its frame length
    if a method reads denoised frames. A model trains on one cell, with
    weights and batch order seeded by ``derive_seed(cell_seed, 1000 + mi)``
    and ``2000 + mi`` for the method at index ``mi``, or with
    ``pooled_training`` on every SNR cell of factor index ``fi``, seeded by
    ``s = derive_seed(seed, fi, 3000 + mi)`` and ``derive_seed(s, 1)``.
    """

    scenario: NomaScenario = field(default_factory=NomaScenario)
    snr_start: float = -10.0
    snr_stop: float = 20.0
    snr_step: float = 2.0
    factor_name: str = FACTOR_NONE
    factor_values: tuple = ()
    methods: tuple = (METHODS[0],)
    pooled_training: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_int("seed", self.seed))
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
        if (self.factor_name == FACTOR_NONE) == bool(self.factor_values):
            raise ValueError("factor_values must be given exactly when a factor axis is set")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; available: {METHODS}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "factor_values", tuple(self.factor_values))
        scenario = NomaScenario(**self.scenario) if isinstance(self.scenario, dict) else self.scenario
        object.__setattr__(self, "scenario", replace(
            scenario, seed=self.seed, snr_db_near=NomaScenario.snr_db_near,
            far_scheme=NomaScenario.far_scheme))
        train = TrainConfig(**self.train) if isinstance(self.train, dict) else self.train
        object.__setattr__(self, "train", replace(train, seed=TrainConfig.seed))
        # no factor changes the frame length or the cell size
        if any(_METHODS[m].frames == "denoised" for m in self.methods):
            check_frame_length(self.scenario.symbols_per_frame)
        if len(CLASS_ORDER) * self.scenario.samples_per_class < MIN_SPLIT_SAMPLES:
            raise ValueError(f"samples_per_class must give at least {MIN_SPLIT_SAMPLES} "
                             f"samples over {len(CLASS_ORDER)} classes to split a cell")
        cells = [cell for _, cell in self.factor_cells()]  # "6" and 6.0 build one cell
        for name, entries in (("methods", self.methods), ("factor_values", cells)):
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} repeat an entry: {list(getattr(self, name))}")
        for cell in cells:
            resolve_allocation(cell)

    @property
    def snr_points(self) -> tuple:
        count = int(np.floor((self.snr_stop - self.snr_start) / self.snr_step + 1e-9)) + 1
        return tuple(round(self.snr_start + k * self.snr_step, 9) for k in range(count))

    def factor_cells(self) -> tuple:
        if self.factor_name == FACTOR_NONE:
            return (("default", self.scenario),)
        return tuple(_apply_factor(self.scenario, self.factor_name, value)
                     for value in self.factor_values)


def _apply_factor(scenario: NomaScenario, name: str, value) -> tuple[str, NomaScenario]:
    """The label and the scenario of one factor value, as the module docstring says."""
    if name == "near_scheme":
        scheme = ModScheme.from_name(value)
        return scheme.value, replace(scenario, near_schemes=(scheme,))
    if name == "user_count":
        users = float(value)
        if users not in (2, 3, 4):
            raise ValueError(f"user_count factor expects 2 to 4 total users, got {value!r}")
        return str(value), replace(scenario, near_schemes=(ModScheme.QPSK,) * (int(users) - 1))
    return str(value), replace(scenario, **{name: float(value)})  # delta_db or alpha_fpc


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
        """The row of a journal line; ValueError unless its confusion is a
        4x4 matrix of non-negative counts that sum to ``n_test`` and its
        accuracy is their trace over ``n_test``, as ``evaluate`` computes it."""
        row = cls(snr_db=float(d["snr_db"]), factor=str(d["factor"]),
                  method=str(d["method"]), accuracy=float(d["accuracy"]),
                  confusion=tuple(tuple(int(c) for c in r) for r in d["confusion"]),
                  n_test=int(d["n_test"]))
        k = len(CLASS_ORDER)
        if len(row.confusion) != k or any(len(r) != k or min(r) < 0 for r in row.confusion):
            raise ValueError(f"confusion is not a {k}x{k} matrix of counts: {row.confusion}")
        total = sum(map(sum, row.confusion))
        if row.n_test < 1 or total != row.n_test:
            raise ValueError(f"confusion counts sum to {total}, n_test is {row.n_test}")
        trace = sum(row.confusion[i][i] for i in range(k))
        if row.accuracy != trace / row.n_test:
            raise ValueError(f"accuracy {row.accuracy} is not {trace}/{row.n_test}")
        return row


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
    """One (factor, SNR) cell, each frame simulated once.

    ``labels`` holds each sample's class in dataset order, which
    ``scenario_samples`` fixes, so ``split`` is drawn before any frame is
    simulated. ``samples[kind]`` holds the cell's samples of each kind of
    frame that a CNN method of ``methods`` reads, in dataset order, and
    ``frames[kind]`` the frames behind its test split, in test order, for
    the kinds a per-frame predictor reads, each a copy that owns its
    samples, so no frame outside the test split stays alive: a cell of
    predictors alone simulates only those frames and bins no diagram.
    """

    def __init__(self, scenario: NomaScenario, methods):
        self.scenario = scenario
        reads = [_METHODS[m] for m in methods]
        self.labels = [label for label in range(len(CLASS_ORDER))
                       for _ in range(scenario.samples_per_class)]
        self.split = split_dataset([SimpleNamespace(label=label) for label in self.labels],
                                   seed=derive_seed(scenario.seed, 1))
        self.samples, self.frames = scenario_samples(
            scenario, {m.frames for m in reads if not m.predict},
            {m.frames: set(self.split.test) for m in reads if m.predict})


def train_model(parts, train_cfg: TrainConfig, model_seed: int):
    """A fresh net, sized to its diagrams, trained on the train/validation
    rows of (samples, split) parts, stacked part by part, and its per-epoch history."""
    train_xy = diagram_matrix([s[i] for s, split in parts for i in split.train])
    val_xy = diagram_matrix([s[i] for s, split in parts for i in split.validation])
    model = ModulationNet(ArchConfig(input_size=train_xy[0].shape[-1]), seed=model_seed)
    return model, train(model, train_xy, val_xy, train_cfg)


def run_sweep(cfg: ExperimentConfig, out_dir, progress=None) -> ResultTable:
    """Full factor x SNR x method sweep, journaled to ``out_dir/results.jsonl``.

    Each finished row is appended to the journal and passed to ``progress``;
    a rerun with the same config digest skips rows already on disk. Rows of
    another config, or a row whose (factor, method, SNR) this config does not
    produce, raise DataFormatError and stay untouched. Otherwise ``cfg`` is
    written to ``out_dir/sweep_config.json`` before the first row.
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
    done = {(row.factor, row.method, row.snr_db) for row in rows}
    factors = cfg.factor_cells()
    stray = done - {(label, m, snr) for label, _ in factors for m in cfg.methods
                    for snr in cfg.snr_points}
    if stray:  # rows of code that labelled the cells otherwise
        raise DataFormatError(f"{journal_path} holds rows this config does not make: "
                              f"{sorted(stray)}")
    with atomic_write(out_dir / "sweep_config.json") as fh:
        fh.write(json.dumps(asdict(cfg), sort_keys=True, indent=2).encode("utf-8"))
    table = ResultTable(rows)

    with open(journal_path, "a", encoding="utf-8") as journal:
        journal.truncate(kept)
        if not kept:
            journal.write(json.dumps({"config_digest": digest}) + "\n")
            journal.flush()
        for fi, (factor_label, scen_factor) in enumerate(factors):
            # a cell is built for the methods with a row left in it; a pooled model
            # trains on every SNR cell, so a CNN method with a row left is in all
            trains = {m for m in cfg.methods if cfg.pooled_training and not _METHODS[m].predict
                      and any((factor_label, m, snr) not in done for snr in cfg.snr_points)}
            readers = {snr: [m for m in cfg.methods
                             if m in trains or (factor_label, m, snr) not in done]
                       for snr in cfg.snr_points}
            groups = ([range(len(cfg.snr_points))] if trains else
                      [[si] for si, snr in enumerate(cfg.snr_points) if readers[snr]])
            for group in groups:
                cells = [_CellData(replace(scen_factor, snr_db_near=cfg.snr_points[si],
                                           seed=derive_seed(cfg.seed, fi, si)),
                                   readers[cfg.snr_points[si]]) for si in group]
                models = {}
                for cell in cells:
                    snr = cell.scenario.snr_db_near
                    for mi, method in enumerate(cfg.methods):
                        if (factor_label, method, snr) in done:
                            continue
                        if not _METHODS[method].predict and method not in models:
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
    model, _ = train_model([(c.samples[_METHODS[method].frames], c.split) for c in cells],
                           replace(cfg.train, seed=train_seed), model_seed)
    return model


def _score_cell(factor_label, cell, method, model) -> ResultRow:
    """The result row of ``method`` on the cell's test split; ``model`` is
    the trained net of a CNN method, None for a per-frame predictor."""
    scenario = cell.scenario
    kind, predict = _METHODS[method]
    if predict:
        predicted = [CLASS_ORDER.index(predict(frame, scenario)) for frame in cell.frames[kind]]
    else:
        test_samples = [cell.samples[kind][i] for i in cell.split.test]
        predicted = model.classify(diagram_matrix(test_samples)[0])
    labels = [cell.labels[i] for i in cell.split.test]
    accuracy, confusion = evaluate(predicted, labels)
    return ResultRow(snr_db=scenario.snr_db_near, factor=factor_label, method=method,
                     accuracy=accuracy, confusion=tuple(map(tuple, confusion.tolist())),
                     n_test=len(labels))


def read_journal(path):
    """Config digest, result rows and intact byte length of a results.jsonl journal.

    Rows are written and flushed one whole line at a time, so an interrupted
    sweep can tear only the final line: bytes after the last newline are
    dropped. Damage anywhere else, a row that contradicts itself included,
    raises DataFormatError naming the line.
    """
    blob = Path(path).read_bytes()
    kept = blob.rfind(b"\n") + 1
    lines = blob[:kept].decode("utf-8").splitlines()
    if not lines:
        return None, [], 0
    rows = []
    for number, line in enumerate(lines, 1):
        try:
            if number == 1:
                digest = json.loads(line)["config_digest"]
            elif line.strip():
                rows.append(ResultRow.from_json(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path} is damaged at line {number}: {exc}") from exc
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
    return ExperimentConfig(scenario=NomaScenario(samples_per_class=50), snr_step=6.0)


def full_preset() -> ExperimentConfig:
    """The full evaluation grid: 250 samples/class, -10..20 dB step 2."""
    return ExperimentConfig(scenario=NomaScenario(samples_per_class=250), methods=METHODS)
