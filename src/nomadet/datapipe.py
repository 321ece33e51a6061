"""Dataset generation, stratified splitting, and the on-disk container.

Every sample is produced from a seed derived from (master seed, class,
index), so any sample can be regenerated in isolation. ``scenario_samples``
is the one place that chunks: it takes a class, or only its kept frames if
no kind is binned, in chunks of about ``_CHUNK_BYTES`` of complex samples
(16 frames of 2000 symbols, 10 of 3000), each in the batch form, (B, n)
sample rows and (B,) noise scales, from seed to diagram: simulated by one
``generate_noma_frames`` call, denoised by one ``denoise_frames`` call if a
requested kind needs it, binned by one ``density_grids`` call per kind and
dropped before the next, so the working memory does not grow with
samples_per_class. Every kept row becomes a ``SignalFrame`` that owns a
copy of its samples, as a row view would keep its chunk alive. Each frame
draws from its own generator in the one-frame order, so its bytes do not
depend on its chunk. Denoising reads each frame's true ``noise_scale``.

The container format ("NMD1") is a ``fileio`` frame whose body is,
little-endian: sample count u32 | grid size N u16 | sha256 of the JSON
manifest sidecar, which describes the scenario
(``NomaScenario(**manifest["scenario"])`` rebuilds it) | the records as one
packed block of label u8, SNR f32, seed u64, N x N f32 grid.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from .density import DensityDiagram, density_grids
from .errors import DataFormatError
from .fileio import atomic_write, read_exact, read_fields, read_frame, write_frame
from .sigsim import ModScheme, NomaScenario, SignalFrame, generate_noma_frames
from .wavelet import denoise_frames
# not called here: kept as attributes so that tracing wrappers installed on
# this module (perfbench/spans.py) find them by the same names
from .density import density_diagram  # noqa: F401
from .sigsim import generate_noma_frame  # noqa: F401
from .wavelet import denoise_frame  # noqa: F401

__all__ = [
    "LabeledSample", "DatasetSplit", "derive_seed", "CLASS_ORDER", "KINDS",
    "scenario_samples", "generate_dataset", "split_dataset",
    "MIN_SPLIT_SAMPLES", "save_dataset", "load_dataset",
]

MAGIC = b"NMD1"
FORMAT_VERSION = 1
MIN_SPLIT_SAMPLES = 10  # fewest samples split_dataset accepts
KINDS = ("raw", "denoised")  # the frames a sample's diagram can be binned from
_CHUNK_BYTES = 1 << 19  # scenario_samples's chunk size, see the module docstring

# label index <-> far scheme, fixed order
CLASS_ORDER = (ModScheme.PI_HALF_BPSK, ModScheme.QPSK, ModScheme.QAM16,
               ModScheme.QAM64)


@dataclass(frozen=True)
class LabeledSample:
    diagram: DensityDiagram
    label: int
    seed: int
    snr_db: float

    def __post_init__(self):
        if not 0 <= self.label < len(CLASS_ORDER):
            raise ValueError(f"label must be in [0, {len(CLASS_ORDER)})")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    validation: tuple
    test: tuple


def derive_seed(master: int, *parts: int) -> int:
    """Stable 64-bit seed from a master seed and integer coordinates."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master & 0xFFFFFFFFFFFFFFFF))
    for p in parts:
        h.update(struct.pack("<q", int(p)))
    return int.from_bytes(h.digest(), "little")


def scenario_samples(scenario: NomaScenario, kinds, keep=None) -> tuple[dict, dict]:
    """For each kind of frame in ``kinds`` (``KINDS``: received, or
    denoised), the labelled samples of each far class in CLASS_ORDER in
    dataset order, and for each kind in ``keep`` the frames behind the set of
    dataset indices (label * samples_per_class + index) it maps to, in order:
    two dicts keyed by kind. Per-sample seeds come from
    derive_seed(scenario.seed, class, index)."""
    samples = {kind: [] for kind in kinds}
    frames = {kind: [] for kind in keep or ()}
    if not {*samples, *frames} <= set(KINDS):
        raise ValueError(f"kinds must be among {KINDS}, got {kinds} and {list(frames)}")
    step = max(1, _CHUNK_BYTES // (16 * scenario.symbols_per_frame))
    kept = None if samples else {i for kind in frames for i in keep[kind]}
    for label, far in enumerate(CLASS_ORDER):
        scen = replace(scenario, far_scheme=far)
        first = label * scenario.samples_per_class  # the class's first dataset index
        indices = [i for i in range(scenario.samples_per_class) if kept is None or first + i in kept]
        for chunk_indices in (indices[at:at + step] for at in range(0, len(indices), step)):
            seeds = [derive_seed(scenario.seed, label, index) for index in chunk_indices]
            rows, scales = generate_noma_frames(scen, [np.random.default_rng(s) for s in seeds])
            chunk = {"raw": rows}
            if "denoised" in samples or "denoised" in frames:
                chunk["denoised"] = denoise_frames(rows, scales)
            for kind, out in samples.items():
                grids = density_grids(chunk[kind], scenario.grid_size)
                out += [LabeledSample(DensityDiagram(grid), label, seed, scenario.snr_db_near)
                        for seed, grid in zip(seeds, grids)]
            for kind, out in frames.items():
                out += [SignalFrame(row.copy(), s)  # a row view would keep its chunk alive
                        for i, row, s in zip(chunk_indices, chunk[kind], scales.tolist())
                        if first + i in keep[kind]]
            # held across the next simulation, the chunk slows it measurably
            del chunk, rows
    return samples, frames


def generate_dataset(scenario: NomaScenario, denoise: bool = True,
                     keep_frames: bool = False):
    """The one-kind case of ``scenario_samples``: the list of samples binned
    from denoised frames, or from the received frames with ``denoise`` off,
    plus those frames when ``keep_frames`` is set."""
    kind = "denoised" if denoise else "raw"
    keep = {kind: range(len(CLASS_ORDER) * scenario.samples_per_class)} if keep_frames else None
    samples, frames = scenario_samples(scenario, (kind,), keep)
    return (samples[kind], frames[kind]) if keep_frames else samples[kind]


def split_dataset(samples, seed: int) -> DatasetSplit:
    """Stratified 6:2:2 train/validation/test split, per class within one sample.

    Remainder slots left over after per-class flooring go to whichever split
    is globally most underfull, so totals track the requested ratios even on
    tiny datasets.
    """
    n = len(samples)
    if n < MIN_SPLIT_SAMPLES:
        raise ValueError(f"need at least {MIN_SPLIT_SAMPLES} samples to split, got {n}")
    quota = np.array([0.6, 0.2, 0.2])  # train : validation : test

    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for idx, sample in enumerate(samples):
        by_class.setdefault(sample.label, []).append(idx)

    assigned = [0, 0, 0]
    global_target = quota * n
    buckets: tuple[list, list, list] = ([], [], [])
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        rng.shuffle(indices)
        class_target = quota * indices.size
        counts = np.floor(class_target).astype(int)
        leftover = int(indices.size - counts.sum())
        # at most one extra sample per split keeps every class within one
        # sample of its stratified target; the global deficit decides which
        # splits absorb the leftovers
        order = sorted(range(3),
                       key=lambda s: (global_target[s] - assigned[s] - counts[s],
                                      class_target[s] - counts[s], -s),
                       reverse=True)
        for s in order[:leftover]:
            counts[s] += 1
        start = 0
        for s in range(3):
            buckets[s].extend(int(i) for i in indices[start:start + counts[s]])
            assigned[s] += counts[s]
            start += counts[s]
    return DatasetSplit(train=tuple(sorted(buckets[0])),
                        validation=tuple(sorted(buckets[1])),
                        test=tuple(sorted(buckets[2])))


def _scenario_digest(manifest_blob: bytes) -> bytes:
    return hashlib.sha256(manifest_blob).digest()


def _record_dtype(grid_size: int) -> np.dtype:
    """One NMD1 record, packed: 13 + 4 * grid_size**2 bytes."""
    return np.dtype([("label", "u1"), ("snr", "<f4"), ("seed", "<u8"),
                     ("grid", "<f4", (grid_size, grid_size))])


def save_dataset(samples, path, scenario: NomaScenario | None = None) -> None:
    """Write the NMD1 container plus a JSON manifest sidecar.

    Each file is replaced atomically, data file first, so a crash between
    the two leaves a pair whose digests disagree.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    grid_size = samples[0].diagram.grid_size
    if any(s.diagram.grid_size != grid_size for s in samples):
        raise ValueError("all diagrams in a dataset must share one grid size")
    records = np.array([(s.label, s.snr_db, s.seed & 0xFFFFFFFFFFFFFFFF, s.diagram.grid)
                        for s in samples], _record_dtype(grid_size))
    manifest = {
        "format": "NMD1",
        "version": FORMAT_VERSION,
        "sample_count": len(samples),
        "grid_size": grid_size,
        "scenario": asdict(scenario) if scenario else None,
    }
    manifest_blob = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
    path = str(path)
    with write_frame(path, MAGIC, FORMAT_VERSION) as fh:
        fh.write(struct.pack("<IH32s", len(samples), grid_size, _scenario_digest(manifest_blob)))
        fh.write(records.tobytes())
    with atomic_write(path + ".manifest.json") as fh:
        fh.write(manifest_blob)


def load_dataset(path):
    """Read an NMD1 container; returns (samples, manifest dict or None).

    A grid size below 2, a record whose label names no class, or a manifest
    whose sha256 differs from the header digest raises DataFormatError.
    """
    path = str(path)
    with read_frame(path, MAGIC, FORMAT_VERSION, "dataset") as fh:
        count, grid_size, digest = read_fields(fh, "<IH32s", "header")
        if grid_size < 2:
            raise DataFormatError(f"{path}: grid size {grid_size}, expected at least 2")
        record = _record_dtype(grid_size)
        records = np.frombuffer(read_exact(fh, count * record.itemsize, "records"), record)
    bad = np.flatnonzero(records["label"] >= len(CLASS_ORDER))
    if bad.size:
        raise DataFormatError(f"{path}: record {bad[0]} has label {records['label'][bad[0]]}, "
                              f"not in [0, {len(CLASS_ORDER)})")
    samples = [LabeledSample(diagram=DensityDiagram(grid), label=label, seed=seed, snr_db=snr)
               for grid, label, seed, snr in zip(
                   records["grid"].astype(np.float32), records["label"].tolist(),
                   records["seed"].tolist(), records["snr"].tolist())]
    try:
        with open(path + ".manifest.json", "rb") as fh:
            manifest_blob = fh.read()
    except FileNotFoundError:
        return samples, None
    if _scenario_digest(manifest_blob) != digest:
        raise DataFormatError(f"{path}.manifest.json does not match its data file")
    return samples, json.loads(manifest_blob.decode("utf-8"))
