"""Dataset generation, stratified splitting, and the on-disk container.

Every sample is produced from a seed derived from (master seed, class,
index), so any sample can be regenerated in isolation. The container format
("NMD1") stores label, SNR, seed and the density grid per record, with a
human-readable JSON manifest sidecar describing the generating scenario.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from .density import DensityDiagram, density_diagram
from .errors import BadMagicError, TruncatedFileError, VersionMismatchError
from .sigsim import ModScheme, NomaScenario, SignalFrame, generate_noma_frame
from .wavelet import denoise_frame

__all__ = [
    "LabeledSample", "DatasetSplit", "derive_seed", "CLASS_ORDER",
    "scenario_frames", "frame_sample", "generate_dataset", "generate_sample",
    "split_dataset",
    "save_dataset", "load_dataset", "scenario_to_dict", "scenario_from_dict",
]

MAGIC = b"NMD1"
FORMAT_VERSION = 1

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

    def all_indices(self):
        return tuple(self.train) + tuple(self.validation) + tuple(self.test)


def derive_seed(master: int, *parts: int) -> int:
    """Stable 64-bit seed from a master seed and integer coordinates."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master & 0xFFFFFFFFFFFFFFFF))
    for p in parts:
        h.update(struct.pack("<q", int(p)))
    return int.from_bytes(h.digest(), "little")


def _simulate(scenario: NomaScenario, label: int, seed: int) -> SignalFrame:
    scen = replace(scenario, far_scheme=CLASS_ORDER[label])
    return generate_noma_frame(scen, rng=np.random.default_rng(seed))


def scenario_frames(scenario: NomaScenario):
    """Yield (label, seed, received frame) for every sample, in dataset order.

    Class-major: samples_per_class frames of each far class in CLASS_ORDER.
    Per-sample seeds come from derive_seed(scenario.seed, class, index).
    """
    for label in range(len(CLASS_ORDER)):
        for index in range(scenario.samples_per_class):
            seed = derive_seed(scenario.seed, label, index)
            yield label, seed, _simulate(scenario, label, seed)


def frame_sample(scenario: NomaScenario, label: int, seed: int,
                 frame: SignalFrame) -> LabeledSample:
    """The labelled density diagram of one (possibly denoised) frame."""
    diagram = density_diagram(frame, scenario.grid_size,
                              snr_db=scenario.snr_db_near, seed=seed)
    return LabeledSample(diagram=diagram, label=label, seed=seed,
                         snr_db=scenario.snr_db_near)


def generate_sample(scenario: NomaScenario, label: int, seed: int,
                    denoise: bool = True) -> LabeledSample:
    """One labelled sample, regenerated from its recorded seed."""
    frame = _simulate(scenario, label, seed)
    return frame_sample(scenario, label, seed,
                        denoise_frame(frame) if denoise else frame)


def generate_dataset(scenario: NomaScenario, denoise: bool = True,
                     keep_frames: bool = False):
    """samples_per_class labelled samples for each of the four far classes.

    Returns the list of samples, plus the matching (denoised) frames when
    ``keep_frames`` is set.
    """
    samples = []
    frames = []
    for label, seed, frame in scenario_frames(scenario):
        if denoise:
            frame = denoise_frame(frame)
        samples.append(frame_sample(scenario, label, seed, frame))
        if keep_frames:
            frames.append(frame)
    return (samples, frames) if keep_frames else samples


def split_dataset(samples, ratios=(6, 2, 2), seed: int = 0) -> DatasetSplit:
    """Stratified shuffle split with per-class proportions within one sample.

    Remainder slots left over after per-class flooring go to whichever split
    is globally most underfull, so totals track the requested ratios even on
    tiny datasets.
    """
    n = len(samples)
    if n < 10:
        raise ValueError(f"need at least 10 samples to split, got {n}")
    quota = np.asarray(ratios, dtype=np.float64)
    if quota.size != 3 or np.any(quota <= 0):
        raise ValueError("ratios must be three positive numbers")
    quota = quota / quota.sum()

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


def scenario_to_dict(scenario: NomaScenario) -> dict:
    return {
        "near_schemes": [s.value for s in scenario.near_schemes],
        "far_scheme": scenario.far_scheme.value if scenario.far_scheme else None,
        "snr_db_near": scenario.snr_db_near,
        "delta_db": scenario.delta_db,
        "alpha_fpc": scenario.alpha_fpc,
        "ratios": list(scenario.ratios) if scenario.ratios is not None else None,
        "fpa_gains": list(scenario.fpa_gains) if scenario.fpa_gains is not None else None,
        "fpa_noise": list(scenario.fpa_noise) if scenario.fpa_noise is not None else None,
        "near_step_db": scenario.near_step_db,
        "fading": scenario.fading,
        "equalize": scenario.equalize,
        "total_power": scenario.total_power,
        "symbols_per_frame": scenario.symbols_per_frame,
        "samples_per_class": scenario.samples_per_class,
        "grid_size": scenario.grid_size,
        "seed": scenario.seed,
    }


def scenario_from_dict(d: dict) -> NomaScenario:
    d = dict(d)
    d["near_schemes"] = tuple(d.get("near_schemes", ()))
    for key in ("ratios", "fpa_gains", "fpa_noise"):
        if d.get(key) is not None:
            d[key] = tuple(d[key])
    return NomaScenario(**d)


def _scenario_digest(manifest_blob: bytes) -> bytes:
    return hashlib.sha256(manifest_blob).digest()


def save_dataset(samples, path, scenario: NomaScenario | None = None) -> None:
    """Write the NMD1 container plus a JSON manifest sidecar."""
    samples = list(samples)
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    grid_size = samples[0].diagram.grid_size
    manifest = {
        "format": "NMD1",
        "version": FORMAT_VERSION,
        "sample_count": len(samples),
        "grid_size": grid_size,
        "scenario": scenario_to_dict(scenario) if scenario else None,
    }
    manifest_blob = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(samples)))
        fh.write(struct.pack("<H", grid_size))
        fh.write(_scenario_digest(manifest_blob))
        for sample in samples:
            if sample.diagram.grid_size != grid_size:
                raise ValueError("all diagrams in a dataset must share one grid size")
            fh.write(struct.pack("<B", sample.label))
            fh.write(struct.pack("<f", sample.snr_db))
            fh.write(struct.pack("<Q", sample.seed & 0xFFFFFFFFFFFFFFFF))
            fh.write(np.ascontiguousarray(sample.diagram.grid, dtype="<f4").tobytes())
    with open(path + ".manifest.json", "wb") as fh:
        fh.write(manifest_blob)


def _read_exact(fh, size: int, what: str) -> bytes:
    blob = fh.read(size)
    if len(blob) != size:
        raise TruncatedFileError(f"dataset truncated while reading {what}")
    return blob


def load_dataset(path):
    """Read an NMD1 container; returns (samples, manifest dict or None)."""
    path = str(path)
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"not a dataset file: magic {magic!r}")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"dataset version {version} unsupported (expected {FORMAT_VERSION})")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "sample count"))
        (grid_size,) = struct.unpack("<H", _read_exact(fh, 2, "grid size"))
        _read_exact(fh, 32, "scenario digest")
        samples = []
        for k in range(count):
            (label,) = struct.unpack("<B", _read_exact(fh, 1, f"record {k} label"))
            (snr,) = struct.unpack("<f", _read_exact(fh, 4, f"record {k} snr"))
            (seed,) = struct.unpack("<Q", _read_exact(fh, 8, f"record {k} seed"))
            blob = _read_exact(fh, 4 * grid_size * grid_size, f"record {k} grid")
            grid = np.frombuffer(blob, dtype="<f4").reshape(grid_size, grid_size)
            samples.append(LabeledSample(
                diagram=DensityDiagram(grid, snr_db=float(snr), seed=seed),
                label=int(label), seed=int(seed), snr_db=float(snr)))
        if fh.read(1):
            raise TruncatedFileError("trailing bytes after final record")
    manifest = None
    try:
        with open(path + ".manifest.json", "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except FileNotFoundError:
        pass
    return samples, manifest
