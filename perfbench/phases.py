"""The benchmark's three phases, each run in its own process.

    python3 perfbench/phases.py --phase train --workload short --seed 1 \
        --trace 0 --out perfbench/out/x

prints one JSON object as its last line: metrics, checks, operation counts
and, with ``--trace 1``, the per-layer metrics. ``run.py`` starts these
processes and is the command to use; this entry point exists so that each
phase gets a fresh interpreter with the BLAS thread count already fixed.

Phases:
  train   set-up simulates a labelled dataset and held-out frames and builds
          ModulationNet; then train(), a save/load round trip, and batch-1
          detection of every held-out frame with the reloaded model.
  frames  generate_dataset(keep_frames=True) over SNR x near users, an NMD1
          round trip per cell, and projection_classify on a fixed subset.
  sweep   run_sweep with all three methods, emit_report, then a resume in
          the same directory.

Times are reference seconds (see refclock.py): each unit of work is
bracketed by probes of the machine's momentary speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import struct
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks as ck
from refclock import RefClock

SRC = Path(__file__).resolve().parent.parent / "src"

# symbols per received frame in every phase, per workload: denoising is
# O(n), today's projection O(n^2) in time and memory, and the CNN's work does
# not depend on n at all
WORKLOAD_SYMBOLS = {"short": 2000, "long": 3000}


@dataclass(frozen=True)
class Sizes:
    grid: int = 100                       # train phase diagram size
    train_per_class: int = 16             # 64 samples -> 38 train / 13 val / 13 test
    train_epochs: int = 8                 # 16 steps: enough for batch-norm statistics
    train_snr_db: float = 30.0
    heldout_frames: int = 100             # ten lie beyond p90
    setup_repeats: int = 5
    frames_snrs: tuple = (-10.0, -4.0, 2.0, 8.0, 14.0, 20.0)
    frames_near_users: tuple = (1, 2, 3)
    frames_per_class: int = 8             # data path samples per class and cell
    projected_per_class: int = 1          # projection subset per class and cell
    sweep_per_class: int = 6              # 24 per cell -> 14 train / 5 val / 5 test
    sweep_grid: int = 32
    sweep_epochs: int = 4
    sweep_snrs: tuple = (0.0, 20.0)
    sweep_user_counts: tuple = (2, 3)
    symbols: int | None = None            # overrides the workload's frame length


SIZES = {
    "full": Sizes(),
    # seconds per phase; still runs every check
    "tiny": Sizes(grid=32, train_per_class=16, train_epochs=7, heldout_frames=40,
                  setup_repeats=2, frames_snrs=(-10.0, 20.0), frames_near_users=(1, 3),
                  frames_per_class=2, sweep_per_class=5, sweep_grid=16, sweep_epochs=2,
                  symbols=2000),
}


def sub_seed(seed: int, *parts) -> int:
    """Input seed for one purpose, derived from the workload seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", seed))
    for p in parts:
        h.update(str(p).encode() + b"\0")
    return int.from_bytes(h.digest(), "little")


class Laps:
    """Wraps ``module.<name>`` so that every call ends a lap of ``clock``;
    with ``keep`` the wrapped function's result is passed to it."""

    def __init__(self, clock: RefClock, module, name: str, keep=None):
        self.clock, self.module, self.name, self.keep = clock, module, name, keep
        self.laps: list[tuple[float, float]] = []

    def __enter__(self):
        self._original = original = getattr(self.module, self.name)

        def lapped(*args, **kwargs):
            out = original(*args, **kwargs)
            self.laps.append(self.clock.lap())
            if self.keep is not None:
                self.keep(out)
            return out

        setattr(self.module, self.name, lapped)
        self.clock.lap()
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self._original)
        if exc[0] is None:
            self.laps.append(self.clock.lap())

    def total(self) -> tuple[float, float]:
        return sum(r for r, _ in self.laps), sum(w for _, w in self.laps)


def _clock(tracer) -> RefClock:
    clock = RefClock()
    if tracer is not None:
        # a span of its own keeps the probe out of its caller's self time
        tracer.patch(clock, "_probe", "bench.probe")
    return clock


def _own(tracer):
    """Marks the benchmark's own work (warm-up, checks) in a traced pass."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


# ------------------------------------------------------------------- phases

def phase_train(nd, symbols: int, sizes: Sizes, seed: int, out: Path, tracer) -> dict:
    sigsim, datapipe, wavelet, density = nd.sigsim, nd.datapipe, nd.wavelet, nd.density
    net = nd.neuralnet
    clock = _clock(tracer)
    arch = net.ArchConfig(input_size=sizes.grid)
    scenario = sigsim.NomaScenario(
        near_schemes=(sigsim.ModScheme.QPSK,), snr_db_near=sizes.train_snr_db,
        delta_db=6.0, symbols_per_frame=symbols, samples_per_class=sizes.train_per_class,
        grid_size=sizes.grid, seed=sub_seed(seed, "train-dataset"))
    classes = datapipe.CLASS_ORDER

    def set_up():
        samples = datapipe.generate_dataset(scenario)
        heldout = []
        for i in range(sizes.heldout_frames):
            scen = replace(scenario, far_scheme=classes[i % len(classes)])
            rng = np.random.default_rng(sub_seed(seed, "heldout", i))
            heldout.append((i % len(classes), sigsim.generate_noma_frame(scen, rng=rng)))
        model = net.ModulationNet(arch, seed=sub_seed(seed, "model"))
        return samples, heldout, model

    setup_laps = []
    clock.lap()
    for _ in range(sizes.setup_repeats):
        samples, heldout, model = set_up()
        setup_laps.append(clock.lap())

    split = datapipe.split_dataset(samples, seed=sub_seed(seed, "split"))
    x, y = nd.harness.diagram_matrix(samples)
    tr = np.array(split.train, dtype=np.int64)
    va = np.array(split.validation, dtype=np.int64)

    # warm-up on a throwaway model: first BLAS call, first forward and backward
    with _own(tracer):
        warm = net.ModulationNet(arch, seed=0)
        logits = warm.forward(x[tr[:4]], training=True)
        _, grad = net.softmax_cross_entropy(logits, np.eye(4, dtype=np.float32)[y[tr[:4]]])
        warm.backward(grad)
        del warm

    cfg = net.TrainConfig(batch_size=32, max_epochs=sizes.train_epochs,
                          patience=sizes.train_epochs, seed=sub_seed(seed, "train-order"))
    losses: list[float] = []
    # a lap at every step's loss, so no lap spans more than one minibatch
    with Laps(clock, net.training, "softmax_cross_entropy",
              keep=lambda out: losses.append(float(out[0]))) as train_laps:
        history = net.training.train(model, (x[tr], y[tr]), (x[va], y[va]), cfg)
    train_ref_s, train_wall_s = train_laps.total()

    ckpt = out / "model.nmdl"
    net.checkpoint.save_model(model, ckpt)
    reloaded = net.checkpoint.load_model(ckpt)
    if tracer is not None:
        tracer.counters["neuralnet.checkpoint.bytes"] += ckpt.stat().st_size

    latencies, labels, diagrams, truth = [], [], [], []
    failed = 0
    clock.lap()
    for label, frame in heldout:
        try:
            grid = density.density_diagram(wavelet.denoise_frame(frame), sizes.grid).grid
            pred = int(reloaded.classify(grid[None, None].astype(np.float32), batch_size=1)[0])
            latencies.append(clock.lap())
        except Exception as exc:  # a failed operation counts, the run goes on
            clock.lap()
            failed += 1
            print(f"detection failed: {exc!r}", file=sys.stderr)
            continue
        labels.append(pred)
        diagrams.append(grid)
        truth.append(label)
    labels, truth = np.array(labels), np.array(truth)
    accuracy = float(np.mean(labels == truth)) if labels.size else 0.0
    d = np.stack(diagrams).astype(np.float32)[:, None]
    lat = np.array(latencies) * 1e3

    with _own(tracer):
        results = [
            ck.check_first_conv(reloaded.base_conv, d[:4]),
            ck.check_final_loss(history),
            ck.check_detect_accuracy(accuracy),
            ck.check_batch1_matches_classify(labels, reloaded.classify(d)),
            ck.check_reload_exact(model.predict(d[:32]), reloaded.predict(d[:32])),
        ]
    n_trained = len(history) * int(tr.size)
    return {
        "metrics": {
            "setup_s": statistics.median(r for r, _ in setup_laps),
            "train_samples_per_s": n_trained / train_ref_s,
            "detect_latency_p50_ms": float(np.percentile(lat[:, 0], 50)),
            "detect_latency_p90_ms": float(np.percentile(lat[:, 0], 90)),
            "detect_accuracy": accuracy,
        },
        "checks": results,
        "measured_ref_s": sum(r for r, _ in setup_laps) + train_ref_s + float(lat[:, 0].sum()) / 1e3,
        "attempted": len(losses) + 1 + len(heldout),
        "failed": failed,
        "wall": {"setup_s": [w for _, w in setup_laps],
                 "train_samples_per_s": n_trained / train_wall_s,
                 "detect_latency_p50_ms": float(np.percentile(lat[:, 1], 50)),
                 "detect_latency_p90_ms": float(np.percentile(lat[:, 1], 90))},
        "detail": {"train_samples": int(tr.size), "epochs": len(history), "steps": len(losses),
                   "detections": int(lat.shape[0]),
                   "epoch_history": [[e.epoch, e.train_loss, e.val_accuracy] for e in history]},
        "loss_curve": losses,
    }


def _clean_superposition(nd, scen, seed: int):
    """Replay the generator's draws: noise-free superposed signal and the
    noisy received frame for one sample seed."""
    sigsim = nd.sigsim
    rng = np.random.default_rng(seed)
    streams = []
    for scheme in list(scen.near_schemes) + [scen.far_scheme]:
        bits = rng.integers(0, 2, size=scen.symbols_per_frame * scheme.bits_per_symbol,
                            dtype=np.uint8)
        streams.append(sigsim.modulate(bits, scheme))
    clean = sigsim.superpose(streams, sigsim.resolve_allocation(scen))
    noisy = sigsim.apply_channel(clean, scen.channel_config(), rng=rng)
    return clean.samples, noisy.samples


def phase_frames(nd, symbols: int, sizes: Sizes, seed: int, out: Path, tracer) -> dict:
    sigsim, datapipe, baseline = nd.sigsim, nd.datapipe, nd.baseline
    clock = _clock(tracer)
    classes = datapipe.CLASS_ORDER
    results: list = []
    diagram_failures: list = []
    mse: dict = {}
    data_laps, proj_laps = [], []
    proj_correct = failed = nmd_bytes = 0
    cells = [(snr, users) for snr in sizes.frames_snrs for users in sizes.frames_near_users]
    subset = [label * sizes.frames_per_class + k for label in range(len(classes))
              for k in range(sizes.projected_per_class)]
    for ci, (snr, users) in enumerate(cells):
        scen = sigsim.NomaScenario(
            near_schemes=(sigsim.ModScheme.QPSK,) * users, snr_db_near=snr, delta_db=6.0,
            symbols_per_frame=symbols, samples_per_class=sizes.frames_per_class,
            seed=sub_seed(seed, "frames", ci))
        path = out / f"cell{ci:02d}.nmd"
        clock.lap()
        samples, frames = datapipe.generate_dataset(scen, keep_frames=True)
        datapipe.save_dataset(samples, path, scen)
        loaded, _ = datapipe.load_dataset(path)
        data_laps.append(clock.lap())

        alloc = sigsim.resolve_allocation(scen)
        clock.lap()
        for i in subset:
            try:
                scheme = baseline.projection_classify(frames[i], alloc, scen.near_schemes)
                proj_laps.append(clock.lap())
            except Exception as exc:  # a failed operation counts, the run goes on
                clock.lap()
                failed += 1
                print(f"projection failed: {exc!r}", file=sys.stderr)
                continue
            proj_correct += classes.index(scheme) == samples[i].label

        nmd_bytes += path.stat().st_size
        with _own(tracer):
            results.append(ck.check_nmd1_roundtrip(samples, loaded))
            _check_cell(nd, scen, samples, frames, subset, results, diagram_failures, mse)
        path.unlink()
        Path(str(path) + ".manifest.json").unlink()

    n_samples = len(cells) * len(classes) * sizes.frames_per_class
    results = _fold(results)
    results.append(ck.Check("frames.diagram_range_and_counts", not diagram_failures,
                            "; ".join(diagram_failures[:3]) or f"{n_samples} diagrams"))
    results.extend(ck.check_denoising_helps(mse))
    with _own(tracer):
        results.append(ck.check_cluster_counts(
            baseline.subtractive_cluster_count, baseline.ClusterParams(neighborhood_radius=0.06),
            np.random.default_rng(sub_seed(seed, "clusters"))))
    if tracer is not None:
        tracer.counters["datapipe.save_dataset.bytes"] += nmd_bytes
        tracer.counters["datapipe.load_dataset.bytes"] += nmd_bytes
    data = np.array(data_laps).sum(axis=0)
    proj = np.array(proj_laps).sum(axis=0)
    return {
        "metrics": {
            "dataset_samples_per_s": n_samples / data[0],
            "projection_frames_per_s": len(proj_laps) / proj[0],
            "projection_accuracy": proj_correct / max(len(proj_laps), 1),
        },
        "checks": results,
        "measured_ref_s": float(data[0] + proj[0]),
        "attempted": n_samples + len(cells) + len(proj_laps) + failed,
        "failed": failed,
        "wall": {"dataset_samples_per_s": n_samples / data[1],
                 "projection_frames_per_s": len(proj_laps) / proj[1]},
        "detail": {"cells": len(cells), "samples": n_samples, "projected": len(proj_laps),
                   "nmd1_bytes": nmd_bytes},
    }


def _check_cell(nd, scen, samples, frames, subset, results, diagram_failures, mse):
    wavelet, classes = nd.wavelet, nd.datapipe.CLASS_ORDER
    spec = wavelet.WaveletSpec()
    for sample, frame in zip(samples, frames):
        check = ck.check_diagram(sample.diagram.grid,
                                 nd.density.density_counts(frame, scen.grid_size), len(frame))
        if not check.ok:
            diagram_failures.append(f"seed {sample.seed}: {check.detail}")
    for i in subset:
        for part in (frames[i].samples.real, frames[i].samples.imag):
            coeffs = wavelet.dwt_multilevel(part, spec)
            results.append(ck.check_wavelet_roundtrip(
                part, coeffs.energy(), wavelet.idwt_multilevel(coeffs, spec)))
        far = replace(scen, far_scheme=classes[samples[i].label])
        clean, noisy = _clean_superposition(nd, far, samples[i].seed)
        den, raw = mse.get(scen.snr_db_near, (0.0, 0.0))
        mse[scen.snr_db_near] = (den + float(np.mean(np.abs(frames[i].samples - clean) ** 2)),
                                 raw + float(np.mean(np.abs(noisy - clean) ** 2)))


def _fold(results: list) -> list:
    """One check per name: the first failure, or the first pass with a count."""
    by_name: dict = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    folded = []
    for name, group in by_name.items():
        bad = [r for r in group if not r.ok]
        first = bad[0] if bad else group[0]
        folded.append(ck.Check(name, not bad, f"{len(group) - len(bad)}/{len(group)} passed; "
                                              f"{first.detail}"))
    return folded


def _projection_recount(nd, cfg) -> dict:
    """Count the projection baseline's confusion per (factor, SNR) cell by
    regenerating the test frames from derive_seed and calling it directly."""
    datapipe, sigsim = nd.datapipe, nd.sigsim
    classes = datapipe.CLASS_ORDER
    recount = {}
    for fi, (factor, scen_factor) in enumerate(cfg.factor_cells()):
        for si, snr in enumerate(cfg.snr_points):
            cell_seed = datapipe.derive_seed(cfg.seed, fi, si)
            scen = replace(scen_factor, snr_db_near=snr, seed=cell_seed)
            per_class = scen.samples_per_class
            labels = [SimpleNamespace(label=label) for label in range(len(classes))
                      for _ in range(per_class)]
            split = datapipe.split_dataset(labels, seed=datapipe.derive_seed(cell_seed, 1))
            alloc = sigsim.resolve_allocation(scen)
            conf = np.zeros((len(classes), len(classes)), dtype=np.int64)
            for i in split.test:
                label, index = divmod(i, per_class)
                seed = datapipe.derive_seed(cell_seed, label, index)
                frame = sigsim.generate_noma_frame(replace(scen, far_scheme=classes[label]),
                                                   rng=np.random.default_rng(seed))
                frame = nd.wavelet.denoise_frame(frame, nd.wavelet.WaveletSpec())
                pred = classes.index(nd.baseline.projection_classify(frame, alloc,
                                                                     scen.near_schemes))
                conf[label, pred] += 1
            recount[(factor, snr)] = conf
    return recount


def phase_sweep(nd, symbols: int, sizes: Sizes, seed: int, out: Path, tracer) -> dict:
    harness, sigsim, net = nd.harness, nd.sigsim, nd.neuralnet
    clock = _clock(tracer)
    scenario = sigsim.NomaScenario(
        near_schemes=(sigsim.ModScheme.QPSK,), delta_db=6.0, symbols_per_frame=symbols,
        samples_per_class=sizes.sweep_per_class, grid_size=sizes.sweep_grid,
        seed=sub_seed(seed, "sweep-scenario"))
    snrs = sizes.sweep_snrs
    cfg = harness.ExperimentConfig(
        scenario=scenario, snr_start=snrs[0], snr_stop=snrs[-1],
        snr_step=(snrs[-1] - snrs[0]) / max(len(snrs) - 1, 1),
        factor_name="user_count", factor_values=sizes.sweep_user_counts,
        methods=harness.METHODS,
        train=net.TrainConfig(batch_size=32, max_epochs=sizes.sweep_epochs,
                              patience=sizes.sweep_epochs),
        seed=sub_seed(seed, "sweep"))
    sweep_dir = out / "sweep"
    journal = sweep_dir / "results.jsonl"
    if tracer is not None:
        cells = len(cfg.factor_cells()) * len(cfg.snr_points)
        tracer.counters["harness.sweep_samples"] = cells * 4 * scenario.samples_per_class

    # a lap at every result row, so no lap spans more than one row's work
    with Laps(clock, harness, "evaluate") as sweep_laps:
        table = harness.run_sweep(cfg, sweep_dir)
        report_paths = harness.emit_report(table, sweep_dir)
    sweep_ref_s, sweep_wall_s = sweep_laps.total()
    reports = {p.name: p.read_bytes() for p in report_paths}
    lines_before = len(journal.read_text().splitlines())

    resumed = harness.run_sweep(cfg, sweep_dir)
    resumed_paths = harness.emit_report(resumed, sweep_dir)
    rows_recomputed = len(journal.read_text().splitlines()) - lines_before
    if tracer is not None:
        tracer.counters["harness.rows_resumed"] += len(resumed.rows) - rows_recomputed

    expected = {(str(f), m, s) for f in cfg.factor_values for m in cfg.methods
                for s in cfg.snr_points}
    projection_rows = [r for r in table.rows if r.method == "projection_clustering"]
    with _own(tracer):
        results = [
            ck.check_rows_unique(table.rows, expected),
            ck.check_confusions(table.rows),
            ck.check_csv(table.rows, sweep_dir / "accuracy_vs_snr.csv"),
            ck.check_resume(rows_recomputed, reports,
                            {p.name: p.read_bytes() for p in resumed_paths},
                            table.rows, resumed.rows),
            ck.check_projection_recount(projection_rows, _projection_recount(nd, cfg)),
        ]
    return {
        "metrics": {"sweep_rows_per_s": len(table.rows) / sweep_ref_s},
        "measured_ref_s": sweep_ref_s,
        "checks": results,
        "attempted": len(table.rows) + 1,
        "failed": 0,
        "wall": {"sweep_rows_per_s": len(table.rows) / sweep_wall_s},
        "detail": {"rows": len(table.rows), "rows_recomputed_on_resume": rows_recomputed},
    }


PHASES = {"train": phase_train, "frames": phase_frames, "sweep": phase_sweep}


def _import_nomadet():
    import nomadet
    from nomadet import baseline, datapipe, density, harness, neuralnet, sigsim, wavelet
    if Path(nomadet.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"nomadet imported from {nomadet.__file__}, not from {SRC}")
    return SimpleNamespace(sigsim=sigsim, datapipe=datapipe, wavelet=wavelet, density=density,
                           baseline=baseline, harness=harness, neuralnet=neuralnet)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", choices=sorted(PHASES), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOAD_SYMBOLS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    nd = _import_nomadet()
    sizes = SIZES[args.size]
    symbols = sizes.symbols or WORKLOAD_SYMBOLS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        root = tracer.open(f"bench.{args.phase}")
    t0 = time.perf_counter()
    result = PHASES[args.phase](nd, symbols, sizes, args.seed, args.out, tracer)
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = [c.to_json() for c in result["checks"]]
    if tracer is not None:
        tracer.close(root)
        tracer.unpatch()
        result["per_layer"] = tracer.layer_metrics(tracer.spans[root][2] - tracer.spans[root][1])
        with open(args.out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
