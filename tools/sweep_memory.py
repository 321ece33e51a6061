"""Working memory of a sweep cell and of a model's training inputs, by tracemalloc.

Usage: python3 tools/sweep_memory.py [--preset desk|full] [--methods M ...]
       [--pool K] [--samples S] [--symbols N] [--grid N]

Takes the preset's scenario from the checkout's own ``src/``, with
``--samples`` (per class), ``--symbols`` (per frame) and ``--grid``
overriding its sizes, and measures two steps of a sweep with ``tracemalloc``,
which counts every numpy buffer:

  - ``cell``: building one (factor, SNR) cell, ``harness._CellData``, for
    the methods at 10 dB (a cell's bytes depend on its sizes, not on its
    SNR). It prints the MiB the built cell holds and the peak MiB while it
    was built.
  - ``train_model``: for the first method that fits on diagrams (a CNN), its
    ``fit`` from ``harness._METHODS``, which calls ``harness.train_model``,
    on a group of K cells at the preset's first K SNR points (K = 1 is a
    per-cell model, the preset's SNR count a pooled one), stopped where
    ``train()`` would start. It prints the MiB held at that point, the
    model's state included, and the peak MiB up to it, beside the MiB of the
    stacked training and validation matrices and of every diagram in the
    group. The group's cells are built before the measurement starts.

A method set whose methods all read rows (the projection baseline) prints
only the cell line. Each number is one deterministic measurement, not a
timing, so one run suffices; the allocator's own page use (RSS) is not
measured.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from nomadet import harness  # noqa: E402
from nomadet.datapipe import derive_seed  # noqa: E402

MIB = float(1 << 20)
CELL_SNR_DB = 10.0


def traced(build):
    """``build()``, plus the MiB it holds and its peak MiB while it ran."""
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held / MIB, peak / MIB


def train_inputs(fit, parts, train_cfg) -> tuple[float, float, float]:
    """A method's ``fit`` on (samples, split) parts up to its ``train()``
    call: the MiB held and the peak MiB there, and the MiB of the matrices
    it would train and validate on."""
    seen = {}

    def stop(model, train_xy, val_xy, cfg):
        seen["memory"] = tracemalloc.get_traced_memory()
        seen["matrices"] = train_xy[0].nbytes + val_xy[0].nbytes
        return []
    inner, harness.train = harness.train, stop
    tracemalloc.start()
    try:
        fit(parts, train_cfg, 0)
    finally:
        tracemalloc.stop()
        harness.train = inner
    held, peak = seen["memory"]
    return held / MIB, peak / MIB, seen["matrices"] / MIB


def measure(cfg, pool: int) -> list[str]:
    """The report lines for ``cfg``'s methods on its scenario."""
    scenario, methods = cfg.scenario, cfg.methods
    _, held, peak = traced(lambda: harness._CellData(
        replace(scenario, snr_db_near=CELL_SNR_DB, seed=derive_seed(cfg.seed, 0, 0)), methods))
    lines = [f"cell {CELL_SNR_DB:g} dB: held {held:.1f} MiB, peak {peak:.1f} MiB"]
    cnn = [m for m in methods if not harness._METHODS[m].rows]
    if cnn:
        kind, fit, _ = harness._METHODS[cnn[0]]
        cells = [harness._CellData(replace(scenario, snr_db_near=cfg.snr_points[si],
                                           seed=derive_seed(cfg.seed, 0, si)), cnn[:1])
                 for si in range(pool)]
        diagrams = sum(s.diagram.grid.nbytes for c in cells for s in c.samples[kind]) / MIB
        held, peak, matrices = train_inputs(fit, [(c.samples[kind], c.split) for c in cells],
                                            cfg.train)
        lines.append(f"train_model {cnn[0]}, {pool} cell(s): held {held:.1f} MiB, "
                     f"peak {peak:.1f} MiB (matrices {matrices:.1f} MiB, "
                     f"diagrams {diagrams:.1f} MiB)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("desk", "full"), default="desk",
                        help="preset whose scenario and SNR points to use (default desk)")
    parser.add_argument("--methods", nargs="+", choices=harness.METHODS,
                        default=list(harness.METHODS), help="methods of the cell (default all)")
    parser.add_argument("--pool", type=int, default=1,
                        help="cells in the train_model group (default 1)")
    parser.add_argument("--samples", type=int, help="samples per class")
    parser.add_argument("--symbols", type=int, help="symbols per frame")
    parser.add_argument("--grid", type=int, help="diagram side")
    args = parser.parse_args(argv)
    cfg = (harness.desk_preset if args.preset == "desk" else harness.full_preset)()
    sizes = {name: value for name, value in (("samples_per_class", args.samples),
                                             ("symbols_per_frame", args.symbols),
                                             ("grid_size", args.grid)) if value is not None}
    cfg = replace(cfg, scenario=replace(cfg.scenario, **sizes), methods=tuple(args.methods))
    if not 1 <= args.pool <= len(cfg.snr_points):
        parser.error(f"--pool must be in [1, {len(cfg.snr_points)}], the preset's SNR count")
    s = cfg.scenario
    print(f"# {args.preset}: {s.samples_per_class} per class, {s.symbols_per_frame} symbols, "
          f"grid {s.grid_size}; methods {' '.join(cfg.methods)}")
    for line in measure(cfg, args.pool):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
