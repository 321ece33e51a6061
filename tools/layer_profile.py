"""Per-layer forward and backward times of the default network, and the layout of each result.

Usage: python3 tools/layer_profile.py [--grid N] [--batch B] [--steps S] [--seed K]

Builds the default-architecture ``ModulationNet`` for N x N diagrams from the
checkout's own ``src/``, then runs S training steps (training forward,
softmax cross-entropy, backward) on one fixed-seed batch of B random
diagrams, timing every call of every layer instance. It prints one row per
layer instance in forward order: the median forward and backward
milliseconds over the steps, and the layout of what each call returned. A
4-D result reads ``NCHW`` when it is C-contiguous, ``channels-last`` when
its (N, H, W, C) transpose is, ``both`` when it is both (a 1x1 map or a
single channel) and ``other`` otherwise. A 2-D result reads ``C-contiguous``
or ``other``, and the stem's absent input gradient reads ``none``. The stem
(conv, batch norm, 2x2 max pool and ReLU) is one ``Stem`` layer, so one row.

BLAS uses as many threads as the environment allows; set
``OPENBLAS_NUM_THREADS=1`` for the single-threaded timings the benchmark
takes. On a shared host, medians over a few steps move by several percent
from run to run, so compare layers within one run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from nomadet.neuralnet import ArchConfig, ModulationNet, softmax_cross_entropy  # noqa: E402
from nomadet.neuralnet.model import NUM_CLASSES  # noqa: E402


def layout(result) -> str:
    """The memory layout of a layer's result, named as the module docstring says."""
    if result is None:
        return "none"
    if result.ndim != 4:
        return "C-contiguous" if result.flags.c_contiguous else "other"
    nchw = result.flags.c_contiguous
    channels_last = result.transpose(0, 2, 3, 1).flags.c_contiguous
    return {(True, True): "both", (True, False): "NCHW",
            (False, True): "channels-last"}.get((nchw, channels_last), "other")


def profile(grid: int, batch: int, steps: int, seed: int) -> list[dict]:
    """One dict per layer instance: its name, and for each of ``forward`` and
    ``backward`` the call times in seconds and the layouts of its results."""
    model = ModulationNet(ArchConfig(input_size=grid), seed=seed)
    rows = []
    for name, layer in model.leaf_layers():
        row = {"name": name, "forward": ([], []), "backward": ([], [])}
        for method in ("forward", "backward"):
            times, layouts = row[method]

            def timed(*args, _call=getattr(layer, method), _times=times, _layouts=layouts,
                      **kwargs):
                start = time.perf_counter()
                out = _call(*args, **kwargs)
                _times.append(time.perf_counter() - start)
                _layouts.append(layout(out))
                return out
            setattr(layer, method, timed)
        rows.append(row)
    rng = np.random.default_rng(seed)
    x = rng.random((batch, 1, grid, grid), dtype=np.float32)
    targets = np.eye(NUM_CLASSES, dtype=np.float32)[np.arange(batch) % NUM_CLASSES]
    for _ in range(steps):
        _, grad = softmax_cross_entropy(model.forward(x, training=True), targets)
        model.backward(grad)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=100, help="diagram side (default 100)")
    parser.add_argument("--batch", type=int, default=32, help="batch size, at least 2 (default 32)")
    parser.add_argument("--steps", type=int, default=5, help="training steps (default 5)")
    parser.add_argument("--seed", type=int, default=0, help="model and batch seed (default 0)")
    args = parser.parse_args(argv)
    if args.batch < 2 or args.steps < 1:
        parser.error("--batch must be at least 2 (batch normalisation) and --steps at least 1")
    rows = profile(args.grid, args.batch, args.steps, args.seed)
    print(f"# grid {args.grid}, batch {args.batch}, {args.steps} steps; median ms per call")
    print(f"{'layer':<18} {'forward':>9} {'backward':>9}  {'forward layout':<15} backward layout")
    totals = [0.0, 0.0]
    for row in rows:
        cells = []
        for i, method in enumerate(("forward", "backward")):
            times, layouts = row[method]
            ms = float(np.median(times)) * 1e3
            totals[i] += ms
            cells.append((ms, "/".join(sorted(set(layouts)))))
        (fwd, fwd_layout), (bwd, bwd_layout) = cells
        print(f"{row['name']:<18} {fwd:9.3f} {bwd:9.3f}  {fwd_layout:<15} {bwd_layout}")
    print(f"{'total':<18} {totals[0]:9.3f} {totals[1]:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
