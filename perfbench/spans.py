"""Span recorder for the traced run.

The benchmark patches the public callables of each ``nomadet`` module where
their callers look them up (module attributes and class methods), so no
file under ``src/`` changes. Spans hold a name, start, end and parent and
are kept in memory; ``Tracer.layer_metrics`` folds them into the per-layer
metrics once the phase has ended.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

LAYER_CLASSES = ("Conv2D", "BatchNorm2D", "ReLU", "MaxPool2", "GlobalAvgPool", "Dense")

# span name -> reported self-time metric; spans not listed here (train's own
# loop, validation glue, the benchmark's probes and checks) fall into
# bench.unattributed_s
_SELF_METRICS = {
    "sigsim.generate_noma_frame": "sigsim.generate_noma_frame.self_s",
    "wavelet.denoise_frame": "wavelet.denoise_frame.self_s",
    "density.density_diagram": "density.density_diagram.self_s",
    "datapipe.save_dataset": "datapipe.save_dataset.self_s",
    "datapipe.load_dataset": "datapipe.load_dataset.self_s",
    "datapipe.split_dataset": "datapipe.split_dataset.self_s",
    "baseline.projection_classify": "baseline.projection_classify.self_s",
    "baseline.subtractive_cluster_count": "baseline.subtractive_cluster_count.self_s",
    "neuralnet.layers.softmax_cross_entropy": "neuralnet.layers.softmax_cross_entropy.self_s",
    "neuralnet.training.Adam.step": "neuralnet.training.Adam.step.self_s",
    "neuralnet.checkpoint.save_model": "neuralnet.checkpoint.save_model.self_s",
    "neuralnet.checkpoint.load_model": "neuralnet.checkpoint.load_model.self_s",
    "harness.run_sweep": "harness.run_sweep.self_s",
    "harness.evaluate": "harness.evaluate.self_s",
    "harness.emit_report": "harness.emit_report.self_s",
}
for _layer in LAYER_CLASSES:
    for _part in ("forward_train", "forward_eval", "backward"):
        _SELF_METRICS[f"neuralnet.layers.{_layer}.{_part}"] = \
            f"neuralnet.layers.{_layer}.{_part}_s"

_CALL_COUNTS = ("sigsim.generate_noma_frame", "wavelet.denoise_frame",
                "density.density_diagram", "baseline.projection_classify",
                "baseline.subtractive_cluster_count", "neuralnet.training.Adam.step")

# every per-layer metric the traced run reports, with its unit and direction
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in _CALL_COUNTS[:3]]
    + [(m, "s", "lower") for n, m in _SELF_METRICS.items() if n.split(".")[0] in
       ("sigsim", "wavelet", "density", "datapipe")]
    + [("datapipe.save_dataset.bytes", "bytes", "lower"),
       ("datapipe.load_dataset.bytes", "bytes", "lower")]
    + [(f"{n}.calls", "count", "lower") for n in _CALL_COUNTS[3:5]]
    + [(m, "s", "lower") for n, m in _SELF_METRICS.items() if n.startswith("baseline.")]
    + [("baseline.pairwise_bytes", "bytes", "lower")]
    + [(_SELF_METRICS[f"neuralnet.layers.{layer}.{part}"], "s", "lower")
       for layer in LAYER_CLASSES for part in ("forward_train", "backward", "forward_eval")]
    + [("neuralnet.layers.softmax_cross_entropy.self_s", "s", "lower"),
       ("neuralnet.training.Adam.step.calls", "count", "lower"),
       ("neuralnet.training.Adam.step.self_s", "s", "lower"),
       ("neuralnet.training.train.steps", "count", "lower"),
       ("neuralnet.training.train.epochs", "count", "lower"),
       ("neuralnet.training.train.validation_s", "s", "lower"),
       ("neuralnet.layers.Conv2D.gflop", "GFLOP", "lower"),
       ("neuralnet.layers.Conv2D.gflop_per_s", "GFLOP/s", "higher"),
       ("neuralnet.layers.Conv2D.im2col_bytes", "bytes", "lower"),
       ("neuralnet.checkpoint.save_model.self_s", "s", "lower"),
       ("neuralnet.checkpoint.load_model.self_s", "s", "lower"),
       ("neuralnet.checkpoint.bytes", "bytes", "lower"),
       ("harness.run_sweep.self_s", "s", "lower"),
       ("harness.evaluate.self_s", "s", "lower"),
       ("harness.emit_report.self_s", "s", "lower"),
       ("harness.rows_computed", "count", "lower"),
       ("harness.rows_resumed", "count", "higher"),
       ("harness.frames_per_sample", "ratio", "lower"),
       ("bench.unattributed_s", "s", "lower"),
       ("bench.trace_overhead_s", "s", "lower")]
)


class Tracer:
    """Nested spans from wrapped callables, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []
        self._recording = True

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def paused(self):
        """The benchmark's own work (warm-up, checks): one ``bench.own`` span
        that records no span or count inside, so its time goes to
        ``bench.unattributed_s`` and none of it to a layer."""
        idx = self.open("bench.own")
        self._recording = False
        try:
            yield
        finally:
            self._recording = True
            self.close(idx)

    def wrap(self, fn, name, before=None):
        """``name`` is a string or a function of the call's arguments;
        ``before`` sees the arguments first, to count computed work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            idx = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def patch(self, owner, attr: str, name, before=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, before))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self):
        """(self time, inclusive time, call count) per span name."""
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            incl[name] += end - start
            calls[name] += 1
        return self_s, incl, calls

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, wall_s: float) -> dict:
        self_s, incl, calls = self.totals()
        out = {metric: self_s.get(span, 0.0) for span, metric in _SELF_METRICS.items()}
        for name in _CALL_COUNTS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for key in ("datapipe.save_dataset.bytes", "datapipe.load_dataset.bytes",
                    "baseline.pairwise_bytes", "neuralnet.training.train.steps",
                    "neuralnet.training.train.epochs", "neuralnet.checkpoint.bytes",
                    "harness.rows_computed", "harness.rows_resumed"):
            out[key] = self.counters.get(key, 0)
        out["neuralnet.training.train.validation_s"] = incl.get("neuralnet.training.accuracy", 0.0)
        # frames simulated inside run_sweep per labelled sample the sweep needs
        sweep_frames = sum(1 for i, span in enumerate(self.spans)
                           if span[0] == "sigsim.generate_noma_frame"
                           and self._has_ancestor(i, "harness.run_sweep"))
        samples = self.counters.get("harness.sweep_samples", 0)
        out["harness.frames_per_sample"] = sweep_frames / samples if samples else 0.0
        gflop = self.counters.get("neuralnet.layers.Conv2D.flop", 0.0) / 1e9
        conv_s = sum(self_s.get(f"neuralnet.layers.Conv2D.{p}", 0.0)
                     for p in ("forward_train", "forward_eval", "backward"))
        out["neuralnet.layers.Conv2D.gflop"] = gflop
        out["neuralnet.layers.Conv2D.gflop_per_s"] = gflop / conv_s if conv_s else 0.0
        out["neuralnet.layers.Conv2D.im2col_bytes"] = self.counters.get(
            "neuralnet.layers.Conv2D.im2col_bytes", 0)
        out["bench.unattributed_s"] = wall_s - sum(self_s.get(s, 0.0) for s in _SELF_METRICS)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every traced callable where its callers look it up."""
    from nomadet import baseline, datapipe, density, harness, sigsim, wavelet
    import nomadet
    from nomadet import neuralnet
    from nomadet.neuralnet import checkpoint, layers, training

    for owner in (sigsim, datapipe, harness, nomadet):
        tracer.patch(owner, "generate_noma_frame", "sigsim.generate_noma_frame")
    for owner in (wavelet, datapipe, harness, nomadet):
        tracer.patch(owner, "denoise_frame", "wavelet.denoise_frame")
    for owner in (density, datapipe, harness):
        tracer.patch(owner, "density_diagram", "density.density_diagram")
    tracer.patch(datapipe, "save_dataset", "datapipe.save_dataset")
    tracer.patch(datapipe, "load_dataset", "datapipe.load_dataset")
    for owner in (datapipe, harness):
        tracer.patch(owner, "split_dataset", "datapipe.split_dataset")
    for owner in (baseline, harness):
        tracer.patch(owner, "projection_classify", "baseline.projection_classify")
    tracer.patch(baseline, "subtractive_cluster_count",
                 "baseline.subtractive_cluster_count", _count_pairwise)

    for cls_name in LAYER_CLASSES:
        cls = getattr(layers, cls_name)
        before_fwd = _count_conv_forward if cls_name == "Conv2D" else None
        before_bwd = _count_conv_backward if cls_name == "Conv2D" else None
        tracer.patch(cls, "forward", _forward_span(cls_name), before_fwd)
        tracer.patch(cls, "backward", f"neuralnet.layers.{cls_name}.backward", before_bwd)
    for owner in (layers, training):
        tracer.patch(owner, "softmax_cross_entropy",
                     "neuralnet.layers.softmax_cross_entropy", _count_step)
    tracer.patch(training.Adam, "step", "neuralnet.training.Adam.step")
    tracer.patch(training, "accuracy", "neuralnet.training.accuracy", _count_epoch)
    for owner in (training, neuralnet, harness):
        tracer.patch(owner, "train", "neuralnet.training.train")
    for owner in (checkpoint, neuralnet):
        tracer.patch(owner, "save_model", "neuralnet.checkpoint.save_model")
        tracer.patch(owner, "load_model", "neuralnet.checkpoint.load_model")
    tracer.patch(harness, "run_sweep", "harness.run_sweep")
    tracer.patch(harness, "evaluate", "harness.evaluate", _count_row)
    tracer.patch(harness, "emit_report", "harness.emit_report")


def _forward_span(cls_name: str):
    def name(args, kwargs):
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return f"neuralnet.layers.{cls_name}.forward_{'train' if training else 'eval'}"
    return name


def _count_pairwise(tracer, args, kwargs):
    n = np.asarray(args[0]).size
    tracer.counters["baseline.pairwise_bytes"] += 8 * n * n


def _count_conv_forward(tracer, args, kwargs):
    conv, x = args[0], args[1]
    B, _, H, W = x.shape
    oh, ow = conv.out_hw(H, W)
    patch = conv.in_ch * conv.kernel * conv.kernel
    tracer.counters["neuralnet.layers.Conv2D.flop"] += 2.0 * B * oh * ow * patch * conv.out_ch
    tracer.counters["neuralnet.layers.Conv2D.im2col_bytes"] += \
        B * oh * ow * patch * x.dtype.itemsize


def _count_conv_backward(tracer, args, kwargs):
    conv = args[0]
    cols = conv._cache[0]
    # weight gradient plus input gradient: two GEMMs of the forward's size
    tracer.counters["neuralnet.layers.Conv2D.flop"] += 4.0 * cols.shape[0] * cols.shape[1] * conv.out_ch


def _count_step(tracer, args, kwargs):
    if tracer.inside("neuralnet.training.train"):
        tracer.counters["neuralnet.training.train.steps"] += 1


def _count_epoch(tracer, args, kwargs):
    if tracer.inside("neuralnet.training.train"):
        tracer.counters["neuralnet.training.train.epochs"] += 1


def _count_row(tracer, args, kwargs):
    tracer.counters["harness.rows_computed"] += 1

