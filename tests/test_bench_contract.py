"""The benchmark's calls into the package still work.

The tracer (perfbench/spans.py) wraps pipeline stages on the modules and
classes where their callers look them up, and the phases call the package
in ways nothing else does, so a rename or signature change would otherwise
break only benchmark runs; these tests make it break tier-1 instead.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.unpatch()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr}"


@pytest.mark.parametrize("phase", ["train", "frames", "sweep"])
def test_traced_tiny_phase_passes_every_check(tmp_path, phase):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "phases.py"), "--phase", phase, "--size", "tiny",
         "--trace", "1", "--workload", "short", "--seed", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert [c for c in result["checks"] if not c["ok"]] == []


def test_traced_projection_sweep_spans_each_test_frame_and_row(tmp_path, monkeypatch):
    """The method table looks its per-frame predictor up on ``harness`` at
    call time, so the tracer's wrapper there sees every projection call."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from nomadet import harness
    from nomadet.neuralnet import TrainConfig
    from nomadet.sigsim import ModScheme, NomaScenario
    cfg = harness.ExperimentConfig(
        scenario=NomaScenario(near_schemes=(ModScheme.QPSK,), symbols_per_frame=256,
                              samples_per_class=5, grid_size=16),
        snr_start=0.0, snr_stop=10.0, snr_step=10.0, methods=("projection_clustering",),
        train=TrainConfig(max_epochs=1, patience=1), seed=2)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        table = harness.run_sweep(cfg, tmp_path)
    finally:
        tracer.unpatch()
    projected = [i for i, span in enumerate(tracer.spans)
                 if span[0] == "baseline.projection_classify"]
    assert len(table.rows) == 2
    assert len(projected) == sum(row.n_test for row in table.rows)
    assert all(tracer._has_ancestor(i, "harness.run_sweep") for i in projected)
    evaluated = [span for span in tracer.spans if span[0] == "harness.evaluate"]
    assert len(evaluated) == len(table.rows)
