"""Quick tests of the benchmark itself, kept out of the repository's tier-1 run.

    python3 -m pytest -q perfbench/test_perfbench.py

They run every phase at tiny size (seconds each) with every correctness
check, and feed deliberately corrupted outputs to the checks to show that
each one can fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks as ck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_what_the_run_reports(spec):
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in spans.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == {"short", "long"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_every_check(spec, trace):
    proc = _run("--workload", "short", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [l for l in lines if "FAIL" in l]
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(l.startswith("# loss_curve [") for l in lines)
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["harness.frames_per_sample"] == 1.0
        assert m["harness.rows_resumed"] == m["harness.rows_computed"] > 0
        assert m["bench.unattributed_s"] >= 0


def test_paused_tracer_records_only_its_own_span():
    tracer = spans.Tracer()
    owner = SimpleNamespace(f=lambda: 1)
    tracer.patch(owner, "f", "m.f")
    owner.f()
    with tracer.paused():
        owner.f()
    owner.f()
    tracer.unpatch()
    assert [span[0] for span in tracer.spans] == ["m.f", "bench.own", "m.f"]


def test_refuses_to_run_without_sources(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(*spec["command"][1:], "--workload", "short", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------ corrupted outputs must fail

def _sample(label, seed=7, snr=3.0, grid=None):
    grid = np.linspace(0, 1, 16).reshape(4, 4) if grid is None else grid
    return SimpleNamespace(label=label, seed=seed, snr_db=snr,
                           diagram=SimpleNamespace(grid=grid))


def test_flipped_label_fails_nmd1_check():
    written = [_sample(0), _sample(1)]
    assert ck.check_nmd1_roundtrip(written, [_sample(0), _sample(1)]).ok
    assert not ck.check_nmd1_roundtrip(written, [_sample(0), _sample(2)]).ok
    assert not ck.check_nmd1_roundtrip(written, [_sample(0)]).ok


def test_truncated_nmd1_file_is_refused(tmp_path):
    from nomadet import datapipe
    from nomadet.density import DensityDiagram
    from nomadet.errors import TruncatedFileError
    samples = [datapipe.LabeledSample(DensityDiagram(np.eye(4)), k % 4, k, 0.0)
               for k in range(3)]
    path = tmp_path / "d.nmd"
    datapipe.save_dataset(samples, path)
    loaded, _ = datapipe.load_dataset(path)
    assert ck.check_nmd1_roundtrip(samples, loaded).ok
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(TruncatedFileError):
        datapipe.load_dataset(path)


def test_wrong_convolution_fails_direct_check():
    from nomadet.neuralnet import Conv2D
    conv = Conv2D(1, 3, 5, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).random((2, 1, 9, 9)).astype(np.float32)
    assert ck.check_first_conv(conv, x).ok
    flipped = SimpleNamespace(forward=lambda x, training: conv.forward(x)[:, :, ::-1],
                              params=conv.params, pad=conv.pad)
    assert not ck.check_first_conv(flipped, x).ok


def test_label_and_prediction_checks_fail_on_corruption():
    labels = np.array([0, 1, 2, 3])
    assert ck.check_batch1_matches_classify(labels, labels).ok
    assert not ck.check_batch1_matches_classify(labels, np.array([0, 1, 2, 2])).ok
    probs = np.full((2, 4), 0.25, dtype=np.float32)
    assert not ck.check_reload_exact(probs, probs + np.float32(1e-7)).ok
    assert not ck.check_detect_accuracy(0.3).ok
    assert not ck.check_final_loss([SimpleNamespace(train_loss=1.5)]).ok


def test_frame_checks_fail_on_corruption():
    grid = np.array([[0.0, 0.5], [1.0, 0.25]])
    assert ck.check_diagram(grid, np.array([[0, 2], [4, 1]]), 7).ok
    assert not ck.check_diagram(grid, np.array([[0, 2], [4, 1]]), 8).ok
    assert not ck.check_diagram(grid * 1.1, np.array([[0, 2], [4, 1]]), 7).ok
    x = np.arange(8.0)
    assert not ck.check_wavelet_roundtrip(x, float(x @ x), x + 1e-8).ok
    assert not ck.check_denoising_helps({20.0: (1.01, 1.0)})[0].ok
    assert not ck.check_cluster_counts(lambda pts, p: 3, None, np.random.default_rng(0)).ok


def _row(factor, method, snr, confusion):
    conf = np.asarray(confusion)
    return SimpleNamespace(factor=factor, method=method, snr_db=snr, confusion=conf,
                           n_test=int(conf.sum()), accuracy=float(np.trace(conf) / conf.sum()))


def test_sweep_checks_fail_on_corruption(tmp_path):
    a = _row("2", "m", 0.0, np.eye(4, dtype=int))
    b = _row("3", "m", 0.0, np.ones((4, 4), dtype=int))
    keys = {("2", "m", 0.0), ("3", "m", 0.0)}
    assert ck.check_rows_unique([a, b], keys).ok
    assert not ck.check_rows_unique([a, a, b], keys).ok
    bad = SimpleNamespace(**{**vars(a), "accuracy": 0.5})
    assert not ck.check_confusions([bad]).ok
    csv_path = tmp_path / "acc.csv"
    csv_path.write_text("snr_db,factor,method,accuracy\n0,2,m,1.000000\n0,3,m,0.250000\n")
    assert ck.check_csv([a, b], csv_path).ok
    csv_path.write_text("snr_db,factor,method,accuracy\n0,2,m,1.000000\n0,3,m,0.750000\n")
    assert not ck.check_csv([a, b], csv_path).ok
    assert not ck.check_resume(1, {"r": b"x"}, {"r": b"x"}, [a], [a]).ok
    assert not ck.check_resume(0, {"r": b"x"}, {"r": b"y"}, [a], [a]).ok
    recount = {("2", 0.0): np.eye(4, dtype=int), ("3", 0.0): np.eye(4, dtype=int)}
    assert not ck.check_projection_recount([a, b], recount).ok
