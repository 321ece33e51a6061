"""Benchmark entry point: one workload, three phases, one JSON result line.

    python3 perfbench/run.py --workload short --seed 1 --seconds 45 --trace 0

Runs the ``train``, ``frames`` and ``sweep`` phases of ``nomadet`` one after
another, each in its own process with one BLAS thread, from the ``src/``
directory of the checkout it sits in. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (which also makes an untraced pass, to measure the tracing overhead).

The work in a run is fixed by the workload and ``--size``; it does not
depend on ``--seconds``, which is recorded with the run. Outputs, spans and
the loss curve go to ``perfbench/out/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PHASE_ORDER = ("train", "frames", "sweep")
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "detect_latency_p50_ms": "ms",
    "detect_latency_p90_ms": "ms",
    "detect_accuracy": "fraction",
    "dataset_samples_per_s": "samples/s",
    "projection_frames_per_s": "frames/s",
    "projection_accuracy": "fraction",
    "sweep_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def _phase_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_phase(phase: str, args, trace: int, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "phases.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
           "--size", args.size, "--out", str(out / f"{phase}-t{trace}")]
    # subprocess.run kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, env=_phase_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"phase {phase} exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": args.trace, "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "commit": _commit(),
            "source_digest": _source_digest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("short", "long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (SRC / "nomadet" / "__init__.py").is_file():
        print(f"error: no nomadet sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    out = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = {"environment": environment(args), "phases": {}}
    try:
        for phase in PHASE_ORDER:
            record["phases"][phase] = _run_phase(phase, args, 0, out, deadline)
        if args.trace:
            for phase in PHASE_ORDER:
                record["phases"][f"{phase}-traced"] = _run_phase(phase, args, 1, out, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [record["phases"][p] for p in PHASE_ORDER]
    checks = [c for r in untraced for c in r["checks"]]
    if args.trace:
        traced = [record["phases"][f"{p}-traced"] for p in PHASE_ORDER]
        checks += [c for r in traced for c in r["checks"]]
        metrics = {}
        for r in traced:
            for name, value in r["per_layer"].items():
                metrics[name] = metrics.get(name, 0) + value
        # ratios do not add across phases: take the sweep's and recompute the rate
        metrics["harness.frames_per_sample"] = traced[2]["per_layer"]["harness.frames_per_sample"]
        conv_s = sum(metrics[f"neuralnet.layers.Conv2D.{p}_s"]
                     for p in ("forward_train", "forward_eval", "backward"))
        metrics["neuralnet.layers.Conv2D.gflop_per_s"] = metrics["neuralnet.layers.Conv2D.gflop"] / conv_s
        # in reference seconds: wall time swings more between passes than
        # tracing costs
        metrics["bench.trace_overhead_s"] = (sum(r["measured_ref_s"] for r in traced)
                                             - sum(r["measured_ref_s"] for r in untraced))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {}
        for r in untraced:
            metrics.update(r["metrics"])
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in untraced)
        units = END_TO_END

    train = record["phases"]["train"]
    record["loss_curve"] = train["loss_curve"]
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    env = record["environment"]
    print(f"# nomadet benchmark: workload={args.workload} seed={args.seed} size={args.size} "
          f"numpy={env['numpy']} blas={env['blas']} threads={BLAS_THREADS} "
          f"commit={env['commit']} src={env['source_digest']}")
    for c in checks:
        print(f"# check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print("# loss_curve " + json.dumps(train["loss_curve"]))
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
