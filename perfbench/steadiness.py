"""Repeat a workload over several seeds and print each metric's spread.

    python3 perfbench/steadiness.py --workload short --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median, next to the metric's bound
from BENCHMARK.json. Also prints the share of failed operations, which
must not differ between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], bounds: dict) -> list[str]:
    lines = [f"{'metric':<28} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}"]
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        lines.append(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                     f"{bounds[name]:>6.2f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    lines.append(f"failed share per run: {sorted(shares)}; attempted "
                 f"{sorted({r['attempted'] for r in runs})}; "
                 f"all correct: {all(r['correct'] for r in runs)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [run_once(args.workload, seed, spec["run_seconds"]) for seed in parse_seeds(args.seeds)]
    print(f"workload {args.workload}, seeds {args.seeds}, {len(runs)} runs")
    print("\n".join(summarise(runs, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
