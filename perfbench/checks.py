"""Correctness checks for the benchmark's outputs.

Every check compares against a computation made apart from the code under
test, or against a property the method must have; none compares against a
stored copy of earlier output. Each returns a ``Check`` so that a run can
report all of them and the quick tests can feed corrupted outputs in.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


def _check(name: str, ok, detail: str = "") -> Check:
    return Check(name, bool(ok), detail)


# ---------------------------------------------------------------- train phase

def direct_convolution(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 cross-correlation summed over the padded windows, no im2col."""
    k = w.shape[-1]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("bchwij,ocij->bohw", windows, w.astype(np.float64)) + \
        b.astype(np.float64)[None, :, None, None]


def check_first_conv(conv, x: np.ndarray) -> Check:
    got = conv.forward(x, training=False).astype(np.float64)
    want = direct_convolution(x, conv.params["w"], conv.params["b"], conv.pad)
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    return _check("train.first_conv_matches_direct_convolution", err <= 1e-4,
                  f"max abs error {err:.3g} on batch {x.shape}")


def check_final_loss(history) -> Check:
    loss = history[-1].train_loss
    return _check("train.final_loss_below_uniform_guess", loss < math.log(4.0),
                  f"final epoch loss {loss:.4f} vs ln 4 = {math.log(4.0):.4f}")


def check_detect_accuracy(accuracy: float, floor: float = 0.5) -> Check:
    return _check("train.detect_accuracy_above_chance", accuracy >= floor,
                  f"accuracy {accuracy:.4f}, chance 0.25, floor {floor}")


def check_batch1_matches_classify(batch1_labels, classify_labels) -> Check:
    a, b = np.asarray(batch1_labels), np.asarray(classify_labels)
    mismatches = int(np.sum(a != b)) if a.shape == b.shape else -1
    return _check("train.batch1_labels_match_classify", mismatches == 0,
                  f"{mismatches} of {a.size} labels differ")


def check_reload_exact(before: np.ndarray, after: np.ndarray) -> Check:
    same = before.shape == after.shape and np.array_equal(before, after)
    return _check("train.reloaded_checkpoint_predicts_identically", same,
                  f"{before.shape[0]} class distributions compared")


# --------------------------------------------------------------- frames phase

def check_diagram(grid: np.ndarray, counts: np.ndarray, n_symbols: int) -> Check:
    ok = (np.all(grid >= 0.0) and np.all(grid <= 1.0) and grid.min() == 0.0
          and grid.max() == 1.0 and int(counts.sum()) == n_symbols)
    return _check("frames.diagram_range_and_counts", ok,
                  f"min {grid.min():.3g} max {grid.max():.3g} "
                  f"counts {int(counts.sum())} of {n_symbols}")


def check_wavelet_roundtrip(x: np.ndarray, coeffs_energy: float, rebuilt: np.ndarray) -> Check:
    err = float(np.max(np.abs(rebuilt - x))) if rebuilt.shape == x.shape else math.inf
    energy = float(np.dot(x, x))
    parseval = abs(coeffs_energy - energy) <= 1e-10 * max(1.0, energy)
    return _check("frames.wavelet_perfect_reconstruction", err <= 1e-10 and parseval,
                  f"max error {err:.3g}, energy {energy:.6g} vs {coeffs_energy:.6g}")


def check_denoising_helps(mse_by_snr: dict) -> list:
    """mse_by_snr: snr -> (mean denoised MSE, mean noisy MSE)."""
    return [_check(f"frames.denoising_lowers_mse_at_{snr:g}dB", den < noisy,
                   f"ratio {den / noisy:.4f}")
            for snr, (den, noisy) in sorted(mse_by_snr.items())]


def check_nmd1_roundtrip(written, loaded) -> Check:
    if len(written) != len(loaded):
        return _check("frames.nmd1_roundtrip", False,
                      f"{len(written)} written, {len(loaded)} read")
    bad = 0
    for w, r in zip(written, loaded):
        if (w.label != r.label or w.seed != r.seed
                or np.float32(w.snr_db) != np.float32(r.snr_db)
                or not np.array_equal(w.diagram.grid.astype(np.float32),
                                      r.diagram.grid.astype(np.float32))):
            bad += 1
    return _check("frames.nmd1_roundtrip", bad == 0, f"{bad} of {len(written)} records differ")


def check_cluster_counts(count_fn, params, rng: np.random.Generator) -> Check:
    """k well-separated 1-D clusters must give k centres, for k = 1..8.

    Radii are fractions of the data range, so a lone cluster with any spread
    fills the whole range; k = 1 is therefore a cluster of equal points."""
    wrong = []
    for k in range(1, 9):
        spread = 0.002 if k > 1 else 0.0
        pts = np.concatenate([c + spread * rng.standard_normal(40)
                              for c in np.linspace(0.0, 1.0, k)])
        got = count_fn(pts, params)
        if got != k:
            wrong.append(f"k={k} gave {got}")
    return _check("frames.subtractive_clustering_counts_separated_clusters", not wrong,
                  "; ".join(wrong) or "k = 1..8 recovered")


# ---------------------------------------------------------------- sweep phase

def check_rows_unique(rows, expected_keys) -> Check:
    seen = Counter((r.factor, r.method, r.snr_db) for r in rows)
    ok = set(seen) == set(expected_keys) and all(v == 1 for v in seen.values())
    return _check("sweep.every_row_once", ok,
                  f"{len(rows)} rows, {len(expected_keys)} expected")


def check_confusions(rows) -> Check:
    bad = []
    for r in rows:
        conf = np.asarray(r.confusion)
        if int(conf.sum()) != r.n_test or abs(np.trace(conf) / r.n_test - r.accuracy) > 1e-12:
            bad.append(f"{r.factor}/{r.method}/{r.snr_db:g}")
    return _check("sweep.confusion_matches_accuracy", not bad, ", ".join(bad) or "all rows")


def check_csv(rows, csv_path) -> Check:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        parsed = {(line["factor"], line["method"], float(line["snr_db"])): float(line["accuracy"])
                  for line in csv.DictReader(fh)}
    want = {(r.factor, r.method, r.snr_db): r.accuracy for r in rows}
    ok = set(parsed) == set(want) and all(abs(parsed[k] - want[k]) <= 5e-7 for k in want)
    return _check("sweep.csv_agrees_with_rows", ok, f"{len(parsed)} csv lines, {len(want)} rows")


def check_resume(rows_computed: int, reports_before: dict, reports_after: dict,
                 rows_before, rows_after) -> Check:
    key = lambda r: (r.factor, r.method, r.snr_db)  # noqa: E731
    ok = (rows_computed == 0 and reports_before == reports_after
          and sorted(map(key, rows_before)) == sorted(map(key, rows_after)))
    return _check("sweep.resume_recomputes_nothing", ok,
                  f"{rows_computed} rows recomputed, reports "
                  f"{'identical' if reports_before == reports_after else 'differ'}")


def check_projection_recount(rows, recount: dict) -> Check:
    """recount: (factor, snr) -> confusion counted by calling the baseline directly."""
    bad = [f"{r.factor}/{r.snr_db:g}" for r in rows
           if not np.array_equal(np.asarray(r.confusion), recount.get((r.factor, r.snr_db)))]
    return _check("sweep.projection_rows_match_recount", not bad and bool(recount),
                  ", ".join(bad) or f"{len(recount)} rows recounted")
