"""Joint constellation density diagrams.

A frame's samples are binned on an N x N grid spanning the data's own
real/imaginary range, and the counts are min-max normalised to [0, 1].
Because the grid follows the data range, diagrams are invariant to
translation and positive rescaling of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sigsim import SignalFrame

__all__ = ["DensityDiagram", "density_counts", "density_diagram", "write_pgm"]

DEFAULT_GRID = 100


@dataclass(frozen=True)
class DensityDiagram:
    """N x N float32 grayscale matrix with entries in [0, 1] plus provenance."""

    grid: np.ndarray
    snr_db: float | None = None
    seed: int | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float32)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be a square matrix")
        object.__setattr__(self, "grid", grid)

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]


def _bin_indices(values: np.ndarray, n_bins: int) -> np.ndarray:
    lo = values.min()
    span = values.max() - lo
    if span == 0.0:
        return np.zeros(values.size, dtype=np.intp)
    idx = np.floor((values - lo) / span * n_bins).astype(np.intp)
    return np.clip(idx, 0, n_bins - 1)


def density_counts(frame: SignalFrame, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Raw per-cell sample counts (real part -> rows, imaginary -> columns)."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    s = frame.samples
    if s.size < 1:
        raise ValueError("cannot bin an empty frame")
    rows = _bin_indices(s.real, grid_size)
    cols = _bin_indices(s.imag, grid_size)
    counts = np.zeros((grid_size, grid_size), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


def density_diagram(frame: SignalFrame, grid_size: int = DEFAULT_GRID,
                    snr_db: float | None = None, seed: int | None = None) -> DensityDiagram:
    """Min-max normalised density diagram of a frame.

    Degenerate inputs (a frame of identical samples, or a uniform count
    matrix) produce the all-zero diagram so no caller ever divides by zero.
    """
    s = frame.samples
    meta = dict(snr_db=snr_db, seed=seed)
    if np.all(s == s[0]):
        return DensityDiagram(np.zeros((grid_size, grid_size)), **meta)
    counts = density_counts(frame, grid_size)
    lo, hi = counts.min(), counts.max()
    if hi == lo:
        return DensityDiagram(np.zeros((grid_size, grid_size)), **meta)
    grid = (counts - lo) / float(hi - lo)
    return DensityDiagram(grid, **meta)


def write_pgm(diagram: DensityDiagram, path) -> None:
    """Dump a diagram as a binary 8-bit PGM image (row major).

    Pixels are rint(255 * grid) computed in float64; float32 arithmetic
    rounds about 0.1% of grid values k/m to a different pixel.
    """
    g = np.clip(np.rint(diagram.grid.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(g.tobytes(order="C"))
