"""Joint constellation density diagrams.

A frame's samples are binned on an N x N grid spanning the data's own
real/imaginary range, and the counts are min-max normalised to [0, 1].
Because the grid follows the data range, diagrams are invariant to
translation and positive rescaling of the samples.

``density_grids`` bins a (B, n) matrix of equal-length frames with one
bincount over B*N*N cells; ``density_counts`` and ``density_diagram`` are its
one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sigsim import SignalFrame

__all__ = ["DensityDiagram", "density_counts", "density_diagram", "density_grids", "write_pgm"]

@dataclass(frozen=True)
class DensityDiagram:
    """N x N float32 grayscale matrix with entries in [0, 1]."""

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float32)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be a square matrix")
        object.__setattr__(self, "grid", grid)

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]


def _bin_indices(values: np.ndarray, n_bins: int):
    """Each row's bin of each value, over n_bins equal bins spanning the row's
    range, and whether each row's values are all equal (they fall in bin 0)."""
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    constant = span == 0.0
    span[constant] = 1.0  # such a row less its lo is all 0
    idx = values - lo
    idx /= span
    idx *= n_bins
    # finite values less their row's lo are nonnegative: truncation floors
    # them, and only a row's largest values need clipping into the last bin
    return np.minimum(idx.astype(np.intp), n_bins - 1), constant[:, 0]


def _counts(samples: np.ndarray, grid_size: int):
    """(B, N, N) per-cell counts of the (B, n) sample rows, binned by one
    bincount, and whether each row's samples are all equal."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if samples.shape[1] < 1:
        raise ValueError("cannot bin an empty frame")
    cells = grid_size * grid_size
    flat, real_constant = _bin_indices(samples.real, grid_size)
    cols, imag_constant = _bin_indices(samples.imag, grid_size)
    flat *= grid_size
    flat += cols
    flat += cells * np.arange(len(samples))[:, None]
    counts = np.bincount(flat.reshape(-1), minlength=cells * len(samples))
    return counts.reshape(-1, grid_size, grid_size), real_constant & imag_constant


def density_grids(samples: np.ndarray, grid_size: int) -> np.ndarray:
    """(B, N, N) float32 min-max normalised diagrams of the (B, n) complex
    sample rows, one per frame.

    A frame of identical samples, or one whose counts are uniform, gets the
    all-zero diagram, so no caller ever divides by zero.
    """
    counts, constant = _counts(samples, grid_size)
    lo = counts.min(axis=(1, 2), keepdims=True)
    span = counts.max(axis=(1, 2), keepdims=True) - lo
    counts -= lo
    # float64 quotients rounded once to float32; a flat row divides by inf
    grids = np.empty(counts.shape, dtype=np.float32)
    np.divide(counts, np.where(constant[:, None, None] | (span == 0), np.inf, span),
              out=grids, casting="unsafe")
    return grids


def density_counts(frame: SignalFrame, grid_size: int) -> np.ndarray:
    """Raw per-cell sample counts (real part -> rows, imaginary -> columns)."""
    return _counts(frame.samples[None], grid_size)[0][0]


def density_diagram(frame: SignalFrame, grid_size: int) -> DensityDiagram:
    """Min-max normalised density diagram of a frame: one row of
    :func:`density_grids`."""
    return DensityDiagram(density_grids(frame.samples[None], grid_size)[0])


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
