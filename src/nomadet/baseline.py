"""Classical comparison method: projection subtractive clustering.

The received constellation is projected on the I and Q axes, the number of
cluster centres per axis is estimated with Chiu's subtractive clustering
(range-relative radii), the known near-user level pattern is divided out
and the remaining per-axis level counts are matched to the closest far-user
modulation signature.

Clustering n points costs O(n + G log G) time and O(n + G) memory for the
potentials, which are binned on G = 512 / r_a grid nodes instead of summed
over all n^2 pairs, and O(n) time per accepted centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sigsim import ModScheme, SignalFrame, axis_levels

__all__ = ["ClusterParams", "subtractive_cluster_count", "projection_classify",
           "axis_level_counts"]


@dataclass(frozen=True)
class ClusterParams:
    """Chiu subtractive clustering radius, a fraction of the data range."""

    neighborhood_radius: float = 0.06  # fine enough to resolve 8 x the near levels per axis

    def __post_init__(self):
        if not 0.001 <= self.neighborhood_radius < 1.0:  # finer radii need > 5e5 grid nodes
            raise ValueError("neighborhood_radius must lie in [0.001, 1)")


# Chiu's remaining constants: squash radius r_b = _SQUASH_FACTOR * r_a, the
# accept and reject potential ratios, and a cap on the centre count.
_SQUASH_FACTOR = 1.5
_ACCEPT_RATIO = 0.5
_REJECT_RATIO = 0.15
_MAX_CENTERS = 64


# The potentials' grid has _NODES_PER_RADIUS nodes per r_a, so on it the
# kernel, exp(-4 (d / _NODES_PER_RADIUS)^2) at d nodes, is the same for every
# radius and below 1e-17 beyond _KERNEL_REACH nodes.
_NODES_PER_RADIUS = 512
_KERNEL_REACH = math.ceil(_NODES_PER_RADIUS * math.sqrt(17 * math.log(10) / 4))


def _fft_size(length: int) -> int:
    """The smallest 2^a, 3 * 2^a or 5 * 2^a that is at least ``length``."""
    return min(f << (-(-length // f) - 1).bit_length() for f in (1, 3, 5))


@lru_cache(maxsize=16)
def _kernel_spectrum(size: int) -> np.ndarray:
    """Read-only rfft of the grid kernel at FFT size ``size``, the Gaussian's
    Fourier transform: its aliases and wrapped taps are < 1e-17."""
    freq = np.arange(size // 2 + 1) * (math.pi * _NODES_PER_RADIUS / (2 * size))
    spectrum = math.sqrt(math.pi) * _NODES_PER_RADIUS / 2 * np.exp(-freq ** 2)
    spectrum.flags.writeable = False
    return spectrum


def _potentials(x: np.ndarray, alpha: float) -> np.ndarray:
    """sum_j exp(-alpha * (x_i - x_j)^2) for x in [0, 1]: points spread linearly
    over the grid nodes, convolved with the kernel by a real FFT padded by its
    reach, and read back by linear interpolation."""
    u = x * (_NODES_PER_RADIUS * math.sqrt(alpha) / 2.0)  # in nodes: sqrt(alpha) / 2 = 1 / r_a
    left = u.astype(np.int64)
    frac = u - left
    nodes = int(u.max()) + 2
    weights = np.bincount(left, 1.0 - frac, nodes) + np.bincount(left + 1, frac, nodes)
    size = _fft_size(nodes + _KERNEL_REACH)
    field = np.fft.irfft(np.fft.rfft(weights, size) * _kernel_spectrum(size), size)
    return (1.0 - frac) * field[left] + frac * field[left + 1]


def subtractive_cluster_count(points, params: ClusterParams = ClusterParams()) -> int:
    """Number of cluster centres in a 1-D point set.

    Potentials use exp(-||p_i - p_j||^2 / (r_a/2)^2) on range-normalised
    points; after each accepted centre the squash term with radius
    r_b = _SQUASH_FACTOR * r_a is subtracted. While the highest live potential
    lies between the reject and accept ratios of the first (Chiu's grey
    zone), the next centre is the highest-ranked live point (ties to the
    lowest index) above the reject ratio with d_min / r_a + potential / first
    >= 1, d_min its distance to the nearest centre; the live points ranked
    above it are rejected for good, and clustering ends if none qualifies.

    Cost: O(n + G log G) time and O(n + G) memory for the potentials, whose
    G = _NODES_PER_RADIUS / r_a grid nodes and the kernel's reach are
    convolved by an FFT of the smallest size 2^a, 3 * 2^a or 5 * 2^a that
    holds them, then O(n) time per accepted centre. Binning moves each
    pair's kernel value by at most 2 / _NODES_PER_RADIUS^2 (< 1e-5), so each
    potential by at most n times that.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    if pts.size < 2:
        raise ValueError("need at least 2 points to cluster")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (NaN or inf found)")
    lo, hi = float(pts.min()), float(pts.max())
    if hi - lo == math.inf:  # the range overflows float64; halving is exact and keeps x
        pts, lo, hi = pts * 0.5, lo * 0.5, hi * 0.5
    if hi == lo:
        return 1
    x = (pts - lo) / (hi - lo)
    ra = params.neighborhood_radius
    rb = _SQUASH_FACTOR * ra
    alpha = 4.0 / ra ** 2
    beta = 4.0 / rb ** 2
    potential = _potentials(x, alpha)

    first_potential = potential.max()
    dist = np.full(x.size, np.inf)  # each point's distance to its nearest centre
    for count in range(_MAX_CENTERS):
        k = int(np.argmax(potential))
        p_star = potential[k]
        if not p_star > _REJECT_RATIO * first_potential:  # -inf: all rejected
            return count
        if p_star <= _ACCEPT_RATIO * first_potential:  # the grey zone
            passes = ((potential > _REJECT_RATIO * first_potential)
                      & (dist / ra + potential / first_potential >= 1.0))
            k = int(np.argmax(np.where(passes, potential, -np.inf)))
            if not passes[k]:
                return count
            p_star = potential[k]
            rejected = potential > p_star
            rejected[:k] |= potential[:k] == p_star  # ties rank by index
            potential[rejected] = -np.inf  # -inf minus a squash stays -inf
        diff = x - x[k]
        np.minimum(dist, np.abs(diff), out=dist)
        potential -= p_star * np.exp(-beta * diff ** 2)
    return _MAX_CENTERS


# Per-axis level counts (I, Q) after folding odd-index samples back by -pi/2.
# The fold maps pi/2-BPSK onto a plain 2-level BPSK on the I axis while
# leaving the square constellations' level sets unchanged.
_AXIS_SIGNATURE = {scheme: tuple(len(levels) for levels in axis_levels(scheme))
                   for scheme in ModScheme}


def axis_level_counts(frame: SignalFrame) -> tuple[int, int]:
    """Cluster-centre counts on the folded I and Q projections."""
    folded = frame.samples.copy()
    folded[1::2] *= -1.0j
    return subtractive_cluster_count(folded.real), subtractive_cluster_count(folded.imag)


def projection_classify(frame: SignalFrame,
                        alloc=None,
                        near_schemes=()) -> ModScheme:
    """Far-user scheme from per-axis cluster counts.

    The joint per-axis level count is (near levels) x (far levels); dividing
    by the known near pattern leaves the far signature: (2,1) pi/2-BPSK,
    (2,2) QPSK, (4,4) QAM16, (8,8) QAM64. Ambiguous counts fall back to the
    nearest admissible signature in log space. Total function: any frame
    yields some scheme.
    """
    count_i, count_q = axis_level_counts(frame)
    resid_i = max(1.0, count_i / math.prod(_AXIS_SIGNATURE[s][0] for s in near_schemes))
    resid_q = max(1.0, count_q / math.prod(_AXIS_SIGNATURE[s][1] for s in near_schemes))

    def mismatch(scheme):
        sig_i, sig_q = _AXIS_SIGNATURE[scheme]
        return abs(np.log2(resid_i) - np.log2(sig_i)) + abs(np.log2(resid_q) - np.log2(sig_q))
    return min(_AXIS_SIGNATURE, key=mismatch)
