"""Classical comparison method: projection subtractive clustering.

The received constellation is projected on the I and Q axes, the number of
cluster centres per axis is estimated with Chiu's subtractive clustering
(range-relative radii), the known near-user level pattern is divided out
and the remaining per-axis level counts are matched to the closest far-user
modulation signature.

Clustering n points costs O(n^2) time but only a fixed ~1 MB block of working
memory: the potentials are summed a block of whole rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sigsim import ModScheme, SignalFrame, axis_levels

__all__ = ["ClusterParams", "subtractive_cluster_count", "projection_classify",
           "axis_level_counts"]


@dataclass(frozen=True)
class ClusterParams:
    """Chiu subtractive clustering radius, a fraction of the data range."""

    neighborhood_radius: float = 0.06  # fine enough to resolve 8 x the near levels per axis

    def __post_init__(self):
        if not 0.0 < self.neighborhood_radius < 1.0:
            raise ValueError("neighborhood_radius must lie in (0, 1)")


# Chiu's remaining constants: squash radius r_b = _SQUASH_FACTOR * r_a, the
# accept and reject potential ratios, and a cap on the centre count.
_SQUASH_FACTOR = 1.5
_ACCEPT_RATIO = 0.5
_REJECT_RATIO = 0.15
_MAX_CENTERS = 64


# Working block of the potentials: 2**17 float64 (1 MB, stays in L2 cache).
_BLOCK_ELEMENTS = 1 << 17


def _potentials(x: np.ndarray, alpha: float) -> np.ndarray:
    """sum_j exp(-alpha * (x_i - x_j)^2) for each i, a block of whole rows at a time."""
    n = x.size
    rows = max(1, _BLOCK_ELEMENTS // n)
    block = np.empty((min(rows, n), n))
    potential = np.empty(n)
    for start in range(0, n, rows):
        b = block[:min(rows, n - start)]
        np.subtract(x[start:start + len(b), None], x, out=b)
        np.square(b, out=b)
        b *= -alpha
        np.exp(b, out=b)
        b.sum(axis=1, out=potential[start:start + len(b)])
    return potential


def subtractive_cluster_count(points, params: ClusterParams = ClusterParams()) -> int:
    """Number of cluster centres in a 1-D point set.

    Potentials use exp(-||p_i - p_j||^2 / (r_a/2)^2) on range-normalised
    points; after each accepted centre the squash term with radius
    r_b = _SQUASH_FACTOR * r_a is subtracted. Candidates between the accept
    and reject ratios are kept only if they are far enough from existing
    centres (Chiu's grey-zone rule).

    Cost: O(n^2) time, a fixed ~1 MB block plus O(n) memory. The block keeps
    whole rows, so each potential is the same full-row sum as in the n x n
    form, bit for bit; splitting rows or exploiting symmetry would reorder it.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    if pts.size < 2:
        raise ValueError("need at least 2 points to cluster")
    span = pts.max() - pts.min()
    if span == 0.0:
        return 1
    x = (pts - pts.min()) / span
    ra = params.neighborhood_radius
    rb = _SQUASH_FACTOR * ra
    alpha = 4.0 / ra ** 2
    beta = 4.0 / rb ** 2
    potential = _potentials(x, alpha)

    first_potential = potential.max()
    centers: list[float] = []
    while len(centers) < _MAX_CENTERS:
        k = int(np.argmax(potential))
        p_star = potential[k]
        if not np.isfinite(p_star):
            break
        if centers and p_star <= _REJECT_RATIO * first_potential:
            break
        accept = not centers or p_star > _ACCEPT_RATIO * first_potential
        if not accept:
            d_min = min(abs(x[k] - c) for c in centers)
            if d_min / ra + p_star / first_potential >= 1.0:
                accept = True
            else:
                potential[k] = -np.inf  # rejected for good: -inf minus a squash stays -inf
                continue
        centers.append(float(x[k]))
        potential = potential - p_star * np.exp(-beta * (x - x[k]) ** 2)
    return len(centers)


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
    near_i = near_q = 1
    for scheme in near_schemes:
        si, sq = _AXIS_SIGNATURE[scheme]
        near_i *= si
        near_q *= sq
    resid_i = max(1.0, count_i / near_i)
    resid_q = max(1.0, count_q / near_q)
    best_scheme = None
    best_score = None
    for scheme, (sig_i, sig_q) in _AXIS_SIGNATURE.items():
        score = abs(np.log2(resid_i) - np.log2(sig_i)) + \
                abs(np.log2(resid_q) - np.log2(sig_q))
        if best_score is None or score < best_score:
            best_score = score
            best_scheme = scheme
    return best_scheme
