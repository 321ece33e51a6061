"""Multilevel periodized orthogonal wavelet transform and denoising.

The decomposition uses a circular (periodized) filter bank so that the
analysis matrix is exactly orthogonal: energy is preserved and the inverse
is the transpose. Signals whose length is not a multiple of 2**level are
zero padded and trimmed back after reconstruction.

Denoising splits a complex frame into real and imaginary parts, soft
thresholds the detail coefficients per level with the heursure rule and
reconstructs from the untouched approximation plus the shrunk details.
``denoise_frames`` takes equal-length frames as one (2*B, n) matrix, one row
per real or imaginary part, in chunks of about ``_CHUNK_BYTES`` of rows so
that each chunk's steps run from cache. ``denoise_frame`` is its one-frame
case, and ``dwt_multilevel`` and ``idwt_multilevel`` run the same row
transforms on one row.

Each step is O(n * taps) work per row. Analysis copies a row's circular
windows, the samples (2k + m) % n under window k, into one C-contiguous
(n/2, taps) block and takes one matrix-vector product per filter, so BLAS
sees the same operands whatever the batch. Synthesis is its transpose:
output j sums the terms lo[m]*approx[k] + hi[m]*detail[k] with
2k + m = j (mod n), from +0.0 in ascending k*taps + m, the order in which an
``np.add.at`` scatter adds them, so each output is bit-identical to the
scatter's, signed zeros included. Output 2i + p with i >= taps/2 - 1 takes
its terms in descending q = (m - p) / 2; both parities of every row are
summed at once, in taps/2 shifted-slice multiply-adds along the rows laid
end to end. The first taps/2 - 1 outputs of each parity, whose windows wrap
around, sum their terms in the order of a cached table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sigsim import SignalFrame

__all__ = [
    "WaveletSpec",
    "WaveletCoeffs",
    "dwt_multilevel",
    "idwt_multilevel",
    "soft_threshold",
    "sure_threshold",
    "universal_threshold",
    "heursure_threshold",
    "estimate_sigma",
    "denoise_frame",
    "denoise_frames",
    "SYM8_DEC_LO",
]

# sym8 analysis low-pass filter (16 taps, orthonormal scaling): sum = sqrt(2),
# unit energy, double-shift orthogonal, 8 vanishing moments. Values taken from
# a reference wavelet toolbox and re-validated at import time below.
SYM8_DEC_LO = np.array([
    -0.0033824159510061256, -0.00054213233179114812, 0.031695087811492981,
    0.0076074873249176054, -0.14329423835080971, -0.061273359067658524,
    0.48135965125837221, 0.77718575170052351, 0.3644418948353314,
    -0.051945838107709037, -0.027219029917056003, 0.049137179673607506,
    0.0038087520138906151, -0.014952258337048231, -0.00030292051472413308,
    0.0018899503327594609,
])

_MAD_TO_SIGMA = 0.6745  # median(|N(0,1)|)


def _validate_filter(h: np.ndarray, tol: float = 1e-10) -> None:
    if abs(h.sum() - np.sqrt(2.0)) > tol:
        raise ValueError("low-pass filter does not sum to sqrt(2)")
    if abs((h * h).sum() - 1.0) > tol:
        raise ValueError("low-pass filter does not have unit energy")
    for k in range(1, h.size // 2):
        if abs(np.dot(h[: -2 * k], h[2 * k:])) > tol:
            raise ValueError(f"filter fails double-shift orthogonality at k={k}")


def _qmf(h: np.ndarray) -> np.ndarray:
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


_validate_filter(SYM8_DEC_LO)
_SYM8_DEC_HI = _qmf(SYM8_DEC_LO)
# [p, q] = tap 2q + p, the taps that reach synthesis outputs of parity p
_LO_PQ = SYM8_DEC_LO.reshape(-1, 2).T.copy()
_HI_PQ = _SYM8_DEC_HI.reshape(-1, 2).T.copy()

# denoise_frames takes frames in chunks of about this many bytes of rows, so
# that each chunk's steps run from cache
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class WaveletSpec:
    """Decomposition depth of the sym8 transform."""

    level: int = 2

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("decomposition level must be >= 1")


@dataclass(frozen=True)
class WaveletCoeffs:
    """Coefficients of a multilevel decomposition.

    ``details`` is ordered coarsest first, finest last; ``original_length``
    is the pre-padding signal length needed to undo the transform.
    """

    approx: np.ndarray
    details: tuple
    original_length: int

    @property
    def level(self) -> int:
        return len(self.details)

    def energy(self) -> float:
        total = float(np.dot(self.approx, self.approx))
        for d in self.details:
            total += float(np.dot(d, d))
        return total


def _padded_length(n: int, level: int) -> int:
    block = 1 << level
    return ((n + block - 1) // block) * block


@lru_cache(maxsize=64)
def _analysis_index(n: int, taps: int) -> np.ndarray:
    """Read-only (n/2, taps) table of (2k + m) % n: the samples under each
    circular analysis window of a length-n signal."""
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)) % n
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=64)
def _wrap_terms(half_n: int, taps: int) -> tuple:
    """Read-only (w, taps/2) tables k and q of the terms of the synthesis
    outputs 2i + p, i < w = min(taps/2 - 1, half_n), whose windows wrap
    around: term lo[2q + p]*approx[k] + hi[2q + p]*detail[k] with
    k = (i - q) % half_n, in ascending k*taps + 2q + p."""
    half = taps // 2
    q = np.broadcast_to(np.arange(half), (min(half - 1, half_n), half))
    k = (np.arange(q.shape[0])[:, None] - q) % half_n
    order = np.argsort(k * half + q, axis=1, kind="stable")
    k, q = np.take_along_axis(k, order, 1), np.take_along_axis(q, order, 1)
    k.flags.writeable = q.flags.writeable = False
    return k, q


def _analysis(x: np.ndarray):
    """Approximation and detail rows of one analysis step on the rows of the
    C-contiguous x."""
    rows, n = x.shape
    taps, half_n = SYM8_DEC_LO.size, n // 2
    inner = max(half_n - taps // 2 + 1, 0)  # windows that do not wrap around
    flat = np.ndarray((rows, inner, taps), x.dtype, x, 0,
                      (x.strides[0], 2 * x.itemsize, x.itemsize))
    wrapped = x[:, _analysis_index(n, taps)[inner:]]
    windows = np.empty((half_n, taps))
    approx, detail = np.empty((rows, half_n)), np.empty((rows, half_n))
    for r in range(rows):
        windows[:inner] = flat[r]
        windows[inner:] = wrapped[r]
        np.matmul(windows, SYM8_DEC_LO, out=approx[r])
        np.matmul(windows, _SYM8_DEC_HI, out=detail[r])
    return approx, detail


def _synthesis(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """The (rows, 2 * half_n) rows that the (rows, half_n) approx and detail
    rows synthesise, each output summed as the module docstring says."""
    rows, half_n = approx.shape
    half = _LO_PQ.shape[1]
    out = np.empty((rows, half_n, 2))  # [row, i, p]: output 2i + p of a row
    # every output from the (half - 1)-th on, taking the rows as one flat
    # signal: a row's first half - 1 outputs then take terms from the row
    # before, and are overwritten with their wrapped sums below
    length = rows * half_n - half + 1
    if length > 0:
        a, d = approx.reshape(-1), detail.reshape(-1)
        acc, term, part = np.empty((3, 2, length))
        for q in range(half - 1, -1, -1):
            k = slice(half - 1 - q, half - 1 - q + length)
            np.multiply(a[None, k], _LO_PQ[:, q, None], out=term)
            np.multiply(d[None, k], _HI_PQ[:, q, None], out=part)
            if q == half - 1:
                np.add(term, part, out=acc)
            else:
                term += part
                acc += term
        # a sum started from +0.0 differs from one started from its first
        # term only where the latter is -0.0, which this turns into +0.0
        acc += 0.0
        out.reshape(-1, 2)[half - 1:] = acc.T
    k, q = _wrap_terms(half_n, 2 * half)
    terms = approx[:, None, k] * _LO_PQ[:, q] + detail[:, None, k] * _HI_PQ[:, q]
    out[:, :k.shape[0]] = (np.cumsum(terms, axis=-1)[..., -1] + 0.0).transpose(0, 2, 1)
    return out.reshape(rows, 2 * half_n)


def _decompose(x: np.ndarray, level: int):
    """Approximation rows and detail rows, finest first, of the rows of x."""
    details = []
    for _ in range(level):
        x, d = _analysis(x)
        details.append(d)
    return x, details


def _reconstruct(approx: np.ndarray, details) -> np.ndarray:
    """Rows synthesised from approximation rows and detail rows, coarsest first."""
    for d in details:
        approx = _synthesis(approx, d)
    return approx


def dwt_multilevel(x, spec: WaveletSpec) -> WaveletCoeffs:
    """Periodized analysis cascade down to ``spec.level``.

    The input is zero padded up to the next multiple of 2**level; padding is
    undone by :func:`idwt_multilevel`. Energy is preserved exactly.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size < SYM8_DEC_LO.size:
        raise ValueError(
            f"signal length {x.size} is below the filter length {SYM8_DEC_LO.size}"
        )
    n0 = x.size
    padded = _padded_length(n0, spec.level)
    rows = np.zeros((1, padded))
    rows[0, :n0] = x
    approx, details = _decompose(rows, spec.level)
    return WaveletCoeffs(approx[0], tuple(d[0] for d in reversed(details)), n0)


def idwt_multilevel(coeffs: WaveletCoeffs, spec: WaveletSpec) -> np.ndarray:
    """Exact inverse of :func:`dwt_multilevel` (transpose of the cascade)."""
    if coeffs.level != spec.level:
        raise ValueError(
            f"coefficients hold {coeffs.level} levels but spec expects {spec.level}"
        )
    padded = _padded_length(coeffs.original_length, spec.level)
    size = coeffs.approx.size
    for depth, detail in enumerate(coeffs.details):
        expected = padded >> (spec.level - depth)
        if size != expected or detail.size != expected:
            raise ValueError(
                f"level {spec.level - depth} expects {expected} coefficients, "
                f"got approx {size} / detail {detail.size}"
            )
        size = 2 * expected
    rows = _reconstruct(np.asarray(coeffs.approx, dtype=np.float64)[None],
                        [np.asarray(d, dtype=np.float64)[None] for d in coeffs.details])
    return rows[0, :coeffs.original_length]


def soft_threshold(c, t) -> np.ndarray:
    """Shrink towards zero: sign(x) * max(|x| - t, 0), for a threshold or an
    array of thresholds that broadcasts against ``c``."""
    if np.any(np.less(t, 0)):
        raise ValueError("threshold must be nonnegative")
    c = np.asarray(c, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def universal_threshold(n: int, sigma: float) -> float:
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def _sure_rows(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Stein's-unbiased-risk-minimising threshold of each row of ``d``."""
    n = d.shape[1]
    y2 = np.sort((d / sigma[:, None]) ** 2, axis=1)
    csum = np.cumsum(y2, axis=1)
    ranks = np.arange(1, n + 1)
    risks = (n - 2.0 * ranks + csum + (n - ranks) * y2) / n
    best = np.argmin(risks, axis=1)
    return sigma * np.sqrt(y2[np.arange(len(d)), best])


def _heursure_rows(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Heuristic SURE threshold of each row of ``d`` for its row's noise
    scale: 0 for a row that is all zero or whose scale is not positive."""
    rows, n = d.shape
    t_unit = universal_threshold(n, 1.0)
    crit = np.log2(n) ** 1.5 / np.sqrt(n)
    nonzero = d.any(axis=1)
    t = np.zeros(rows)
    dense = []
    for r in range(rows):
        s = sigma[r]
        if s <= 0 or not nonzero[r]:
            continue
        t[r] = s * t_unit
        # s ** 2 of a scalar is libm's pow, which does not always round as
        # s * s, what ** 2 of an array computes
        if not (float(np.dot(d[r], d[r])) / s ** 2 - n) / n <= crit:
            dense.append(r)
    if dense:
        t_sure = _sure_rows(d[dense], sigma[dense])
        t[dense] = np.where(t[dense] < t_sure, t[dense], t_sure)
    return t


def sure_threshold(d, sigma: float) -> float:
    """Threshold minimising Stein's unbiased risk estimate for noise ``sigma``."""
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    if d.size < 2:
        raise ValueError("need at least 2 coefficients")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(_sure_rows(d[None], np.array([sigma], dtype=np.float64))[0])


def heursure_threshold(d, sigma: float) -> float:
    """Heuristic SURE threshold.

    Falls back to the universal threshold when the detail energy looks like
    pure noise (sparse signal); otherwise takes the smaller of the SURE and
    universal thresholds. Returns 0 for an all-zero input.
    """
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    if d.size < 2:
        raise ValueError("need at least 2 coefficients")
    if np.any(d) and sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(_heursure_rows(d[None], np.array([sigma], dtype=np.float64))[0])


def estimate_sigma(detail) -> float:
    """Noise scale from the median absolute deviation of detail coefficients."""
    detail = np.asarray(detail, dtype=np.float64)
    return float(np.median(np.abs(detail)) / _MAD_TO_SIGMA)


def denoise_frames(frames, spec: WaveletSpec | None = None) -> list:
    """Wavelet denoise equal-length complex frames, real and imaginary parts
    separately; returns one denoised frame per input frame, in order.

    When a frame records its complex noise standard deviation
    ``noise_scale`` (the simulation does), each axis uses noise_scale/sqrt(2).
    Without it the scale is estimated per axis from the finest detail
    coefficients via median(|d|)/0.6745. The same scale is reused for every
    level; approximation coefficients pass through unchanged. A frame of at
    most 2**level samples leaves one coarsest detail coefficient, too few to
    threshold, and is rejected up front with the level and the frame length.
    """
    spec = spec or WaveletSpec()
    frames = list(frames)
    if not frames:
        raise ValueError("no frames to denoise")
    n = frames[0].samples.size
    for frame in frames:
        if frame.samples.size != n:
            raise ValueError(f"frames to denoise together must share one length, "
                             f"got {n} and {frame.samples.size} samples")
    if n <= 1 << spec.level:
        raise ValueError(
            f"level {spec.level} leaves one coarsest detail coefficient for a "
            f"{n}-sample frame; thresholding needs at least 2"
        )
    padded = _padded_length(n, spec.level)
    step = max(1, _CHUNK_BYTES // (2 * padded * 8))
    out = []
    for start in range(0, len(frames), step):
        out += _denoise_chunk(frames[start:start + step], spec.level, padded)
    return out


def _denoise_chunk(frames: list, level: int, padded: int) -> list:
    n = frames[0].samples.size
    parts = np.zeros((len(frames), 2, padded))
    for b, frame in enumerate(frames):
        parts[b, 0, :n] = frame.samples.real
        parts[b, 1, :n] = frame.samples.imag
    approx, details = _decompose(parts.reshape(-1, padded), level)
    sigma = np.empty(2 * len(frames))
    for b, frame in enumerate(frames):
        if frame.noise_scale is None:
            sigma[2 * b:2 * b + 2] = [estimate_sigma(d) for d in details[0][2 * b:2 * b + 2]]
        else:
            sigma[2 * b:2 * b + 2] = frame.noise_scale / np.sqrt(2.0)
    shrunk = [soft_threshold(d, _heursure_rows(d, sigma)[:, None]) for d in reversed(details)]
    rows = _reconstruct(approx, shrunk).reshape(len(frames), 2, padded)
    samples = rows[:, 0, :n] + 1j * rows[:, 1, :n]
    return [SignalFrame(s, frame.noise_scale) for s, frame in zip(samples, frames)]


def denoise_frame(frame: SignalFrame, spec: WaveletSpec | None = None) -> SignalFrame:
    """One frame through :func:`denoise_frames`."""
    return denoise_frames([frame], spec)[0]
