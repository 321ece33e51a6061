"""Multilevel periodized orthogonal wavelet transform and denoising.

The decomposition uses a circular (periodized) filter bank so that the
analysis matrix is exactly orthogonal: energy is preserved and the inverse
is the transpose. Signals whose length is not a multiple of 2**level are
zero padded and trimmed back after reconstruction.

Denoising splits a complex frame into real and imaginary parts, soft
thresholds the detail coefficients per level with the heursure rule and
reconstructs from the untouched approximation plus the shrunk details.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class WaveletSpec:
    """Decomposition depth of the sym8 transform."""

    level: int = 2

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("decomposition level must be >= 1")

    @property
    def dec_lo(self) -> np.ndarray:
        return SYM8_DEC_LO

    @property
    def dec_hi(self) -> np.ndarray:
        return _SYM8_DEC_HI


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


def _analysis_index(n: int, taps: int) -> np.ndarray:
    k = np.arange(n // 2)[:, None]
    m = np.arange(taps)[None, :]
    return (2 * k + m) % n


def _dwt_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    idx = _analysis_index(x.size, lo.size)
    windows = x[idx]
    return windows @ lo, windows @ hi


def _idwt_step(approx: np.ndarray, detail: np.ndarray,
               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    n = 2 * approx.size
    idx = _analysis_index(n, lo.size)
    out = np.zeros(n)
    np.add.at(out, idx, approx[:, None] * lo[None, :] + detail[:, None] * hi[None, :])
    return out


def dwt_multilevel(x, spec: WaveletSpec) -> WaveletCoeffs:
    """Periodized analysis cascade down to ``spec.level``.

    The input is zero padded up to the next multiple of 2**level; padding is
    undone by :func:`idwt_multilevel`. Energy is preserved exactly.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    lo, hi = spec.dec_lo, spec.dec_hi
    if x.size < lo.size:
        raise ValueError(
            f"signal length {x.size} is below the filter length {lo.size}"
        )
    n0 = x.size
    padded = _padded_length(n0, spec.level)
    if padded != n0:
        x = np.concatenate([x, np.zeros(padded - n0)])
    details = []
    approx = x
    for _ in range(spec.level):
        approx, d = _dwt_step(approx, lo, hi)
        details.append(d)
    return WaveletCoeffs(approx, tuple(reversed(details)), n0)


def idwt_multilevel(coeffs: WaveletCoeffs, spec: WaveletSpec) -> np.ndarray:
    """Exact inverse of :func:`dwt_multilevel` (transpose of the cascade)."""
    lo, hi = spec.dec_lo, spec.dec_hi
    if coeffs.level != spec.level:
        raise ValueError(
            f"coefficients hold {coeffs.level} levels but spec expects {spec.level}"
        )
    padded = _padded_length(coeffs.original_length, spec.level)
    approx = coeffs.approx
    for depth, detail in enumerate(coeffs.details):
        expected = padded >> (spec.level - depth)
        if approx.size != expected or detail.size != expected:
            raise ValueError(
                f"level {spec.level - depth} expects {expected} coefficients, "
                f"got approx {approx.size} / detail {detail.size}"
            )
        approx = _idwt_step(approx, detail, lo, hi)
    return approx[: coeffs.original_length]


def soft_threshold(c, t: float) -> np.ndarray:
    """Shrink towards zero: sign(x) * max(|x| - t, 0)."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    c = np.asarray(c, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def universal_threshold(n: int, sigma: float) -> float:
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def sure_threshold(d, sigma: float) -> float:
    """Threshold minimising Stein's unbiased risk estimate for noise ``sigma``."""
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    n = d.size
    if n < 2:
        raise ValueError("need at least 2 coefficients")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y2 = np.sort((d / sigma) ** 2)
    csum = np.cumsum(y2)
    ranks = np.arange(1, n + 1)
    risks = (n - 2.0 * ranks + csum + (n - ranks) * y2) / n
    best = int(np.argmin(risks))
    return float(sigma * np.sqrt(y2[best]))


def heursure_threshold(d, sigma: float) -> float:
    """Heuristic SURE threshold.

    Falls back to the universal threshold when the detail energy looks like
    pure noise (sparse signal); otherwise takes the smaller of the SURE and
    universal thresholds. Returns 0 for an all-zero input.
    """
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    n = d.size
    if n < 2:
        raise ValueError("need at least 2 coefficients")
    if not np.any(d):
        return 0.0
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    t_univ = universal_threshold(n, sigma)
    sparsity = (float(np.dot(d, d)) / sigma ** 2 - n) / n
    crit = np.log2(n) ** 1.5 / np.sqrt(n)
    if sparsity <= crit:
        return t_univ
    return min(sure_threshold(d, sigma), t_univ)


def estimate_sigma(detail) -> float:
    """Noise scale from the median absolute deviation of detail coefficients."""
    detail = np.asarray(detail, dtype=np.float64)
    return float(np.median(np.abs(detail)) / _MAD_TO_SIGMA)


def _denoise_part(x: np.ndarray, spec: WaveletSpec, sigma: float | None) -> np.ndarray:
    coeffs = dwt_multilevel(x, spec)
    if sigma is None:
        sigma = estimate_sigma(coeffs.details[-1])
    new_details = tuple(
        soft_threshold(d, 0.0 if sigma <= 0 or not np.any(d) else heursure_threshold(d, sigma))
        for d in coeffs.details
    )
    return idwt_multilevel(
        WaveletCoeffs(coeffs.approx, new_details, coeffs.original_length), spec
    )


def denoise_frame(frame: SignalFrame, spec: WaveletSpec | None = None) -> SignalFrame:
    """Wavelet denoise a complex frame, real and imaginary parts separately.

    When the frame records its complex noise standard deviation
    ``noise_scale`` (the simulation does), each axis uses noise_scale/sqrt(2).
    Without it the scale is estimated per axis from the finest detail
    coefficients via median(|d|)/0.6745. The same scale is reused for every
    level; approximation coefficients pass through unchanged.
    """
    spec = spec or WaveletSpec()
    noise_scale = frame.noise_scale
    axis_sigma = None if noise_scale is None else noise_scale / np.sqrt(2.0)
    real = _denoise_part(frame.samples.real, spec, axis_sigma)
    imag = _denoise_part(frame.samples.imag, spec, axis_sigma)
    return frame.with_samples(real + 1j * imag)
