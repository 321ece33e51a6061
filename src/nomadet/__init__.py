"""Blind modulation detection for downlink NOMA signals.

Pipeline: simulate the superposed two-user (or multi-user) signal, wavelet
denoise it, render a joint constellation density diagram, and classify the
far user's modulation scheme with a small residual CNN. A subtractive
clustering projection classifier serves as the classical baseline.
"""

from .sigsim import (
    ModScheme,
    SignalFrame,
    PowerAllocation,
    ChannelConfig,
    NomaScenario,
    modulate,
    fractional_power_allocation,
    superpose,
    apply_channel,
    generate_noma_frame,
    resolve_allocation,
)
from .wavelet import (
    WaveletSpec,
    WaveletCoeffs,
    dwt_multilevel,
    idwt_multilevel,
    soft_threshold,
    heursure_threshold,
    denoise_frame,
)

__version__ = "0.1.0"
