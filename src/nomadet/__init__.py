"""Blind modulation detection for downlink NOMA signals.

Pipeline: simulate the superposed two-user (or multi-user) signal, wavelet
denoise it, render a joint constellation density diagram, and classify the
far user's modulation scheme with a small residual CNN. A subtractive
clustering projection classifier serves as the classical baseline. Each
stage is imported from its module, such as ``nomadet.sigsim``.
"""

# not a second import path: the benchmark's tracer (perfbench/spans.py)
# patches these two stages on the package as well as on their modules
from .sigsim import generate_noma_frame  # noqa: F401
from .wavelet import denoise_frame  # noqa: F401

__version__ = "0.1.0"
