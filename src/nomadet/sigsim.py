"""Baseband simulation of a downlink NOMA link.

Generates per-user symbol streams (pi/2-BPSK, QPSK, QAM16, QAM64), allocates
power with the fractional transmit power allocation rule, superposes the
streams into one NOMA signal and adds the near user terminal's AWGN,
drawing every random number from the ``np.random.Generator`` that the caller
passes as ``rng``. Power shares come from ``resolve_allocation`` alone, as a
float64 array with the far user last and strictly largest, so the near user
can cancel it first by SIC.

The channel is AWGN at a per-frame SNR, with no fading and no equaliser: a
frame's noise variance is its own superposed power, mean |clean|^2 over its
samples, divided by 10^(snr_db_near/10), and its ``noise_scale`` is exactly
the complex standard deviation of the noise that was added.

Every scheme is a product of I and Q alphabets, stated once in the table
``_AXES``: Gray-ordered integer I levels, Q levels and a normaliser giving
unit average energy. A bit group's I bits (first) and Q bits index the
levels and the symbol is ``(I + 1j*Q) / normaliser``; pi/2-BPSK is listed
unrotated (I = 1, -1; Q = 0) and its odd symbols are turned by pi/2, which
``fold_pi_half`` undoes. Bits per symbol, ``axis_levels`` and the
projection baseline's per-axis signatures derive from the table.

``generate_noma_frames`` simulates a batch of frames, one generator each,
in the pipeline's batch form: (B, n) complex sample rows and their (B,)
float64 noise scales, B set by the caller. Frame b draws from its own
generator, in this order: each user's bits, near users first and the far
user last, then its noise. Modulation, superposition and noise scaling then
run once over the (B, n) matrix. ``generate_noma_frame`` is its one-row
case, and ``modulate``, ``superpose`` and ``apply_channel`` run the same row
arithmetic on one frame, so replaying a seed's draws through them rebuilds
its frame byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import checked_int

__all__ = [
    "ModScheme",
    "SignalFrame",
    "NomaScenario",
    "modulate",
    "axis_levels",
    "fold_pi_half",
    "superpose",
    "apply_channel",
    "generate_noma_frame",
    "generate_noma_frames",
    "resolve_allocation",
]

# SNR gap between successive near users on the allocation ladder
NEAR_STEP_DB = 2.0


class ModScheme(str, Enum):
    """Modulation schemes supported for both near and far user terminals.

    A str subclass, so JSON writes a scheme as its value.
    """

    PI_HALF_BPSK = "pi2bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"

    @property
    def bits_per_symbol(self) -> int:
        i_levels, q_levels, _ = _AXES[self]
        return (i_levels.size * q_levels.size).bit_length() - 1

    @classmethod
    def from_name(cls, name: str) -> "ModScheme":
        key = (name.strip().lower().replace("/", "").replace("-", "").replace("_", "")
               if isinstance(name, str) else None)
        if key not in _SCHEME_NAMES:
            raise ValueError(f"unknown modulation scheme {name!r}")
        return _SCHEME_NAMES[key]


_SCHEME_NAMES = {**{scheme.value: scheme for scheme in ModScheme},
                 "pihalfbpsk": ModScheme.PI_HALF_BPSK, "bpsk": ModScheme.PI_HALF_BPSK,
                 "16qam": ModScheme.QAM16, "64qam": ModScheme.QAM64}

# scheme -> (I levels, Q levels, normaliser); a level's index is the integer
# value of its axis's bit group
_AXES = {
    ModScheme.PI_HALF_BPSK: (np.array([1.0, -1.0]), np.array([0.0]), 1.0),
    ModScheme.QPSK: (np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.sqrt(2.0)),
    ModScheme.QAM16: (np.array([-3.0, -1.0, 3.0, 1.0]),
                      np.array([-3.0, -1.0, 3.0, 1.0]), np.sqrt(10.0)),
    ModScheme.QAM64: (np.array([-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0]),
                      np.array([-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0]),
                      np.sqrt(42.0)),
}


def _points(scheme: ModScheme) -> np.ndarray:
    """A scheme's points in I-major order, read-only: I bits come first, so a
    bit group's integer value indexes them."""
    i_levels, q_levels, norm = _AXES[scheme]
    points = ((i_levels[:, None] + 1j * q_levels) / norm).reshape(-1)
    points.flags.writeable = False
    return points


_POINTS = {scheme: _points(scheme) for scheme in ModScheme}


@dataclass(frozen=True)
class SignalFrame:
    """A frame of complex baseband samples, one sample per transmitted symbol.

    ``noise_scale`` is the standard deviation of the added noise (complex,
    total over both axes), which denoising requires. Only ``modulate`` and
    ``superpose`` leave it None.
    """

    samples: np.ndarray
    noise_scale: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("SignalFrame needs a nonempty 1-D sample vector")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


def axis_levels(scheme: ModScheme) -> tuple[np.ndarray, np.ndarray]:
    """Normalised I and Q levels of a scheme, in Gray order.

    Every constellation point is one I level plus 1j times one Q level; for
    pi/2-BPSK these are the even-symbol (unrotated) levels.
    """
    i_levels, q_levels, norm = _AXES[scheme]
    return i_levels / norm, q_levels / norm


def fold_pi_half(samples) -> np.ndarray:
    """A copy of (..., n) complex sample rows with every odd-index sample turned by
    -pi/2: pi/2-BPSK becomes BPSK on I, and a square scheme keeps its level sets."""
    folded = np.array(samples, dtype=complex)
    folded[..., 1::2] *= -1.0j
    return folded


def modulate(bits, scheme: ModScheme) -> SignalFrame:
    """Map a bit sequence to one complex symbol per bits-per-symbol group.

    Each group's I bits (first) and Q bits index the scheme's Gray-ordered
    axis levels. pi/2-BPSK alternates the BPSK axis: even-index symbols stay
    on the real axis, odd-index symbols are rotated by pi/2.
    """
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if np.any(bits > 1):
        raise ValueError("bits must be 0/1 valued")
    bps = scheme.bits_per_symbol
    if bits.size == 0 or bits.size % bps != 0:
        raise ValueError(
            f"bit count {bits.size} is not a positive multiple of {bps} "
            f"required by {scheme.name}"
        )
    return SignalFrame(_symbols(bits[None], scheme)[0])


def _symbols(bits: np.ndarray, scheme: ModScheme) -> np.ndarray:
    """(B, n) symbols of the (B, n * bits-per-symbol) 0/1 uint8 bit rows."""
    bps = scheme.bits_per_symbol
    # each group's integer value, its first bit most significant
    groups = bits.reshape(len(bits), -1, bps)
    index = groups[:, :, 0].copy()
    for b in range(1, bps):
        index <<= 1
        index |= groups[:, :, b]
    symbols = np.take(_POINTS[scheme], index)
    if scheme is ModScheme.PI_HALF_BPSK:
        symbols[:, 1::2] *= 1j
    return symbols


def superpose(streams, ratios: np.ndarray) -> SignalFrame:
    """Sum per-user streams, each weighted by the square root of its power ratio."""
    if len(streams) != len(ratios):
        raise ValueError(f"stream count {len(streams)} does not match ratio count {len(ratios)}")
    lengths = {len(s) for s in streams}
    if len(lengths) != 1:
        a, b = sorted(lengths)[:2]
        raise ValueError(f"stream lengths differ: {a} vs {b}")
    return SignalFrame(_superposed([s.samples for s in streams], ratios))


def _superposed(streams: list, ratios: np.ndarray) -> np.ndarray:
    """The sum of equal-shape symbol arrays, each weighted by sqrt(ratio)."""
    out = np.zeros(streams[0].shape, dtype=np.complex128)
    for stream, ratio in zip(streams, ratios):
        out += np.sqrt(ratio) * stream
    return out


def apply_channel(frame: SignalFrame, cfg: NomaScenario,
                  rng: np.random.Generator) -> SignalFrame:
    """``frame`` received over the AWGN channel of the scenario ``cfg``, at
    its ``snr_db_near``, as a new frame that records its noise scale."""
    samples, scales = _received(frame.samples[None], cfg, [rng])
    return SignalFrame(samples[0], float(scales[0]))


def _received(clean: np.ndarray, scenario: NomaScenario, rngs):
    """The received (B, n) rows of the superposed rows ``clean``, always a
    new array, and their (B,) noise scales. Row b draws its noise from
    ``rngs[b]``, ``snr_db_near`` below its own power."""
    if scenario.snr_db_near == np.inf:
        return clean.copy(), np.zeros(len(clean))
    noise = np.empty((2, *clean.shape))
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=noise[0, b])
        rng.standard_normal(out=noise[1, b])
    sigma2 = np.mean(np.abs(clean) ** 2, axis=1) / (10.0 ** (scenario.snr_db_near / 10.0))
    return (clean + np.sqrt(sigma2 / 2.0)[:, None] * (noise[0] + 1j * noise[1]),
            np.sqrt(sigma2))


@dataclass(frozen=True)
class NomaScenario:
    """Generative description of one NOMA transmission setup.

    Users are ordered near-first, far-last everywhere (schemes, gains,
    power ratios). Power follows fractional power allocation over the SNR
    ladder: near user j sits at ``snr_db_near - j*NEAR_STEP_DB`` and the far
    user at ``snr_db_near - delta_db``. ``snr_db_near`` also sets the near
    user's AWGN channel, which ``apply_channel`` applies.
    """

    near_schemes: tuple = (ModScheme.QPSK,)
    far_scheme: ModScheme = ModScheme.PI_HALF_BPSK
    snr_db_near: float = 16.0       # math.inf for no noise
    delta_db: float = 6.0
    alpha_fpc: float = 1.0
    symbols_per_frame: int = 2000
    samples_per_class: int = 250
    grid_size: int = 100
    seed: int = 0

    def __post_init__(self):
        near = tuple(map(ModScheme.from_name, self.near_schemes))
        if not 1 <= len(near) <= 3:
            raise ValueError("need 1 to 3 near user terminals")
        object.__setattr__(self, "near_schemes", near)
        object.__setattr__(self, "far_scheme", ModScheme.from_name(self.far_scheme))
        for name, least in (("symbols_per_frame", 1), ("samples_per_class", 1),
                            ("grid_size", 2), ("seed", None)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        if not (np.isfinite(self.snr_db_near) or self.snr_db_near == np.inf):
            raise ValueError(f"snr_db_near must be finite or inf, got {self.snr_db_near}")

    def channel_config(self) -> NomaScenario:
        """The scenario itself: it holds the channel ``apply_channel`` reads."""
        return self


def resolve_allocation(scenario: NomaScenario) -> np.ndarray:
    """Fractional power allocation over the scenario's SNR ladder: float64
    shares proportional to gain**(-alpha_fpc), summing to one, near users
    first; the far user, last, must hold the strictly largest share.

    The shares depend only on the near-user count, ``delta_db`` and
    ``alpha_fpc``; they are computed once per such triple and returned as
    one cached read-only array.
    """
    return _allocation(len(scenario.near_schemes), scenario.delta_db, scenario.alpha_fpc)


@lru_cache(maxsize=256)
def _allocation(near_users: int, delta_db: float, alpha: float) -> np.ndarray:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha_fpc must lie in (0, 1], got {alpha}")
    # gains relative to the near user: only their ratios matter
    offsets = [j * NEAR_STEP_DB for j in range(near_users)]
    offsets.append(delta_db)
    gains = np.array([10.0 ** (-off / 10.0) for off in offsets])
    # log-domain weights avoid overflow for extreme gain spreads; a far gain
    # that underflows to 0 makes every share NaN, which the check refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = -alpha * np.log(gains)
        logw -= logw.max()
    w = np.exp(logw)
    ratios = w / w.sum()
    # renormalise exactly so the shares sum to one within 1e-12
    ratios = ratios / ratios.sum()
    near, far = ratios[:-1], ratios[-1]
    if not np.all((near > 0.0) & (near < far)):
        raise ValueError("far user must hold the strictly largest power ratio and every near "
                         f"user a positive one; got {np.array2string(ratios, precision=4)}")
    ratios.flags.writeable = False
    return ratios


def generate_noma_frame(scenario: NomaScenario, rng: np.random.Generator) -> SignalFrame:
    """One frame: row 0 of :func:`generate_noma_frames` on one generator."""
    samples, scales = generate_noma_frames(scenario, [rng])
    return SignalFrame(samples[0], float(scales[0]))


def generate_noma_frames(scenario: NomaScenario, rngs) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n) complex sample rows and (B,) float64 noise scales of one
    received frame per generator in ``rngs``, in order: row b draws from
    ``rngs[b]`` alone, in the order the module docstring gives."""
    schemes = list(scenario.near_schemes) + [scenario.far_scheme]
    bits = [np.empty((len(rngs), scenario.symbols_per_frame * s.bits_per_symbol), np.uint8)
            for s in schemes]
    for b, rng in enumerate(rngs):
        for user in bits:
            user[b] = rng.integers(0, 2, size=user.shape[1], dtype=np.uint8)
    clean = _superposed([_symbols(user, s) for user, s in zip(bits, schemes)],
                        resolve_allocation(scenario))
    return _received(clean, scenario, rngs)
