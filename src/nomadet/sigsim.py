"""Baseband simulation of a downlink NOMA link.

Generates per-user symbol streams (pi/2-BPSK, QPSK, QAM16, QAM64), allocates
power with the fractional transmit power allocation rule, superposes the
streams into one NOMA signal and runs it through a block-Rayleigh + AWGN
channel as seen by the near user terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "ModScheme",
    "SignalFrame",
    "PowerAllocation",
    "ChannelConfig",
    "NomaScenario",
    "modulate",
    "demodulate",
    "constellation",
    "fractional_power_allocation",
    "superpose",
    "apply_channel",
    "generate_noma_frame",
    "resolve_allocation",
]

RATIO_SUM_TOL = 1e-12


class ModScheme(Enum):
    """Modulation schemes supported for both near and far user terminals."""

    PI_HALF_BPSK = "pi2bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"

    @property
    def bits_per_symbol(self) -> int:
        return _BITS_PER_SYMBOL[self]

    @classmethod
    def from_name(cls, name: str) -> "ModScheme":
        key = name.strip().lower().replace("/", "").replace("-", "").replace("_", "")
        for scheme in cls:
            if scheme.value.replace("_", "") == key:
                return scheme
        aliases = {"pihalfbpsk": cls.PI_HALF_BPSK, "pi2bpsk": cls.PI_HALF_BPSK,
                   "bpsk": cls.PI_HALF_BPSK, "16qam": cls.QAM16, "64qam": cls.QAM64}
        if key in aliases:
            return aliases[key]
        raise ValueError(f"unknown modulation scheme {name!r}")


_BITS_PER_SYMBOL = {
    ModScheme.PI_HALF_BPSK: 1,
    ModScheme.QPSK: 2,
    ModScheme.QAM16: 4,
    ModScheme.QAM64: 6,
}

# Gray-coded PAM amplitudes, index = integer value of the bit group for one axis.
# Normalisers give every constellation unit average symbol energy.
_PAM4 = np.array([-3.0, -1.0, 3.0, 1.0])            # bits b0b1 -> level
_PAM8 = np.array([-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0])
_QAM16_NORM = np.sqrt(10.0)
_QAM64_NORM = np.sqrt(42.0)


@dataclass(frozen=True)
class SignalFrame:
    """A frame of complex baseband samples, one sample per transmitted symbol.

    ``far_scheme`` carries the far-user modulation label once known and
    ``noise_scale`` the realised post-equalization noise standard deviation
    (complex, total over both axes) so downstream denoising can use it.
    """

    samples: np.ndarray
    far_scheme: ModScheme | None = None
    noise_scale: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("SignalFrame needs a nonempty 1-D sample vector")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples: np.ndarray) -> "SignalFrame":
        return replace(self, samples=samples)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power ratios summing to one, plus the total transmit power."""

    ratios: np.ndarray
    total_power: float = 1.0

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=np.float64)
        if ratios.ndim != 1 or ratios.size < 1:
            raise ValueError("ratios must be a 1-D sequence")
        if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0.0):
            raise ValueError("all power ratios must be positive finite numbers")
        if abs(float(ratios.sum()) - 1.0) > RATIO_SUM_TOL:
            raise ValueError(f"power ratios must sum to 1, got {ratios.sum()!r}")
        if self.total_power <= 0.0:
            raise ValueError("total_power must be positive")
        object.__setattr__(self, "ratios", ratios)

    @property
    def num_users(self) -> int:
        return self.ratios.size


@dataclass(frozen=True)
class ChannelConfig:
    """Channel seen by the near user terminal.

    ``snr_db_near`` is the near-user SNR; ``math.inf`` disables noise.
    Noise is injected once, at the near receiver.
    With ``equalize`` the received frame is divided by the fading coefficient
    (perfect CSI), which keeps constellation clusters axis aligned.
    """

    fading: str = "rayleigh"        # "rayleigh" (block) or "none"
    snr_db_near: float = 16.0
    equalize: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.fading not in ("rayleigh", "none"):
            raise ValueError("fading must be 'rayleigh' or 'none'")
        if np.isnan(self.snr_db_near):
            raise ValueError("snr_db_near must not be NaN")


def constellation(scheme: ModScheme) -> np.ndarray:
    """All constellation points of a scheme (unit average energy).

    For pi/2-BPSK this is the even-symbol (unrotated) alphabet.
    """
    if scheme is ModScheme.PI_HALF_BPSK:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    bps = scheme.bits_per_symbol
    count = 1 << bps
    bits = ((np.arange(count)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8)
    return modulate(bits.reshape(-1), scheme).samples


def _gray_axis_levels(bits: np.ndarray, width: int) -> np.ndarray:
    """Map bit groups of `width` per axis to Gray-coded PAM levels."""
    idx = np.zeros(bits.shape[0], dtype=np.int64)
    for b in range(width):
        idx = (idx << 1) | bits[:, b]
    table = _PAM4 if width == 2 else _PAM8
    return table[idx]


def modulate(bits, scheme: ModScheme) -> SignalFrame:
    """Map a bit sequence to one complex symbol per bits-per-symbol group.

    pi/2-BPSK alternates the BPSK axis: even-index symbols stay on the real
    axis, odd-index symbols are rotated by pi/2. QAM uses per-axis Gray maps.
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
    groups = bits.reshape(-1, bps)
    n = groups.shape[0]
    if scheme is ModScheme.PI_HALF_BPSK:
        base = 1.0 - 2.0 * groups[:, 0].astype(np.float64)
        rot = np.where(np.arange(n) % 2 == 0, 1.0 + 0.0j, 1.0j)
        symbols = base * rot
    elif scheme is ModScheme.QPSK:
        i = 1.0 - 2.0 * groups[:, 0].astype(np.float64)
        q = 1.0 - 2.0 * groups[:, 1].astype(np.float64)
        symbols = (i + 1j * q) / np.sqrt(2.0)
    elif scheme is ModScheme.QAM16:
        i = _gray_axis_levels(groups[:, :2], 2)
        q = _gray_axis_levels(groups[:, 2:], 2)
        symbols = (i + 1j * q) / _QAM16_NORM
    else:
        i = _gray_axis_levels(groups[:, :3], 3)
        q = _gray_axis_levels(groups[:, 3:], 3)
        symbols = (i + 1j * q) / _QAM64_NORM
    return SignalFrame(symbols)


def _gray_slice_axis(values: np.ndarray, width: int) -> np.ndarray:
    """Nearest-level decision on one PAM axis, returning the Gray bit groups."""
    table = _PAM4 if width == 2 else _PAM8
    order = np.argsort(table)                       # levels ascending
    sorted_levels = table[order]
    edges = (sorted_levels[:-1] + sorted_levels[1:]) / 2.0
    pos = np.searchsorted(edges, values)
    idx = order[pos]                                # Gray integer per sample
    out = ((idx[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    return out


def demodulate(frame: SignalFrame, scheme: ModScheme) -> np.ndarray:
    """Hard decision to the nearest constellation point, returning bits."""
    s = frame.samples
    if scheme is ModScheme.PI_HALF_BPSK:
        rot = np.where(np.arange(s.size) % 2 == 0, 1.0 + 0.0j, -1.0j)
        derot = s * rot
        return (derot.real < 0).astype(np.uint8)
    if scheme is ModScheme.QPSK:
        i = (s.real < 0).astype(np.uint8)
        q = (s.imag < 0).astype(np.uint8)
        return np.stack([i, q], axis=1).reshape(-1)
    if scheme is ModScheme.QAM16:
        i = _gray_slice_axis(s.real * _QAM16_NORM, 2)
        q = _gray_slice_axis(s.imag * _QAM16_NORM, 2)
        return np.concatenate([i, q], axis=1).reshape(-1)
    i = _gray_slice_axis(s.real * _QAM64_NORM, 3)
    q = _gray_slice_axis(s.imag * _QAM64_NORM, 3)
    return np.concatenate([i, q], axis=1).reshape(-1)


def fractional_power_allocation(gains, noise_powers, alpha_fpc: float,
                                total_power: float = 1.0) -> PowerAllocation:
    """Fractional transmit power allocation.

    Each user's share is proportional to (gain/noise)**(-alpha_fpc) and the
    shares are normalised to sum to one, so users with worse channels receive
    more power as alpha_fpc grows.
    """
    g = np.asarray(gains, dtype=np.float64)
    n = np.asarray(noise_powers, dtype=np.float64)
    if g.shape != n.shape or g.ndim != 1 or g.size < 2:
        raise ValueError("gains and noise_powers must be matching 1-D sequences of >= 2 users")
    if np.any(g <= 0.0) or np.any(n <= 0.0):
        raise ValueError("gains and noise powers must be strictly positive")
    if not (0.0 < alpha_fpc <= 1.0):
        raise ValueError(f"alpha_fpc must lie in (0, 1], got {alpha_fpc}")
    # log-domain weights avoid overflow for extreme gain spreads
    logw = -alpha_fpc * (np.log(g) - np.log(n))
    logw -= logw.max()
    w = np.exp(logw)
    ratios = w / w.sum()
    # renormalise exactly so the sum-to-one invariant holds to 1e-12
    ratios = ratios / ratios.sum()
    return PowerAllocation(ratios=ratios, total_power=total_power)


def superpose(streams, alloc: PowerAllocation) -> SignalFrame:
    """Sum per-user streams weighted by sqrt(ratio * total power)."""
    if len(streams) != alloc.num_users:
        raise ValueError(
            f"stream count {len(streams)} does not match ratio count {alloc.num_users}"
        )
    lengths = {len(s) for s in streams}
    if len(lengths) != 1:
        a, b = sorted(lengths)[:2]
        raise ValueError(f"stream lengths differ: {a} vs {b}")
    out = np.zeros(lengths.pop(), dtype=np.complex128)
    for stream, ratio in zip(streams, alloc.ratios):
        out += np.sqrt(ratio * alloc.total_power) * stream.samples
    return SignalFrame(out)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def apply_channel(frame: SignalFrame, cfg: ChannelConfig, rng=None) -> SignalFrame:
    """Block fading plus AWGN at the near receiver.

    One complex Gaussian CN(0,1) coefficient h is drawn per frame; the noise
    variance is the measured faded-signal power divided by the linear SNR.
    With ``equalize`` the output (and therefore the noise) is divided by h.
    The returned frame records the realised complex noise standard deviation.
    """
    rng = _as_rng(cfg.seed if rng is None else rng)
    s = frame.samples
    if cfg.fading == "rayleigh":
        h = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    else:
        h = 1.0 + 0.0j
    faded = h * s
    if np.isinf(cfg.snr_db_near) and cfg.snr_db_near > 0:
        sigma2 = 0.0
        noisy = faded
    else:
        sig_power = float(np.mean(np.abs(faded) ** 2))
        sigma2 = sig_power / (10.0 ** (cfg.snr_db_near / 10.0))
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size)
        )
        noisy = faded + noise
    if cfg.equalize:
        noisy = noisy / h
        noise_scale = float(np.sqrt(sigma2) / abs(h))
    else:
        noise_scale = float(np.sqrt(sigma2))
    return SignalFrame(noisy, far_scheme=frame.far_scheme, noise_scale=noise_scale)


@dataclass(frozen=True)
class NomaScenario:
    """Generative description of one NOMA transmission setup.

    Users are ordered near-first, far-last everywhere (schemes, gains,
    power ratios). Power comes either from explicit ``ratios``, explicit
    FPA inputs (``fpa_gains``/``fpa_noise``), or is derived from the SNR
    ladder: near user j sits at ``snr_db_near - j*near_step_db`` and the far
    user at ``snr_db_near - delta_db``.
    """

    near_schemes: tuple = (ModScheme.QAM16,)
    far_scheme: ModScheme | None = ModScheme.PI_HALF_BPSK
    snr_db_near: float = 16.0
    delta_db: float = 6.0
    alpha_fpc: float = 1.0
    ratios: tuple | None = None
    fpa_gains: tuple | None = None
    fpa_noise: tuple | None = None
    near_step_db: float = 2.0
    fading: str = "rayleigh"
    equalize: bool = True
    total_power: float = 1.0
    symbols_per_frame: int = 2000
    samples_per_class: int = 250
    grid_size: int = 100
    seed: int = 0

    def __post_init__(self):
        near = tuple(ModScheme.from_name(s) if isinstance(s, str) else s
                     for s in self.near_schemes)
        if not 1 <= len(near) <= 3:
            raise ValueError("need 1 to 3 near user terminals")
        object.__setattr__(self, "near_schemes", near)
        far = self.far_scheme
        if isinstance(far, str):
            object.__setattr__(self, "far_scheme", ModScheme.from_name(far))
        if self.symbols_per_frame < 1:
            raise ValueError("symbols_per_frame must be >= 1")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")

    @property
    def num_users(self) -> int:
        return len(self.near_schemes) + 1

    def channel_config(self, seed: int = 0) -> ChannelConfig:
        return ChannelConfig(fading=self.fading, snr_db_near=self.snr_db_near,
                             equalize=self.equalize, seed=seed)


def resolve_allocation(scenario: NomaScenario) -> PowerAllocation:
    """Power ratios for a scenario, far user last and strictly largest."""
    n_users = scenario.num_users
    if scenario.ratios is not None:
        alloc = PowerAllocation(np.asarray(scenario.ratios, dtype=np.float64),
                                total_power=scenario.total_power)
        if alloc.num_users != n_users:
            raise ValueError(
                f"scenario has {n_users} users but {alloc.num_users} ratios"
            )
    elif scenario.fpa_gains is not None:
        noise = scenario.fpa_noise if scenario.fpa_noise is not None else (1.0,) * n_users
        alloc = fractional_power_allocation(scenario.fpa_gains, noise,
                                            scenario.alpha_fpc, scenario.total_power)
    else:
        # SNR ladder relative to the near user; only gain ratios matter for
        # the FPA weights, so this stays finite even for noise-free setups
        offsets = [j * scenario.near_step_db
                   for j in range(len(scenario.near_schemes))]
        offsets.append(scenario.delta_db)
        gains = [10.0 ** (-off / 10.0) for off in offsets]
        alloc = fractional_power_allocation(gains, [1.0] * n_users,
                                            scenario.alpha_fpc, scenario.total_power)
    far_ratio = alloc.ratios[-1]
    if np.any(alloc.ratios[:-1] >= far_ratio):
        raise ValueError(
            "far user must hold the strictly largest power ratio; "
            f"got {np.array2string(alloc.ratios, precision=4)}"
        )
    return alloc


def generate_noma_frame(scenario: NomaScenario, rng=None) -> SignalFrame:
    """Draw random bits for every user, superpose, and run the channel.

    The returned frame is labelled with the far user's modulation scheme.
    """
    if scenario.far_scheme is None:
        raise ValueError("scenario.far_scheme must be set to generate a frame")
    rng = _as_rng(scenario.seed if rng is None else rng)
    schemes = list(scenario.near_schemes) + [scenario.far_scheme]
    alloc = resolve_allocation(scenario)
    n_sym = scenario.symbols_per_frame
    streams = []
    for scheme in schemes:
        bits = rng.integers(0, 2, size=n_sym * scheme.bits_per_symbol, dtype=np.uint8)
        streams.append(modulate(bits, scheme))
    mixed = superpose(streams, alloc)
    mixed = replace(mixed, far_scheme=scenario.far_scheme)
    return apply_channel(mixed, scenario.channel_config(), rng=rng)
