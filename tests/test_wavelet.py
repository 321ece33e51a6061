"""Wavelet transform and denoising tests.

Independent oracles used here:
  * the sym8 filter is re-derived from first principles (spectral
    factorisation of the half-band product filter) and the embedded
    constants must match one of the valid factorisations;
  * the multilevel transform is cross-checked against an explicit
    orthogonal-matrix implementation of the same periodized convention;
  * heursure thresholds are compared against a straightforward
    sort-and-scan implementation;
  * the transforms and the denoiser are compared byte for byte against a
    self-contained per-axis reference whose synthesis is an ``np.add.at``
    scatter, which sums each output in the order the batched synthesis must
    reproduce; the reference is shown to tell apart a reversed order and a
    sum started from its first term.
"""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nomadet import wavelet
from nomadet.sigsim import ModScheme, NomaScenario, SignalFrame, generate_noma_frame
from nomadet.wavelet import (SYM8_DEC_LO, _SYM8_DEC_HI, WaveletCoeffs, WaveletSpec,
                             denoise_frame, dwt_multilevel, estimate_sigma,
                             heursure_threshold, idwt_multilevel, soft_threshold,
                             sure_threshold, universal_threshold)
from conftest import clean_noma_pair


# ---------------------------------------------------------------- oracles --

def derive_orthogonal_filters(vanishing_moments: int = 8):
    """All real orthonormal scaling filters with the given vanishing moments.

    Spectral factorisation: roots of the half-band Daubechies polynomial are
    grouped into reciprocal pairs; every consistent selection yields one
    valid filter of length 2 * vanishing_moments.
    """
    n = vanishing_moments
    poly_p = [math.comb(n - 1 + k, k) for k in range(n)]
    zy = np.array([-0.25, 0.5, -0.25])  # z * y(z) with y = (2 - z - 1/z)/4
    q = np.zeros(2 * (n - 1) + 1)
    for k in range(n):
        term = np.array([1.0])
        for _ in range(k):
            term = np.convolve(term, zy[::-1])
        shifted = np.concatenate([np.zeros(n - 1 - k), term])
        q[: len(shifted)] += poly_p[k] * shifted
    roots = sorted(np.roots(q[::-1]), key=lambda r: (abs(r), np.angle(r)))
    used = [False] * len(roots)
    pairs = []
    for i, r in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        best_j = min((j for j in range(i + 1, len(roots)) if not used[j]),
                     key=lambda j: abs(roots[j] - 1 / r))
        used[best_j] = True
        pairs.append((r, roots[best_j]))
    groups = []
    used_p = [False] * len(pairs)
    for i, (r, rinv) in enumerate(pairs):
        if used_p[i]:
            continue
        used_p[i] = True
        if abs(r.imag) < 1e-9:
            groups.append([(r, rinv)])
        else:
            for j in range(i + 1, len(pairs)):
                if used_p[j]:
                    continue
                r2, r2inv = pairs[j]
                if abs(r2 - np.conj(r)) < 1e-6 or abs(r2inv - np.conj(r)) < 1e-6:
                    used_p[j] = True
                    groups.append([(r, rinv), pairs[j]])
                    break
    filters = []
    for selection in product(range(2), repeat=len(groups)):
        chosen = []
        for grp, side in zip(groups, selection):
            if len(grp) == 1:
                chosen.append(grp[0][side])
            else:
                chosen += [grp[0][side], grp[1][side]]
        b = np.array([1.0])
        for r in chosen:
            b = np.convolve(b, [1.0, -r])
        b = np.real(b)
        for _ in range(n):
            b = np.convolve(b, [1.0, 1.0])
        filters.append(b / b.sum() * np.sqrt(2.0))
    return filters


def matrix_dwt(x, lo, hi, level):
    """Reference multilevel DWT as explicit orthogonal matrix products."""
    def one_level_matrix(n):
        rows = []
        for k in range(n // 2):
            row_lo = np.zeros(n)
            row_hi = np.zeros(n)
            for m, (l, h) in enumerate(zip(lo, hi)):
                row_lo[(2 * k + m) % n] += l
                row_hi[(2 * k + m) % n] += h
            rows.append((row_lo, row_hi))
        a_mat = np.stack([r[0] for r in rows])
        d_mat = np.stack([r[1] for r in rows])
        return a_mat, d_mat

    approx = np.asarray(x, dtype=np.float64)
    details = []
    for _ in range(level):
        a_mat, d_mat = one_level_matrix(approx.size)
        details.append(d_mat @ approx)
        approx = a_mat @ approx
    return approx, details[::-1]


def heursure_reference(d, sigma):
    """Plain sort-and-scan heursure (universal vs risk-minimising threshold)."""
    x = np.asarray(d, dtype=np.float64) / sigma
    n = x.size
    universal = math.sqrt(2.0 * math.log(n))
    eta = (float(np.dot(x, x)) - n) / n
    crit = (math.log2(n)) ** 1.5 / math.sqrt(n)
    if eta <= crit:
        return sigma * universal
    sx2 = np.sort(x * x)
    best_risk, best_t2 = None, None
    cumsum = 0.0
    for i in range(n):
        cumsum += sx2[i]
        risk = (n - 2 * (i + 1) + cumsum + (n - 1 - i) * sx2[i]) / n
        if best_risk is None or risk < best_risk:
            best_risk, best_t2 = risk, sx2[i]
    return sigma * min(math.sqrt(best_t2), universal)


def add_at_analysis(x, level):
    """Reference analysis cascade, one axis: each step gathers the circular
    windows through a table built on the spot and takes one matrix-vector
    product per filter. Returns the approximation and the details, coarsest
    first, of ``x`` zero padded to a multiple of 2**level."""
    x = np.asarray(x, dtype=np.float64)
    block = 1 << level
    x = np.concatenate([x, np.zeros(-x.size % block)])
    details = []
    for _ in range(level):
        idx = (2 * np.arange(x.size // 2)[:, None] + np.arange(SYM8_DEC_LO.size)) % x.size
        windows = x[idx]
        x = windows @ SYM8_DEC_LO
        details.append(windows @ _SYM8_DEC_HI)
    return x, details[::-1]


def add_at_synthesis(approx, details, length, reverse=False, first_term_start=False):
    """Reference synthesis cascade, one axis: each step is the transpose of
    analysis, an ``np.add.at`` scatter of the terms lo[m]*approx[k] +
    hi[m]*detail[k] into output (2k + m) % n, which adds them in ascending
    k*taps + m from +0.0. ``reverse`` scatters them in descending order and
    ``first_term_start`` starts each output from its first term instead:
    the two faults the byte-identity tests must be able to see."""
    for detail in details:
        n = 2 * approx.size
        idx = ((2 * np.arange(n // 2)[:, None] + np.arange(SYM8_DEC_LO.size)) % n).reshape(-1)
        terms = (approx[:, None] * SYM8_DEC_LO + detail[:, None] * _SYM8_DEC_HI).reshape(-1)
        if reverse:
            idx, terms = idx[::-1], terms[::-1]
        out = np.zeros(n)
        if first_term_start:
            _, first = np.unique(idx, return_index=True)
            out[idx[first]] = terms[first]
            rest = np.ones(idx.size, dtype=bool)
            rest[first] = False
            idx, terms = idx[rest], terms[rest]
        np.add.at(out, idx, terms)
        approx = out
    return approx[:length]


def add_at_heursure(d, sigma):
    """Reference heursure threshold of one detail vector, in the arithmetic
    of the one-axis denoiser: universal threshold unless the energy looks
    dense, then the smaller of it and the SURE minimiser."""
    n = d.size
    if not np.any(d):
        return 0.0
    t_univ = float(sigma * np.sqrt(2.0 * np.log(n)))
    if (float(np.dot(d, d)) / sigma ** 2 - n) / n <= np.log2(n) ** 1.5 / np.sqrt(n):
        return t_univ
    y2 = np.sort((d / sigma) ** 2)
    ranks = np.arange(1, n + 1)
    risks = (n - 2.0 * ranks + np.cumsum(y2) + (n - ranks) * y2) / n
    return min(float(sigma * np.sqrt(y2[int(np.argmin(risks))])), t_univ)


def add_at_denoise(frame, spec):
    """Reference denoiser: each axis on its own through the reference
    cascades, with the scale the frame records or the MAD estimate."""
    axis_sigma = None if frame.noise_scale is None else frame.noise_scale / np.sqrt(2.0)
    parts = []
    for x in (frame.samples.real, frame.samples.imag):
        approx, details = add_at_analysis(x, spec.level)
        sigma = axis_sigma
        if sigma is None:
            sigma = float(np.median(np.abs(details[-1])) / 0.6745)
        thresholds = [0.0 if sigma <= 0 else add_at_heursure(d, sigma) for d in details]
        shrunk = [np.sign(d) * np.maximum(np.abs(d) - t, 0.0)
                  for d, t in zip(details, thresholds)]
        parts.append(add_at_synthesis(approx, shrunk, x.size))
    return parts[0] + 1j * parts[1]


def signed_zero_coeffs(j, n=64):
    """One-level coefficients whose every contribution to output j is -0.0:
    a sum from +0.0 gives +0.0 there, one started from its first term -0.0."""
    rng = np.random.default_rng(3)
    approx, detail = rng.standard_normal(n // 2), rng.standard_normal(n // 2)
    for k in range(n // 2):
        m = (j - 2 * k) % n
        if m < SYM8_DEC_LO.size:
            approx[k] = math.copysign(0.0, -SYM8_DEC_LO[m])
            detail[k] = math.copysign(0.0, -_SYM8_DEC_HI[m])
    return WaveletCoeffs(approx, (detail,), n)


def coeff_bytes(coeffs):
    return b"".join(c.tobytes() for c in (coeffs.approx, *coeffs.details))


# ------------------------------------------------------------ filter bank --

class TestSym8Filter:
    def test_sums_to_sqrt2(self):
        assert abs(SYM8_DEC_LO.sum() - np.sqrt(2.0)) <= 1e-10

    def test_unit_energy(self):
        assert abs((SYM8_DEC_LO ** 2).sum() - 1.0) <= 1e-10

    def test_double_shift_orthogonality(self):
        h = SYM8_DEC_LO
        for k in range(1, 8):
            assert abs(np.dot(h[:-2 * k], h[2 * k:])) <= 1e-10

    def test_eight_vanishing_moments(self):
        h = SYM8_DEC_LO
        g = h[::-1].copy()
        g[1::2] *= -1
        taps = np.arange(h.size, dtype=np.float64)
        for p in range(8):
            assert abs(np.dot(g, taps ** p)) <= 1e-6 * (h.size ** p)
        assert abs(np.dot(g, taps ** 8)) > 1.0

    def test_matches_a_spectral_factorisation(self):
        candidates = derive_orthogonal_filters(8)
        best = min(
            min(np.max(np.abs(c - SYM8_DEC_LO)), np.max(np.abs(c[::-1] - SYM8_DEC_LO)))
            for c in candidates
        )
        assert best <= 1e-8

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            WaveletSpec(level=0)


# ---------------------------------------------------------------- dwt/idwt --

class TestTransform:
    def test_zero_signal_gives_zero_coefficients(self):
        coeffs = dwt_multilevel(np.zeros(64), WaveletSpec())
        assert not np.any(coeffs.approx)
        for d in coeffs.details:
            assert not np.any(d)

    def test_parseval_energy(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024)
        coeffs = dwt_multilevel(x, WaveletSpec())
        assert coeffs.energy() == pytest.approx(np.dot(x, x), rel=1e-9)

    def test_matches_matrix_reference(self):
        rng = np.random.default_rng(17)
        spec = WaveletSpec()
        for n in (64, 256, 1024):
            x = rng.standard_normal(n)
            coeffs = dwt_multilevel(x, spec)
            ref_approx, ref_details = matrix_dwt(x, SYM8_DEC_LO, _SYM8_DEC_HI, 2)
            np.testing.assert_allclose(coeffs.approx, ref_approx, atol=1e-8)
            for mine, ref in zip(coeffs.details, ref_details):
                np.testing.assert_allclose(mine, ref, atol=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        spec = WaveletSpec()
        x = rng.standard_normal(512)
        back = idwt_multilevel(dwt_multilevel(x, spec), spec)
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))

    def test_round_trip_with_padding(self):
        rng = np.random.default_rng(12)
        spec = WaveletSpec()
        x = rng.standard_normal(1003)
        back = idwt_multilevel(dwt_multilevel(x, spec), spec)
        assert back.size == x.size
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))

    def test_zero_coefficients_reconstruct_zero(self):
        spec = WaveletSpec()
        coeffs = dwt_multilevel(np.zeros(128), spec)
        assert not np.any(idwt_multilevel(coeffs, spec))

    def test_linearity_scaling(self):
        rng = np.random.default_rng(13)
        spec = WaveletSpec()
        x = rng.standard_normal(256)
        coeffs = dwt_multilevel(x, spec)
        doubled = WaveletCoeffs(2 * coeffs.approx,
                                tuple(2 * d for d in coeffs.details),
                                coeffs.original_length)
        np.testing.assert_allclose(idwt_multilevel(doubled, spec),
                                   2 * idwt_multilevel(coeffs, spec), atol=1e-12)

    def test_too_short_signal_raises(self):
        with pytest.raises(ValueError, match="filter length 16"):
            dwt_multilevel(np.ones(8), WaveletSpec())

    def test_shape_mismatch_names_level(self):
        spec = WaveletSpec()
        coeffs = dwt_multilevel(np.ones(64), spec)
        broken = WaveletCoeffs(coeffs.approx[:-1], coeffs.details,
                               coeffs.original_length)
        with pytest.raises(ValueError, match="level 2"):
            idwt_multilevel(broken, spec)


class TestCachedTablesAreBitIdentical:
    LENGTHS = (16, 37, 1999, 2000, 3000)
    LEVELS = (1, 2, 4)

    # output 0's windows wrap around the signal, output 40's do not
    SIGNED_ZERO_OUTPUTS = (0, 40)

    def test_reference_sees_a_reversed_order_and_a_first_term_start(self):
        # a synthesis with either fault would fail the comparisons below
        x = np.random.default_rng(8).standard_normal(3000)
        approx, details = add_at_analysis(x, 2)
        ref = add_at_synthesis(approx, details, x.size).tobytes()
        assert add_at_synthesis(approx, details, x.size, reverse=True).tobytes() != ref
        for j in self.SIGNED_ZERO_OUTPUTS:
            coeffs = signed_zero_coeffs(j)
            ref = add_at_synthesis(coeffs.approx, coeffs.details, 64)
            start = add_at_synthesis(coeffs.approx, coeffs.details, 64, first_term_start=True)
            assert math.copysign(1.0, ref[j]) == 1.0 and math.copysign(1.0, start[j]) == -1.0

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_transform_matches_add_at(self, n, level):
        # at level 4 the coarse steps of short signals are shorter than the
        # 16-tap filter, so their windows wrap around more than once
        spec = WaveletSpec(level=level)
        x = np.random.default_rng(n + level).standard_normal(n)
        coeffs = dwt_multilevel(x, spec)
        approx, details = add_at_analysis(x, level)
        assert coeff_bytes(coeffs) == coeff_bytes(WaveletCoeffs(approx, tuple(details), n))
        assert (idwt_multilevel(coeffs, spec).tobytes()
                == add_at_synthesis(approx, details, n).tobytes())

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("n", [n for n in LENGTHS if n > 16])
    def test_denoise_matches_add_at(self, n, level):
        # 16 samples at level 4 leave one coarsest detail: too few to threshold
        rng = np.random.default_rng(10 * n + level)
        frame = SignalFrame(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            noise_scale=0.8)
        spec = WaveletSpec(level=level)
        assert (denoise_frame(frame, spec).samples.tobytes()
                == add_at_denoise(frame, spec).tobytes())

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
    def test_simulated_frames_match_add_at(self, snr_db):
        scenario = NomaScenario(near_schemes=(ModScheme.QPSK,), snr_db_near=snr_db,
                                symbols_per_frame=3000)
        frame = generate_noma_frame(scenario, rng=np.random.default_rng(int(snr_db) + 50))
        bare = SignalFrame(frame.samples)  # no noise_scale: the MAD estimate path
        for f in (frame, bare):
            assert denoise_frame(f).samples.tobytes() == add_at_denoise(f, WaveletSpec()).tobytes()

    def test_signed_zeros_match_add_at(self):
        for j in self.SIGNED_ZERO_OUTPUTS:
            coeffs = signed_zero_coeffs(j)
            ref = add_at_synthesis(coeffs.approx, coeffs.details, 64)
            assert ref[j] == 0.0 and math.copysign(1.0, ref[j]) == 1.0
            assert idwt_multilevel(coeffs, WaveletSpec(level=1)).tobytes() == ref.tobytes()

    def test_cached_tables_are_read_only(self):
        table = wavelet._analysis_index(64, 16)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


class TestDenoiseFrames:
    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("n", [1999, 2000, 3000])
    def test_mixed_batch_matches_add_at_frame_by_frame(self, monkeypatch, n, level):
        # SNRs -10/10/30 dB, a frame without noise_scale and a noise-free one,
        # cycled until the batch fills more than one chunk plus a remainder
        spec = WaveletSpec(level=level)
        kinds = [NomaScenario(near_schemes=(ModScheme.QPSK,), snr_db_near=snr,
                              symbols_per_frame=n) for snr in (-10.0, 10.0, 30.0, np.inf)]
        chunk = wavelet._CHUNK_BYTES // (2 * 8 * n)
        frames = []
        for i in range(chunk + chunk // 2 + 1):
            frame = generate_noma_frame(kinds[i % 4], rng=np.random.default_rng(i))
            frames.append(SignalFrame(frame.samples) if i % 5 == 4 else frame)
        assert any(f.noise_scale is None for f in frames)
        assert any(f.noise_scale == 0.0 for f in frames)
        sizes = []
        chunked = wavelet._denoise_chunk
        monkeypatch.setattr(wavelet, "_denoise_chunk",
                            lambda part, *args: sizes.append(len(part)) or chunked(part, *args))
        out = wavelet.denoise_frames(frames, spec)
        assert len(sizes) >= 2 and sizes[-1] < sizes[0]
        assert len(out) == len(frames)
        for frame, den in zip(frames, out):
            assert den.noise_scale == frame.noise_scale
            assert den.samples.tobytes() == add_at_denoise(frame, spec).tobytes()

    def test_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match="no frames"):
            wavelet.denoise_frames([])

    def test_unequal_lengths_are_named(self):
        frames = [SignalFrame(np.ones(300, dtype=complex)), SignalFrame(np.ones(301, dtype=complex))]
        with pytest.raises(ValueError, match="300 and 301"):
            wavelet.denoise_frames(frames)

    def test_too_short_frames_keep_the_message(self):
        with pytest.raises(ValueError, match="level 4 .* 16-sample frame"):
            wavelet.denoise_frames([SignalFrame(np.ones(16, dtype=complex))] * 3,
                                   WaveletSpec(level=4))


# -------------------------------------------------------------- thresholds --

class TestSoftThreshold:
    def test_definitional_example(self):
        out = soft_threshold(np.array([-3.0, -1.0, 0.5, 2.0]), 1.0)
        np.testing.assert_allclose(out, [-2.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        x = np.array([0.3, -4.0, 2.5])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_large_threshold_zeroes_everything(self):
        x = np.array([0.3, -4.0, 2.5])
        assert not np.any(soft_threshold(x, 4.0))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64),
           st.floats(0, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_never_flips_sign_never_grows(self, values, t):
        x = np.array(values)
        out = soft_threshold(x, t)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
        assert np.all(out * x >= 0.0)


class TestHeursure:
    def test_bounded_by_universal_on_dense_gaussian(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(1024)
        t = heursure_threshold(d, 1.0)
        assert t <= np.sqrt(2 * np.log(1024)) + 1e-12
        assert np.sqrt(2 * np.log(1024)) == pytest.approx(3.723, abs=1e-3)

    def test_all_zero_details_give_zero(self):
        assert heursure_threshold(np.zeros(128), 1.0) == 0.0

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(29)
        for n in (128, 500, 1024):
            for scale in (0.3, 1.0):
                noise = rng.standard_normal(n)
                spikes = rng.standard_normal(n) * (rng.random(n) < 0.08) * 9.0
                d = scale * (noise + spikes)
                for sigma in (scale, 0.5 * scale):
                    mine = heursure_threshold(d, sigma)
                    ref = heursure_reference(d, sigma)
                    assert mine == pytest.approx(ref, abs=1e-6), (n, scale, sigma)

    def test_sure_branch_engages_for_dense_strong_signal(self):
        rng = np.random.default_rng(31)
        d = rng.standard_normal(1000) * 5.0
        sigma = 0.2
        t = heursure_threshold(d, sigma)
        assert t < universal_threshold(d.size, sigma)

    def test_sigma_must_be_positive_for_nonzero_details(self):
        with pytest.raises(ValueError):
            heursure_threshold(np.ones(16), 0.0)

    def test_sure_threshold_on_pure_noise_is_aggressive(self):
        rng = np.random.default_rng(37)
        d = rng.standard_normal(2048)
        assert sure_threshold(d, 1.0) > 2.0


class TestSigmaEstimate:
    def test_unit_gaussian_recovered(self):
        rng = np.random.default_rng(41)
        d = rng.standard_normal(4096)
        assert estimate_sigma(d) == pytest.approx(1.0, rel=0.10)

    def test_scales_linearly(self):
        rng = np.random.default_rng(43)
        d = rng.standard_normal(4096)
        assert estimate_sigma(3.0 * d) == pytest.approx(3.0 * estimate_sigma(d), rel=1e-12)


# ----------------------------------------------------------------- denoise --

class TestDenoiseFrame:
    def test_level_too_deep_for_frame_is_named(self):
        rng = np.random.default_rng(9)
        noisy = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        with pytest.raises(ValueError, match="level 4 .* 16-sample frame"):
            denoise_frame(SignalFrame(noisy[:16], noise_scale=0.8), WaveletSpec(level=4))
        with pytest.raises(ValueError, match="level 3 .* 8-sample frame"):
            denoise_frame(SignalFrame(np.zeros(8, dtype=complex)), WaveletSpec(level=3))
        # 17 samples pad to 32, which leaves the 2 coarsest coefficients needed
        out = denoise_frame(SignalFrame(noisy, noise_scale=0.8), WaveletSpec(level=4))
        assert out.samples.shape == (17,)

    def test_zero_frame_stays_zero(self):
        frame = SignalFrame(np.zeros(256, dtype=complex))
        out = denoise_frame(frame)
        assert not np.any(out.samples)

    def test_noiseless_frame_distortion_is_negligible(self):
        # noise-free pipeline frame (recorded noise scale 0): thresholds are
        # zero so the output matches the input to reconstruction precision,
        # far inside the 0.2 * norm distortion budget
        scen = NomaScenario(near_schemes=(ModScheme.QAM16,),
                            far_scheme=ModScheme.QAM64,
                            snr_db_near=np.inf, fading="none",
                            symbols_per_frame=2000)
        frame = generate_noma_frame(scen, rng=np.random.default_rng(2))
        assert frame.noise_scale == 0.0
        out = denoise_frame(frame)
        dist = np.linalg.norm(out.samples - frame.samples)
        out_norm = np.linalg.norm(out.samples)
        assert dist <= 0.2 * out_norm
        assert dist <= 1e-10 * out_norm

    def test_mse_reduction_at_reference_snr(self, table1_scenario):
        # denoising strictly reduces the distance to the noiseless frame
        for seed in (42, 43, 44):
            clean, noisy = clean_noma_pair(table1_scenario, seed)
            den = denoise_frame(noisy)
            mse_before = np.mean(np.abs(noisy.samples - clean.samples) ** 2)
            mse_after = np.mean(np.abs(den.samples - clean.samples) ** 2)
            assert mse_after < mse_before

    def test_strong_noise_is_heavily_suppressed(self, table1_scenario):
        from dataclasses import replace
        scen = replace(table1_scenario, snr_db_near=-10.0)
        clean, noisy = clean_noma_pair(scen, 7)
        den = denoise_frame(noisy)
        mse_before = np.mean(np.abs(noisy.samples - clean.samples) ** 2)
        mse_after = np.mean(np.abs(den.samples - clean.samples) ** 2)
        assert mse_after < 0.6 * mse_before

    def test_norm_never_grows(self, table1_scenario):
        for seed in (1, 2):
            _, noisy = clean_noma_pair(table1_scenario, seed)
            out = denoise_frame(noisy)
            assert np.linalg.norm(out.samples) <= np.linalg.norm(noisy.samples) * (1 + 1e-12)

    def test_commutes_with_negation(self, table1_scenario):
        _, noisy = clean_noma_pair(table1_scenario, 3)
        out = denoise_frame(noisy)
        flipped = denoise_frame(replace(noisy, samples=-noisy.samples))
        np.testing.assert_allclose(flipped.samples, -out.samples, atol=1e-12)

    def test_mad_fallback_used_without_noise_metadata(self):
        rng = np.random.default_rng(6)
        bare = SignalFrame(rng.standard_normal(512) + 1j * rng.standard_normal(512))
        assert bare.noise_scale is None
        out = denoise_frame(bare)
        # pure noise: most of the energy must be removed
        assert np.linalg.norm(out.samples) < 0.7 * np.linalg.norm(bare.samples)
