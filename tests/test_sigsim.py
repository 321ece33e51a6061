"""Modulation, power allocation, superposition and channel tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nomadet import sigsim
from nomadet.sigsim import (ChannelConfig, ModScheme, NomaScenario, SignalFrame,
                            apply_channel, axis_levels, generate_noma_frame,
                            generate_noma_frames, modulate, resolve_allocation,
                            superpose)

# ids=str names each case ModScheme.X; pytest would name a str-valued enum by its value
ALL_SCHEMES = list(ModScheme)

R2, R10, R42 = np.sqrt(2.0), np.sqrt(10.0), np.sqrt(42.0)
# The expected symbol of every bit group, in bit-group order 0...0 to 1...1,
# written out by hand: I bits first, then Q bits, each axis Gray coded.
GRAY_MAPS = {
    ModScheme.PI_HALF_BPSK: [1, -1],
    ModScheme.QPSK: np.array([1+1j, 1-1j, -1+1j, -1-1j]) / R2,
    ModScheme.QAM16: np.array([
        -3-3j, -3-1j, -3+3j, -3+1j,
        -1-3j, -1-1j, -1+3j, -1+1j,
        3-3j, 3-1j, 3+3j, 3+1j,
        1-3j, 1-1j, 1+3j, 1+1j,
    ]) / R10,
    ModScheme.QAM64: np.array([
        -7-7j, -7-5j, -7-1j, -7-3j, -7+7j, -7+5j, -7+1j, -7+3j,
        -5-7j, -5-5j, -5-1j, -5-3j, -5+7j, -5+5j, -5+1j, -5+3j,
        -1-7j, -1-5j, -1-1j, -1-3j, -1+7j, -1+5j, -1+1j, -1+3j,
        -3-7j, -3-5j, -3-1j, -3-3j, -3+7j, -3+5j, -3+1j, -3+3j,
        7-7j, 7-5j, 7-1j, 7-3j, 7+7j, 7+5j, 7+1j, 7+3j,
        5-7j, 5-5j, 5-1j, 5-3j, 5+7j, 5+5j, 5+1j, 5+3j,
        1-7j, 1-5j, 1-1j, 1-3j, 1+7j, 1+5j, 1+1j, 1+3j,
        3-7j, 3-5j, 3-1j, 3-3j, 3+7j, 3+5j, 3+1j, 3+3j,
    ]) / R42,
}


def all_bit_groups(scheme):
    """Every bit group of a scheme, MSB first, in order of integer value."""
    k = scheme.bits_per_symbol
    return ((np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)


class TestModulate:
    def test_qpsk_00_maps_to_first_quadrant(self):
        frame = modulate([0, 0], ModScheme.QPSK)
        assert frame.samples[0] == pytest.approx((1 + 1j) / np.sqrt(2), abs=1e-15)

    def test_pi_half_bpsk_alternates_axes(self):
        frame = modulate([0, 1], ModScheme.PI_HALF_BPSK)
        np.testing.assert_allclose(frame.samples, [1.0 + 0.0j, -1.0j], atol=1e-15)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_unit_average_energy_closed_form(self, scheme):
        # closed form over the I x Q product, and over every modulated bit group
        i_levels, q_levels = axis_levels(scheme)
        assert np.mean(i_levels ** 2) + np.mean(q_levels ** 2) == \
            pytest.approx(1.0, abs=1e-12)
        frame = modulate(all_bit_groups(scheme).reshape(-1), scheme)
        assert np.mean(np.abs(frame.samples) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_qam16_energy_over_all_points(self):
        frame = modulate(all_bit_groups(ModScheme.QAM16).reshape(-1), ModScheme.QAM16)
        assert np.mean(np.abs(frame.samples) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_exact_gray_map(self, scheme):
        # every bit group in one stream; pi/2-BPSK turns its odd symbols
        expected = np.array(GRAY_MAPS[scheme], dtype=complex)
        if scheme is ModScheme.PI_HALF_BPSK:
            expected[1::2] *= 1j
        frame = modulate(all_bit_groups(scheme).reshape(-1), scheme)
        np.testing.assert_allclose(frame.samples, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_index_matches_matmul_form(self, scheme):
        # each symbol's point index as the integer matmul of its bit group
        # with the group's place values, byte for byte on random bits
        bps = scheme.bits_per_symbol
        bits = np.random.default_rng(bps).integers(0, 2, 999 * bps, dtype=np.uint8)
        i_levels, q_levels, norm = sigsim._AXES[scheme]
        points = ((i_levels[:, None] + 1j * q_levels) / norm).reshape(-1)
        expected = points[bits.reshape(-1, bps) @ (1 << np.arange(bps - 1, -1, -1))]
        if scheme is ModScheme.PI_HALF_BPSK:
            expected[1::2] *= 1j
        assert modulate(bits, scheme).samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_length_not_divisible_raises(self, scheme):
        bad = np.zeros(scheme.bits_per_symbol + 1, dtype=np.uint8) if \
            scheme.bits_per_symbol > 1 else np.zeros(0, dtype=np.uint8)
        with pytest.raises(ValueError, match=scheme.name):
            modulate(bad, scheme)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_bit_groups_map_to_distinct_gray_points(self, scheme):
        k = scheme.bits_per_symbol
        groups = all_bit_groups(scheme)
        # each group as the first (unrotated) symbol of its own frame
        points = np.array([modulate(g, scheme).samples[0] for g in groups])
        dist = np.abs(points[:, None] - points[None, :])
        off_diagonal = ~np.eye(2 ** k, dtype=bool)
        assert dist[off_diagonal].min() > 1e-9
        nearest = np.isclose(dist, dist[off_diagonal].min()) & off_diagonal
        for i, j in zip(*np.nonzero(nearest)):
            assert bin(int(i) ^ int(j)).count("1") == 1, (groups[i], groups[j])


class TestSchemeNames:
    @pytest.mark.parametrize("name, scheme", [
        ("QPSK", ModScheme.QPSK), (" 16-QAM ", ModScheme.QAM16),
        ("qam_64", ModScheme.QAM64), ("pi/2-BPSK", ModScheme.PI_HALF_BPSK),
        ("bpsk", ModScheme.PI_HALF_BPSK), ("pihalfbpsk", ModScheme.PI_HALF_BPSK),
    ])
    def test_accepted_spellings(self, name, scheme):
        assert ModScheme.from_name(name) is scheme

    def test_unknown_name_is_named(self):
        # a config may hold any JSON value where a scheme name belongs
        for name, shown in (("8psk", "'8psk'"), (1, "scheme 1$")):
            with pytest.raises(ValueError, match=shown):
                ModScheme.from_name(name)


def ladder(near_users: int = 1, delta_db: float = 6.0, alpha_fpc: float = 1.0) -> NomaScenario:
    """A scenario with ``near_users`` QPSK near users on the allocation ladder."""
    return NomaScenario(near_schemes=(ModScheme.QPSK,) * near_users, delta_db=delta_db,
                        alpha_fpc=alpha_fpc)


class TestPowerAllocation:
    def test_direct_evaluation_of_weights(self):
        # gains 1 and 1/4 give weights 1 and 4 -> [0.2, 0.8]
        ratios = resolve_allocation(ladder(delta_db=10 * np.log10(4)))
        assert ratios.dtype == np.float64
        np.testing.assert_allclose(ratios, [0.2, 0.8], atol=1e-12)

    def test_small_decay_factor_equalises(self):
        ratios = resolve_allocation(ladder(delta_db=10 * np.log10(4), alpha_fpc=1e-9))
        np.testing.assert_allclose(ratios, [0.5, 0.5], atol=1e-6)

    def test_domain_errors(self):
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match="alpha_fpc"):
                resolve_allocation(ladder(alpha_fpc=alpha))

    @given(st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_worse_channel_gets_more_power(self, alpha):
        ratios = resolve_allocation(ladder(near_users=2, delta_db=9.0, alpha_fpc=alpha))
        assert ratios[0] < ratios[1] < ratios[2]

    def test_sum_invariant_to_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scenario = ladder(int(rng.integers(1, 4)), rng.uniform(6.0, 40.0),
                              rng.uniform(0.1, 1.0))
            assert abs(resolve_allocation(scenario).sum() - 1.0) <= 1e-12

    @given(st.integers(1, 3), st.floats(-20.0, 100.0), st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_accepted_shares_sum_to_one_and_rise_along_the_ladder(self, near_users,
                                                                  delta_db, alpha):
        try:
            ratios = resolve_allocation(ladder(near_users, delta_db, alpha))
        except ValueError as exc:
            assert "far user must hold the strictly largest" in str(exc)
            return
        assert ratios.shape == (near_users + 1,)
        assert abs(ratios.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(ratios) > 0.0)

    def test_cached_shares_are_read_only_and_match_a_fresh_computation(self):
        scenario = ladder(near_users=2, delta_db=9.0, alpha_fpc=0.5)
        ratios = resolve_allocation(scenario)
        # another far scheme, seed or SNR keeps the shares: the same array
        assert resolve_allocation(replace(scenario, far_scheme=ModScheme.QAM64, seed=3,
                                          snr_db_near=-4.0)) is ratios
        assert not ratios.flags.writeable
        with pytest.raises(ValueError):
            ratios[0] = 0.5
        fresh = sigsim._allocation.__wrapped__(2, 9.0, 0.5)
        assert fresh.tobytes() == ratios.tobytes()

    @pytest.mark.parametrize("delta_db", [np.inf, np.nan, 4000.0])
    def test_far_gain_of_zero_or_nan_is_refused(self, delta_db):
        with pytest.raises(ValueError, match="strictly largest"):
            resolve_allocation(ladder(delta_db=delta_db))


class TestSuperpose:
    def test_two_unit_streams(self):
        out = superpose([SignalFrame([1.0 + 0j]), SignalFrame([1.0 + 0j])], np.array([0.2, 0.8]))
        assert out.samples[0] == pytest.approx(1.3416407864998738, abs=1e-12)

    def test_single_stream_identity(self):
        frame = SignalFrame(np.array([1 + 2j, -0.5j, 3.0]))
        out = superpose([frame], np.array([1.0]))
        np.testing.assert_allclose(out.samples, frame.samples, atol=1e-15)

    def test_equal_power_cancellation(self):
        out = superpose([SignalFrame([1.0 + 0j]), SignalFrame([-1.0 + 0j])], np.array([0.5, 0.5]))
        assert abs(out.samples[0]) <= 1e-15

    def test_length_mismatch_reports_lengths(self):
        with pytest.raises(ValueError, match="1 vs 2"):
            superpose([SignalFrame([1.0]), SignalFrame([1.0, 2.0])], np.array([0.5, 0.5]))

    def test_stream_and_ratio_counts_must_match(self):
        with pytest.raises(ValueError, match="stream count 2 does not match ratio count 3"):
            superpose([SignalFrame([1.0]), SignalFrame([1.0])], np.array([0.2, 0.3, 0.5]))


class TestApplyChannel:
    def test_identity_channel(self):
        cfg = ChannelConfig(fading="none", snr_db_near=np.inf)
        frame = SignalFrame(np.array([1 + 1j, -2j, 0.5]))
        out = apply_channel(frame, cfg, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples, frame.samples)
        assert out.noise_scale == 0.0

    def test_noise_power_matches_snr(self):
        # 0 dB on a unit-power input: measured noise power within 5%
        rng = np.random.default_rng(7)
        frame = SignalFrame(np.exp(1j * rng.uniform(0, 2 * np.pi, 100000)))
        cfg = ChannelConfig(fading="none", snr_db_near=0.0)
        out = apply_channel(frame, cfg, rng=np.random.default_rng(99))
        noise_power = np.mean(np.abs(out.samples - frame.samples) ** 2)
        assert noise_power == pytest.approx(1.0, rel=0.05)

    def test_fixed_seed_reproducible(self):
        frame = SignalFrame(np.ones(64, dtype=complex))
        cfg = ChannelConfig(fading="rayleigh", snr_db_near=10.0)
        a = apply_channel(frame, cfg, rng=np.random.default_rng(1234))
        b = apply_channel(frame, cfg, rng=np.random.default_rng(1234))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_equalize_cancels_fading_without_noise(self):
        frame = SignalFrame(np.exp(1j * np.linspace(0, 5, 257)))
        cfg = ChannelConfig(fading="rayleigh", snr_db_near=np.inf)
        out = apply_channel(frame, cfg, rng=np.random.default_rng(5))
        err = np.max(np.abs(out.samples - frame.samples)) / np.max(np.abs(frame.samples))
        assert err <= 1e-12


class TestGenerateFrame:
    def test_structure_and_label(self):
        scen = NomaScenario(near_schemes=(ModScheme.QPSK,) * 3,
                            far_scheme=ModScheme.QAM16, symbols_per_frame=128)
        frame = generate_noma_frame(scen, rng=np.random.default_rng(3))
        assert len(frame) == 128

    def test_determinism(self):
        scen = NomaScenario(symbols_per_frame=256)
        a = generate_noma_frame(scen, rng=np.random.default_rng(21))
        b = generate_noma_frame(scen, rng=np.random.default_rng(21))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_far_scheme_required(self):
        with pytest.raises(ValueError, match="unknown modulation scheme None"):
            NomaScenario(far_scheme=None)

    def test_far_user_holds_largest_ratio(self):
        scen = NomaScenario(near_schemes=(ModScheme.QPSK, ModScheme.QPSK),
                            delta_db=9.0)
        ratios = resolve_allocation(scen)
        assert ratios[-1] > ratios[:-1].max()

    def test_explicit_ratios_must_favour_far_user(self):
        scen = NomaScenario(delta_db=0.0)
        with pytest.raises(ValueError, match="largest"):
            resolve_allocation(scen)

    def test_table1_regime_mixture_shape(self, table1_scenario):
        # far pi/2-BPSK dominates: real-axis energy concentrates on even symbols
        frame = generate_noma_frame(table1_scenario, rng=np.random.default_rng(11))
        even_mag = np.mean(np.abs(frame.samples[::2].real))
        odd_mag = np.mean(np.abs(frame.samples[1::2].real))
        assert even_mag > 2.0 * odd_mag


def replay(scenario: NomaScenario, seed: int) -> SignalFrame:
    """One seed's frame rebuilt from the one-frame stages, drawing in the
    generator's order: each user's bits, near users first, then the channel."""
    rng = np.random.default_rng(seed)
    streams = [modulate(rng.integers(0, 2, size=scenario.symbols_per_frame * s.bits_per_symbol,
                                     dtype=np.uint8), s)
               for s in (*scenario.near_schemes, scenario.far_scheme)]
    return apply_channel(superpose(streams, resolve_allocation(scenario)),
                         scenario.channel_config(), rng)


def assert_same_bytes(got: SignalFrame, want: SignalFrame):
    assert got.samples.tobytes() == want.samples.tobytes()
    assert np.float64(got.noise_scale).tobytes() == np.float64(want.noise_scale).tobytes()


CHANNELS = [("rayleigh", 3.0), ("rayleigh", np.inf), ("none", 3.0), ("none", np.inf)]


class TestGenerateFrames:
    """Row b of a batch holds the bytes of frame b generated alone, and of
    the benchmark's replay of its draws through modulate, superpose and
    apply_channel."""

    @pytest.mark.parametrize("far", ALL_SCHEMES, ids=str)
    @pytest.mark.parametrize("near", ALL_SCHEMES, ids=str)
    def test_every_scheme_pair_and_channel(self, near, far):
        for fading, snr in CHANNELS:
            scen = NomaScenario(near_schemes=(near,), far_scheme=far, fading=fading,
                                snr_db_near=snr, symbols_per_frame=50)
            seeds = [7, 8, 9]
            batch = generate_noma_frames(scen, [np.random.default_rng(s) for s in seeds])
            assert len(batch) == len(seeds)
            for seed, frame in zip(seeds, batch):
                assert_same_bytes(frame, generate_noma_frame(scen, np.random.default_rng(seed)))
                assert_same_bytes(frame, replay(scen, seed))

    @pytest.mark.parametrize("near", [
        (ModScheme.QAM16, ModScheme.PI_HALF_BPSK),
        (ModScheme.QAM64, ModScheme.QPSK, ModScheme.PI_HALF_BPSK),
    ], ids=["two_near", "three_near"])
    @pytest.mark.parametrize("fading, snr", CHANNELS)
    def test_several_near_users(self, near, fading, snr):
        scen = NomaScenario(near_schemes=near, far_scheme=ModScheme.QAM16, fading=fading,
                            snr_db_near=snr, delta_db=9.0, symbols_per_frame=64)
        batch = generate_noma_frames(scen, [np.random.default_rng(s) for s in range(5)])
        for seed, frame in enumerate(batch):
            assert_same_bytes(frame, generate_noma_frame(scen, np.random.default_rng(seed)))
            assert_same_bytes(frame, replay(scen, seed))

    def test_one_generator_is_one_frame(self, table1_scenario):
        batch = generate_noma_frames(table1_scenario, [np.random.default_rng(11)])
        assert len(batch) == 1
        assert_same_bytes(batch[0], replay(table1_scenario, 11))

    @pytest.mark.parametrize("fading, draws", [("rayleigh", 2), ("none", 0)])
    def test_no_noise_is_drawn_at_infinite_snr(self, fading, draws):
        scen = NomaScenario(near_schemes=(ModScheme.QAM64,), far_scheme=ModScheme.QPSK,
                            fading=fading, snr_db_near=np.inf, symbols_per_frame=40)
        rngs = [np.random.default_rng(s) for s in (3, 4)]
        batch = generate_noma_frames(scen, rngs)
        for seed, rng, frame in zip((3, 4), rngs, batch):
            assert frame.noise_scale == 0.0
            # each user's bits, then h's two normals, and nothing more
            expected = np.random.default_rng(seed)
            expected.integers(0, 2, size=40 * 6, dtype=np.uint8)
            expected.integers(0, 2, size=40 * 2, dtype=np.uint8)
            expected.standard_normal(draws)
            assert rng.bit_generator.state == expected.bit_generator.state
