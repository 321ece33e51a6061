"""Subtractive clustering and the projection classifier."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nomadet import baseline
from nomadet.baseline import (ClusterParams, axis_level_counts,
                              projection_classify, subtractive_cluster_count)
from nomadet.sigsim import (ModScheme, NomaScenario, SignalFrame,
                            generate_noma_frame, modulate, resolve_allocation)
from nomadet.wavelet import denoise_frame

FINE = ClusterParams(neighborhood_radius=0.06)


def noiseless_two_user(near, far, seed):
    scen = NomaScenario(near_schemes=(near,), far_scheme=far,
                        snr_db_near=np.inf, fading="none", symbols_per_frame=2000)
    return generate_noma_frame(scen, rng=np.random.default_rng(seed)), scen


class TestSubtractiveClustering:
    def test_two_separated_clusters(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 0.02, 150), rng.normal(5, 0.02, 150)])
        assert subtractive_cluster_count(pts) == 2

    def test_all_identical_points(self):
        assert subtractive_cluster_count(np.full(40, 1.25)) == 1

    def test_qam16_axis_levels(self):
        levels = np.repeat(np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0), 200)
        assert subtractive_cluster_count(levels, FINE) == 4

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            subtractive_cluster_count(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        pts = np.linspace(0.0, 1.0, 50)
        pts[17] = bad
        with pytest.raises(ValueError, match="finite"):
            subtractive_cluster_count(pts, FINE)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(c, 0.03, 80) for c in (0.0, 2.0, 4.0)])
        base = subtractive_cluster_count(pts, FINE)
        perm = rng.permutation(pts.size)
        assert subtractive_cluster_count(pts[perm], FINE) == base

    def test_affine_rescale_invariant(self):
        rng = np.random.default_rng(2)
        pts = np.concatenate([rng.normal(c, 0.03, 80) for c in (0.0, 1.0, 2.5)])
        base = subtractive_cluster_count(pts, FINE)
        assert subtractive_cluster_count(17.0 * pts - 3.0, FINE) == base
        assert subtractive_cluster_count(0.01 * pts + 400.0, FINE) == base

    def test_new_far_cluster_never_decreases_count(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.normal(c, 0.02, 100) for c in (0.0, 1.0)])
        base = subtractive_cluster_count(pts, FINE)
        span = pts.max() - pts.min()
        extra = rng.normal(pts.max() + 3 * FINE.neighborhood_radius * span * 4,
                           0.02, 100)
        grown = subtractive_cluster_count(np.concatenate([pts, extra]), FINE)
        assert grown >= base

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(neighborhood_radius=0.0)
        with pytest.raises(ValueError):
            ClusterParams(neighborhood_radius=0.0009)
        assert subtractive_cluster_count(np.arange(10.0),
                                         ClusterParams(neighborhood_radius=0.001)) == 10


def full_matrix_potentials(x, alpha):
    """The n x n form that the binned potentials approximate."""
    diff2 = (x[:, None] - x[None, :]) ** 2
    return np.exp(-alpha * diff2).sum(axis=1)


class TestBlockedPotentials:
    @pytest.mark.parametrize("radius", [0.06, 0.2])
    @pytest.mark.parametrize("n", [2, 7, 2000, 3000])
    def test_within_binning_bound_of_full_matrix(self, n, radius):
        alpha = 4.0 / radius ** 2
        step = radius / baseline._NODES_PER_RADIUS
        x = np.random.default_rng(n).random(n)
        # binning and interpolation each move a pair's kernel value by at most
        # alpha * step^2 / 4; the FFT adds a few ulps of the largest potential, n
        bound = n * (alpha * step ** 2 / 2 + 8 * np.finfo(float).eps)
        np.testing.assert_allclose(baseline._potentials(x, alpha),
                                   full_matrix_potentials(x, alpha), rtol=0, atol=bound)

    def test_counts_match_full_matrix(self, monkeypatch):
        frames = []
        cells = [(snr, users) for snr in (-10.0, 0.0, 10.0, 20.0, 30.0) for users in (1, 2, 3)]
        for index, (snr, users) in enumerate(cells):
            scen = NomaScenario(near_schemes=(ModScheme.QPSK,) * users,
                                far_scheme=list(ModScheme)[index % 4], snr_db_near=snr,
                                symbols_per_frame=1500)
            frame = generate_noma_frame(scen, rng=np.random.default_rng(900 + index))
            frames += [frame, denoise_frame(frame)]
        binned = [axis_level_counts(frame) for frame in frames]
        monkeypatch.setattr(baseline, "_potentials", full_matrix_potentials)
        assert [axis_level_counts(frame) for frame in frames] == binned

    def test_working_memory_stays_linear(self):
        # an n x n float64 temporary at 3000 points alone is 72 MB
        pts = np.random.default_rng(6).random(3000)
        tracemalloc.start()
        try:
            subtractive_cluster_count(pts, FINE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def one_candidate_count(points, params=ClusterParams(), events=None):
    """Reference clustering loop: one argmax per candidate, each grey-zone
    candidate that fails the distance rule set to -inf on its own. Counts
    in ``events`` the grey-zone candidates it rejects ("rejected"), those
    whose potential another live point shares ("tied"), and calls that stop
    at the centre cap ("capped")."""
    events = Counter() if events is None else events
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    span = pts.max() - pts.min()
    if span == 0.0:
        return 1
    x = (pts - pts.min()) / span
    ra = params.neighborhood_radius
    alpha, beta = 4.0 / ra ** 2, 4.0 / (baseline._SQUASH_FACTOR * ra) ** 2
    potential = baseline._potentials(x, alpha)
    first_potential = potential.max()
    centers = []
    while len(centers) < baseline._MAX_CENTERS:
        k = int(np.argmax(potential))
        p_star = potential[k]
        if not np.isfinite(p_star):
            break
        if centers and p_star <= baseline._REJECT_RATIO * first_potential:
            break
        if centers and p_star <= baseline._ACCEPT_RATIO * first_potential:
            events["tied"] += np.count_nonzero(potential == p_star) > 1
            d_min = min(abs(x[k] - c) for c in centers)
            if d_min / ra + p_star / first_potential < 1.0:
                events["rejected"] += 1
                potential[k] = -np.inf
                continue
        centers.append(float(x[k]))
        potential = potential - p_star * np.exp(-beta * (x - x[k]) ** 2)
    events["capped"] += len(centers) == baseline._MAX_CENTERS
    return len(centers)


def reference_corpus():
    """(points, params) sets that reach the grey zone, exact ties and the cap."""
    rng = np.random.default_rng(23)
    sets = [(np.repeat(np.arange(100.0), 5), ClusterParams(0.001))]  # 64-centre cap
    sets += [(rng.random(int(n)), ClusterParams(radius))  # dense in grey-zone candidates
             for n, radius in zip(rng.integers(50, 3000, 128), [0.06, 0.1, 0.2, 0.02] * 32)]
    sets += [(np.repeat(rng.random(int(n)), r), FINE)  # duplicates: exactly tied potentials
             for n, r in zip(rng.integers(20, 600, 48), [2, 3, 5, 8] * 12)]
    cells = [(n, snr) for n in (2000, 3000) for snr in (-10.0, -4.0, 2.0, 8.0, 14.0, 20.0, 26.0)]
    for index, (n, snr) in enumerate(cells):
        scen = NomaScenario(near_schemes=(ModScheme.QPSK,) * (1 + index % 3),
                            far_scheme=list(ModScheme)[index % 4], snr_db_near=snr,
                            symbols_per_frame=n)
        frame = generate_noma_frame(scen, rng=np.random.default_rng(950 + index))
        for f in (frame, denoise_frame(frame)):
            sets += [(f.samples.real, FINE), (f.samples.imag, FINE)]
    return sets


class TestGreyZonePass:
    def test_counts_match_one_candidate_loop(self):
        events = Counter()
        for points, params in reference_corpus():
            assert (subtractive_cluster_count(points, params)
                    == one_candidate_count(points, params, events))
        assert events["rejected"] > 100 and events["tied"] > 0 and events["capped"] > 0

    @pytest.mark.parametrize("order, count", [((0, 1, 2, 3, 4), 3), ((0, 2, 1, 3, 4), 2)],
                             ids=["a_first", "b_first"])
    def test_tie_goes_to_lowest_index(self, monkeypatch, order, count):
        # A and B tie in the grey zone, both far enough from the first centre;
        # accepting A squashes B away and leaves E, accepting B squashes both
        x = np.array([0.0, 0.5, 0.505, 0.51, 1.0])[list(order)]  # centre, A, B, E, edge
        given = np.array([10.0, 4.0, 4.0, 3.5, 0.1])[list(order)]
        monkeypatch.setattr(baseline, "_potentials", lambda x, alpha: given.copy())
        params = ClusterParams(0.01)
        assert subtractive_cluster_count(x, params) == one_candidate_count(x, params) == count

    def test_distance_rule_accepts_its_boundary(self, monkeypatch):
        # C lies 3 r_a / 4 from the first centre and keeps a quarter of its
        # potential after the squash: d_min / r_a + potential / first is exactly 1
        params = ClusterParams(0.0625)
        beta = 4.0 / (baseline._SQUASH_FACTOR * params.neighborhood_radius) ** 2
        x = np.array([0.0, 3 / 64, 1.0])
        squash = 10.0 * np.exp(-beta * x ** 2)  # as an array: numpy's scalar exp may differ
        given = np.array([10.0, 2.5 + squash[1], 0.1])
        assert (given - squash)[1] == 2.5
        monkeypatch.setattr(baseline, "_potentials", lambda x, alpha: given.copy())
        assert subtractive_cluster_count(x, params) == one_candidate_count(x, params) == 2

    @pytest.mark.filterwarnings("error")
    def test_range_overflowing_float64(self, monkeypatch):
        seen = []
        potentials = baseline._potentials
        monkeypatch.setattr(baseline, "_potentials",
                            lambda x, alpha: seen.append(x) or potentials(x, alpha))
        huge = subtractive_cluster_count(np.array([-1e308, 0.0, 1e308]))
        assert huge == subtractive_cluster_count(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(seen[0], seen[1])


class TestKernelSpectrum:
    @pytest.mark.parametrize("size", [8, 96, 10240, 16384])
    def test_cached_read_only_and_equal_to_uncached(self, size):
        spectrum = baseline._kernel_spectrum(size)
        assert not spectrum.flags.writeable
        assert baseline._kernel_spectrum(size) is spectrum
        np.testing.assert_array_equal(spectrum, baseline._kernel_spectrum.__wrapped__(size))

    def test_fft_size_is_smallest_smooth_size(self):
        smooth = sorted(f << a for f in (1, 3, 5) for a in range(24))
        for length in [*range(1, 2000), 10137, 2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 5 << 20]:
            assert baseline._fft_size(length) == min(s for s in smooth if s >= length)
        assert baseline._fft_size(8535 + baseline._KERNEL_REACH) == 10240  # r_a = 0.06


class TestProjectionClassify:
    @pytest.mark.parametrize("scheme", list(ModScheme), ids=str)
    def test_single_user_noiseless_recovery(self, scheme):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=2000 * scheme.bits_per_symbol, dtype=np.uint8)
        frame = modulate(bits, scheme)
        assert projection_classify(frame) is scheme

    def test_far_pi_half_bpsk_dominant(self):
        frame, scen = noiseless_two_user(ModScheme.QAM16, ModScheme.PI_HALF_BPSK, 3)
        got = projection_classify(frame, resolve_allocation(scen),
                                  scen.near_schemes)
        assert got is ModScheme.PI_HALF_BPSK

    def test_far_qam16_dominant(self):
        frame, scen = noiseless_two_user(ModScheme.PI_HALF_BPSK, ModScheme.QAM16, 5)
        got = projection_classify(frame, resolve_allocation(scen),
                                  scen.near_schemes)
        assert got is ModScheme.QAM16

    def test_axis_counts_factorise(self):
        frame, scen = noiseless_two_user(ModScheme.QAM16, ModScheme.PI_HALF_BPSK, 11)
        assert axis_level_counts(frame) == (8, 4)

    def test_pure_noise_total_function(self):
        rng = np.random.default_rng(13)
        frame = SignalFrame(rng.standard_normal(1500) + 1j * rng.standard_normal(1500))
        assert projection_classify(frame) in set(ModScheme)
