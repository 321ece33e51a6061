"""Density diagram construction and its algebraic invariances."""

import numpy as np
import pytest

from nomadet import density
from nomadet.density import (DensityDiagram, density_counts, density_diagram,
                             density_grids, write_pgm)
from nomadet.sigsim import SignalFrame


def random_frame(rng, n=500):
    return SignalFrame(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def add_at_counts(frame, grid_size):
    """The per-cell counts as an np.add.at scatter over the same bins."""
    rows = density._bin_indices(frame.samples.real[None], grid_size)[0][0]
    cols = density._bin_indices(frame.samples.imag[None], grid_size)[0][0]
    counts = np.zeros((grid_size, grid_size), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


class TestDensityDiagram:
    def test_four_corner_samples(self):
        frame = SignalFrame(np.array([0 + 0j, 0 + 9j, 9 + 0j, 9 + 9j]))
        diagram = density_diagram(frame, grid_size=10)
        expected = np.zeros((10, 10))
        expected[0, 0] = expected[0, 9] = expected[9, 0] = expected[9, 9] = 1.0
        np.testing.assert_array_equal(diagram.grid, expected)

    def test_constant_frame_is_all_zero(self):
        frame = SignalFrame(np.full(64, 2.5 - 1.5j))
        diagram = density_diagram(frame, grid_size=16)
        assert not np.any(diagram.grid)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        frame = random_frame(rng, 2000)
        counts = density_counts(frame, 100)
        assert counts.sum() == 2000

    def test_entries_bounded_and_extremes_attained(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            diagram = density_diagram(random_frame(rng), 50)
            assert diagram.grid.min() == 0.0
            assert diagram.grid.max() == 1.0
            assert np.all((diagram.grid >= 0.0) & (diagram.grid <= 1.0))

    def test_translation_invariance_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            frame = random_frame(rng)
            offset = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            base = density_diagram(frame, 40)
            shifted = density_diagram(SignalFrame(frame.samples + offset), 40)
            np.testing.assert_array_equal(base.grid, shifted.grid)

    def test_positive_scale_invariance_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            frame = random_frame(rng)
            scale = float(np.exp(rng.uniform(-6, 6)))
            base = density_diagram(frame, 40)
            scaled = density_diagram(SignalFrame(frame.samples * scale), 40)
            np.testing.assert_array_equal(base.grid, scaled.grid)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            frame = random_frame(rng)
            perm = rng.permutation(len(frame))
            base = density_diagram(frame, 40)
            shuffled = density_diagram(SignalFrame(frame.samples[perm]), 40)
            np.testing.assert_array_equal(base.grid, shuffled.grid)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            SignalFrame(np.array([], dtype=complex))

    def test_grid_size_must_be_at_least_two(self):
        frame = SignalFrame(np.array([1.0 + 0j, 2.0 + 1j]))
        with pytest.raises(ValueError):
            density_counts(frame, 1)

    def test_real_part_maps_to_rows(self):
        # two samples separated only along the real axis land in different rows
        frame = SignalFrame(np.array([0 + 0j, 9 + 0j, 0 + 0j, 9 + 0j]))
        counts = density_counts(frame, 10)
        assert counts[0, 0] == 2 and counts[9, 0] == 2
        assert counts[0, 9] == 0

    def test_degenerate_axis_still_counts(self):
        # constant imaginary part: all mass in column zero, counts conserved
        frame = SignalFrame(np.array([0 + 1j, 1 + 1j, 2 + 1j, 3 + 1j]))
        counts = density_counts(frame, 4)
        assert counts.sum() == 4
        assert counts[:, 0].sum() == 4


class TestCountsMatchAddAt:
    @pytest.mark.parametrize("grid_size", [2, 7, 100])
    def test_samples_at_the_axis_maxima(self, grid_size):
        # a sample at an axis maximum bins to grid_size before the clip
        rng = np.random.default_rng(grid_size)
        samples = rng.integers(-4, 5, 300) + 1j * rng.integers(-4, 5, 300)
        samples[:5] = 4 + 4j
        frame = SignalFrame(samples)
        counts = density_counts(frame, grid_size)
        assert counts.dtype == np.int64 and counts.shape == (grid_size, grid_size)
        np.testing.assert_array_equal(counts, add_at_counts(frame, grid_size))
        assert counts[-1, -1] >= 5

    def test_random_frames(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 2000, 3000):
            frame = random_frame(rng, n)
            np.testing.assert_array_equal(density_counts(frame, 100),
                                          add_at_counts(frame, 100))

    @pytest.mark.parametrize("samples", [
        np.arange(10) + 2.5j,                # constant imaginary part
        2.5 + 1j * np.arange(10),            # constant real part
        np.full(10, 1 - 1j),                 # both axes constant
    ])
    def test_degenerate_axis(self, samples):
        frame = SignalFrame(samples)
        np.testing.assert_array_equal(density_counts(frame, 8), add_at_counts(frame, 8))


def reference_grid(frame, grid_size):
    """The min-max normalised add.at counts, one frame at a time, all zero
    for a frame of identical samples or uniform counts."""
    s = frame.samples
    counts = add_at_counts(frame, grid_size)
    lo, hi = counts.min(), counts.max()
    if np.all(s == s[0]) or hi == lo:
        return np.zeros((grid_size, grid_size), dtype=np.float32)
    return ((counts - lo) / float(hi - lo)).astype(np.float32)


class TestDensityGrids:
    def test_rows_match_one_frame_diagrams_and_counts(self):
        rng = np.random.default_rng(12)
        lattice = np.arange(4.0)
        frames = [random_frame(rng, 16) for _ in range(5)] + [
            SignalFrame(np.full(16, 0.5 - 2j)),                            # all equal
            SignalFrame(np.arange(16.0) + 1j),                             # constant imaginary axis
            SignalFrame(1.5 + 1j * rng.standard_normal(16)),               # constant real axis
            SignalFrame((lattice[:, None] + 1j * lattice).reshape(-1)),    # uniform 4x4 counts
            SignalFrame(rng.integers(-2, 3, 16) + 1j * rng.integers(-2, 3, 16)),
        ]
        grids = density_grids(np.stack([f.samples for f in frames]), 4)
        counts, _ = density._counts(np.stack([f.samples for f in frames]), 4)
        assert grids.dtype == np.float32 and grids.shape == (len(frames), 4, 4)
        for frame, grid, count in zip(frames, grids, counts):
            assert grid.tobytes() == density_diagram(frame, 4).grid.tobytes()
            assert grid.tobytes() == reference_grid(frame, 4).tobytes()
            np.testing.assert_array_equal(count, density_counts(frame, 4))
        assert not grids[5].any() and not grids[8].any()
        assert grids[6].any() and grids[7].any()

    def test_simulated_rows_match_the_reference(self):
        rng = np.random.default_rng(13)
        frames = [random_frame(rng, 2000) for _ in range(9)]
        grids = density_grids(np.stack([f.samples for f in frames]), 100)
        for frame, grid in zip(frames, grids):
            assert grid.tobytes() == reference_grid(frame, 100).tobytes()


class TestPgmExport:
    def test_header_and_payload(self, tmp_path):
        grid = np.linspace(0, 1, 16).reshape(4, 4)
        diagram = DensityDiagram(grid)
        path = tmp_path / "d.pgm"
        write_pgm(diagram, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 4\n255\n")
        payload = blob[len(b"P5\n4 4\n255\n"):]
        assert len(payload) == 16
        assert payload[0] == 0 and payload[-1] == 255

    def test_pixels_scale_float32_values_in_float64(self, tmp_path):
        # float32(1/6) * 255 is 42.5000012 in float64 but exactly 42.5 in
        # float32, which rounds to even: scaling must happen in float64
        path = tmp_path / "d.pgm"
        write_pgm(DensityDiagram(np.full((2, 2), 1 / 6)), path)
        assert path.read_bytes()[-4:] == bytes([43] * 4)
