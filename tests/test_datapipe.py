"""Dataset generation, splitting, seeding, and the NMD1 container."""

import json
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from nomadet import datapipe
from nomadet.datapipe import (CLASS_ORDER, derive_seed, generate_dataset,
                              load_dataset, save_dataset, split_dataset)
from nomadet.errors import (BadMagicError, DataFormatError, TruncatedFileError,
                            VersionMismatchError)
from nomadet.density import density_diagram
from nomadet.sigsim import ModScheme, NomaScenario, generate_noma_frame, generate_noma_frames
from nomadet.wavelet import denoise_frame


def quick_scenario(samples_per_class=3, seed=0):
    return NomaScenario(near_schemes=(ModScheme.QPSK,), snr_db_near=10.0,
                        samples_per_class=samples_per_class,
                        symbols_per_frame=64, grid_size=24, seed=seed)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, 2, 3)
        assert derive_seed(2, 2, 3) != base
        assert derive_seed(1, 3, 3) != base
        assert derive_seed(1, 2, 4) != base

    def test_fits_in_u64(self):
        s = derive_seed(2 ** 63, 5, 7)
        assert 0 <= s < 2 ** 64


class TestGenerateDataset:
    def test_counts_and_class_coverage(self):
        samples = generate_dataset(quick_scenario(samples_per_class=3))
        assert len(samples) == 12
        labels = [s.label for s in samples]
        assert all(labels.count(c) == 3 for c in range(4))

    def test_single_sample_per_class(self):
        samples = generate_dataset(quick_scenario(samples_per_class=1))
        assert sorted(s.label for s in samples) == [0, 1, 2, 3]

    def test_bit_identical_regeneration(self):
        a = generate_dataset(quick_scenario(seed=5))
        b = generate_dataset(quick_scenario(seed=5))
        for sa, sb in zip(a, b):
            assert sa.seed == sb.seed and sa.label == sb.label
            np.testing.assert_array_equal(sa.diagram.grid, sb.diagram.grid)

    def test_per_sample_regeneration_from_recorded_seed(self):
        scenario = quick_scenario(seed=9)
        samples = generate_dataset(scenario)
        probe = samples[7]
        frame = generate_noma_frame(
            replace(scenario, far_scheme=CLASS_ORDER[probe.label]),
            rng=np.random.default_rng(probe.seed))
        regen = density_diagram(denoise_frame(frame), scenario.grid_size)
        np.testing.assert_array_equal(regen.grid, probe.diagram.grid)

    def test_chunked_classes_match_one_frame_samples(self, monkeypatch):
        """256-symbol frames come 128 to a chunk, so 129 frames per class
        take a full chunk and a chunk of one; every frame and diagram has
        the bytes of its seed's frame simulated, denoised and binned alone."""
        scenario = replace(quick_scenario(samples_per_class=129, seed=4),
                           symbols_per_frame=256)
        chunks = []

        def counted(scen, rngs):
            chunks.append(len(rngs))
            return generate_noma_frames(scen, rngs)
        monkeypatch.setattr(datapipe, "generate_noma_frames", counted)
        samples, frames = generate_dataset(scenario, keep_frames=True)
        assert chunks == [128, 1] * len(CLASS_ORDER)
        for index, (sample, frame) in enumerate(zip(samples, frames)):
            label, k = divmod(index, 129)
            assert (sample.label, sample.seed) == (label, derive_seed(4, label, k))
            alone = denoise_frame(generate_noma_frame(
                replace(scenario, far_scheme=CLASS_ORDER[label]),
                rng=np.random.default_rng(sample.seed)))
            assert frame.samples.tobytes() == alone.samples.tobytes()
            assert sample.diagram.grid.dtype == np.float32
            assert sample.diagram.grid.tobytes() == \
                density_diagram(alone, scenario.grid_size).grid.tobytes()

    def test_every_kept_row_is_a_copy(self):
        """``keep`` names dataset indices, label * samples_per_class + index.
        256-symbol frames come 128 to a chunk, so with 129 per class each
        class is a chunk of 128 and a chunk of one. A kept row is copied out
        whether its chunk keeps some rows or every row, since a row view
        keeps its whole chunk alive."""
        scenario = replace(quick_scenario(samples_per_class=129, seed=4),
                           symbols_per_frame=256)
        every = datapipe.scenario_samples(scenario, (), {"raw": range(4 * 129)})[1]["raw"]
        whole = set(range(128)) | {3 * 129 + 128}  # class 0's first chunk, class 3's last
        partial = {129 + 0, 129 + 127, 2 * 129 + 64}  # of class 1's first chunk, class 2's
        samples, frames = datapipe.scenario_samples(scenario, ("raw",),
                                                   {"raw": whole | partial})
        assert len(samples["raw"]) == 4 * 129
        kept = sorted(whole | partial)
        assert len(frames["raw"]) == len(kept)
        for index, frame in zip(kept, frames["raw"]):
            assert frame.samples.tobytes() == every[index].samples.tobytes()
            assert frame.noise_scale == every[index].noise_scale
        _, dataset_frames = generate_dataset(scenario, denoise=False, keep_frames=True)
        for mine, theirs in zip(dataset_frames, every, strict=True):
            assert mine.samples.tobytes() == theirs.samples.tobytes()
            assert mine.noise_scale == theirs.noise_scale
        for frame in [*every, *frames["raw"], *dataset_frames]:
            assert frame.samples.base is None

    def test_raw_mode_differs_from_denoised(self):
        scenario = quick_scenario(seed=2)
        den = generate_dataset(scenario, denoise=True)
        raw = generate_dataset(scenario, denoise=False)
        assert any(np.any(a.diagram.grid != b.diagram.grid)
                   for a, b in zip(den, raw))


class TestSplitDataset:
    def test_1000_samples_split_600_200_200(self):
        samples = generate_dataset(quick_scenario(samples_per_class=250))
        split = split_dataset(samples, seed=3)
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (600, 200, 200)

    def test_disjoint_and_exhaustive(self):
        samples = generate_dataset(quick_scenario(samples_per_class=7))
        split = split_dataset(samples, seed=1)
        merged = sorted(split.train + split.validation + split.test)
        assert merged == list(range(len(samples)))

    def test_ten_samples_land_on_622(self):
        samples = generate_dataset(quick_scenario(samples_per_class=3))[:10]
        split = split_dataset(samples, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 2, 2)

    def test_per_class_balance_within_one(self):
        for per_class in (5, 13, 50):
            samples = generate_dataset(quick_scenario(samples_per_class=per_class))
            split = split_dataset(samples, seed=11)
            for bucket, ratio in ((split.train, 0.6), (split.validation, 0.2),
                                  (split.test, 0.2)):
                labels = [samples[i].label for i in bucket]
                for c in range(4):
                    assert abs(labels.count(c) - ratio * per_class) <= 1.0

    def test_deterministic_under_seed(self):
        samples = generate_dataset(quick_scenario(samples_per_class=6))
        a = split_dataset(samples, seed=4)
        b = split_dataset(samples, seed=4)
        assert a == b
        c = split_dataset(samples, seed=5)
        assert a != c

    def test_too_few_samples_rejected(self):
        samples = generate_dataset(quick_scenario(samples_per_class=2))[:9]
        with pytest.raises(ValueError, match="at least 10"):
            split_dataset(samples, seed=0)


class TestContainer:
    def test_round_trip_equality(self, tmp_path):
        scenario = quick_scenario(samples_per_class=3, seed=8)
        samples = generate_dataset(scenario)
        path = tmp_path / "data.nmd"
        save_dataset(samples, path, scenario)
        loaded, manifest = load_dataset(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.label == b.label
            assert a.seed == b.seed
            assert a.snr_db == pytest.approx(b.snr_db, abs=1e-6)
            np.testing.assert_allclose(a.diagram.grid, b.diagram.grid, atol=1e-7)
        assert manifest["sample_count"] == len(samples)
        assert NomaScenario(**manifest["scenario"]) == scenario

    def test_scenario_dict_round_trip(self):
        scenario = quick_scenario()
        blob = json.dumps(asdict(scenario))
        assert json.loads(blob)["near_schemes"] == ["qpsk"]
        assert NomaScenario(**json.loads(blob)) == scenario

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(quick_scenario(1)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(quick_scenario(1)), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_dataset(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(quick_scenario(1)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(quick_scenario(1)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_records_are_packed_after_a_44_byte_header(self, tmp_path):
        samples = generate_dataset(quick_scenario(1))
        path = tmp_path / "data.nmd"
        save_dataset(samples, path)
        blob = path.read_bytes()
        assert struct.unpack_from("<4sHIH", blob) == (b"NMD1", 1, 4, 24)
        record = 13 + 4 * 24 * 24
        assert len(blob) == 44 + 4 * record
        for k, sample in enumerate(samples):
            label, snr, seed = struct.unpack_from("<BfQ", blob, 44 + k * record)
            grid = np.frombuffer(blob, "<f4", 24 * 24, 44 + k * record + 13)
            assert (label, seed) == (sample.label, sample.seed)
            assert snr == np.float32(sample.snr_db)
            np.testing.assert_array_equal(grid.reshape(24, 24), sample.diagram.grid)

    def test_label_outside_the_classes_names_file_and_record(self, tmp_path):
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(quick_scenario(1)), path)
        blob = bytearray(path.read_bytes())
        blob[44 + 2 * (13 + 4 * 24 * 24)] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=r"data\.nmd: record 2 has label 9"):
            load_dataset(path)

    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_grid_size_below_two_names_the_file(self, tmp_path, grid_size):
        # a hand-built file of three records with no manifest: the header,
        # then each record's 13 bytes and N x N float32 grid
        path = tmp_path / "data.nmd"
        path.write_bytes(struct.pack("<4sHIH32s", b"NMD1", 1, 3, grid_size, bytes(32))
                         + bytes(3 * (13 + 4 * grid_size ** 2)))
        with pytest.raises(DataFormatError, match=rf"data\.nmd: grid size {grid_size}"):
            load_dataset(path)

    def test_count_past_the_end_of_the_file_is_truncation(self, tmp_path):
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(quick_scenario(1)), path)
        blob = bytearray(path.read_bytes())
        blob[6:10] = b"\xff\xff\xff\xff"
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFileError, match="records"):
            load_dataset(path)

    def test_manifest_must_match_header_digest(self, tmp_path):
        scenario = quick_scenario(1)
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(scenario), path, scenario)
        sidecar = tmp_path / "data.nmd.manifest.json"
        manifest = json.loads(sidecar.read_text())
        manifest["scenario"]["snr_db_near"] = 99
        sidecar.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        with pytest.raises(DataFormatError, match="manifest"):
            load_dataset(path)
        sidecar.unlink()
        assert load_dataset(path)[1] is None

    def test_failed_save_keeps_previous_files(self, tmp_path):
        scenario = quick_scenario(1)
        path = tmp_path / "data.nmd"
        save_dataset(generate_dataset(scenario), path, scenario)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        mixed = generate_dataset(scenario) + generate_dataset(replace(scenario, grid_size=16))
        with pytest.raises(ValueError, match="one grid size"):
            save_dataset(mixed, path, scenario)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        load_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_dataset([], tmp_path / "x.nmd")
