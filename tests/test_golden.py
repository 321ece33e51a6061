"""The golden script: comparing a run with a saved run, and hashing a checkpoint."""

import importlib.util
from pathlib import Path

import pytest

from nomadet.neuralnet import ArchConfig, ModulationNet, save_model

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def printed(numbers: dict, meta: dict, float64: list, float32: list) -> str:
    """A run's output in the script's own format."""
    lines = [golden.NUMBERS_HEADER, *(f"{k} {v}" for k, v in numbers.items()),
             golden.METADATA_HEADER, *(f"{k} {v}" for k, v in meta.items())]
    for dtype, losses in (("float64", float64), ("float32", float32)):
        lines.append(f"# loss curve, {dtype}, per step")
        lines += [f"loss.{dtype}.{step:02d} {loss!r}" for step, loss in enumerate(losses)]
    return "\n".join(lines) + "\n"


SAVED = printed({"sweep.rows": "aaaa", "train.checkpoint": "bbbb", "inspect.pgm": "cccc"},
                {"generate.header": "dddd", "src.lines": "2595"},
                [1.3862943611198906, 1.25, 0.5], [1.3862944, 1.25, 0.5])


def test_identical_runs_pass():
    report, ok = golden.compare(SAVED, SAVED)
    assert ok
    assert report == ["no number-carrying artifact changed",
                      "loss.float64 largest relative deviation 0 (limit 1e-09)",
                      "loss.float32 largest relative deviation 0 (reported only)"]


def test_changed_artifacts_listed_and_float32_only_reported():
    current = printed({"sweep.rows": "aaaa", "train.checkpoint": "eeee", "inspect.pgm": "ffff"},
                      {"generate.header": "0000", "src.lines": "2593"},  # listed last
                      [1.3862943611198906 * (1 + 2e-14), 1.25, 0.5], [1.3862944, 1.26, 0.5])
    report, ok = golden.compare(current, SAVED)
    assert ok
    assert report[:2] == ["changed train.checkpoint", "changed inspect.pgm"]
    assert report[2].startswith("loss.float64 largest relative deviation 2e-14")
    assert report[3] == "loss.float32 largest relative deviation 0.008 (reported only)"


def test_changed_metadata_listed_but_never_fails():
    current = printed({"sweep.rows": "aaaa", "train.checkpoint": "bbbb", "inspect.pgm": "cccc"},
                      {"generate.header": "0000", "generate.manifest": "1111",
                       "src.lines": "2593"},
                      [1.3862943611198906, 1.25, 0.5], [1.3862944, 1.25, 0.5])
    report, ok = golden.compare(current, SAVED)
    assert ok
    assert report == ["no number-carrying artifact changed",
                      "loss.float64 largest relative deviation 0 (limit 1e-09)",
                      "loss.float32 largest relative deviation 0 (reported only)",
                      "metadata changed generate.header",
                      "metadata changed generate.manifest",
                      "metadata changed src.lines"]


@pytest.mark.parametrize("float64, shown", [
    ([1.3862943611198906, 1.25, 0.5 * (1 + 2e-9)], "2e-09"),
    ([1.3862943611198906, 1.25], "inf"),
], ids=["deviates", "fewer_steps"])
def test_float64_deviation_beyond_limit_fails(float64, shown):
    current = printed({"sweep.rows": "aaaa", "train.checkpoint": "bbbb", "inspect.pgm": "cccc",
                       "sigsim.frames": "9999"}, {}, float64, [1.3862944, 1.25, 0.5])
    report, ok = golden.compare(current, SAVED)
    assert not ok
    assert report[0] == "changed sigsim.frames"
    assert report[1] == f"loss.float64 largest relative deviation {shown} (limit 1e-09)"


def test_a_saved_comparison_is_refused_before_anything_is_built(tmp_path, monkeypatch, capsys):
    """A saved ``--against`` run ends in its comparison report, whose loss
    lines hold more than a name and a value."""
    report, _ = golden.compare(SAVED, SAVED)
    saved = tmp_path / "against.txt"
    saved.write_text(SAVED + "# against parent.txt\n" + "\n".join(report) + "\n")

    def build(*args):
        raise AssertionError("built before the saved file was checked")

    monkeypatch.setattr(golden, "_sweep", build)
    with pytest.raises(SystemExit) as exit_:
        golden.main(["--against", str(saved)])
    assert exit_.value.code == 2
    error = capsys.readouterr().err
    line = len(SAVED.splitlines()) + 1
    assert str(saved) in error and f"line {line} " in error and "# against parent.txt" in error


@pytest.mark.parametrize("header, line", [
    ("# loss curve, float64, per step", "loss.float64.00 nan-ish"),
    (golden.NUMBERS_HEADER, "stray words here"),
    (golden.METADATA_HEADER, "src.lines"),
    (golden.NUMBERS_HEADER, "# against parent.txt"),
])
def test_parse_names_the_first_foreign_line(header, line):
    with pytest.raises(ValueError, match=f"line 2 .*{line}"):
        golden._parse(f"{header}\n{line}\n")


def test_checkpoint_config_hashes_apart_from_its_tensors(tmp_path):
    path = tmp_path / "m.nmdl"
    save_model(ModulationNet(ArchConfig(input_size=8, base_channels=2, blocks=(2,)), seed=0),
               path)
    tensors, config = golden._checkpoint(path)
    blob = path.read_bytes()
    length = int.from_bytes(blob[6:10], "little")
    # the same tensors behind a config JSON one byte longer
    path.write_bytes(blob[:6] + (length + 1).to_bytes(4, "little")
                     + blob[10:10 + length] + b" " + blob[10 + length:])
    new_tensors, new_config = golden._checkpoint(path)
    assert new_tensors == tensors and new_config != config
