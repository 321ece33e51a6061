"""Command line round trip and exit codes."""

import json

import pytest

from nomadet import cli
from nomadet.errors import NumericError

TINY = ["--samples-per-class", "5", "--symbols", "256", "--grid", "16"]


def test_round_trip(tmp_path, capsys):
    data, model = str(tmp_path / "d.nmd"), str(tmp_path / "m.nmdl")
    assert cli.main(["generate", "--out", data, "--snr", "10", "--seed", "1", *TINY]) == 0
    assert cli.main(["train", "--dataset", data, "--out", model, "--epochs", "1"]) == 0
    assert cli.main(["eval", "--model", model, "--dataset", data]) == 0
    assert "accuracy:" in capsys.readouterr().out
    assert cli.main(["inspect", "--dataset", data, "--out", str(tmp_path / "pgm"),
                     "--limit", "3"]) == 0
    assert len(list((tmp_path / "pgm").glob("*.pgm"))) == 3

    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"train": {"max_epochs": 1, "patience": 1}}))
    sweep_dir, report_dir = tmp_path / "sweep", tmp_path / "report"
    assert cli.main(["sweep", "--out", str(sweep_dir), "--seed", "2", "--config", str(config),
                     "--methods", "resnet_denoised,projection_clustering",
                     "--snr-start", "0", "--snr-stop", "10", "--snr-step", "10", *TINY]) == 0
    assert cli.main(["report", "--results", str(sweep_dir), "--out", str(report_dir)]) == 0
    for name in ("accuracy_vs_snr.csv", "confusion_matrices.txt"):
        assert (report_dir / name).read_bytes() == (sweep_dir / name).read_bytes()


def test_bad_flag_is_a_usage_error(capsys):
    assert cli.main(["train", "--no-such-flag"]) == cli.EXIT_USAGE


def test_unknown_config_key_is_a_usage_error(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"no_such_key": 1}))
    assert cli.main(["sweep", "--out", str(tmp_path / "s"), "--seed", "0",
                     "--config", str(config)]) == cli.EXIT_USAGE


def test_missing_dataset_is_a_data_error(tmp_path):
    assert cli.main(["inspect", "--dataset", str(tmp_path / "missing.nmd"),
                     "--out", str(tmp_path / "pgm")]) == cli.EXIT_DATA


def test_report_without_journal_is_a_data_error(tmp_path):
    assert cli.main(["report", "--results", str(tmp_path)]) == cli.EXIT_DATA


def failing_inspect(tmp_path, monkeypatch, exc):
    def broken(path):
        raise exc
    monkeypatch.setattr(cli, "load_dataset", broken)
    return cli.main(["inspect", "--dataset", str(tmp_path / "d.nmd"), "--out", str(tmp_path)])


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    assert failing_inspect(tmp_path, monkeypatch, NumericError("nan")) == cli.EXIT_NUMERIC


def test_type_error_is_not_hidden(tmp_path, monkeypatch):
    with pytest.raises(TypeError, match="a bug"):
        failing_inspect(tmp_path, monkeypatch, TypeError("a bug"))
