"""Command line round trip and exit codes."""

import json
import re
import shutil

import pytest

from nomadet import cli
from nomadet.datapipe import split_dataset
from nomadet.errors import NumericError
from nomadet.harness import ExperimentConfig, run_sweep
from nomadet.neuralnet import ArchConfig, ModulationNet, save_model
from nomadet.sigsim import ModScheme, NomaScenario
from conftest import FOREIGN_ARCHS, write_checkpoint_header

TINY = ["--samples-per-class", "5", "--symbols", "256", "--grid", "16"]
SWEEP = ["--methods", "projection_clustering", "--snr-start", "0", "--snr-stop", "0", *TINY]


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A small dataset and a finished projection-only sweep, made once."""
    root = tmp_path_factory.mktemp("made")
    data, sweep = root / "d.nmd", root / "sweep"
    assert cli.main(["generate", "--out", str(data), "--seed", "1", *TINY]) == 0
    assert cli.main(["sweep", "--out", str(sweep), "--seed", "2", *SWEEP]) == 0
    return data, sweep


def test_round_trip(tmp_path, capsys, monkeypatch):
    data, model, history = (str(tmp_path / name) for name in ("d.nmd", "m.nmdl", "h.csv"))
    assert cli.main(["generate", "--out", data, "--snr", "10", "--seed", "1",
                     "--near-scheme", "qam16", *TINY]) == 0
    scenario = json.loads((tmp_path / "d.nmd.manifest.json").read_text())["scenario"]
    assert scenario["near_schemes"] == ["qam16"]

    splits = []  # (seed, split) of every split_dataset call, in order

    def recorded(samples, seed):
        splits.append((seed, split_dataset(samples, seed)))
        return splits[-1][1]
    monkeypatch.setattr(cli, "split_dataset", recorded)
    assert cli.main(["train", "--dataset", data, "--out", model, "--epochs", "2",
                     "--history", history]) == 0
    epochs = int(re.search(r"trained (\d+) epochs", capsys.readouterr().out)[1])
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == [str(e) for e in range(epochs)]
    assert cli.main(["eval", "--model", model, "--dataset", data]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    (train_seed, train_split), (eval_seed, eval_split) = splits
    assert train_seed == eval_seed == 0 and train_split == eval_split
    assert f"samples: {len(eval_split.test)}\n" in out
    assert cli.main(["eval", "--model", model, "--dataset", data, "--split", "all"]) == 0
    assert "samples: 20\n" in capsys.readouterr().out  # 4 classes x 5
    assert len(splits) == 2
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


def assert_train_rejects(tmp_path, capsys, flag, value, field):
    data, model = tmp_path / "d.nmd", tmp_path / "m.nmdl"
    assert cli.main(["generate", "--out", str(data), "--seed", "1", *TINY]) == 0
    assert cli.main(["train", "--dataset", str(data), "--out", str(model),
                     flag, value]) == cli.EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("flag, field", [("--epochs", "max_epochs"), ("--batch", "batch_size")])
def test_training_size_below_one_is_a_usage_error(tmp_path, capsys, flag, field):
    assert_train_rejects(tmp_path, capsys, flag, "0", field)


def test_batch_of_one_is_a_usage_error(tmp_path, capsys):
    # batch normalisation needs two samples per batch
    assert_train_rejects(tmp_path, capsys, "--batch", "1", "batch_size")


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "0", "learning_rate"),
    ("--lr", "nan", "learning_rate"),
    ("--patience", "-1", "patience"),
])
def test_bad_learning_rate_or_patience_is_a_usage_error(tmp_path, capsys, flag, value, field):
    assert_train_rejects(tmp_path, capsys, flag, value, field)


@pytest.mark.parametrize("flag, value, field", [
    ("--snr-stop", "inf", "snr_stop"),
    ("--snr-start", "-inf", "snr_start"),
    ("--snr-step", "nan", "snr_step"),
])
def test_non_finite_snr_is_a_usage_error(tmp_path, capsys, flag, value, field):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--out", str(out), "--seed", "0",
                     "--methods", "projection_clustering", f"{flag}={value}",
                     *TINY]) == cli.EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--delta", "0"], "largest power ratio"),
    (["--alpha-fpc", "2"], "alpha_fpc"),
    (["--grid", "1"], "grid_size"),
    (["--factor", "user_count", "--factor-values", "2,9"], "user_count"),
    (["--factor", "near_scheme", "--factor-values", "qpsk7"], "qpsk7"),
    (["--samples-per-class", "2"], "samples_per_class"),
    (["--symbols", "4", "--samples-per-class", "3"], "4-sample frame"),
    (["--factor-values", "2,3"], "factor_values"),
], ids=["delta", "alpha_fpc", "grid", "user_count", "near_scheme", "too_few_to_split",
        "frame_too_short_to_denoise", "factor_values_without_factor"])
def test_sweep_that_cannot_run_is_rejected_before_out_exists(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--out", str(out), "--seed", "0",
                     "--methods", "projection_clustering", *TINY, *flags]) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_negative_inspect_limit_is_a_usage_error(tmp_path, capsys):
    data, out = tmp_path / "d.nmd", tmp_path / "pgm"
    assert cli.main(["generate", "--out", str(data), "--seed", "1", *TINY]) == 0
    assert cli.main(["inspect", "--dataset", str(data), "--out", str(out),
                     "--limit", "-1"]) == cli.EXIT_USAGE
    assert "--limit" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_is_a_usage_error(capsys):
    assert cli.main(["train", "--no-such-flag"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_seed_is_refused(tmp_path, capsys, made, command):
    """train and eval split with one fixed seed, so that eval's test split
    never holds a row the model trained on."""
    model = tmp_path / "m.nmdl"
    argv = {"train": ["--dataset", str(made[0]), "--out", str(model)],
            "eval": ["--model", str(model), "--dataset", str(made[0])]}[command]
    assert cli.main([command, *argv, "--split-seed", "1"]) == cli.EXIT_USAGE
    assert "--split-seed" in capsys.readouterr().err
    assert not model.exists()


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    # a key that never existed, and one that older versions accepted
    for key, blob in (("no_such_key", {"no_such_key": 1}),
                      ("ratios", {"scenario": {"ratios": [0.2, 0.8]}})):
        config.write_text(json.dumps(blob))
        for argv in (["sweep", "--out", str(tmp_path / "s"), "--seed", "0"],
                     ["generate", "--out", str(tmp_path / "d.nmd")]):
            assert cli.main([*argv, "--config", str(config)]) == cli.EXIT_USAGE
            assert key in capsys.readouterr().err


def with_fading(blob: dict) -> dict:
    """A config blob as it was written while scenarios had a ``fading`` field."""
    return {**blob, "scenario": {**blob["scenario"], "fading": "rayleigh"}}


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_fading_flag_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--seed", "0", "--fading", "none",
                     *TINY]) == cli.EXIT_USAGE
    assert "--fading" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_with_fading_is_a_usage_error(tmp_path, capsys, made):
    out = tmp_path / "sweep"
    shutil.copytree(made[1], out)
    config = out / "sweep_config.json"
    config.write_text(json.dumps(with_fading(json.loads(config.read_text())),
                                 sort_keys=True, indent=2))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == cli.EXIT_USAGE
    assert "fading" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_manifest_with_fading_is_a_usage_error(tmp_path, capsys, made):
    manifest = tmp_path / "old.nmd.manifest.json"
    blob = json.loads((made[0].parent / (made[0].name + ".manifest.json")).read_text())
    manifest.write_text(json.dumps(with_fading(blob), sort_keys=True, indent=2))
    out = tmp_path / "new.nmd"
    assert cli.main(["generate", "--config", str(manifest), "--out", str(out)]) == cli.EXIT_USAGE
    assert "fading" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_a_journal_with_fading_is_a_data_error(tmp_path, capsys, made):
    # the journal and config the same sweep wrote while scenarios had a fading field
    out = tmp_path / "sweep"
    shutil.copytree(made[1], out)
    journal, config = out / "results.jsonl", out / "sweep_config.json"
    first, rows = journal.read_text().split("\n", 1)
    digest = with_fading(json.loads(json.loads(first)["config_digest"]))
    journal.write_text(json.dumps({"config_digest": json.dumps(digest, sort_keys=True)})
                       + "\n" + rows)
    config.write_text(json.dumps(digest, sort_keys=True, indent=2))
    before = journal.read_bytes(), config.read_bytes()
    capsys.readouterr()
    assert cli.main(["sweep", "--out", str(out), "--seed", "2", *SWEEP]) == cli.EXIT_DATA
    assert "another sweep config" in capsys.readouterr().err
    assert (journal.read_bytes(), config.read_bytes()) == before


@pytest.mark.parametrize("argv, blob", [
    (["generate"], {"scenario": {"near_schemes": ["qpsk7"]}}),
    (["generate"], {"scenario": {"samples_per_class": 10.5}}),
    (["sweep", "--seed", "0"], {"train": {"max_epochs": 0}}),
    (["sweep", "--seed", "0"], {"train": {"batch_size": 1}}),
])
def test_rejected_config_value_names_the_file(tmp_path, capsys, argv, blob):
    config, out = tmp_path / "bad.json", tmp_path / "out"
    config.write_text(json.dumps(blob))
    assert cli.main([*argv, "--out", str(out), "--config", str(config)]) == cli.EXIT_USAGE
    assert f"bad config in {config}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, blob", [
    ("methods", {"methods": []}),
    ("methods", {"methods": ["projection_clustering", "projection_clustering"]}),
    ("factor_values", {"methods": ["projection_clustering"], "factor_name": "user_count",
                       "factor_values": [2, 2]}),
], ids=["no_method", "repeated_method", "repeated_factor_value"])
def test_sweep_config_asking_for_nothing_or_twice_is_rejected(tmp_path, capsys, field, blob):
    config, out = tmp_path / "sweep.json", tmp_path / "out"
    config.write_text(json.dumps(blob))
    assert cli.main(["sweep", "--out", str(out), "--seed", "0", "--config", str(config),
                     "--snr-start", "0", "--snr-stop", "0", *TINY]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"bad config in {config}" in err and field in err
    assert not out.exists()


def test_partial_scenario_section_keeps_the_defaults(tmp_path):
    config, data = tmp_path / "config.json", tmp_path / "d.nmd"
    config.write_text(json.dumps({"scenario": {"delta_db": 3}}))
    assert cli.main(["generate", "--out", str(data), "--config", str(config), *TINY]) == 0
    scenario = json.loads((tmp_path / "d.nmd.manifest.json").read_text())["scenario"]
    assert scenario["delta_db"] == 3
    assert scenario["near_schemes"] == ["qpsk"]  # NomaScenario's default


def test_generate_has_one_default_near_user(tmp_path):
    config, data = tmp_path / "config.json", tmp_path / "d.nmd"
    config.write_text(json.dumps({"scenario": {}}))
    manifests = []
    for extra in ([], ["--config", str(config)]):
        assert cli.main(["generate", "--out", str(data), *extra, *TINY]) == 0
        manifests.append((tmp_path / "d.nmd.manifest.json").read_text())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["scenario"]["near_schemes"] == ["qpsk"]


def test_configless_sweep_has_a_qpsk_near_user():
    # `nomadet sweep` without --config or --preset runs ExperimentConfig();
    # its near user moved from QAM16 to QPSK with the scenario default
    assert ExperimentConfig().scenario.near_schemes == (ModScheme.QPSK,)


def test_preset_and_config_together_are_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"max_epochs": 1}}))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--out", str(out), "--seed", "0", "--preset", "desk",
                     "--config", str(config)]) == cli.EXIT_USAGE
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_written_sweep_config_resumes_its_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--out", str(out), "--seed", "2"]
    assert cli.main([*argv, "--methods", "projection_clustering", "--pooled",
                     "--snr-start", "0", "--snr-stop", "10", "--snr-step", "10",
                     "--factor", "user_count", "--factor-values", "2,3", "--delta", "5",
                     *TINY]) == 0
    assert capsys.readouterr().out.count("[sweep]") == 4
    journal = (out / "results.jsonl").read_bytes()
    assert cli.main([*argv, "--config", str(out / "sweep_config.json")]) == 0
    assert "[sweep]" not in capsys.readouterr().out
    assert (out / "results.jsonl").read_bytes() == journal


def test_near_scheme_sweep_started_from_python_resumes_from_its_config(tmp_path, capsys):
    """Its rows carry the labels that its sweep_config.json reads back."""
    out = tmp_path / "sweep"
    run_sweep(ExperimentConfig(
        scenario=NomaScenario(samples_per_class=5, symbols_per_frame=256, grid_size=16),
        snr_start=0.0, snr_stop=0.0, factor_name="near_scheme",
        factor_values=(ModScheme.QPSK, ModScheme.QAM16), methods=("projection_clustering",),
        seed=2), out)
    journal = (out / "results.jsonl").read_bytes()
    assert cli.main(["sweep", "--out", str(out), "--config", str(out / "sweep_config.json")]) == 0
    assert "[sweep]" not in capsys.readouterr().out
    assert (out / "results.jsonl").read_bytes() == journal
    rows = (out / "accuracy_vs_snr.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["qam16", "qpsk"]


def test_sweep_config_alone_reruns_its_sweep(tmp_path, capsys, made):
    out = tmp_path / "sweep"
    shutil.copytree(made[1], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    # no --seed: the seed comes from the config
    assert cli.main(["sweep", "--config", str(out / "sweep_config.json"), "--out", str(out)]) == 0
    assert "[sweep]" not in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_interrupted_sweep_resumes_from_its_config_alone(tmp_path, capsys, monkeypatch):
    argv = ["--seed", "2", "--methods", "projection_clustering",
            "--snr-start", "0", "--snr-stop", "10", "--snr-step", "10", *TINY]
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    assert cli.main(["sweep", "--out", str(whole), *argv]) == 0
    inner = cli.run_sweep

    def stopped_after_one_row(cfg, out_dir, progress):
        def interrupt(row):
            progress(row)
            raise KeyboardInterrupt
        return inner(cfg, out_dir, progress=interrupt)
    monkeypatch.setattr(cli, "run_sweep", stopped_after_one_row)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "--out", str(cut), *argv])
    monkeypatch.undo()
    assert len((cut / "results.jsonl").read_text().splitlines()) == 2  # digest and one row
    config = cut / "sweep_config.json"
    assert config.read_bytes() == (whole / "sweep_config.json").read_bytes()
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(config), "--out", str(cut)]) == 0
    assert capsys.readouterr().out.count("[sweep]") == 1
    assert (cut / "results.jsonl").read_bytes() == (whole / "results.jsonl").read_bytes()


def test_sweep_without_config_needs_a_seed(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--out", str(out), *SWEEP]) == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_snr_of_minus_inf_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "d.nmd"
    assert cli.main(["generate", "--out", str(data), "--snr=-inf", *TINY]) == cli.EXIT_USAGE
    assert "snr_db_near" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "train", "eval", "sweep", "inspect", "report"])
def test_unusable_output_path_is_a_data_error(tmp_path, capsys, made, command):
    data, sweep = made
    folder, file = tmp_path / "folder", tmp_path / "file"
    folder.mkdir()
    file.write_bytes(b"")
    argv = {"generate": ["--out", str(folder), *TINY],
            "train": ["--dataset", str(data), "--out", str(folder), "--epochs", "1"],
            "eval": ["--model", str(folder), "--dataset", str(data)],
            "sweep": ["--out", str(file), "--seed", "0", *SWEEP],
            "inspect": ["--dataset", str(data), "--out", str(file)],
            "report": ["--results", str(sweep), "--out", str(file)]}[command]
    assert cli.main([command, *argv]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_damaged_dataset_label_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "d.nmd"
    assert cli.main(["generate", "--out", str(data), "--seed", "1", *TINY]) == 0
    blob = bytearray(data.read_bytes())
    blob[44] = 9  # the first record's label byte
    data.write_bytes(bytes(blob))
    assert cli.main(["inspect", "--dataset", str(data), "--out", str(tmp_path / "pgm")]) \
        == cli.EXIT_DATA
    assert "d.nmd: record 0 has label 9" in capsys.readouterr().err


@pytest.mark.parametrize("config", FOREIGN_ARCHS)
def test_foreign_checkpoint_config_is_a_data_error(tmp_path, capsys, config):
    model = tmp_path / "m.nmdl"
    write_checkpoint_header(model, config)
    assert cli.main(["eval", "--model", str(model), "--dataset", "unused.nmd"]) == cli.EXIT_DATA
    assert "m.nmdl" in capsys.readouterr().err


def test_eval_grid_mismatch_is_a_data_error(tmp_path, capsys):
    data, model = tmp_path / "d16.nmd", tmp_path / "m24.nmdl"
    assert cli.main(["generate", "--out", str(data), "--seed", "1", *TINY]) == 0
    save_model(ModulationNet(ArchConfig(input_size=24), seed=0), model)
    assert cli.main(["eval", "--model", str(model), "--dataset", str(data)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "16x16" in err and "24x24" in err
    assert "d16.nmd" in err and "m24.nmdl" in err


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
