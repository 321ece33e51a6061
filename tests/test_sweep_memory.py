"""The sweep memory script: one cell line and one train_model line, each held <= peak."""

import importlib.util
import re
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sweep_memory", Path(__file__).resolve().parents[1] / "tools" / "sweep_memory.py")
sweep_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_memory)

_MIB = r"([0-9.]+) MiB"


def test_small_pooled_group_prints_a_cell_and_a_train_model_line(capsys):
    assert sweep_memory.main(["--preset", "desk", "--grid", "16", "--samples", "5",
                              "--symbols", "256", "--pool", "2"]) == 0
    header, cell, trained = capsys.readouterr().out.splitlines()
    assert header.startswith("# desk: 5 per class, 256 symbols, grid 16; methods ")
    held, peak = map(float, re.fullmatch(f"cell 10 dB: held {_MIB}, peak {_MIB}", cell).groups())
    assert 0 < held <= peak
    match = re.fullmatch(f"train_model resnet_denoised, 2 cell\\(s\\): held {_MIB}, peak {_MIB} "
                         f"\\(matrices {_MIB}, diagrams {_MIB}\\)", trained)
    held, peak, matrices, diagrams = map(float, match.groups())
    assert 0 < held <= peak and matrices <= diagrams


def test_predictor_only_cell_prints_no_train_model_line(capsys):
    assert sweep_memory.main(["--grid", "16", "--samples", "5", "--symbols", "256",
                              "--methods", "projection_clustering"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("cell 10 dB: held ")
