"""The per-layer profile script: one row per layer instance, every result in a named layout."""

import importlib.util
from pathlib import Path

from nomadet.neuralnet import ArchConfig, ModulationNet

_SPEC = importlib.util.spec_from_file_location(
    "layer_profile", Path(__file__).resolve().parents[1] / "tools" / "layer_profile.py")
layer_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_profile)


def test_one_step_names_every_layer_once_in_a_known_layout(capsys):
    assert layer_profile.main(["--grid", "16", "--batch", "2", "--steps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# grid 16, batch 2, 1 steps")
    rows = [line.split() for line in lines[2:-1]]
    names = [name for name, _ in ModulationNet(ArchConfig(16), 0).leaf_layers()]
    assert [row[0] for row in rows] == names
    for name, forward_ms, backward_ms, *layouts in rows:
        assert float(forward_ms) >= 0 and float(backward_ms) >= 0
        assert len(layouts) == 2 and not any("other" in cell.split("/") for cell in layouts), name
    # the stem is one row: a channels-last result and no input gradient
    assert rows[0][0] == "stem" and rows[0][3:] == ["channels-last", "none"]
    assert lines[-1].split()[0] == "total"
