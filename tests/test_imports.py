"""Each module of the package keeps its underscore names to itself.

A leading underscore marks a name as its module's own decision, such as the
chunk size that only ``datapipe`` may know. A module that imported another
module's underscore name would have to know that decision too, so every
module under ``src/nomadet`` is read and refused if it does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nomadet"
MODULES = sorted(PACKAGE.rglob("*.py"))


def private_imports(source: str) -> list:
    """(line, name) of each underscore name that ``source``, a module of the
    package, takes from another of its modules: by ``from ... import``, or
    as an attribute of a name it imported from the package."""
    tree = ast.parse(source)
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "nomadet"):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names
                            if a.name.split(".")[0] == "nomadet")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_the_check_finds_both_forms_and_passes_public_names():
    source = ("from __future__ import annotations\n"
              "from .wavelet import _CHUNK_BYTES, denoise_frames\n"
              "from nomadet import sigsim, __version__\n"
              "import numpy as np\n"
              "x = sigsim._AXES, sigsim.ModScheme, np._NoValue, self_._cache\n")
    assert private_imports(source) == [(2, "_CHUNK_BYTES"), (5, "sigsim._AXES")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_another_modules_underscore_name(path):
    assert private_imports(path.read_text()) == []
