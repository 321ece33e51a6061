"""No public API that nothing calls.

Every public function, class and method defined under ``src/nomadet`` must
be named somewhere in the program: in a module of the package, in
``tools/`` or in ``perfbench/``, test modules excluded. A name counts when it
appears as an identifier, an attribute or an imported name; the ``def`` or
``class`` statement that defines it does not. A public name that only tests
reach is dead code: delete it, or make it private to its module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nomadet"
CALLERS = [path for folder in (PACKAGE, ROOT / "tools", ROOT / "perfbench")
           for path in sorted(folder.rglob("*.py")) if not path.name.startswith("test_")]


def named(source: str) -> set:
    """Every identifier, attribute and imported name that ``source`` uses."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def public_definitions(tree: ast.AST, prefix: str = "") -> list:
    """(dotted name, name) of each public function and class defined at the
    top of ``tree``, and of each public method of its classes."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                found.append((prefix + node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += public_definitions(node, f"{prefix}{node.name}.")
    return found


def test_the_check_sees_uses_and_not_definitions():
    source = ("from .layers import Dense as D\n"
              "class Net:\n"
              "    def forward(self): return helper(self.layer.backward)\n"
              "    def unused(self): pass\n"
              "    def _private(self): pass\n"
              "def helper(f): return f\n")
    assert public_definitions(ast.parse(source), "m.") == [
        ("m.Net", "Net"), ("m.Net.forward", "forward"), ("m.Net.unused", "unused"),
        ("m.helper", "helper")]
    assert {"Dense", "helper", "backward", "layer"} <= named(source)
    assert not {"D", "Net", "forward", "unused"} & named(source)


def test_every_public_definition_is_named_outside_the_tests():
    uses = set().union(*(named(path.read_text()) for path in CALLERS))
    unused = [dotted for path in sorted(PACKAGE.rglob("*.py"))
              for dotted, name in public_definitions(
                  ast.parse(path.read_text()), f"{path.relative_to(PACKAGE).with_suffix('')}.")
              if name not in uses]
    assert unused == []
