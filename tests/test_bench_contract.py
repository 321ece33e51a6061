"""The benchmark's tracer (perfbench/spans.py) finds every name it patches.

The tracer wraps pipeline stages on the modules and classes where their
callers look them up, so deleting or renaming one of those names breaks
only traced benchmark runs; this test makes it break tier-1 instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.unpatch()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr}"
