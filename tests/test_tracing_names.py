"""The benchmark's tracer wraps functions by name: ``Tracer.install`` looks
up every ``TRACED`` name on its ``moricone`` module, so deleting or renaming
one of them breaks ``perfbench/run.py --trace 1``.  This keeps that failure
in the test suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    # tracing.py imports only the standard library; load it without
    # writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod, names in tracing.TRACED.items():
        owner = importlib.import_module(f"moricone.{mod}")
        for name in names:
            assert callable(getattr(owner, name, None)), f"{mod}.{name}"
