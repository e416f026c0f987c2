"""The benchmark's tracer finds every name it wraps in the package."""

import importlib.util
import sys
from pathlib import Path

from metaembed import cli, ensemble, evaluate, oov

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_every_wrapped_name_resolves(monkeypatch):
    # A traced benchmark run does getattr(module, attr) for each WRAPS
    # entry, so a deleted name fails every traced operation.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    modules = {"cli": cli, "ensemble": ensemble, "evaluate": evaluate, "oov": oov}
    missing = [(module, attr) for module, attr, *_ in child.WRAPS
               if not hasattr(modules[module], attr)]
    assert missing == []
