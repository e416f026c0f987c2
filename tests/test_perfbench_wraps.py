"""The benchmark finds every name it wraps in the package, and the CLI
takes every command line it runs."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_every_benchmark_command_parses(monkeypatch, tmp_path):
    # Each benchmark operation runs run.commands()'s argvs through the CLI,
    # so a flag the CLI stops taking fails every operation of a workload.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(CHILD.parent))  # run.py imports checks, gen and layers
    added = [name for name in ("checks", "gen", "layers", "perfbench_run") if name not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", CHILD.with_name("run.py"))
        run = sys.modules["perfbench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        inputs = SimpleNamespace(
            set_names=["s1", "s2"], set_paths=[tmp_path / "s1.txt", tmp_path / "s2.txt"],
            similarity_paths=[tmp_path / "ws353.txt"], analogy_path=tmp_path / "analogy.txt",
        )
        parser = cli.build_parser()
        for w in run.WORKLOADS:
            for dim, epochs in ((run.DIM, w.epochs), (run.TINY_DIM, run.TINY_EPOCHS)):  # full, --tiny
                for argv in run.commands(w, inputs, tmp_path, dim, epochs, seed=1):
                    parser.parse_args(argv)
    finally:
        for name in added:
            sys.modules.pop(name, None)
